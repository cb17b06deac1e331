//! Runtime-dispatched compute kernels for MARIOH's per-round hot paths.
//!
//! Every kernel here exists in (at least) two implementations:
//!
//! * a **scalar reference** ([`scalar`]) — the simplest correct loop,
//!   kept verbatim as the semantic ground truth and as the baseline the
//!   benches compare against;
//! * a **dispatched fast path** — the free functions at the crate root,
//!   which select an implementation once per process from the CPU's
//!   capabilities ([`Level::Avx2`] via `is_x86_feature_detected!`) with
//!   a branchless + galloping portable fallback ([`Level::Portable`])
//!   everywhere else.
//!
//! Selection happens on the first kernel call and is cached in an
//! atomic; setting `MARIOH_NO_SIMD=1` in the environment forces
//! [`Level::Portable`] (no `unsafe`, no vector instructions), and
//! [`override_level`] re-points the dispatch at runtime (the benches use
//! it to time the same process both ways).
//!
//! # Bit-identity contract
//!
//! Every fast path is **bit-identical** to its scalar reference, for all
//! inputs — not approximately equal, identical. The parity suite
//! (`tests/parity.rs`) and the callers' engine/round-parity suites
//! assert it. Two rules make that hold:
//!
//! * **Integer kernels** ([`intersect_min_sum`], [`intersect_count`],
//!   [`intersect_into`], [`find_positions`]) accumulate in `u64`/`usize`
//!   — addition is associative, so galloping, block-skipping and
//!   vectorization are free to reorder the traversal.
//! * **Float kernels** ([`matmul`]) must keep each output's
//!   accumulation **strictly sequential in inner-index order**: output
//!   `(r, c)` computes `(((0 + x_{r0}·m_{0c}) + x_{r1}·m_{1c}) + …)`,
//!   exactly the scalar fold. Vectorization is only allowed *across*
//!   independent outputs (columns, and rows by register blocking), never
//!   across the terms of one sum, and fused multiply-add is forbidden
//!   (FMA rounds once where `mul`+`add` rounds twice, which would change
//!   the bits). The MLP's forward pass, weight gradient and
//!   backpropagation are all this one product, which is what makes its
//!   batched trainer bit-identical to a per-sample loop. Any new float
//!   kernel added to this crate must obey the same contract.
//!
//! The crate also hosts the process's CPU-affinity primitive
//! ([`pin_to_core`]): a raw `sched_setaffinity` syscall on
//! linux-x86_64, a graceful no-op everywhere else. It lives here
//! because this is the one crate that is allowed to know what an ISA
//! is.

#![warn(missing_docs)]

mod affinity;
mod portable;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use affinity::{available_cores, pin_to_core};

use std::sync::atomic::{AtomicU8, Ordering};

/// A dispatch level: which implementation family the free functions at
/// the crate root route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The scalar reference loops — never auto-selected; reachable only
    /// through [`override_level`] (the benches' in-process baseline).
    Scalar,
    /// Branchless two-pointer + galloping, no `unsafe`. Auto-selected
    /// when SIMD is unavailable or `MARIOH_NO_SIMD=1` is set.
    Portable,
    /// AVX2 (256-bit) vector paths.
    Avx2,
}

impl Level {
    /// A short stable name (`"avx2"`, `"portable"`, `"scalar"`), for
    /// logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Portable => "portable",
            Level::Avx2 => "avx2",
        }
    }
}

const LEVEL_UNINIT: u8 = 0;
const LEVEL_SCALAR: u8 = 1;
const LEVEL_PORTABLE: u8 = 2;
const LEVEL_AVX2: u8 = 3;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

fn detect() -> Level {
    if std::env::var("MARIOH_NO_SIMD").as_deref() == Ok("1") {
        return Level::Portable;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
    }
    Level::Portable
}

fn encode(level: Level) -> u8 {
    match level {
        Level::Scalar => LEVEL_SCALAR,
        Level::Portable => LEVEL_PORTABLE,
        Level::Avx2 => LEVEL_AVX2,
    }
}

/// The active dispatch level, detecting (and caching) it on first use.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_SCALAR => Level::Scalar,
        LEVEL_PORTABLE => Level::Portable,
        LEVEL_AVX2 => Level::Avx2,
        _ => {
            let detected = detect();
            // A concurrent first call detects the same thing; last
            // store wins harmlessly.
            LEVEL.store(encode(detected), Ordering::Relaxed);
            detected
        }
    }
}

/// Re-points the dispatch at `new_level`, process-wide, overriding both
/// detection and `MARIOH_NO_SIMD`. Selecting [`Level::Avx2`] on a CPU
/// without AVX2 is the caller's responsibility (the benches only ever
/// *lower* the level).
pub fn override_level(new_level: Level) {
    LEVEL.store(encode(new_level), Ordering::Relaxed);
}

/// The active level's short name — convenience for logs and benches.
pub fn active() -> &'static str {
    level().name()
}

// ---------------------------------------------------------------------
// Sorted-set intersection kernels.
//
// All of them take strictly-increasing u32 slices. Weight slices run
// parallel to their neighbour slices. Sums are u64 so the traversal
// order is free (bit-identity by associativity).
// ---------------------------------------------------------------------

/// When one side is at least this many times longer than the other, the
/// merge gallops (exponential-probe binary search) through the long
/// side instead of scanning it.
pub(crate) const GALLOP_RATIO: usize = 32;

/// `Σ min(wa[i], wb[j])` over all positions with `a[i] == b[j]` — the
/// MHH inner sum (Lemma 1's upper bound) for two CSR rows.
pub fn intersect_min_sum(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    debug_assert_eq!(a.len(), wa.len());
    debug_assert_eq!(b.len(), wb.len());
    match level() {
        Level::Scalar => scalar::intersect_min_sum(a, wa, b, wb),
        Level::Portable => portable::intersect_min_sum(a, wa, b, wb),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns this after feature detection.
        Level::Avx2 => unsafe { x86::intersect_min_sum_avx2(a, wa, b, wb) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => portable::intersect_min_sum(a, wa, b, wb),
    }
}

/// `|a ∩ b|` for two sorted slices — common-neighbour counting and the
/// Bron–Kerbosch pivot score.
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    match level() {
        Level::Scalar => scalar::intersect_count(a, b),
        Level::Portable => portable::intersect_count(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns this after feature detection.
        Level::Avx2 => unsafe { x86::intersect_count_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => portable::intersect_count(a, b),
    }
}

/// Appends `a ∩ b` (sorted) to `out` — the Bron–Kerbosch candidate-set
/// refinement. Integer and order-preserving, so every level produces
/// identical output; the fast levels share the galloping merge.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    match level() {
        Level::Scalar => scalar::intersect_into(a, b, out),
        _ => portable::intersect_into(a, b, out),
    }
}

/// For each `needles[i]` (sorted, and guaranteed present), appends its
/// index within `haystack` to `out` — one merge instead of a binary
/// search per needle. Backs the multiplicity-feature slot lookup, where
/// the needles are a clique's co-members inside one CSR row.
///
/// # Panics
///
/// Debug builds assert every needle is found; release builds skip
/// missing needles (the caller's clique contract makes that unreachable).
pub fn find_positions(needles: &[u32], haystack: &[u32], out: &mut Vec<u32>) {
    match level() {
        Level::Scalar => scalar::find_positions(needles, haystack, out),
        _ => portable::find_positions(needles, haystack, out),
    }
}

// ---------------------------------------------------------------------
// Dense matrix product.
// ---------------------------------------------------------------------

/// Row-major matrix product `out = x · m`, with `x` of shape
/// `n_rows × n_inner`, `m` of shape `n_inner × n_cols` and `out` of
/// shape `n_rows × n_cols` (overwritten):
/// `out[r][c] = Σ_i x[r][i]·m[i][c]`, each sum folded strictly in `i`
/// order from `0.0` (the sequential-accumulation contract — see the
/// crate docs). The AVX2 level vectorizes across columns with separate
/// `mul` and `add` (no FMA) and blocks rows and columns in registers, so
/// every output matches the scalar fold bit for bit. [`Level::Portable`]
/// runs the scalar reference.
///
/// # Panics
///
/// Panics unless the three slice lengths match the shape.
pub fn matmul(x: &[f64], m: &[f64], out: &mut [f64], n_rows: usize, n_inner: usize, n_cols: usize) {
    assert_eq!(x.len(), n_rows * n_inner, "matmul: x shape mismatch");
    assert_eq!(m.len(), n_inner * n_cols, "matmul: m shape mismatch");
    assert_eq!(out.len(), n_rows * n_cols, "matmul: out shape mismatch");
    match level() {
        Level::Scalar | Level::Portable => scalar::matmul(x, m, out, n_rows, n_inner, n_cols),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only returns this after feature detection,
        // and the lengths were checked above.
        Level::Avx2 => unsafe { x86::matmul_avx2(x, m, out, n_rows, n_inner, n_cols) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => scalar::matmul(x, m, out, n_rows, n_inner, n_cols),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: `override_level` is process-global, so
    // asserting detection and override behaviour from parallel tests
    // would race.
    #[test]
    fn detection_caches_and_override_round_trips() {
        let first = level();
        assert_ne!(first, Level::Scalar, "scalar is override-only");
        assert_eq!(level(), first, "cached level is stable");
        assert_eq!(active(), first.name());
        for l in [Level::Scalar, Level::Portable, first] {
            override_level(l);
            assert_eq!(level(), l);
            assert_eq!(active(), l.name());
        }
    }

    #[test]
    fn level_names_are_stable() {
        assert_eq!(Level::Avx2.name(), "avx2");
        assert_eq!(Level::Portable.name(), "portable");
        assert_eq!(Level::Scalar.name(), "scalar");
    }
}
