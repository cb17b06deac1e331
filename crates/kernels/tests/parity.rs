//! Property tests: every dispatched kernel is **bit-identical** to its
//! scalar reference — for random CSR-shaped rows, skewed lengths,
//! hole-compacted (short, arbitrary-prefix) rows, values at the top of
//! the u32 domain (the unsigned-compare bias trick), and matrix
//! products of every panel, tile and tail shape up to 9 × 70 · 70 × 70.
//!
//! Each case checks the ambient dispatch level (CI runs this suite
//! twice: once with detection on, once under `MARIOH_NO_SIMD=1`) *and*
//! every level the CPU supports, forced via `override_level` under a
//! process-global lock.

use marioh_kernels as kernels;
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::ops::RangeInclusive;
use std::sync::Mutex;

/// `override_level` is process-global; forced-level tests serialize on
/// this (racing overrides could only swap between parity-correct
/// levels, but deterministic tests beat accidentally-correct ones).
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Every level this CPU can actually run, plus the ambient one.
fn forced_levels() -> Vec<kernels::Level> {
    let mut levels = vec![kernels::Level::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(kernels::Level::Avx2);
        }
    }
    levels
}

/// Runs `check` under every supported level, restoring the previous
/// level afterwards.
fn at_every_level(check: impl Fn()) {
    check(); // ambient level first (MARIOH_NO_SIMD is honoured here)
    let _guard = LEVEL_LOCK.lock().expect("level lock");
    let prev = kernels::level();
    for level in forced_levels() {
        kernels::override_level(level);
        check();
    }
    kernels::override_level(prev);
}

/// A sorted, strictly-increasing neighbour row with parallel weights,
/// drawn from `domain` (narrow domains force dense intersections).
fn weighted_row(
    domain: RangeInclusive<u32>,
    max_len: usize,
) -> BoxedStrategy<(Vec<u32>, Vec<u32>)> {
    collection::vec((domain, 1u32..=u32::MAX), 0..max_len + 1)
        .prop_map(|mut pairs| {
            pairs.sort_unstable_by_key(|p| p.0);
            pairs.dedup_by_key(|p| p.0);
            pairs.into_iter().unzip()
        })
        .boxed()
}

/// Row pairs across the length regimes the dispatcher switches on:
/// similar lengths (branchless), moderate skew (SIMD cursor advance),
/// extreme skew (galloping), and top-of-u32 values.
#[allow(clippy::type_complexity)]
fn row_pair() -> BoxedStrategy<((Vec<u32>, Vec<u32>), (Vec<u32>, Vec<u32>))> {
    let top = u32::MAX - 400;
    prop_oneof![
        (weighted_row(0..=300, 200), weighted_row(0..=300, 200)),
        (weighted_row(0..=900, 12), weighted_row(0..=900, 700)),
        (weighted_row(0..=2000, 6), weighted_row(0..=2000, 1500)),
        (
            weighted_row(top..=u32::MAX, 64),
            weighted_row(top..=u32::MAX, 300)
        ),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn intersect_min_sum_matches_scalar(rows in row_pair()) {
        let ((a, wa), (b, wb)) = rows;
        let want = kernels::scalar::intersect_min_sum(&a, &wa, &b, &wb);
        at_every_level(|| {
            assert_eq!(
                kernels::intersect_min_sum(&a, &wa, &b, &wb),
                want,
                "min_sum diverged at level {}",
                kernels::active()
            );
        });
    }

    #[test]
    fn intersect_count_matches_scalar(rows in row_pair()) {
        let ((a, _), (b, _)) = rows;
        let want = kernels::scalar::intersect_count(&a, &b);
        at_every_level(|| {
            assert_eq!(
                kernels::intersect_count(&a, &b),
                want,
                "count diverged at level {}",
                kernels::active()
            );
        });
    }

    #[test]
    fn intersect_into_matches_scalar(rows in row_pair()) {
        let ((a, _), (b, _)) = rows;
        let mut want = Vec::new();
        kernels::scalar::intersect_into(&a, &b, &mut want);
        at_every_level(|| {
            let mut got = Vec::new();
            kernels::intersect_into(&a, &b, &mut got);
            assert_eq!(got, want, "intersect_into diverged at level {}", kernels::active());
        });
    }

    #[test]
    fn find_positions_matches_scalar(
        entries in collection::vec((0u32..=5000, 0u8..2), 1..400),
    ) {
        // The haystack is every generated value; the needles are the
        // flagged subset — sorted, unique, and all present, exactly the
        // clique-row contract.
        let mut entries = entries;
        entries.sort_unstable_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        let haystack: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let needles: Vec<u32> = entries.iter().filter(|e| e.1 == 1).map(|e| e.0).collect();
        let mut want = Vec::new();
        kernels::scalar::find_positions(&needles, &haystack, &mut want);
        at_every_level(|| {
            let mut got = Vec::new();
            kernels::find_positions(&needles, &haystack, &mut got);
            assert_eq!(got, want, "find_positions diverged at level {}", kernels::active());
        });
    }

    #[test]
    fn matmul_matches_scalar_across_shapes(
        dims in (0usize..=9, 0usize..=70, 0usize..=70),
        seed in 0u64..1_000_000,
    ) {
        // Rows cover the 4-row panels and the single-row remainder;
        // columns cover the 8- and 16-wide tiles, single vectors and
        // every scalar tail length. Sized buffers follow the shape, so
        // fill them from a seeded RNG instead of a dependent strategy.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n_rows, n_inner, n_cols) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| match rng.gen_range(0..10) {
                    // Exact zeros and negative zeros, as ReLU masks and
                    // zero deltas produce them.
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect()
        };
        let x = draw(n_rows * n_inner);
        let m = draw(n_inner * n_cols);
        let mut want = vec![f64::NAN; n_rows * n_cols];
        kernels::scalar::matmul(&x, &m, &mut want, n_rows, n_inner, n_cols);
        at_every_level(|| {
            let mut got = vec![f64::NAN; n_rows * n_cols];
            kernels::matmul(&x, &m, &mut got, n_rows, n_inner, n_cols);
            let identical = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(
                identical,
                "matmul not bit-identical at level {} ({n_rows}×{n_inner}·{n_inner}×{n_cols})",
                kernels::active()
            );
        });
    }
}

#[test]
fn empty_and_degenerate_inputs() {
    let empty: [u32; 0] = [];
    let row = [1u32, 5, 9];
    let w = [2u32, 3, 4];
    at_every_level(|| {
        assert_eq!(kernels::intersect_min_sum(&empty, &empty, &row, &w), 0);
        assert_eq!(kernels::intersect_min_sum(&row, &w, &empty, &empty), 0);
        assert_eq!(kernels::intersect_count(&empty, &row), 0);
        let mut out = Vec::new();
        kernels::intersect_into(&row, &empty, &mut out);
        assert!(out.is_empty());
        kernels::find_positions(&empty, &row, &mut out);
        assert!(out.is_empty());
        // An empty inner dimension still overwrites every output with
        // the empty sum.
        let mut prod = vec![42.0; 6];
        kernels::matmul(&[], &[], &mut prod, 2, 0, 3);
        assert!(prod.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    });
}
