//! x86_64 vector paths (AVX2), selected at runtime by
//! [`crate::level`] after `is_x86_feature_detected!` — every function
//! here is `unsafe` precisely because the caller vouches for the
//! feature bits.
//!
//! The intersection kernels iterate the shorter slice and advance a
//! cursor through the longer one a whole vector register at a time
//! (unsigned compare via the sign-bit flip, then a movemask popcount of
//! the `< needle` prefix). Length regimes hand off to the portable
//! module where vectors cannot win: near-equal lengths use its
//! branchless two-pointer, extreme skew its galloping search. Sums stay
//! `u64`, so all of this reorders freely under bit-identity.
//!
//! [`matmul_avx2`] vectorizes across output columns only, with
//! separate `mul` and `add` — **never FMA** — keeping every output's
//! rounding identical to the scalar fold (the crate-level
//! sequential-accumulation contract). Register blocking runs several
//! rows and column vectors at once, so independent sums overlap their
//! add latency instead of waiting on one serial chain.

use crate::portable;
use crate::GALLOP_RATIO;
use std::arch::x86_64::*;

/// Below this length ratio the branchless two-pointer wins (a vector
/// probe that advances the cursor by ~1 lane wastes its width).
const SIMD_ADVANCE_RATIO: usize = 4;

/// `Σ min(wa, wb)` over the intersection, AVX2 cursor advance.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn intersect_min_sum_avx2(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    if a.len() > b.len() {
        return intersect_min_sum_avx2(b, wb, a, wa);
    }
    if a.is_empty() {
        return 0;
    }
    let ratio = b.len() / a.len();
    if !(SIMD_ADVANCE_RATIO..GALLOP_RATIO).contains(&ratio) || b.len() < 8 {
        return portable::intersect_min_sum(a, wa, b, wb);
    }
    let bias = _mm256_set1_epi32(i32::MIN);
    let mut total = 0u64;
    let mut j = 0usize;
    for (i, &x) in a.iter().enumerate() {
        // Skip b-elements < x, 8 lanes per compare. The xor flips the
        // sign bit so the signed epi32 compare orders u32 correctly;
        // b is ascending, so the `< x` lanes are a prefix of the mask.
        let needle = _mm256_xor_si256(_mm256_set1_epi32(x as i32), bias);
        while j + 8 <= b.len() {
            let block = _mm256_xor_si256(_mm256_loadu_si256(b.as_ptr().add(j).cast()), bias);
            let lt = _mm256_cmpgt_epi32(needle, block);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
            if mask == 0xFF {
                j += 8;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() {
            break;
        }
        if b[j] == x {
            total += u64::from(wa[i].min(wb[j]));
            j += 1;
        }
    }
    total
}

/// `|a ∩ b|`, AVX2 cursor advance.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn intersect_count_avx2(a: &[u32], b: &[u32]) -> usize {
    if a.len() > b.len() {
        return intersect_count_avx2(b, a);
    }
    if a.is_empty() {
        return 0;
    }
    let ratio = b.len() / a.len();
    if !(SIMD_ADVANCE_RATIO..GALLOP_RATIO).contains(&ratio) || b.len() < 8 {
        return portable::intersect_count(a, b);
    }
    let bias = _mm256_set1_epi32(i32::MIN);
    let mut count = 0usize;
    let mut j = 0usize;
    for &x in a {
        let needle = _mm256_xor_si256(_mm256_set1_epi32(x as i32), bias);
        while j + 8 <= b.len() {
            let block = _mm256_xor_si256(_mm256_loadu_si256(b.as_ptr().add(j).cast()), bias);
            let lt = _mm256_cmpgt_epi32(needle, block);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32;
            if mask == 0xFF {
                j += 8;
            } else {
                j += mask.trailing_ones() as usize;
                break;
            }
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() {
            break;
        }
        if b[j] == x {
            count += 1;
            j += 1;
        }
    }
    count
}

/// Row-major `out = x · m`, each output summed in strict `i` order.
/// Rows go in panels of 4 (12 columns, 12 accumulators per step), the
/// remaining rows one at a time (16 columns, 4 accumulators); the last
/// `n_cols % 4` columns run as one vector with the unused lanes masked
/// off.
///
/// # Safety
///
/// The CPU must support AVX2, and `x`, `m`, `out` must hold
/// `n_rows·n_inner`, `n_inner·n_cols` and `n_rows·n_cols` values.
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_avx2(
    x: &[f64],
    m: &[f64],
    out: &mut [f64],
    n_rows: usize,
    n_inner: usize,
    n_cols: usize,
) {
    let shape = Shape {
        x: x.as_ptr(),
        m: m.as_ptr(),
        out: out.as_mut_ptr(),
        n_inner,
        n_cols,
    };
    let mut r = 0usize;
    while r + 4 <= n_rows {
        panel::<4, 3>(&shape, r);
        r += 4;
    }
    while r < n_rows {
        panel::<1, 4>(&shape, r);
        r += 1;
    }
}

/// Raw operands of one [`matmul_avx2`] call.
struct Shape {
    x: *const f64,
    m: *const f64,
    out: *mut f64,
    n_inner: usize,
    n_cols: usize,
}

/// Rows `r0..r0 + R`: tiles of `V` vectors, then single vectors, then
/// one masked vector for the last 1–3 columns.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn panel<const R: usize, const V: usize>(s: &Shape, r0: usize) {
    let all = _mm256_set1_epi64x(-1);
    let mut c = 0usize;
    while c + 4 * V <= s.n_cols {
        tile::<R, V>(s, r0, c, all);
        c += 4 * V;
    }
    while c + 4 <= s.n_cols {
        tile::<R, 1>(s, r0, c, all);
        c += 4;
    }
    let lanes = (s.n_cols - c) as i64;
    if lanes > 0 {
        // Lane j is live while j < lanes: the sign bit selects it.
        let live = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes), _mm256_setr_epi64x(0, 1, 2, 3));
        tile::<R, 1>(s, r0, c, live);
    }
}

/// One `R × 4V` output tile held in registers across the whole `i`
/// loop: per step, `V` loads of `m`, one broadcast of `x` per row, and
/// a separate `mul` then `add` per accumulator. `live` selects the
/// columns that exist; it is all-ones except on a column tail, where
/// masked-off lanes are neither read nor written.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile<const R: usize, const V: usize>(s: &Shape, r0: usize, c0: usize, live: __m256i) {
    let full = V > 1 || _mm256_movemask_pd(_mm256_castsi256_pd(live)) == 0xF;
    let mut acc = [[_mm256_setzero_pd(); V]; R];
    for i in 0..s.n_inner {
        let row = s.m.add(i * s.n_cols + c0);
        let mut mv = [_mm256_setzero_pd(); V];
        for (v, slot) in mv.iter_mut().enumerate() {
            *slot = if full {
                _mm256_loadu_pd(row.add(4 * v))
            } else {
                _mm256_maskload_pd(row, live)
            };
        }
        for (r, lanes) in acc.iter_mut().enumerate() {
            let xb = _mm256_set1_pd(*s.x.add((r0 + r) * s.n_inner + i));
            for (a, &w) in lanes.iter_mut().zip(&mv) {
                *a = _mm256_add_pd(*a, _mm256_mul_pd(xb, w));
            }
        }
    }
    for (r, lanes) in acc.iter().enumerate() {
        let dst = s.out.add((r0 + r) * s.n_cols + c0);
        for (v, &a) in lanes.iter().enumerate() {
            if full {
                _mm256_storeu_pd(dst.add(4 * v), a);
            } else {
                _mm256_maskstore_pd(dst, live, a);
            }
        }
    }
}
