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
//! [`dense_forward_avx2`] runs 4 output lanes per iteration with
//! separate `mul` and `add` — **never FMA** — keeping every lane's
//! rounding identical to the scalar fold (the crate-level
//! sequential-accumulation contract).

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

/// Dense forward over transposed weights, 4 output lanes per iteration.
/// Per lane: `mul` then `add` in strict `k` order — the scalar fold's
/// exact rounding (FMA would fuse the rounding and change the bits).
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn dense_forward_avx2(
    wt: &[f64],
    bias: &[f64],
    x: &[f64],
    n_out: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(n_out, 0.0);
    let mut o = 0usize;
    while o + 4 <= n_out {
        let mut acc = _mm256_setzero_pd();
        for (k, &xk) in x.iter().enumerate() {
            let w = _mm256_loadu_pd(wt.as_ptr().add(k * n_out + o));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(xk), w));
        }
        let r = _mm256_add_pd(acc, _mm256_loadu_pd(bias.as_ptr().add(o)));
        _mm256_storeu_pd(out.as_mut_ptr().add(o), r);
        o += 4;
    }
    for tail in o..n_out {
        let mut acc = 0.0f64;
        for (k, &xk) in x.iter().enumerate() {
            acc += xk * wt[k * n_out + tail];
        }
        out[tail] = acc + bias[tail];
    }
}
