//! Scalar reference implementations — the semantic ground truth.
//!
//! These are the simplest correct loops, preserved verbatim from the
//! call sites they replaced: the parity suite asserts every dispatched
//! path bit-identical to them, and the benches use them (via
//! [`crate::override_level`] with [`crate::Level::Scalar`]) as the
//! in-process baseline. Do not optimise this module.

use std::cmp::Ordering;

/// Reference `Σ min(wa, wb)` over the sorted intersection: the plain
/// three-way-compare merge `mhh_view` used before this crate existed.
pub fn intersect_min_sum(a: &[u32], wa: &[u32], b: &[u32], wb: &[u32]) -> u64 {
    let mut total = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                total += u64::from(wa[i].min(wb[j]));
                i += 1;
                j += 1;
            }
        }
    }
    total
}

/// Reference `|a ∩ b|`: the plain two-pointer merge.
pub fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Reference sorted intersection, appended to `out`.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Reference needle positions: one binary search per needle — exactly
/// the per-pair `GraphView::slot` lookup this kernel replaced.
pub fn find_positions(needles: &[u32], haystack: &[u32], out: &mut Vec<u32>) {
    for &needle in needles {
        match haystack.binary_search(&needle) {
            Ok(pos) => out.push(pos as u32),
            Err(_) => debug_assert!(false, "needle {needle} missing from haystack"),
        }
    }
}

/// Reference row-major matrix product `out = x · m` (`x` is
/// `n_rows × n_inner`, `m` is `n_inner × n_cols`): every output is the
/// fold `(((0 + x_{r0}·m_{0c}) + x_{r1}·m_{1c}) + …)` in `i` order, one
/// separate multiply and add per term. The `i`-outer loop order only
/// interleaves independent outputs; no output's sum is reordered.
pub fn matmul(x: &[f64], m: &[f64], out: &mut [f64], n_rows: usize, n_inner: usize, n_cols: usize) {
    for r in 0..n_rows {
        let row = &mut out[r * n_cols..(r + 1) * n_cols];
        row.fill(0.0);
        for i in 0..n_inner {
            let xi = x[r * n_inner + i];
            for (o, &mv) in row.iter_mut().zip(&m[i * n_cols..(i + 1) * n_cols]) {
                *o += xi * mv;
            }
        }
    }
}
