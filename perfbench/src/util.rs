//! Statistics, process accounting, output digests and the digest
//! ledger shared by every workload.

use marioh_hypergraph::{metrics::multi_jaccard, projection::project, Hypergraph};
use std::collections::BTreeMap;
use std::path::Path;

/// Quantile of `xs` by linear interpolation between closest ranks
/// (the `statistics.quantiles(method="inclusive")` convention).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of p90/p99 that has at least ten samples beyond it.
pub fn supported_tail(xs: &[f64]) -> Vec<(&'static str, f64)> {
    [("p90", 0.90), ("p99", 0.99)]
        .into_iter()
        .filter(|(_, q)| (xs.len() as f64 * (1.0 - q) + 1e-9).floor() >= 10.0)
        .map(|(name, q)| (name, quantile(xs, q)))
        .collect()
}

/// `{"n":..,"q1":..,"median":..,"q3":..}` of per-operation samples.
pub fn quartiles_json(xs: &[f64]) -> String {
    format!(
        "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
        xs.len(),
        num(quantile(xs, 0.25)),
        num(quantile(xs, 0.5)),
        num(quantile(xs, 0.75))
    )
}

/// A JSON number; non-finite values (which no metric should produce)
/// render as 0 rather than as invalid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// 64-bit FNV-1a, the digest of a reconstruction's canonical form.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a hyperedge list given in canonical (sorted) order as
/// `(nodes, multiplicity)` pairs.
pub fn digest_edges<'a>(edges: impl IntoIterator<Item = (Vec<u64>, u64)> + 'a) -> u64 {
    let mut h = Fnv::default();
    for (nodes, m) in edges {
        h.write_u64(nodes.len() as u64);
        for n in nodes {
            h.write_u64(n);
        }
        h.write_u64(m);
    }
    h.finish()
}

/// Digest of a reconstruction.
pub fn digest(h: &Hypergraph) -> u64 {
    digest_edges(h.sorted_edges().into_iter().map(|e| {
        (
            e.nodes().iter().map(|n| u64::from(n.0)).collect(),
            u64::from(h.multiplicity(e)),
        )
    }))
}

/// The checks every reconstruction passes: its projection equals the
/// projected graph it was reconstructed from, and the reported Jaccard
/// is the Jaccard against the target. Returns the multi-Jaccard.
pub fn check_reconstruction(
    target: &Hypergraph,
    reconstruction: &Hypergraph,
    reported_jaccard: f64,
) -> Result<f64, String> {
    let want = project(target).sorted_edge_list();
    let got = project(reconstruction).sorted_edge_list();
    if want != got {
        return Err(format!(
            "projection of the reconstruction differs from the input graph ({} vs {} weighted edges)",
            got.len(),
            want.len()
        ));
    }
    let j = marioh_hypergraph::metrics::jaccard(target, reconstruction);
    if j.to_bits() != reported_jaccard.to_bits() {
        return Err(format!(
            "reported jaccard {reported_jaccard} != recomputed {j}"
        ));
    }
    Ok(multi_jaccard(target, reconstruction))
}

/// Process accounting from procfs (Linux); zeros elsewhere.
pub mod proc {
    /// CPU time (user + system) of a process, in ms.
    pub fn cpu_ms(pid: &str) -> f64 {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            return 0.0;
        };
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in USER_HZ (100/s).
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) * 10.0
    }

    /// Peak resident set (`VmHWM`) of a process, in MB.
    pub fn peak_rss_mb(pid: &str) -> f64 {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Child PIDs of `pid`, over all of its threads.
    pub fn children(pid: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return out;
        };
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("children")) {
                out.extend(
                    text.split_whitespace()
                        .filter_map(|p| p.parse::<u32>().ok()),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: the
    /// time a hypervisor ran someone else on this machine's CPUs.
    pub fn steal_ticks() -> (f64, f64) {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return (0.0, 0.0);
        };
        let f: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        (f.get(7).copied().unwrap_or(0.0), f.iter().take(8).sum())
    }

    /// Share of CPU time stolen between two [`steal_ticks`] readings.
    pub fn steal_share(before: (f64, f64), after: (f64, f64)) -> f64 {
        let total = after.1 - before.1;
        if total > 0.0 {
            (after.0 - before.0) / total
        } else {
            0.0
        }
    }

    /// Whether `pid` still runs (a zombie has ended).
    pub fn alive(pid: u32) -> bool {
        match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            Ok(stat) => !matches!(
                stat.rsplit_once(')')
                    .and_then(|(_, r)| r.split_whitespace().next()),
                Some("Z" | "X")
            ),
            Err(_) => false,
        }
    }
}

/// Digests of each operation of a (workload, seed) on one build,
/// shared by its traced and untraced runs so the two are compared
/// operation by operation.
pub struct Ledger {
    path: std::path::PathBuf,
    entries: BTreeMap<u64, (u64, u64)>,
    pub compared: u64,
}

impl Ledger {
    pub fn open(dir: &Path, key: &str) -> Self {
        let path = dir.join(format!("{key}.txt"));
        let entries = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let f: Vec<u64> = l
                    .split_whitespace()
                    .filter_map(|x| u64::from_str_radix(x, 16).ok())
                    .collect();
                (f.len() == 3).then(|| (f[0], (f[1], f[2])))
            })
            .collect();
        Ledger {
            path,
            entries,
            compared: 0,
        }
    }

    /// Records op `op`'s digest and Jaccard bits; an earlier run's
    /// differing record is an error.
    pub fn check(&mut self, op: u64, digest: u64, jaccard: f64) -> Result<(), String> {
        let rec = (digest, jaccard.to_bits());
        match self.entries.insert(op, rec) {
            Some(prev) if prev != rec => Err(format!(
                "op {op}: digest {digest:016x}/jaccard {jaccard} differs from an earlier run of the same seed ({:016x}/{})",
                prev.0,
                f64::from_bits(prev.1)
            )),
            Some(_) => {
                self.compared += 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    pub fn save(&self) {
        let text: String = self
            .entries
            .iter()
            .map(|(op, (d, j))| format!("{op:x} {d:x} {j:x}\n"))
            .collect();
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(supported_tail(&xs).is_empty());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(supported_tail(&xs).len(), 1);
    }

    #[test]
    fn ledger_flags_a_changed_digest() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = Ledger::open(&dir, "k");
        a.check(0, 7, 0.5).unwrap();
        a.save();
        let mut b = Ledger::open(&dir, "k");
        b.check(0, 7, 0.5).unwrap();
        assert_eq!(b.compared, 1);
        assert!(b.check(0, 8, 0.5).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
