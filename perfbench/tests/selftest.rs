//! Harness self-test: a short smoke run of every workload plus checks
//! that the correctness check and the seeded inputs behave.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The serve workloads need the `marioh` binary; it is built from the
//! repository (into `$CARGO_TARGET_DIR`, default `target/`) when the
//! smoke test starts.

use marioh_hypergraph::projection::project;
use marioh_hypergraph::Hypergraph;
use marioh_store::Json;
use perfbench::util::{check_reconstruction, digest};
use perfbench::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

fn build_marioh() -> PathBuf {
    let root = repo_root();
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--quiet", "--bin", "marioh"])
        .current_dir(&root)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building marioh failed");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|p| if p.is_absolute() { p } else { root.join(p) })
        .unwrap_or_else(|| root.join("target"));
    target.join("release").join("marioh")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let marioh = build_marioh();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&out).unwrap();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .arg("--marioh")
                .arg(&marioh)
                .arg("--out")
                .arg(&out)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let last = Json::parse(stdout.lines().last().expect("output")).expect("JSON result");
            assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = last.get("metrics").expect("metrics");
            for (name, unit) in declared(list) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
            assert_eq!(metrics.as_object().unwrap().len(), declared(list).len());
            if trace == "1" {
                // The traced run repeated the untraced run's seed, so the
                // digest ledger compared at least one operation.
                let info = Json::parse(stdout.lines().rev().nth(1).unwrap()).unwrap();
                let compared = info
                    .get("info")
                    .and_then(|i| i.get("ledger_compared"))
                    .and_then(Json::as_f64);
                assert!(
                    compared.unwrap_or(0.0) >= 1.0,
                    "{workload}: nothing compared"
                );
                // Served jobs' spans are rebuilt from client timestamps
                // and tile each job by construction, so coverage is
                // measured offline only.
                if !workload.starts_with("serve") {
                    let coverage = metrics
                        .get("trace.coverage")
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap();
                    assert!(coverage >= 0.95, "{workload}: trace coverage {coverage}");
                }
            }
        }
    }
}

#[test]
fn a_dropped_hyperedge_is_caught() {
    let dataset = marioh_datasets::PaperDataset::Hosts;
    let h = dataset.generate_scaled(dataset.default_scale()).hypergraph;
    let reported = marioh_hypergraph::metrics::jaccard(&h, &h);
    assert!(check_reconstruction(&h, &h, reported).is_ok());

    let mut corrupted = Hypergraph::new(h.num_nodes());
    let edges = h.sorted_edges();
    for e in &edges[1..] {
        corrupted.add_edge_with_multiplicity((*e).clone(), h.multiplicity(e));
    }
    assert_ne!(digest(&corrupted), digest(&h));
    assert_ne!(
        project(&corrupted).sorted_edge_list(),
        project(&h).sorted_edge_list()
    );
    let reported = marioh_hypergraph::metrics::jaccard(&h, &corrupted);
    let err = check_reconstruction(&h, &corrupted, reported).unwrap_err();
    assert!(err.contains("projection"), "{err}");
}

#[test]
fn inputs_depend_on_the_seed_alone() {
    for workload in WORKLOADS {
        let a = perfbench::inputs(workload, 1, 10.0);
        assert_eq!(a, perfbench::inputs(workload, 1, 10.0), "{workload}");
        assert_ne!(a, perfbench::inputs(workload, 2, 10.0), "{workload}");
    }
}
