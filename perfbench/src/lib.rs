//! `perfbench`: end-to-end and per-layer benchmark of the MARIOH job
//! path, driven from outside the program through its public entry
//! points and its HTTP API. The binary (`src/main.rs`) runs one
//! workload; `run.py` builds it and the `marioh` binary and runs it.

pub mod offline;
pub mod serve;
pub mod trace;
pub mod util;

use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use util::num;

/// The end-to-end metrics and their units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("goodput_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("pipeline_job_p50_ms", "ms"),
    ("jaccard", "ratio"),
    ("multi_jaccard", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics and their units. A layer a workload does not
/// touch reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("datasets.split_ms", "ms"),
    ("hypergraph.project_ms", "ms"),
    ("training.total_ms", "ms"),
    ("training.set_build_ms", "ms"),
    ("training.examples", "count"),
    ("training.calls", "count"),
    ("ml.fit_ms", "ms"),
    ("engine.search_ms", "ms"),
    ("engine.enumeration_ms", "ms"),
    ("engine.scoring_ms", "ms"),
    ("engine.mhh_patch_ms", "ms"),
    ("engine.commit_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.cliques_enumerated", "count"),
    ("engine.cliques_rescored", "count"),
    ("engine.reuse_ratio", "ratio"),
    ("engine.committed", "count"),
    ("engine.phase2_yield", "ratio"),
    ("filtering.ms", "ms"),
    ("filtering.pairs_identified", "count"),
    ("metrics.jaccard_ms", "ms"),
    ("server.submit_p50_ms", "ms"),
    ("server.poll_p50_ms", "ms"),
    ("server.result_p50_ms", "ms"),
    ("server.handle_ms", "ms"),
    ("server.accept_wait_ms", "ms"),
    ("server.polls_per_job", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_depth_max", "count"),
    ("server.hit_job_p50_ms", "ms"),
    ("server.hit_accept_share", "ratio"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.fsync_count", "count"),
    ("store.fsync_s", "s"),
    ("store.artifact_bytes", "bytes"),
    ("worker.pipeline_runs", "count"),
    ("worker.models_trained", "count"),
    ("dispatch.frames", "count"),
    ("dispatch.bytes", "bytes"),
    ("dispatch.heartbeat_p50_ms", "ms"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.refused", "count"),
    ("process.cpu_ms_per_job", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("datasets.share", "ratio"),
    ("hypergraph.share", "ratio"),
    ("training.share", "ratio"),
    ("ml.share", "ratio"),
    ("engine.share", "ratio"),
    ("filtering.share", "ratio"),
    ("metrics.share", "ratio"),
    ("loadgen.share", "ratio"),
    ("server.share", "ratio"),
    ("worker.share", "ratio"),
    ("dispatch.share", "ratio"),
    ("pipeline.share", "ratio"),
];

/// Layers whose self-time share of job wall time is reported.
const SHARED_LAYERS: &[&str] = &[
    "datasets",
    "hypergraph",
    "training",
    "ml",
    "engine",
    "filtering",
    "metrics",
    "loadgen",
    "server",
    "worker",
    "dispatch",
    "pipeline",
];

/// Every workload, in the order `run.py --workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "train-contact",
    "sweep-reuse",
    "serve-workers",
    "serve-durable",
];

/// What a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub marioh: Option<PathBuf>,
    pub out: PathBuf,
    pub ledger_dir: PathBuf,
    pub ledger_key: String,
    pub epoch: Instant,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub info: Vec<(String, String)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.push((name, v));
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, v));
    }

    pub fn info(&mut self, name: &str, v: f64) {
        self.info.push((name.to_owned(), num(v)));
    }

    pub fn info_raw(&mut self, name: &str, json: String) {
        self.info.push((name.to_owned(), json));
    }

    /// Latency quartiles, plus p90/p99 where ten samples lie beyond.
    pub fn tail(&mut self, prefix: &str, samples: &[f64]) {
        self.info_raw(
            &format!("{prefix}_ms_quartiles"),
            util::quartiles_json(samples),
        );
        for (name, v) in util::supported_tail(samples) {
            self.info(&format!("{prefix}_{name}_ms"), v);
        }
    }

    /// Layer self-time shares of job wall time and the coverage they
    /// reach, from the spans.
    pub fn shares(&mut self, tracer: &Tracer) {
        let own = tracer.self_ms();
        let job = tracer.job_ms();
        let share = |v: f64| util::ratio(v, job);
        let mut covered = 0.0;
        for layer in SHARED_LAYERS {
            let v = own.get(layer).copied().unwrap_or(0.0);
            covered += v;
            let name = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix(".share") == Some(*layer))
                .map(|(n, _)| *n)
                .expect("a share metric per layer");
            self.layer(name, share(v));
        }
        self.layer("trace.coverage", share(covered));
    }
}

/// Deterministic per-operation seeds (SplitMix64 of the workload seed
/// and the operation index), kept below 2^32 so they survive JSON.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

/// A canonical text of the inputs a workload generates from `seed`
/// (for a run of `seconds`): what the program receives, and nothing
/// else depends on the seed.
pub fn inputs(workload: &str, seed: u64, seconds: f64) -> String {
    match workload {
        "train-contact" => (0..16)
            .map(|i| offline::train_spec(seed, i) + "\n")
            .collect(),
        "sweep-reuse" => {
            let ops: Vec<String> = (0..16).map(|i| op_seed(seed, i).to_string()).collect();
            format!(
                "split {}\norder {:?}\nops {}\n",
                offline::SWEEP_SPLIT_SEED,
                offline::grid_order(seed),
                ops.join(" ")
            )
        }
        _ => serve::describe(seed, seconds),
    }
}
