//! The trainer's sub-spans: one `Pipeline::train` records exactly one
//! `training_set` and one `mlp_fit` observation in the process-global
//! `marioh_phase_seconds` histogram, so `/metrics` and `--trace-out` can
//! split `training` into the set build and the fit.
//!
//! This file holds a single test: the registry is process-global, and a
//! test binary of its own keeps other training runs from moving the
//! counts.

use marioh_core::Pipeline;
use marioh_hypergraph::{hyperedge::edge, Hypergraph};
use rand::{rngs::StdRng, SeedableRng};

fn phase_count(phase: &str) -> u64 {
    marioh_obs::global()
        .histogram_with("marioh_phase_seconds", &[("phase", phase)])
        .count()
}

#[test]
fn one_train_records_one_set_build_and_one_fit() {
    let mut source = Hypergraph::new(0);
    for b in 0..12u32 {
        source.add_edge(edge(&[b * 2, b * 2 + 1, b * 2 + 2]));
    }
    let pipeline = Pipeline::builder()
        .threads(1)
        .build()
        .expect("valid hyperparameters");
    let phases = ["training", "training_set", "mlp_fit"];
    let before = phases.map(phase_count);
    pipeline
        .train(&source, &mut StdRng::seed_from_u64(3))
        .expect("training succeeds");
    let after = phases.map(phase_count);
    for ((phase, b), a) in phases.iter().zip(before).zip(after) {
        assert_eq!(a, b + 1, "phase {phase}");
    }
}
