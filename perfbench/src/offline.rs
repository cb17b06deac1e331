//! The offline workloads: closed loop, one caller, in this process.
//!
//! * `train-contact` — each operation is one job (`execute_job`): split
//!   → train → reconstruct → Jaccard on P.School at scale 0.5, with a
//!   fresh seed per job.
//! * `sweep-reuse` — set-up trains once on an Eu source split; each
//!   operation reconstructs the Eu target projection at one point of a
//!   θ_init × r × α grid through `Pipeline::with_model` + `Marioh::run`.
//!
//! In a traced run, operations alternate in blocks between the traced
//! path (the same job decomposed into its public entry points, each
//! wrapped in a span) and the untraced path, so tracing overhead is
//! measured under the same conditions as the layers it explains.

use crate::trace::{ms, Tracer, JOB};
use crate::util::{self, median, ratio, Ledger};
use crate::{op_seed, Ctx, Outcome};
use marioh_core::training::build_training_set;
use marioh_core::{CancelToken, Marioh, NoopObserver, Pipeline, TrainedModel};
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_dispatch::execute_job;
use marioh_hypergraph::metrics::jaccard;
use marioh_hypergraph::projection::project;
use marioh_hypergraph::{Hypergraph, ProjectedGraph};
use marioh_obs::Value;
use marioh_store::{JobSpec, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale of the P.School dataset in `train-contact` jobs.
pub const PSCHOOL_SCALE: f64 = 0.5;

/// Set-up repetitions per run; `setup_s` is their median. The Eu set-up
/// trains and runs before the timed phase. Generating P.School takes
/// milliseconds, while this machine's speed shifts by a third from one
/// stretch of seconds to the next; so it runs this often before the
/// first job and again before every job, outside the job's timer, and
/// its median spans the run as the jobs' median does.
const TRAIN_SETUP_REPEATS: usize = 3;
const SWEEP_SETUP_REPEATS: usize = 3;

/// The `sweep-reuse` grid: θ_init × r (percent) × α.
const THETAS: [f64; 3] = [0.6, 0.8, 1.0];
const RS: [f64; 2] = [10.0, 30.0];
const ALPHAS: [f64; 2] = [0.05, 0.1];

/// Operations whose accuracy (the first N) and counts (the first N
/// traced) are reported, so that both are a function of the seed alone
/// and not of how many operations fit in the run.
const TRAIN_COUNTED: (usize, usize) = (4, 2);
const SWEEP_COUNTED: (usize, usize) = (12, 12);

/// The job spec of `train-contact` operation `i`.
pub fn train_spec(seed: u64, i: u64) -> String {
    format!(
        r#"{{"dataset": "P.School", "scale": {PSCHOOL_SCALE}, "seed": {}}}"#,
        op_seed(seed, i)
    )
}

/// Seed of the Eu source/target split `sweep-reuse` trains and
/// reconstructs on. It is the same for every workload seed: every run
/// sets up the same model, so set-up time and accuracy do not vary with
/// the seed, which picks the grid order and each operation's RNG seed.
pub const SWEEP_SPLIT_SEED: u64 = 1;

/// The order in which `sweep-reuse` visits the grid, repeated.
pub fn grid_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..THETAS.len() * RS.len() * ALPHAS.len()).collect();
    let mut shuffle = StdRng::seed_from_u64(op_seed(seed, u64::MAX - 1));
    for k in (1..order.len()).rev() {
        order.swap(k, shuffle.gen_range(0..=k));
    }
    order
}

pub fn grid() -> Vec<(f64, f64, f64)> {
    let mut g = Vec::new();
    for &t in &THETAS {
        for &r in &RS {
            for &a in &ALPHAS {
                g.push((t, r, a));
            }
        }
    }
    g
}

/// Per-operation layer figures from a traced operation.
#[derive(Clone, Default)]
struct Layers {
    split_ms: f64,
    set_build_ms: f64,
    examples: f64,
    train_ms: f64,
    training_calls: f64,
    project_ms: f64,
    search_ms: f64,
    filtering_ms: f64,
    pairs_identified: f64,
    rounds: f64,
    enumerated: f64,
    rescored: f64,
    reused: f64,
    committed: f64,
    committed_phase2: f64,
    subcliques_sampled: f64,
    phase_ms: [f64; 4],
    jaccard_ms: f64,
}

/// Engine phases timed by `marioh_phase_seconds` inside the program.
const PHASES: [&str; 4] = ["enumeration", "scoring", "mhh_patch", "commit"];
const PHASE_METRICS: [&str; 4] = [
    "engine.enumeration_ms",
    "engine.scoring_ms",
    "engine.mhh_patch_ms",
    "engine.commit_ms",
];

fn phase_micros() -> [u64; 4] {
    let snap = marioh_obs::global().snapshot();
    let mut out = [0u64; 4];
    for (name, value) in &snap.entries {
        if let (Some(rest), Value::Histogram { sum_micros, .. }) =
            (name.strip_prefix("marioh_phase_seconds{"), value)
        {
            for (i, p) in PHASES.iter().enumerate() {
                if rest.contains(&format!("phase=\"{p}\"")) {
                    out[i] += sum_micros;
                }
            }
        }
    }
    out
}

/// One operation as it returns, before its checks.
struct Op {
    index: u64,
    traced: bool,
    wall_ms: f64,
    target: Arc<Hypergraph>,
    reconstruction: Hypergraph,
    jaccard: f64,
    layers: Option<Layers>,
}

/// One checked operation; its reconstruction is checked and dropped as
/// soon as its timer stops, so the harness holds no outputs.
struct Done {
    index: u64,
    traced: bool,
    wall_ms: f64,
    jaccard: f64,
    multi_jaccard: f64,
    layers: Option<Layers>,
}

fn engine_layers(l: &mut Layers, report: &marioh_core::ReconstructionReport) {
    l.search_ms = report.search_secs * 1e3;
    l.filtering_ms = report.filtering_secs * 1e3;
    l.pairs_identified = report
        .filter_stats
        .as_ref()
        .map_or(0.0, |f| f.pairs_identified as f64);
    l.rounds = report.rounds.len() as f64;
    for r in &report.rounds {
        l.enumerated += r.cliques_enumerated as f64;
        l.committed += (r.committed_phase1 + r.committed_phase2) as f64;
        l.committed_phase2 += r.committed_phase2 as f64;
        l.subcliques_sampled += r.subcliques_sampled as f64;
    }
    l.rescored = report.cliques_rescored() as f64;
    l.reused = report.cliques_reused() as f64;
}

/// Runs `op` back to back until operations have been timed for
/// `seconds` (at least once), checking each one after its timer stops.
fn closed_loop(
    ctx: &Ctx,
    mut op: impl FnMut(u64) -> Result<Op, String>,
    failures: &mut Vec<String>,
) -> Measured {
    let mut ledger = Ledger::open(&ctx.ledger_dir, &ctx.ledger_key);
    let steal0 = util::proc::steal_ticks();
    let start = Instant::now();
    let (mut busy, mut cpu) = (0.0, 0.0);
    let mut done = Vec::new();
    let mut i = 0u64;
    // Operations that fail fast do not add timed seconds; the wall-clock
    // cap still ends the run.
    while i == 0 || (busy < ctx.seconds && start.elapsed().as_secs_f64() < 3.0 * ctx.seconds) {
        let cpu0 = util::proc::cpu_ms("self");
        let result = op(i);
        cpu += util::proc::cpu_ms("self") - cpu0;
        i += 1;
        let o = match result {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("op {}: {e}", i - 1));
                continue;
            }
        };
        busy += o.wall_ms / 1e3;
        let checked =
            util::check_reconstruction(&o.target, &o.reconstruction, o.jaccard).and_then(|mj| {
                ledger.check(o.index, util::digest(&o.reconstruction), o.jaccard)?;
                Ok(mj)
            });
        match checked {
            Ok(multi_jaccard) => done.push(Done {
                index: o.index,
                traced: o.traced,
                wall_ms: o.wall_ms,
                jaccard: o.jaccard,
                multi_jaccard,
                layers: o.layers,
            }),
            Err(e) => failures.push(format!("op {}: {e}", o.index)),
        }
    }
    ledger.save();
    Measured {
        done,
        busy,
        cpu_ms: cpu,
        attempted: i,
        compared: ledger.compared,
        steal: util::proc::steal_share(steal0, util::proc::steal_ticks()),
    }
}

/// What [`closed_loop`] measured: the checked operations, the timed
/// seconds, the CPU time the process spent in the operations, the
/// number attempted, how many matched an earlier run's ledger, and the
/// share of the machine's CPU time stolen meanwhile.
struct Measured {
    done: Vec<Done>,
    busy: f64,
    cpu_ms: f64,
    attempted: u64,
    compared: u64,
    steal: f64,
}

/// Reports what both offline workloads share.
#[allow(clippy::too_many_arguments)]
fn finish(
    ctx: &Ctx,
    m: Measured,
    failures: Vec<String>,
    counted: (usize, usize),
    setup_s: f64,
    mut out: Outcome,
    tracer: Tracer,
) -> Outcome {
    let Measured {
        done,
        busy,
        cpu_ms,
        attempted,
        compared,
        steal,
    } = m;
    let counted_ops = done.iter().filter(|d| (d.index as usize) < counted.0);
    let jac: Vec<f64> = counted_ops.clone().map(|d| d.jaccard).collect();
    let mjac: Vec<f64> = counted_ops.map(|d| d.multi_jaccard).collect();
    out.attempted = attempted;
    out.info("ledger_compared", compared as f64);
    out.info("steal_share", steal);
    let walls: Vec<f64> = done.iter().map(|d| d.wall_ms).collect();
    out.tail("job", &walls);
    if ctx.trace {
        let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
        let plain: Vec<f64> = done
            .iter()
            .filter(|d| !d.traced)
            .map(|d| d.wall_ms)
            .collect();
        let traced_walls: Vec<f64> = traced.iter().map(|d| d.wall_ms).collect();
        let n = traced.len().max(1) as f64;
        let layers: Vec<&Layers> = traced.iter().filter_map(|d| d.layers.as_ref()).collect();
        let mean = |f: &dyn Fn(&Layers) -> f64| layers.iter().map(|l| f(l)).sum::<f64>() / n;
        let counted_layers: Vec<&Layers> = layers.iter().take(counted.1).copied().collect();
        let count = |f: &dyn Fn(&Layers) -> f64| counted_layers.iter().map(|l| f(l)).sum::<f64>();
        out.layer("training.total_ms", mean(&|l| l.train_ms));
        out.layer("training.set_build_ms", mean(&|l| l.set_build_ms));
        out.layer(
            "ml.fit_ms",
            mean(&|l| (l.train_ms - l.set_build_ms).max(0.0)),
        );
        out.layer("training.examples", count(&|l| l.examples));
        out.layer("training.calls", count(&|l| l.training_calls));
        out.layer("datasets.split_ms", mean(&|l| l.split_ms));
        out.layer("hypergraph.project_ms", mean(&|l| l.project_ms));
        out.layer("metrics.jaccard_ms", mean(&|l| l.jaccard_ms));
        out.layer("engine.search_ms", mean(&|l| l.search_ms));
        out.layer("engine.rounds", count(&|l| l.rounds));
        out.layer("engine.cliques_enumerated", count(&|l| l.enumerated));
        out.layer("engine.cliques_rescored", count(&|l| l.rescored));
        out.layer("engine.committed", count(&|l| l.committed));
        let reused = count(&|l| l.reused);
        let rescored = count(&|l| l.rescored);
        out.layer("engine.reuse_ratio", ratio(reused, reused + rescored));
        out.layer(
            "engine.phase2_yield",
            ratio(
                count(&|l| l.committed_phase2),
                count(&|l| l.subcliques_sampled),
            ),
        );
        for (i, name) in PHASE_METRICS.iter().enumerate() {
            out.layer(name, mean(&|l| l.phase_ms[i]));
        }
        out.layer("filtering.ms", mean(&|l| l.filtering_ms));
        out.layer("filtering.pairs_identified", count(&|l| l.pairs_identified));
        let overhead = if traced_walls.is_empty() || plain.is_empty() {
            0.0
        } else {
            median(&traced_walls) / median(&plain) - 1.0
        };
        out.layer("trace.overhead", overhead);
        out.shares(&tracer);
        out.layer("process.cpu_ms_per_job", cpu_ms / done.len().max(1) as f64);
        out.tracer = Some(tracer);
    } else {
        out.e2e("setup_s", setup_s);
        out.e2e("jobs_per_s", done.len() as f64 / busy);
        // Offline operations have no latency limit: goodput is
        // throughput, and every operation runs the pipeline.
        out.e2e("goodput_per_s", done.len() as f64 / busy);
        out.e2e("job_p50_ms", median(&walls));
        out.e2e("pipeline_job_p50_ms", median(&walls));
        out.e2e("jaccard", util::mean(&jac));
        out.e2e("multi_jaccard", util::mean(&mjac));
        out.e2e("peak_rss_mb", util::proc::peak_rss_mb("self"));
        out.info("cpu_ms_per_job", cpu_ms / done.len().max(1) as f64);
    }
    out.failures = failures;
    out
}

/// `train-contact`.
pub fn train_contact(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let generate = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let h = PaperDataset::PSchool
            .generate_scaled(PSCHOOL_SCALE)
            .hypergraph;
        setups.push(t.elapsed().as_secs_f64());
        h
    };
    let mut setups = Vec::new();
    let mut h = generate(&mut setups);
    for _ in 1..TRAIN_SETUP_REPEATS {
        h = generate(&mut setups);
    }
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let mut failures = Vec::new();
    let measured = closed_loop(
        ctx,
        |i| {
            for _ in 0..TRAIN_SETUP_REPEATS {
                generate(&mut setups);
            }
            let seed = op_seed(ctx.seed, i);
            let spec = JobSpec::from_json(
                &Json::parse(&train_spec(ctx.seed, i)).map_err(|e| e.to_string())?,
            )?;
            if ctx.trace && i % 2 == 0 {
                traced_job(&h, &spec, i, &mut tracer)
            } else {
                let t = Instant::now();
                let (result, _) =
                    execute_job(spec, None, Arc::new(NoopObserver), CancelToken::new())
                        .map_err(|e| e.to_string())?;
                let wall_ms = ms(t.elapsed());
                // The job's target, re-derived outside the timed call.
                let (_, target) = split_source_target(&h, &mut StdRng::seed_from_u64(seed));
                Ok(Op {
                    index: i,
                    traced: false,
                    wall_ms,
                    target: Arc::new(target),
                    reconstruction: result.reconstruction,
                    jaccard: result.jaccard,
                    layers: None,
                })
            }
        },
        &mut failures,
    );
    if ctx.trace {
        out.layer("datasets.generate_ms", median(&setups) * 1e3);
    }
    finish(
        ctx,
        measured,
        failures,
        TRAIN_COUNTED,
        median(&setups),
        out,
        tracer,
    )
}

/// One `execute_job`, decomposed into the public entry points it calls
/// and traced layer by layer. Bit-identical to the untraced job: the
/// same RNG stream flows through the same calls in the same order.
fn traced_job(h: &Hypergraph, spec: &JobSpec, i: u64, tr: &mut Tracer) -> Result<Op, String> {
    let pipeline = spec
        .apply(Pipeline::builder())
        .build()
        .map_err(|e| e.to_string())?;
    // Probe, outside the job: the training-set build on an RNG in the
    // state `Pipeline::train` will receive.
    let mut probe_rng = StdRng::seed_from_u64(spec.seed);
    let (probe_source, _) = split_source_target(h, &mut probe_rng);
    let t = Instant::now();
    let set = build_training_set(&probe_source, pipeline.training_config(), &mut probe_rng);
    let set_build = t.elapsed();
    tr.add("probe", i, t, t + set_build, None);
    let mut l = Layers {
        set_build_ms: ms(set_build),
        examples: set.labels.len() as f64,
        training_calls: 1.0,
        ..Layers::default()
    };
    drop(set);

    let phases = phase_micros();
    let job = tr.begin(JOB, i);
    let t_job = Instant::now();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let sp = tr.begin("datasets", i);
    let t = Instant::now();
    let (source, target) = split_source_target(h, &mut rng);
    l.split_ms = ms(t.elapsed());
    tr.end(sp);

    let sp = tr.begin("training", i);
    let t = Instant::now();
    let marioh = pipeline
        .train(&source, &mut rng)
        .map_err(|e| e.to_string())?;
    let train = t.elapsed();
    l.train_ms = ms(train);
    // The fit follows the set build inside `Pipeline::train`.
    tr.add("ml", i, t + set_build.min(train), t + train, Some(sp));
    tr.end(sp);

    let sp = tr.begin("hypergraph", i);
    let t = Instant::now();
    let g = project(&target);
    l.project_ms = ms(t.elapsed());
    tr.end(sp);

    let (reconstruction, j) = traced_reconstruct(&marioh, &g, &target, &mut rng, i, tr, &mut l)?;
    tr.end(job);
    let wall_ms = ms(t_job.elapsed());
    engine_phase_deltas(&mut l, phases);
    Ok(Op {
        index: i,
        traced: true,
        wall_ms,
        target: Arc::new(target),
        reconstruction,
        jaccard: j,
        layers: Some(l),
    })
}

fn engine_phase_deltas(l: &mut Layers, before: [u64; 4]) {
    let after = phase_micros();
    for i in 0..4 {
        l.phase_ms[i] = after[i].saturating_sub(before[i]) as f64 / 1e3;
    }
}

/// `Marioh::run` then the Jaccard, each in its span; filtering (which
/// `run` performs first) is split out of the engine span from the
/// report's stage timing.
fn traced_reconstruct(
    marioh: &Marioh,
    g: &ProjectedGraph,
    target: &Hypergraph,
    rng: &mut StdRng,
    i: u64,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<(Hypergraph, f64), String> {
    let sp = tr.begin("engine", i);
    let t = Instant::now();
    let (reconstruction, report) = marioh.run(g, rng).map_err(|e| e.to_string())?;
    let filtering = Duration::from_secs_f64(report.filtering_secs);
    tr.add("filtering", i, t, t + filtering, Some(sp));
    tr.end(sp);
    engine_layers(l, &report);
    let sp = tr.begin("metrics", i);
    let t = Instant::now();
    let j = jaccard(target, &reconstruction);
    l.jaccard_ms = ms(t.elapsed());
    tr.end(sp);
    Ok((reconstruction, j))
}

/// `sweep-reuse`.
pub fn sweep_reuse(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dataset = PaperDataset::Eu;
    let split_seed = SWEEP_SPLIT_SEED;
    let mut setups = Vec::new();
    let mut state: Option<(Arc<Hypergraph>, ProjectedGraph, TrainedModel)> = None;
    let mut generate_ms = Vec::new();
    for _ in 0..SWEEP_SETUP_REPEATS {
        let t = Instant::now();
        let h = dataset.generate_scaled(dataset.default_scale()).hypergraph;
        generate_ms.push(ms(t.elapsed()));
        let mut rng = StdRng::seed_from_u64(split_seed);
        let (source, target) = split_source_target(&h, &mut rng);
        let trained = match Pipeline::builder()
            .build()
            .and_then(|p| p.train(&source, &mut rng))
        {
            Ok(m) => m,
            Err(e) => {
                out.failures.push(format!("set-up training failed: {e}"));
                return out;
            }
        };
        let g = project(&target);
        setups.push(t.elapsed().as_secs_f64());
        state = Some((Arc::new(target), g, trained.model().clone()));
    }
    let (target, g, model) = state.expect("set up at least once");
    if ctx.trace {
        out.layer("datasets.generate_ms", median(&generate_ms));
    }
    let grid = grid();
    let order = grid_order(ctx.seed);
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let mut failures = Vec::new();
    let measured = closed_loop(
        ctx,
        |i| {
            let (theta, r, alpha) = grid[order[i as usize % grid.len()]];
            let pipeline = Pipeline::builder()
                .theta_init(theta)
                .neg_ratio(r)
                .alpha(alpha)
                .build()
                .map_err(|e| e.to_string())?;
            let mut rng = StdRng::seed_from_u64(op_seed(ctx.seed, i));
            // Traced and untraced operations alternate by whole grid
            // passes, so both see the same mix of grid points.
            let traced = ctx.trace && (i as usize / grid.len()).is_multiple_of(2);
            let (reconstruction, j, wall_ms, layers) = if traced {
                let phases = phase_micros();
                let mut l = Layers::default();
                let job = tracer.begin(JOB, i);
                let t = Instant::now();
                let marioh = pipeline.with_model(model.clone());
                let (rec, j) =
                    traced_reconstruct(&marioh, &g, &target, &mut rng, i, &mut tracer, &mut l)?;
                tracer.end(job);
                let wall = ms(t.elapsed());
                engine_phase_deltas(&mut l, phases);
                (rec, j, wall, Some(l))
            } else {
                let t = Instant::now();
                let (rec, _) = pipeline
                    .with_model(model.clone())
                    .run(&g, &mut rng)
                    .map_err(|e| e.to_string())?;
                let j = jaccard(&target, &rec);
                (rec, j, ms(t.elapsed()), None)
            };
            Ok(Op {
                index: i,
                traced,
                wall_ms,
                target: Arc::clone(&target),
                reconstruction,
                jaccard: j,
                layers,
            })
        },
        &mut failures,
    );
    finish(
        ctx,
        measured,
        failures,
        SWEEP_COUNTED,
        median(&setups),
        out,
        tracer,
    )
}
