//! `perfbench`: end-to-end and per-layer benchmark of the MARIOH job
//! path, driven from outside the program through its public entry
//! points and its HTTP API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--marioh <path to the marioh binary>] [--out <dir>]
//! ```
//!
//! Workloads: `train-contact`, `sweep-reuse` (offline, in this process)
//! and `serve-workers`, `serve-durable` (a `marioh serve` child process;
//! these need `--marioh`). `perfbench/run.py` builds both binaries and
//! passes the flags.
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, taken from spans this benchmark records around each layer
//! call. The line before it holds the machine and provenance block and
//! the figures that are informative but not gated. Any failed operation
//! or failed check makes the exit code 1.

use perfbench::util::{self, json_str, num};
use perfbench::{offline, serve, Ctx, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::time::Instant;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--marioh <path>] [--out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = get("--workload").unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("missing or invalid --seed"));
    let seconds: f64 = get("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .unwrap_or_else(|| usage("missing or invalid --seconds"));
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => usage(&format!("--trace takes 0 or 1, not {other:?}")),
    };
    let marioh = get("--marioh").map(PathBuf::from);
    let out = PathBuf::from(get("--out").unwrap_or_else(|| "perfbench/out".to_owned()));
    let ledger_dir = out.join("ledger");
    if let Err(e) = std::fs::create_dir_all(&ledger_dir) {
        usage(&format!("cannot create {}: {e}", ledger_dir.display()));
    }
    // The ledger compares runs of one build only.
    let mut build = util::Fnv::default();
    for exe in [std::env::current_exe().ok(), marioh.clone()]
        .into_iter()
        .flatten()
    {
        if let Ok(meta) = std::fs::metadata(&exe) {
            build.write_u64(meta.len());
            if let Ok(t) = meta.modified() {
                let t = t.duration_since(std::time::UNIX_EPOCH).unwrap_or_default();
                build.write_u64(t.as_nanos() as u64);
            }
        }
    }
    let ledger_key = format!("{workload}-{seed}-{:016x}", build.finish());
    Ctx {
        workload,
        seed,
        seconds,
        trace,
        marioh,
        out,
        ledger_dir,
        ledger_key,
        epoch: Instant::now(),
    }
}

/// The machine and provenance block.
fn provenance(ctx: &Ctx) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"kernels\":{},\"rustc\":{},\"profile\":{},\"git_sha\":{},\"git_dirty\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(&cpu),
        json_str(marioh_kernels::active()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&env("PERFBENCH_GIT_SHA")),
        json_str(&env("PERFBENCH_GIT_DIRTY")),
        json_str(&ctx.workload),
        ctx.seed,
        num(ctx.seconds),
        u8::from(ctx.trace),
    )
}

fn main() {
    let ctx = parse_args();
    let mut out = match ctx.workload.as_str() {
        "train-contact" => offline::train_contact(&ctx),
        "sweep-reuse" => offline::sweep_reuse(&ctx),
        "serve-workers" => serve::run(&ctx, false),
        "serve-durable" => serve::run(&ctx, true),
        _ => unreachable!("validated in parse_args"),
    };
    if let Some(tracer) = out.tracer.take() {
        let path = ctx
            .out
            .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
        if let Err(e) = std::fs::write(&path, tracer.chrome_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) => v,
            // Per-layer metrics of layers this workload never calls.
            None if ctx.trace => 0.0,
            None => {
                out.failures.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            num(value),
            json_str(unit)
        ));
    }
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed).max(1);
    let info: Vec<String> = out
        .info
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!(
        "{{\"provenance\":{},\"failed_ratio\":{},\"info\":{{{}}}}}",
        provenance(&ctx),
        num(failed as f64 / attempted as f64),
        info.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
