#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`<name>` is one of train-contact, sweep-reuse, serve-workers, serve-durable,
or `all`. With one workload the benchmark's own output is passed through: its
last line is the JSON result. With `all`, every workload runs in turn (for
each seed of `--seeds a,b,...` when given, workloads interleaved within a
seed) and a table of every metric by name and unit follows, with the
quartiles and relative spread across seeds when there are several. The exit
code is non-zero when any run fails a correctness check.

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); run outputs (the
digest ledger, traces, state dirs, and in `all` mode every result as one
line of `results.jsonl`, with its info line) to `perfbench/out`.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["train-contact", "sweep-reuse", "serve-workers", "serve-durable"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    opts = {"--trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in ("--workload", "--seed", "--seeds", "--seconds", "--trace"):
            fail(f"unknown argument {key!r}")
        if i + 1 >= len(argv):
            fail(f"{key} needs a value")
        opts[key] = argv[i + 1]
        i += 2
    for key in ("--workload", "--seconds"):
        if key not in opts:
            fail(f"missing {key}")
    if "--seed" not in opts and "--seeds" not in opts:
        fail("missing --seed")
    return opts


def run_quiet(cmd, **kw):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, **kw).stdout.strip()
    except OSError:
        return ""


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "--bin", "marioh"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        # Cargo's own output goes to stderr so stdout stays the result.
        code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}", code)


def provenance_env():
    dirty = run_quiet(["git", "status", "--porcelain", "--untracked-files=no"])
    sha = run_quiet(["git", "rev-parse", "HEAD"])
    return {
        "PERFBENCH_RUSTC": run_quiet(["rustc", "--version"]) or "unknown",
        "PERFBENCH_GIT_SHA": sha or "none (not a git checkout)",
        "PERFBENCH_GIT_DIRTY": ("true" if dirty else "false") if sha else "unknown",
    }


def main():
    opts = parse_args(sys.argv[1:])
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates") and os.path.isdir("src")):
        fail("run from the repository root: the program's sources are not here")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target_dir)
    bench = os.path.join(target_dir, "release", "perfbench")
    marioh = os.path.join(target_dir, "release", "marioh")
    env = dict(os.environ, **provenance_env())
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)

    def command(workload, seed):
        return [bench, "--workload", workload, "--seed", str(seed),
                "--seconds", opts["--seconds"], "--trace", opts["--trace"],
                "--marioh", marioh, "--out", os.path.join("perfbench", "out")]

    if opts["--workload"] != "all":
        if opts["--workload"] not in WORKLOADS:
            fail(f"unknown workload {opts['--workload']!r}")
        sys.exit(subprocess.run(command(opts["--workload"], opts["--seed"]), env=env).returncode)

    seeds = opts.get("--seeds", opts.get("--seed")).split(",")
    values = {}  # (workload, metric) -> [values]
    units = {}
    failed = False
    for seed in seeds:
        for workload in WORKLOADS:
            proc = subprocess.run(command(workload, seed), env=env, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                info = json.loads(lines[-2]) if len(lines) > 1 else None
            except (IndexError, ValueError):
                result = info = None
            if proc.returncode != 0 or not result or not result.get("correct"):
                failed = True
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
            if not result:
                continue
            with open(os.path.join("perfbench", "out", "results.jsonl"), "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "trace": opts["--trace"],
                                      "result": result, "info": info}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
    print(f"{'workload':<14} {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} unit")
    for (workload, name), vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:<14} {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {units[name]}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
