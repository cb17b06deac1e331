//! The serve workloads: an open-loop load generator against a
//! `marioh serve` child process, through its HTTP API only.
//!
//! * `serve-workers` — `marioh serve --workers 2`, in-memory store.
//! * `serve-durable` — `marioh serve --shards 2 --state-dir <fresh dir>`:
//!   shard workers are child processes speaking the wire protocol, and
//!   the store is the on-disk one.
//!
//! Both get the same seeded traffic: arrivals at fixed offsets
//! (a Poisson process conditioned on its count, i.e. sorted uniform
//! times) in a mix of fresh small-dataset jobs that train, exact
//! repeats of specs warmed during set-up (result-cache hits), and
//! model-reuse jobs on Enron that name a donor job's model and run the
//! search only. Every job is polled to `done`, and every result is
//! fetched once the timed phase is over;
//! after the server stops, every result is compared bit for bit with
//! `execute_job` run in this process on the same spec.

use crate::trace::{ms, Tracer, JOB};
use crate::util::{self, median, proc, Ledger};
use crate::{op_seed, Ctx, Outcome};
use marioh_core::{CancelToken, NoopObserver, SavedModel};
use marioh_datasets::split::split_source_target;
use marioh_dispatch::execute_job;
use marioh_hypergraph::Hypergraph;
use marioh_store::{JobSpec, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, jobs per second. Most of it is cache hits, which cost
/// the server about a millisecond each; the fresh and reuse jobs come at
/// 1.8 per second each.
pub const RATE: f64 = 30.0;
/// Traffic shares; repeats take the rest. They are assumed: no
/// measured traffic stands behind them. Latency is reported per class
/// (cache hits; fresh and reuse jobs each with their own median), so no
/// gated figure depends on them.
pub const FRESH_SHARE: f64 = 0.06;
pub const REUSE_SHARE: f64 = 0.06;
/// Latency limit for `goodput_per_s`.
pub const LIMIT_MS: f64 = 1000.0;
/// Interval between status polls of one job. A pipeline job takes
/// 50–80 ms, so polling much slower would round its latency to whole
/// poll intervals and its median would jump between them.
const POLL_MS: u64 = 5;
/// Interval between `/stats` samples (queue depth).
const STATS_MS: u64 = 250;
/// Server starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// How long unfinished jobs may take after the last arrival.
const DRAIN: Duration = Duration::from_secs(60);

const FRESH_DATASETS: [&str; 3] = ["Crime", "Hosts", "Directors"];
const DONORS: usize = 2;
const REUSE_THETAS: [f64; 4] = [0.7, 0.8, 0.9, 1.0];
const REUSE_RS: [f64; 3] = [10.0, 20.0, 30.0];
/// Seed of the job catalogue. The warm specs and the fresh and reuse
/// jobs of a run are the same for every workload seed, so every run
/// does the same work and its medians vary with the machine, not with
/// which splits the seed drew; the seed picks the arrival times and the
/// order of the classes and of the jobs within each class.
const CATALOGUE_SEED: u64 = 1;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Fresh,
    Repeat,
    Reuse,
}

/// One job of the generated traffic.
#[derive(Clone)]
struct Arrival {
    offset: Duration,
    class: Class,
    /// Request body; a reuse job's `{donor}` is filled in at set-up.
    body: String,
    /// Donor index of a reuse job, warm-spec index of a repeat.
    donor: Option<usize>,
}

/// The specs run during set-up: the donors (Enron jobs that train),
/// then one small job per fresh dataset. Repeats draw from these.
fn warm_specs() -> Vec<String> {
    let mut specs: Vec<String> = (0..DONORS)
        .map(|k| {
            format!(
                r#"{{"dataset": "Enron", "seed": {}}}"#,
                op_seed(CATALOGUE_SEED, u64::MAX - 10 - k as u64)
            )
        })
        .collect();
    for (k, d) in FRESH_DATASETS.iter().enumerate() {
        specs.push(format!(
            r#"{{"dataset": "{d}", "seed": {}}}"#,
            op_seed(CATALOGUE_SEED, u64::MAX - 20 - k as u64)
        ));
    }
    specs
}

/// Fisher–Yates shuffle driven by the workload's RNG.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.gen_range(0..=k));
    }
}

/// The generated traffic of a seed, one line per arrival: offset in
/// microseconds, then the request body (reuse donors as `{donor}`).
pub fn describe(seed: u64, seconds: f64) -> String {
    arrivals(seed, seconds, &warm_specs())
        .iter()
        .map(|a| format!("{} {}\n", a.offset.as_micros(), a.body))
        .collect()
}

/// The seeded arrival schedule. The class counts are fixed shares of
/// the arrival count, and the jobs of each class come from a fixed
/// catalogue: fresh jobs take the datasets in turn, reuse jobs the
/// donors in turn and every (θ_init, r) pair, repeats every warm spec
/// in turn. So every seed offers the same jobs; the seed picks the
/// arrival times, the order of the classes and the order of the jobs
/// within each class.
fn arrivals(seed: u64, seconds: f64, warm: &[String]) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(op_seed(seed, u64::MAX - 2));
    let n = (RATE * seconds).round().max(1.0) as usize;
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    let fresh = (n as f64 * FRESH_SHARE).round() as usize;
    let reuse = (n as f64 * REUSE_SHARE).round() as usize;
    let mut classes: Vec<Class> = (0..n)
        .map(|k| match k {
            k if k < fresh => Class::Fresh,
            k if k < fresh + reuse => Class::Reuse,
            _ => Class::Repeat,
        })
        .collect();
    shuffle(&mut classes, &mut rng);
    let pairs: Vec<(f64, f64)> = REUSE_THETAS
        .iter()
        .flat_map(|&theta| REUSE_RS.iter().map(move |&r| (theta, r)))
        .collect();
    let mut fresh_jobs: Vec<(String, Option<usize>)> = (0..fresh)
        .map(|k| {
            let d = FRESH_DATASETS[k % FRESH_DATASETS.len()];
            let s = op_seed(CATALOGUE_SEED, k as u64);
            (format!(r#"{{"dataset": "{d}", "seed": {s}}}"#), None)
        })
        .collect();
    let mut reuse_jobs: Vec<(String, Option<usize>)> = (0..reuse)
        .map(|k| {
            let s = op_seed(CATALOGUE_SEED, (1 << 32) + k as u64);
            let (theta, r) = pairs[(k / DONORS) % pairs.len()];
            (
                format!(
                    r#"{{"dataset": "Enron", "seed": {s}, "model": "job:{{donor}}", "params": {{"theta_init": {theta}, "neg_ratio": {r}}}}}"#
                ),
                Some(k % DONORS),
            )
        })
        .collect();
    let mut repeat_jobs: Vec<(String, Option<usize>)> = (0..n - fresh - reuse)
        .map(|k| (warm[k % warm.len()].clone(), Some(k % warm.len())))
        .collect();
    shuffle(&mut fresh_jobs, &mut rng);
    shuffle(&mut reuse_jobs, &mut rng);
    shuffle(&mut repeat_jobs, &mut rng);
    let (mut fresh_jobs, mut reuse_jobs, mut repeat_jobs) = (
        fresh_jobs.into_iter(),
        reuse_jobs.into_iter(),
        repeat_jobs.into_iter(),
    );
    offsets
        .into_iter()
        .zip(classes)
        .map(|(at, class)| {
            let (body, donor) = match class {
                Class::Fresh => fresh_jobs.next(),
                Class::Reuse => reuse_jobs.next(),
                Class::Repeat => repeat_jobs.next(),
            }
            .expect("a catalogue job per arrival of its class");
            Arrival {
                offset: Duration::from_secs_f64(at),
                class,
                body,
                donor,
            }
        })
        .collect()
}

/// One HTTP/1.1 request over a fresh connection; returns the status,
/// the body and the client-side round trip.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, Duration), String> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(60));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let _ = stream.set_nodelay(true);
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let rtt = t.elapsed();
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_owned())?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    Ok((status, payload.to_owned(), rtt))
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let (status, body, _) = http(addr, "GET", path, "")?;
    if status != 200 {
        return Err(format!("GET {path}: HTTP {status}: {body}"));
    }
    Json::parse(&body)
}

/// A running `marioh serve`; killed, reaped (with its shard workers)
/// and its state dir removed on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    state_dir: Option<PathBuf>,
    log: Option<std::thread::JoinHandle<Vec<String>>>,
}

impl Server {
    fn start(marioh: &Path, state_dir: Option<PathBuf>) -> Result<Server, String> {
        let mut cmd = Command::new(marioh);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        match &state_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                cmd.args(["--shards", "2", "--state-dir"]).arg(dir);
            }
            None => {
                cmd.args(["--workers", "2"]);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", marioh.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = std::sync::mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_owned());
                }
                if lines.len() < 200 {
                    lines.push(line);
                }
            }
            lines
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            state_dir,
            log: Some(log),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| format!("server never announced its address: {:?}", server.stop()))?;
        server.addr = addr
            .parse()
            .map_err(|_| format!("unparseable server address {addr:?}"))?;
        Ok(server)
    }

    /// Server plus shard worker PIDs.
    fn pids(&self) -> Vec<String> {
        let mut pids = vec![self.child.id().to_string()];
        pids.extend(proc::children(self.child.id()).iter().map(u32::to_string));
        pids
    }

    fn cpu_ms(&self) -> f64 {
        self.pids().iter().map(|p| proc::cpu_ms(p)).sum()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.pids().iter().map(|p| proc::peak_rss_mb(p)).sum()
    }

    /// Kills the server, reaps it, waits for its shard workers to end,
    /// and returns its log.
    fn stop(&mut self) -> Vec<String> {
        let shards = proc::children(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in shards {
            // Shard workers exit when the dispatcher's socket closes.
            let deadline = Instant::now() + Duration::from_secs(10);
            while proc::alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if proc::alive(pid) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                while proc::alive(pid) && Instant::now() < deadline + Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        if let Some(dir) = self.state_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Submits `body` and polls it to a terminal state; returns the job id.
fn run_to_done(addr: SocketAddr, body: &str) -> Result<u64, String> {
    let (status, text, _) = http(addr, "POST", "/jobs", body)?;
    if status != 201 {
        return Err(format!("submit {body}: HTTP {status}: {text}"));
    }
    let id = Json::parse(&text)?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit response has no id")?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let view = get_json(addr, &format!("/jobs/{id}"))?;
        match view.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(id),
            Some("failed" | "cancelled") => return Err(format!("job {id} ({body}): {view}")),
            _ if Instant::now() > deadline => return Err(format!("job {id} never finished")),
            _ => std::thread::sleep(Duration::from_millis(POLL_MS)),
        }
    }
}

/// Parsed results by their body after the job id: a cache hit returns
/// the same bytes as its warm job, so it is parsed only once.
type Parsed = HashMap<String, (u64, f64)>;

/// A fetched result: its digest and Jaccard.
fn fetch_result(
    addr: SocketAddr,
    id: u64,
    parsed: &mut Parsed,
) -> Result<((u64, f64), Duration), String> {
    let (status, body, rtt) = http(addr, "GET", &format!("/jobs/{id}/result"), "")?;
    if status != 200 {
        return Err(format!("result of job {id}: HTTP {status}: {body}"));
    }
    let key = body.find("\"jaccard\"").map(|at| body[at..].to_owned());
    if let Some(r) = key.as_ref().and_then(|k| parsed.get(k)) {
        return Ok((*r, rtt));
    }
    let v = Json::parse(&body)?;
    let jaccard = v
        .get("jaccard")
        .and_then(Json::as_f64)
        .ok_or("result has no jaccard")?;
    let edges = v
        .get("edges")
        .and_then(Json::as_array)
        .ok_or("result has no edges")?;
    let mut edges_parsed = Vec::with_capacity(edges.len());
    for e in edges {
        let nodes = e
            .get("nodes")
            .and_then(Json::as_array)
            .ok_or("edge has no nodes")?
            .iter()
            .map(|n| n.as_u64().ok_or("bad node id"))
            .collect::<Result<Vec<u64>, _>>()?;
        let m = e
            .get("multiplicity")
            .and_then(Json::as_u64)
            .ok_or("edge has no multiplicity")?;
        edges_parsed.push((nodes, m));
    }
    let r = (util::digest_edges(edges_parsed), jaccard);
    if let Some(k) = key {
        parsed.insert(k, r);
    }
    Ok((r, rtt))
}

/// Set-up: start the server and run the warm specs. Returns the
/// server and the job ids of the warm specs.
fn setup(ctx: &Ctx, marioh: &Path, durable: bool, n: usize) -> Result<(Server, Vec<u64>), String> {
    let dir = durable.then(|| {
        ctx.out
            .join(format!("state-{}-{}-{n}", std::process::id(), ctx.seed))
    });
    let server = Server::start(marioh, dir)?;
    let mut ids = Vec::new();
    for body in warm_specs() {
        ids.push(run_to_done(server.addr, &body)?);
    }
    Ok((server, ids))
}

/// What the client saw of one job.
#[derive(Default)]
struct Seen {
    sent: Option<Instant>,
    acked: Option<Instant>,
    dequeued: Option<Instant>,
    done: Option<Instant>,
    id: Option<u64>,
    polls: Vec<(Instant, Instant)>,
    result: Option<(u64, f64)>,
    result_span: Option<(Instant, Instant)>,
    error: Option<String>,
    refused: bool,
}

/// Client-side request samples of one thread.
#[derive(Default)]
struct Samples {
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    result_ms: Vec<f64>,
    other_ms: Vec<f64>,
    queue_depth_max: f64,
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Submit(usize),
    Poll(usize),
    Stats,
}

/// One generator thread: submits its share of the arrivals on
/// schedule and polls them to completion, one request at a time.
fn client(
    addr: SocketAddr,
    start: Instant,
    plan: &[(usize, Arrival)],
    stats: bool,
    end: Instant,
) -> (Vec<(usize, Seen)>, Samples) {
    let mut seen: BTreeMap<usize, Seen> = plan.iter().map(|(i, _)| (*i, Seen::default())).collect();
    let bodies: BTreeMap<usize, &Arrival> = plan.iter().map(|(i, a)| (*i, a)).collect();
    let mut samples = Samples::default();
    let mut queue: BinaryHeap<std::cmp::Reverse<(Instant, Action)>> = plan
        .iter()
        .map(|(i, a)| std::cmp::Reverse((start + a.offset, Action::Submit(*i))))
        .collect();
    if stats {
        queue.push(std::cmp::Reverse((start, Action::Stats)));
    }
    let mut open = plan.len();
    let poll = Duration::from_millis(POLL_MS);
    while let Some(std::cmp::Reverse((due, action))) = queue.pop() {
        if open == 0 && action == Action::Stats {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if Instant::now() > end {
            break;
        }
        match action {
            Action::Stats => {
                if let Ok((200, body, rtt)) = http(addr, "GET", "/stats", "") {
                    samples.other_ms.push(ms(rtt));
                    if let Some(d) = Json::parse(&body)
                        .ok()
                        .and_then(|v| v.get("queue_depth").and_then(Json::as_f64))
                    {
                        samples.queue_depth_max = samples.queue_depth_max.max(d);
                    }
                }
                queue.push(std::cmp::Reverse((
                    Instant::now() + Duration::from_millis(STATS_MS),
                    Action::Stats,
                )));
            }
            Action::Submit(i) => {
                let s = seen.get_mut(&i).expect("planned");
                let sent = Instant::now();
                s.sent = Some(sent);
                match http(addr, "POST", "/jobs", &bodies[&i].body) {
                    Ok((201, body, rtt)) => {
                        samples.submit_ms.push(ms(rtt));
                        let acked = sent + rtt;
                        s.acked = Some(acked);
                        let v = Json::parse(&body).unwrap_or(Json::Null);
                        s.id = v.get("id").and_then(Json::as_u64);
                        match v.get("status").and_then(Json::as_str) {
                            Some("done") => {
                                s.dequeued = Some(acked);
                                s.done = Some(acked);
                            }
                            _ => queue.push(std::cmp::Reverse((acked + poll, Action::Poll(i)))),
                        }
                    }
                    Ok((503, _, _)) => s.refused = true,
                    Ok((status, body, _)) => {
                        s.error = Some(format!("submit: HTTP {status}: {body}"))
                    }
                    Err(e) => s.error = Some(format!("submit: {e}")),
                }
            }
            Action::Poll(i) => {
                let s = seen.get_mut(&i).expect("planned");
                let id = s.id.unwrap_or(0);
                let t = Instant::now();
                match http(addr, "GET", &format!("/jobs/{id}"), "") {
                    Ok((200, body, rtt)) => {
                        samples.poll_ms.push(ms(rtt));
                        let end_t = t + rtt;
                        s.polls.push((t, end_t));
                        let v = Json::parse(&body).unwrap_or(Json::Null);
                        let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
                        if status != "queued" && s.dequeued.is_none() {
                            s.dequeued = Some(end_t);
                        }
                        match status {
                            "done" => s.done = Some(end_t),
                            "queued" | "running" => {
                                queue.push(std::cmp::Reverse((end_t + poll, Action::Poll(i))));
                            }
                            _ => s.error = Some(format!("job {id} ended {status}: {body}")),
                        }
                    }
                    Ok((status, body, _)) => s.error = Some(format!("poll: HTTP {status}: {body}")),
                    Err(e) => s.error = Some(format!("poll: {e}")),
                }
            }
        }
        if let Action::Submit(i) | Action::Poll(i) = action {
            let s = &seen[&i];
            if s.done.is_some() || s.error.is_some() || s.refused {
                open -= 1;
            }
        }
    }
    (seen.into_iter().collect(), samples)
}

/// Sum of every series of a Prometheus family (`name` or `name{...}`).
fn prom_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// Cumulative bucket counts of a histogram family, summed over series.
fn prom_buckets(text: &str, name: &str) -> BTreeMap<u64, f64> {
    let prefix = format!("{name}_bucket{{");
    let mut out = BTreeMap::new();
    for (k, v) in text.lines().filter_map(|l| l.rsplit_once(' ')) {
        let Some(labels) = k.strip_prefix(&prefix) else {
            continue;
        };
        let Some(le) = labels
            .split("le=\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
        else {
            continue;
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().unwrap_or(f64::INFINITY)
        };
        *out.entry(bound.to_bits()).or_insert(0.0) += v.parse::<f64>().unwrap_or(0.0);
    }
    out
}

/// Median of the observations between two scrapes of a histogram, as
/// the upper bound of the bucket holding it, in ms.
fn prom_p50_ms(before: &str, after: &str, name: &str) -> f64 {
    let b = prom_buckets(before, name);
    let a = prom_buckets(after, name);
    let mut bounds: Vec<(f64, f64)> = a
        .iter()
        .map(|(k, v)| (f64::from_bits(*k), v - b.get(k).copied().unwrap_or(0.0)))
        .collect();
    bounds.sort_by(|x, y| x.0.total_cmp(&y.0));
    let total = bounds.last().map_or(0.0, |x| x.1);
    bounds
        .iter()
        .find(|(_, c)| total > 0.0 && *c >= total / 2.0)
        .filter(|(le, _)| le.is_finite())
        .map_or(0.0, |(le, _)| le * 1e3)
}

/// Offline reference for one spec: the result `execute_job` gives in
/// this process, checked against its target.
struct Reference {
    digest: u64,
    jaccard: f64,
    multi_jaccard: f64,
    /// Wall time of the `execute_job` call.
    run_ms: f64,
}

fn reference(
    body: &str,
    reuse: Option<SavedModel>,
    datasets: &mut BTreeMap<&'static str, Arc<Hypergraph>>,
) -> Result<(Reference, Option<SavedModel>), String> {
    let spec = JobSpec::from_json(&Json::parse(body)?)?;
    let (name, dataset) = match &spec.input {
        marioh_store::JobInput::Dataset { dataset, .. } => (dataset.name(), *dataset),
        marioh_store::JobInput::Edges(_) => return Err("unexpected edge-list spec".to_owned()),
    };
    let seed = spec.seed;
    let t = Instant::now();
    let (result, model) = execute_job(spec, reuse, Arc::new(NoopObserver), CancelToken::new())
        .map_err(|e| format!("offline {body}: {e}"))?;
    let run_ms = ms(t.elapsed());
    let h = datasets
        .entry(name)
        .or_insert_with(|| Arc::new(dataset.generate_scaled(dataset.default_scale()).hypergraph));
    let (_, target) = split_source_target(h, &mut StdRng::seed_from_u64(seed));
    let multi_jaccard = util::check_reconstruction(&target, &result.reconstruction, result.jaccard)
        .map_err(|e| format!("offline {body}: {e}"))?;
    Ok((
        Reference {
            digest: util::digest(&result.reconstruction),
            jaccard: result.jaccard,
            multi_jaccard,
            run_ms,
        },
        model,
    ))
}

pub fn run(ctx: &Ctx, durable: bool) -> Outcome {
    let mut out = Outcome::default();
    let Some(marioh) = ctx.marioh.clone() else {
        out.failures
            .push("serve workloads need --marioh <path>".to_owned());
        return out;
    };
    let warm = warm_specs();
    let mut plan = arrivals(ctx.seed, ctx.seconds, &warm);
    // Wall-clock marks of the run's phases, for the info line.
    let mut phases = vec![("begin", Instant::now())];
    let mut setups = Vec::new();
    let mut kept = None;
    for n in 0..SETUP_REPEATS {
        let t = Instant::now();
        match setup(ctx, &marioh, durable, n) {
            Ok(s) => {
                setups.push(t.elapsed().as_secs_f64());
                kept = Some(s); // the previous server, if any, stops here
            }
            Err(e) => {
                out.failures.push(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let (mut server, warm_ids) = kept.expect("set up at least once");
    phases.push(("setup", Instant::now()));
    for a in &mut plan {
        if a.class == Class::Reuse {
            let donor = warm_ids[a.donor.expect("reuse names a donor")];
            a.body = a.body.replace("{donor}", &donor.to_string());
        }
    }
    let addr = server.addr;
    let warm_results: Result<Vec<(u64, f64)>, String> = warm_ids
        .iter()
        .map(|&id| fetch_result(addr, id, &mut Parsed::new()).map(|(r, _)| r))
        .collect();
    let scrape = |path: &str| {
        http(addr, "GET", path, "")
            .map(|(_, b, _)| b)
            .unwrap_or_default()
    };
    let metrics0 = scrape("/metrics");
    let stats0 = Json::parse(&scrape("/stats")).unwrap_or(Json::Null);
    let cpu0 = server.cpu_ms();
    let steal0 = proc::steal_ticks();

    // The timed phase.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(ctx.seconds) + DRAIN;
    let results: Vec<(Vec<(usize, Seen)>, Samples)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<(usize, Arrival)> = plan
                    .iter()
                    .cloned()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .collect();
                scope.spawn(move || client(addr, start, &mine, t == 0, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut seen: Vec<(usize, Seen)> = Vec::new();
    let mut samples = Samples::default();
    for (s, smp) in results {
        seen.extend(s);
        samples.submit_ms.extend(smp.submit_ms);
        samples.poll_ms.extend(smp.poll_ms);
        samples.result_ms.extend(smp.result_ms);
        samples.other_ms.extend(smp.other_ms);
        samples.queue_depth_max = samples.queue_depth_max.max(smp.queue_depth_max);
    }
    seen.sort_by_key(|(i, _)| *i);
    let last_done = seen
        .iter()
        .filter_map(|(_, s)| s.done)
        .max()
        .unwrap_or(start);
    let wall = last_done
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(ctx.seconds);
    let cpu = server.cpu_ms() - cpu0;
    let steal = proc::steal_share(steal0, proc::steal_ticks());
    let metrics1 = scrape("/metrics");
    let stats1 = Json::parse(&scrape("/stats")).unwrap_or(Json::Null);
    phases.push(("timed", Instant::now()));
    // Results are fetched after the timed phase, so a fetch never holds
    // up a due arrival on the generator's threads.
    let chunk = seen.len().div_ceil(threads).max(1);
    let fetched: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seen
            .chunks_mut(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut rtts = Vec::new();
                    let mut parsed = Parsed::new();
                    for (_, s) in part {
                        if let (Some(id), Some(_), None) = (s.id, s.done, &s.error) {
                            let t = Instant::now();
                            match fetch_result(addr, id, &mut parsed) {
                                Ok((r, rtt)) => {
                                    rtts.push(ms(rtt));
                                    s.result = Some(r);
                                    s.result_span = Some((t, t + rtt));
                                }
                                Err(e) => s.error = Some(e),
                            }
                        }
                    }
                    rtts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fetch thread"))
            .collect()
    });
    samples.result_ms.extend(fetched.into_iter().flatten());
    phases.push(("fetch", Instant::now()));
    let peak_rss = server.peak_rss_mb();
    let log = server.stop();

    // Checks: every result against execute_job in this process.
    let mut failures = Vec::new();
    let mut datasets = BTreeMap::new();
    let mut refs: Vec<Option<Reference>> = Vec::new();
    let mut donors: Vec<Option<SavedModel>> = Vec::new();
    let warm_results = warm_results.unwrap_or_else(|e| {
        failures.push(format!("warm results: {e}"));
        Vec::new()
    });
    for (k, body) in warm.iter().enumerate() {
        match reference(body, None, &mut datasets) {
            Ok((r, model)) => {
                if warm_results
                    .get(k)
                    .is_some_and(|w| w.0 != r.digest || w.1.to_bits() != r.jaccard.to_bits())
                {
                    failures.push(format!("warm job {k} ({body}) differs from execute_job"));
                }
                refs.push(Some(r));
                donors.push(model);
            }
            Err(e) => {
                failures.push(e);
                refs.push(None);
                donors.push(None);
            }
        }
    }
    // Offline references for every job that ran a pipeline, computed on
    // the generator's threads now that the server is gone.
    let wanted: Vec<usize> = (0..plan.len())
        .filter(|&i| plan[i].class != Class::Repeat)
        .collect();
    let mut offline: BTreeMap<usize, Result<Reference, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (wanted, plan, donors) = (&wanted, &plan, &donors);
                scope.spawn(move || {
                    let mut datasets = BTreeMap::new();
                    let mut out = Vec::new();
                    for &i in wanted.iter().skip(t).step_by(threads) {
                        let a = &plan[i];
                        let reuse = match a.class {
                            Class::Reuse => donors[a.donor.expect("donor index")].clone(),
                            _ => None,
                        };
                        let r = if a.class == Class::Reuse && reuse.is_none() {
                            Err("its donor has no offline model".to_owned())
                        } else {
                            reference(&a.body, reuse, &mut datasets).map(|(r, _)| r)
                        };
                        out.push((i, r));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut ledger = Ledger::open(&ctx.ledger_dir, &ctx.ledger_key);
    let mut latencies = Vec::new();
    let mut hit_latencies = Vec::new();
    let mut fresh_latencies = Vec::new();
    let mut reuse_latencies = Vec::new();
    let mut hit_submits = Vec::new();
    let mut queue_waits = Vec::new();
    let mut lateness = Vec::new();
    let mut jac = Vec::new();
    let mut mjac = Vec::new();
    let mut good = 0usize;
    let mut refused = 0usize;
    let mut polls = 0usize;
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    for (i, s) in &seen {
        let a = &plan[*i];
        let due = start + a.offset;
        if let Some(sent) = s.sent {
            lateness.push(ms(sent.saturating_duration_since(due)));
        }
        polls += s.polls.len();
        let verdict = (|| -> Result<(f64, f64, Option<f64>), String> {
            if s.refused {
                refused += 1;
                return Err("refused with 503".to_owned());
            }
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            let (done, (digest, j)) = match (s.done, s.result) {
                (Some(d), Some(r)) => (d, r),
                _ => return Err("never finished".to_owned()),
            };
            let want = match a.class {
                Class::Repeat => refs[a.donor.expect("warm index")]
                    .as_ref()
                    .map(|r| (r.digest, r.jaccard, r.multi_jaccard, None))
                    .ok_or_else(|| "its warm spec has no offline reference".to_owned()),
                Class::Fresh | Class::Reuse => offline
                    .remove(i)
                    .expect("a reference per pipeline job")
                    .map(|r| (r.digest, r.jaccard, r.multi_jaccard, Some(r.run_ms))),
            }?;
            if want.0 != digest || want.1.to_bits() != j.to_bits() {
                return Err(format!("result differs from execute_job on {}", a.body));
            }
            ledger.check(*i as u64, digest, j)?;
            Ok((ms(done.saturating_duration_since(due)), want.2, want.3))
        })();
        match verdict {
            Ok((latency, mj, run_ms)) => {
                latencies.push(latency);
                jac.push(s.result.map_or(0.0, |r| r.1));
                mjac.push(mj);
                if latency <= LIMIT_MS {
                    good += 1;
                }
                match a.class {
                    Class::Repeat => hit_latencies.push(latency),
                    Class::Fresh => fresh_latencies.push(latency),
                    Class::Reuse => reuse_latencies.push(latency),
                }
                if a.class == Class::Repeat {
                    if let (Some(sent), Some(acked)) = (s.sent, s.acked) {
                        hit_submits.push(ms(acked - sent));
                    }
                } else if let (Some(acked), Some(deq)) = (s.acked, s.dequeued) {
                    queue_waits.push(ms(deq.saturating_duration_since(acked)));
                }
                if ctx.trace {
                    trace_job(&mut tracer, *i as u64, due, s, run_ms, durable);
                }
            }
            Err(e) => failures.push(format!("job {i}: {e}")),
        }
    }
    ledger.save();
    phases.push(("checks", Instant::now()));
    let phase_s: Vec<String> = phases
        .windows(2)
        .map(|w| format!("\"{}\":{}", w[1].0, util::num((w[1].1 - w[0].1).as_secs_f64())))
        .collect();
    out.info_raw("phase_s", format!("{{{}}}", phase_s.join(",")));
    if !log.is_empty() && !failures.is_empty() {
        for line in log.iter().rev().take(10) {
            eprintln!("perfbench: server: {line}");
        }
    }
    out.attempted = plan.len() as u64;
    out.info("ledger_compared", ledger.compared as f64);
    out.info("steal_share", steal);
    out.info("offered_per_s", RATE);
    out.info("arrivals", plan.len() as f64);
    out.tail("job", &latencies);
    out.tail("hit_job", &hit_latencies);
    out.tail("fresh_job", &fresh_latencies);
    out.tail("reuse_job", &reuse_latencies);
    out.tail("submit", &samples.submit_ms);
    out.tail("poll", &samples.poll_ms);
    out.tail("result", &samples.result_ms);
    out.tail("late", &lateness);
    let stat = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let delta = |k: &str| stat(&stats1, k) - stat(&stats0, k);
    let pdelta = |k: &str| prom_total(&metrics1, k) - prom_total(&metrics0, k);
    if ctx.trace {
        let handled = pdelta("marioh_http_request_seconds_count");
        let handle_ms = util::ratio(pdelta("marioh_http_request_seconds_sum") * 1e3, handled);
        let all: Vec<f64> = [
            &samples.submit_ms,
            &samples.poll_ms,
            &samples.result_ms,
            &samples.other_ms,
        ]
        .into_iter()
        .flatten()
        .copied()
        .collect();
        let accept_wait = (util::mean(&all) - handle_ms).max(0.0);
        out.layer("server.submit_p50_ms", median(&samples.submit_ms));
        out.layer("server.poll_p50_ms", median(&samples.poll_ms));
        out.layer("server.result_p50_ms", median(&samples.result_ms));
        out.layer("server.handle_ms", handle_ms);
        out.layer("server.accept_wait_ms", accept_wait);
        out.layer("server.polls_per_job", polls as f64 / plan.len() as f64);
        out.layer("server.queue_wait_p50_ms", median(&queue_waits));
        out.layer("server.queue_depth_max", samples.queue_depth_max);
        out.layer("server.hit_job_p50_ms", median(&hit_latencies));
        // A hit's latency is one submit round trip (plus generator
        // lateness); what of it the server did not spend handling is
        // accept wait.
        let hit_mean = util::mean(&hit_latencies);
        let hit_accept = (util::mean(&hit_submits) - handle_ms).max(0.0);
        out.layer("server.hit_accept_share", util::ratio(hit_accept, hit_mean));
        out.layer(
            "store.cache_hit_ratio",
            util::ratio(delta("cache_hits"), delta("jobs_submitted")),
        );
        out.layer("store.fsync_count", pdelta("marioh_store_fsync_total"));
        out.layer("store.fsync_s", pdelta("marioh_store_fsync_seconds_sum"));
        out.layer(
            "store.artifact_bytes",
            pdelta("marioh_store_artifact_bytes_total"),
        );
        out.layer("worker.pipeline_runs", delta("pipeline_runs"));
        out.layer("worker.models_trained", delta("models_trained"));
        out.layer(
            "dispatch.frames",
            pdelta("marioh_dispatch_frames_sent_total")
                + pdelta("marioh_dispatch_frames_received_total"),
        );
        out.layer(
            "dispatch.bytes",
            pdelta("marioh_dispatch_bytes_sent_total")
                + pdelta("marioh_dispatch_bytes_received_total"),
        );
        out.layer(
            "dispatch.heartbeat_p50_ms",
            prom_p50_ms(&metrics0, &metrics1, "marioh_dispatch_heartbeat_seconds"),
        );
        out.layer("loadgen.offered_per_s", plan.len() as f64 / ctx.seconds);
        out.layer("loadgen.late_p99_ms", util::quantile(&lateness, 0.99));
        out.layer("loadgen.refused", refused as f64);
        out.layer("process.cpu_ms_per_job", cpu / plan.len() as f64);
        out.shares(&tracer);
        // A served job's spans are rebuilt from client timestamps, so
        // they tile its latency by construction: coverage and overhead
        // are not measured here and read 0.
        out.layer("trace.coverage", 0.0);
        out.layer("trace.overhead", 0.0);
        out.tracer = Some(tracer);
    } else {
        out.e2e("setup_s", median(&setups));
        out.e2e("jobs_per_s", latencies.len() as f64 / wall);
        out.e2e("goodput_per_s", good as f64 / wall);
        out.e2e("job_p50_ms", median(&hit_latencies));
        // The two classes' latencies barely overlap, so a median over
        // both would sit in the gap between them and jump; the mean of
        // the class medians weighs them equally and stays put.
        out.e2e(
            "pipeline_job_p50_ms",
            (median(&fresh_latencies) + median(&reuse_latencies)) / 2.0,
        );
        out.e2e("jaccard", util::mean(&jac));
        out.e2e("multi_jaccard", util::mean(&mjac));
        out.e2e("peak_rss_mb", peak_rss);
        out.info("cpu_ms_per_job", cpu / plan.len() as f64);
    }
    out.failures = failures;
    out
}

/// The spans of one served job, rebuilt from what the client observed:
/// the generator's lateness, the submit round trip, the wait in the
/// server's queue (with the status polls that fell in it) and the run
/// on a worker (or shard). The run holds the pipeline itself, as long
/// as `execute_job` took in this process on the same spec (`run_ms`),
/// and the status poll that saw `done`; the rest of the run is the
/// hand-off to the worker or shard, the wire, persisting, and the wait
/// for the next poll. The result fetch, which follows `done`, is
/// recorded outside the job.
fn trace_job(tr: &mut Tracer, op: u64, due: Instant, s: &Seen, run_ms: Option<f64>, durable: bool) {
    let (Some(sent), Some(acked), Some(done)) = (s.sent, s.acked, s.done) else {
        return;
    };
    let root = tr.add(JOB, op, due, done, None);
    tr.add("loadgen", op, due, sent.max(due), Some(root));
    tr.add("server", op, sent.max(due), acked, Some(root));
    let deq = s.dequeued.unwrap_or(done).clamp(acked, done);
    if done > acked {
        let queued = tr.add("server", op, acked, deq, Some(root));
        let run = tr.add(
            if durable { "dispatch" } else { "worker" },
            op,
            deq,
            done,
            Some(root),
        );
        for &(p0, p1) in s.polls.iter().filter(|(p0, _)| *p0 < deq) {
            tr.add("server", op, p0, p1.min(deq), Some(queued));
        }
        let last_poll = s
            .polls
            .last()
            .map_or(done, |(p0, _)| (*p0).clamp(deq, done));
        if done > deq {
            tr.add("server", op, last_poll, done, Some(run));
        }
        if let Some(run_ms) = run_ms {
            let pipeline = deq + Duration::from_secs_f64(run_ms / 1e3);
            tr.add("pipeline", op, deq, pipeline.min(last_poll), Some(run));
        }
    }
    if let Some((r0, r1)) = s.result_span {
        tr.add("result", op, r0, r1, None);
    }
}
