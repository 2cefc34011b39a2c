//! `serve_mixed`: `repro serve` at its default flags, driven by a closed
//! loop of two client connections over a fixed, seed-derived sequence of
//! test-scale campaign jobs in three classes.
//!
//! - **fresh**: a campaign on a seed no earlier job used, so the world
//!   pool misses and the job builds and probes;
//! - **variant**: a new `threshold_ms` on one of the last seeds whose
//!   fresh job this connection has already finished, so world and probes
//!   hit the memo;
//! - **dedupe**: an exact resubmission of a job this connection has
//!   already finished, answered by content address.
//!
//! Each connection owns its own jobs, and a closed loop sends its next job
//! only after the last one's artifact arrived, so a variant or a dedupe
//! never races the job it depends on.
//!
//! Polling rule: after a submission that is not already `done`, the
//! client polls `GET /v1/jobs/<id>` at once and then every
//! [`POLL_INTERVAL`] until the job is terminal, then fetches
//! `GET /v1/jobs/<id>/result`. A job's latency runs from the submission
//! until the artifact bytes have arrived. The API opens one connection
//! per request; the client holds at most one open at a time.
//!
//! Every pass starts a fresh server, so each pass runs the same sequence
//! against a cold world pool. Served artifacts are checked, after the
//! timed passes and in this process, against `rp_server::run_job` on the
//! same spec.

use crate::layers::{self, Metrics};
use crate::stats::{self, median, percentile};
use crate::trace::{self, Tracer};
use crate::{calib, child, procfs};
use crate::{done, host_steal_pct, object, overhead_pct, Args, MIN_SAMPLES};
use remote_peering::world::Scale;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Client connections, each a closed loop.
pub const CONNECTIONS: usize = 2;
/// Jobs per connection per pass, by class: fresh, variant, dedupe.
const QUOTA: [usize; 3] = [15, 20, 15];
/// A variant picks its seed among this many of the connection's latest
/// fresh seeds, so its probe set is still among the few the probe memo
/// keeps while both connections add fresh ones.
const RECENT: usize = 2;
/// Pause between status polls of one job.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Pause before resubmitting a job the server refused with 429.
const RETRY_PAUSE: Duration = Duration::from_millis(50);
/// Longest wait for the server to come up or to drain.
const SERVER_DEADLINE: Duration = Duration::from_secs(60);

/// The three job classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Fresh,
    Variant,
    Dedupe,
}

/// One job of the sequence: its class and exact request body.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub class: Class,
    pub body: String,
}

/// SplitMix64: a small, fixed generator for the job sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn campaign_body(seed: u64, threshold_ms: Option<f64>) -> String {
    match threshold_ms {
        None => format!(r#"{{"kind": "campaign", "scale": "test", "seed": {seed}}}"#),
        Some(t) => format!(
            r#"{{"kind": "campaign", "scale": "test", "seed": {seed}, "params": {{"threshold_ms": {t:?}}}}}"#
        ),
    }
}

/// The job sequence of each connection, derived from `seed` alone.
pub fn sequence(seed: u64) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed);
    let mut used_seeds = std::collections::BTreeSet::new();
    (0..CONNECTIONS)
        .map(|_| {
            let mut left = QUOTA;
            let mut jobs: Vec<Job> = Vec::new();
            // Per fresh seed: the thresholds its variants have used.
            let mut fresh: Vec<(u64, Vec<f64>)> = Vec::new();
            while left.iter().sum::<usize>() > 0 {
                // Draw a class in proportion to what is left of its quota,
                // among the classes whose prerequisites exist.
                let allowed = [true, !fresh.is_empty(), !jobs.is_empty()];
                let weights: Vec<usize> = (0..3)
                    .map(|c| if allowed[c] { left[c] } else { 0 })
                    .collect();
                let mut pick = rng.below(weights.iter().sum());
                let class = (0..3)
                    .find(|&c| {
                        if pick < weights[c] {
                            true
                        } else {
                            pick -= weights[c];
                            false
                        }
                    })
                    .expect("a class with quota left");
                left[class] -= 1;
                let job = match class {
                    0 => {
                        // Small seeds keep the JSON numbers exact.
                        let s = loop {
                            let s = 1 + rng.next() % 1_000_000_000;
                            if used_seeds.insert(s) {
                                break s;
                            }
                        };
                        fresh.push((s, Vec::new()));
                        Job {
                            class: Class::Fresh,
                            body: campaign_body(s, None),
                        }
                    }
                    1 => {
                        let recent = fresh.len().min(RECENT);
                        let k = fresh.len() - 1 - rng.below(recent);
                        let (s, thresholds) = &mut fresh[k];
                        let t = loop {
                            let t = 2.0 + 0.5 * rng.below(97) as f64;
                            if !thresholds.contains(&t) {
                                break t;
                            }
                        };
                        thresholds.push(t);
                        Job {
                            class: Class::Variant,
                            body: campaign_body(*s, Some(t)),
                        }
                    }
                    _ => {
                        let earlier = jobs[rng.below(jobs.len())].body.clone();
                        Job {
                            class: Class::Dedupe,
                            body: earlier,
                        }
                    }
                };
                jobs.push(job);
            }
            jobs
        })
        .collect()
}

/// One HTTP/1.1 request over a fresh connection; `(status, body)`.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(SERVER_DEADLINE))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| bad())?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[end + 4..].to_vec()))
}

/// What one job saw.
#[derive(Debug)]
pub struct JobOutcome {
    pub class: Class,
    pub body: String,
    pub id: String,
    pub latency_ms: f64,
    /// The worker's `elapsed_ms`, when the client saw the job finish.
    pub service_ms: Option<f64>,
    /// Round trip of every HTTP request the job made.
    pub requests_ms: Vec<f64>,
    /// Submissions refused with 429 before one was accepted.
    pub refusals: u64,
    pub artifact: Result<String, String>,
}

fn json_of(body: &[u8]) -> Result<Value, String> {
    serde_json::from_str(&String::from_utf8_lossy(body)).map_err(|e| e.to_string())
}

fn text_field(doc: &Value, key: &str) -> String {
    doc.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Run one job to its artifact.
fn run_job(addr: &str, job: &Job, tracer: &Tracer, parent: Option<usize>) -> JobOutcome {
    let span = tracer.span("client.job", parent);
    let started = Instant::now();
    let mut requests_ms = Vec::new();
    let mut refusals = 0;
    let mut request = |method: &str, path: &str, body: &str| {
        let _s = tracer.span("client.http", span.id());
        let t = Instant::now();
        let r = http(addr, method, path, body);
        requests_ms.push(t.elapsed().as_secs_f64() * 1e3);
        r.map_err(|e| format!("{method} {path}: {e}"))
    };
    let mut id = String::new();
    let mut service_ms = None;
    let mut fetch = || -> Result<String, String> {
        let (status, body) = loop {
            let (status, body) = request("POST", "/v1/jobs", &job.body)?;
            if status != 429 {
                break (status, body);
            }
            refusals += 1;
            std::thread::sleep(RETRY_PAUSE);
        };
        if status != 200 && status != 202 {
            return Err(format!("submit: HTTP {status}"));
        }
        let doc = json_of(&body)?;
        id = text_field(&doc, "id");
        let mut state = text_field(&doc, "state");
        while state != "done" {
            if matches!(state.as_str(), "failed" | "cancelled") {
                return Err(format!("job {id} ended {state}"));
            }
            let (status, body) = request("GET", &format!("/v1/jobs/{id}"), "")?;
            if status != 200 {
                return Err(format!("status: HTTP {status}"));
            }
            let doc = json_of(&body)?;
            state = text_field(&doc, "state");
            service_ms = doc.get("elapsed_ms").and_then(Value::as_f64);
            if state != "done" {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        let (status, body) = request("GET", &format!("/v1/jobs/{id}/result"), "")?;
        if status != 200 {
            return Err(format!("result: HTTP {status}"));
        }
        String::from_utf8(body).map_err(|_| "result is not UTF-8".to_string())
    };
    let artifact = fetch();
    JobOutcome {
        class: job.class,
        body: job.body.clone(),
        id,
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
        service_ms,
        requests_ms,
        refusals,
        artifact,
    }
}

/// One pass: a fresh server, the whole sequence, a graceful drain.
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    pub outcomes: Vec<JobOutcome>,
    pub proc: procfs::ProcSample,
    pub ctx_switches: u64,
    /// The server's counters before the drain (traced passes only).
    pub counters: BTreeMap<String, u64>,
    /// The server exited 0 after draining.
    pub drained: bool,
    /// The host's steal share over the pass.
    pub steal: f64,
}

impl Pass {
    /// Each job's latency at the reference host's speed on a run with
    /// speed factor `speed`, ms: its service time (the worker's compute)
    /// scaled by [`calib::compute_scale`], the rest (HTTP, the accept
    /// loop's sleeps, polling) as measured. A job answered without running
    /// has no service time.
    pub fn reference_latencies_ms(&self, speed: f64) -> Vec<f64> {
        let scale = calib::compute_scale(speed, self.steal);
        self.outcomes
            .iter()
            .map(|o| {
                let service = o.service_ms.unwrap_or(0.0).min(o.latency_ms);
                o.latency_ms - service * (1.0 - scale)
            })
            .collect()
    }

    /// The pass's wall time at the reference host's speed, s: the share of
    /// it each connection spent on service is scaled as in
    /// [`Pass::reference_latencies_ms`].
    pub fn reference_wall_s(&self, speed: f64) -> f64 {
        let scale = calib::compute_scale(speed, self.steal);
        let service_ms: f64 = self
            .outcomes
            .iter()
            .map(|o| o.service_ms.unwrap_or(0.0).min(o.latency_ms))
            .sum();
        self.wall_s - service_ms / 1e3 / CONNECTIONS as f64 * (1.0 - scale)
    }
}

/// A running `repro serve` child.
struct Server {
    child: std::process::Child,
    addr: String,
    log: std::thread::JoinHandle<()>,
    /// From spawn until `/healthz` answered.
    setup_s: f64,
}

impl Server {
    /// Spawn the server at its default flags (a free local port, outputs
    /// under `out_dir`) and wait until `/healthz` answers.
    fn start(repro: &Path, out_dir: &Path) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(repro)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--out"])
            .arg(out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        // Read the bound address from the log, then keep draining the log
        // so the server never blocks on a full pipe.
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("serving on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let up = rx
            .recv_timeout(SERVER_DEADLINE)
            .map_err(|_| "server did not report its address".to_string())
            .and_then(|addr| loop {
                if matches!(http(&addr, "GET", "/healthz", ""), Ok((200, _))) {
                    break Ok(addr);
                }
                if spawned.elapsed() > SERVER_DEADLINE {
                    break Err("server never answered /healthz".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            });
        match up {
            Ok(addr) => Ok(Server {
                child,
                addr,
                log,
                setup_s: spawned.elapsed().as_secs_f64(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = log.join();
                Err(e)
            }
        }
    }

    /// Ask for a graceful drain and reap the process.
    fn stop(mut self) -> Result<procfs::Exit, String> {
        let _ = http(&self.addr, "POST", "/v1/shutdown", "");
        let pid = self.child.id();
        let (tx, rx) = mpsc::channel();
        let reaper = std::thread::spawn(move || {
            let _ = tx.send(procfs::reap(pid));
        });
        let reaped = match rx.recv_timeout(SERVER_DEADLINE) {
            Ok(r) => r,
            Err(_) => {
                let _ = self.child.kill();
                rx.recv()
                    .unwrap_or_else(|_| Err(std::io::Error::other("reaper vanished")))
            }
        };
        let _ = reaper.join();
        let _ = self.log.join();
        reaped.map_err(|e| format!("wait for the server: {e}"))
    }
}

/// Start a server and stop it again: one more set-up sample.
pub fn setup_only(repro: &Path, out_dir: &Path) -> Result<f64, String> {
    let server = Server::start(repro, out_dir)?;
    let setup_s = server.setup_s;
    if server.stop()?.success {
        Ok(setup_s)
    } else {
        Err("the server did not drain cleanly".into())
    }
}

/// Run one pass against a new `repro serve` child.
pub fn pass(
    repro: &Path,
    jobs: &[Vec<Job>],
    out_dir: &Path,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let server = Server::start(repro, out_dir)?;
    let root = tracer.span("serve_mixed.pass", None);
    let started = Instant::now();
    let outcomes: Vec<JobOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|list| {
                let addr = server.addr.as_str();
                let parent = root.id();
                s.spawn(move || {
                    list.iter()
                        .map(|job| run_job(addr, job, tracer, parent))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(root);

    let pid = server.child.id();
    let proc = procfs::read(Some(pid)).map_err(|e| format!("read /proc/{pid}: {e}"));
    let counters = if tracer.enabled() {
        match http(&server.addr, "GET", "/metrics", "") {
            Ok((200, body)) => json_of(&body).map(|doc| layers::counters_from_json(&doc)),
            _ => Err("GET /metrics failed".to_string()),
        }
    } else {
        Ok(BTreeMap::new())
    };
    let setup_s = server.setup_s;
    let exit = server.stop()?;
    Ok(Pass {
        setup_s,
        wall_s,
        outcomes,
        proc: proc?,
        ctx_switches: exit.ctx_switches,
        counters: counters?,
        drained: exit.success,
        steal: 0.0,
    })
}

/// Per-layer figures of the server's own passes: its process, its
/// counters, and what the clients saw of HTTP, service and waiting.
pub fn server_layers(passes: &[&Pass]) -> Metrics {
    let med = |f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut m = Metrics::new();
    m.insert("process.user_s".into(), med(&|p| p.proc.user_s));
    m.insert("process.sys_s".into(), med(&|p| p.proc.sys_s));
    m.insert(
        "process.ctx_switches".into(),
        med(&|p| p.ctx_switches as f64),
    );
    let from_counters: Vec<Metrics> = passes
        .iter()
        .map(|p| layers::from_counters(&p.counters))
        .collect();
    if let Some(first) = from_counters.first() {
        for name in first.keys() {
            let values: Vec<f64> = from_counters.iter().map(|c| c[name]).collect();
            m.insert(name.clone(), median(&values).unwrap_or(0.0));
        }
    }
    m.insert(
        "server.dedupe_ratio".into(),
        med(&|p| {
            let get = |n: &str| p.counters.get(n).copied().unwrap_or(0);
            let deduped = get("server.jobs.deduped");
            layers::hit_ratio(deduped, get("server.jobs.submitted"))
        }),
    );
    let outcomes = passes.iter().flat_map(|p| p.outcomes.iter());
    let requests: Vec<f64> = outcomes
        .clone()
        .flat_map(|o| o.requests_ms.iter().copied())
        .collect();
    let service: Vec<f64> = outcomes.clone().filter_map(|o| o.service_ms).collect();
    let waits: Vec<f64> = outcomes
        .filter_map(|o| o.service_ms.map(|s| o.latency_ms - s))
        .collect();
    m.insert(
        "server.http_request_ms".into(),
        median(&requests).unwrap_or(0.0),
    );
    m.insert(
        "server.job_service_ms".into(),
        median(&service).unwrap_or(0.0),
    );
    m.insert("server.queue_wait_ms".into(), median(&waits).unwrap_or(0.0));
    m
}

/// Latency percentile over every job of `passes` at the reference host's
/// speed, ms.
pub fn latency_ms(passes: &[&Pass], p: f64, speed: f64) -> f64 {
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|x| x.reference_latencies_ms(speed))
        .collect();
    percentile(&all, p).unwrap_or(0.0)
}

/// Server start-ups `serve_mixed` times before its passes.
const SERVER_SETUPS: usize = 8;

/// The `repro` binary, built next to this executable.
pub fn repro_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let repro = exe.with_file_name("repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!("{} is missing; build it first", repro.display()))
    }
}

/// Run `serve_mixed` for `a.seconds`: server set-ups, then passes, then
/// verification against `run_job` outside the timed window.
pub(crate) fn run(a: &Args) -> Result<crate::Outcome, String> {
    let repro = repro_path()?;
    let jobs = sequence(a.seed);
    let dir = PathBuf::from(child::OUT_DIR).join("serve_mixed");
    let mut out = crate::Outcome::new();
    // Set-ups beyond the passes' own, so their median rests on more
    // samples than the few passes a run has time for.
    let mut setups = Vec::new();
    for _ in 0..if a.trace { 0 } else { SERVER_SETUPS } {
        out.attempted += 1;
        match setup_only(&repro, &dir) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("serve_mixed set-up: {e}");
                out.failed += 1;
            }
        }
    }
    // (traced, pass)
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut tracers = Vec::new();
    let started = Instant::now();
    let mut calibrations = calib::Calibrations::default();
    calibrations.take();
    for k in 0.. {
        let t = Instant::now();
        let traced = a.trace && k % 2 == 1;
        let tracer = Tracer::new(traced);
        let _ = std::fs::remove_dir_all(&dir);
        let ticks = procfs::cpu_ticks().unwrap_or_default();
        let result = pass(&repro, &jobs, &dir, &tracer);
        let steal = procfs::steal_share(ticks, procfs::cpu_ticks().unwrap_or_default());
        calibrations.take();
        match result {
            Ok(mut p) => {
                p.steal = steal;
                eprintln!(
                    "serve_mixed pass {k}{}: wall {:.3} s, cpu {:.2} s, host steal {:.1}%",
                    if traced { " traced" } else { "" },
                    p.wall_s,
                    p.proc.cpu_s(),
                    steal * 100.0
                );
                passes.push((traced, p))
            }
            Err(e) => {
                eprintln!("serve_mixed pass {k}: {e}");
                let n = jobs.iter().map(Vec::len).sum::<usize>() as u64 + 1;
                out.attempted += n;
                out.failed += n;
            }
        }
        tracers.push(tracer);
        let _ = std::fs::remove_dir_all(&dir);
        let min = if a.trace { 2 } else { MIN_SAMPLES };
        let projected = started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64();
        if done(k + 1, min, projected, a.seconds) {
            break;
        }
    }

    let speed = calibrations.speed();
    eprintln!("serve_mixed: host speed factor {speed:.4}");

    // Outside the timed passes and the server: the reference artifact of
    // every distinct job, from the shared job path. Traced, this replay
    // also gives the span figures of the jobs' layers.
    let stream = dir.with_file_name("serve_mixed_replay.jsonl");
    if a.trace {
        rp_obs::enable();
        rp_obs::trace::install_jsonl(&stream).map_err(|e| e.to_string())?;
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .map_err(|e| e.to_string())?;
    let mut reference: BTreeMap<&str, (String, String)> = BTreeMap::new();
    for job in jobs.iter().flatten() {
        if !reference.contains_key(job.body.as_str()) {
            let value = serde_json::from_str(&job.body).map_err(|e| e.to_string())?;
            let spec = rp_server::JobSpec::parse(&value)?;
            let result = rp_server::run_job(&spec);
            reference.insert(&job.body, (spec.id(), result.artifact));
        }
    }
    if a.corrupt {
        if let Some(Ok(artifact)) = passes.first_mut().map(|p| &mut p.1.outcomes[0].artifact) {
            child::corrupt(artifact);
        }
    }
    for (_, pass) in &passes {
        out.attempted += 1;
        if !pass.drained {
            eprintln!("serve_mixed: the server did not drain cleanly");
            out.failed += 1;
        }
        for o in &pass.outcomes {
            out.attempted += 1 + o.refusals;
            out.failed += o.refusals;
            let (id, bytes) = &reference[o.body.as_str()];
            match &o.artifact {
                Ok(a) if a == bytes && &o.id == id => {}
                Ok(_) => {
                    eprintln!("serve_mixed: job {} differs from run_job", o.id);
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("serve_mixed: {e}");
                    out.failed += 1;
                }
            }
        }
    }

    let steal_pct = host_steal_pct(passes.iter().map(|p| p.1.steal));
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.0).map(|p| &p.1).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.0).map(|p| &p.1).collect();
    if plain.is_empty() || (a.trace && traced.is_empty()) {
        return Ok(out);
    }
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    if a.trace {
        rp_obs::trace::finish().map_err(|e| e.to_string())?;
        let jsonl = std::fs::read_to_string(&stream).map_err(|e| e.to_string())?;
        let mut measured = layers::program(
            &rp_obs::span::snapshot_tree(),
            &layers::local_counters(),
            &jsonl,
            rayon::current_num_threads(),
        );
        let program_spans = rp_obs::report::span_tree_json();
        measured.extend(server_layers(&traced));
        let first_fresh = jobs[0]
            .iter()
            .find(|j| j.class == Class::Fresh)
            .and_then(|j| serde_json::from_str(&j.body).ok())
            .and_then(|v: Value| v.get("seed").and_then(Value::as_u64))
            .expect("every connection starts with a fresh job");
        measured.insert(
            "world.approx_mb".into(),
            layers::world_mb(Scale::Test, first_fresh),
        );
        let battery_tracer = Tracer::new(true);
        measured.extend(layers::fork_battery(
            Scale::Test,
            first_fresh,
            &battery_tracer,
        ));
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        measured.insert(
            "bench.trace_overhead_pct".into(),
            overhead_pct(&traced_walls, &walls),
        );
        measured.insert("bench.failed_ratio".into(), out.failed_ratio());
        measured.insert("bench.host_steal_pct".into(), steal_pct);
        measured.insert("bench.host_speed".into(), speed);
        let mut all: Vec<&Tracer> = tracers.iter().collect();
        all.push(&battery_tracer);
        let spans = concat_spans(&all);
        child::write_trace_file(
            "serve_mixed",
            a.seed,
            &json!({
                "workload": "serve_mixed",
                "seed": a.seed,
                "benchmark": trace::to_json(&spans),
                "program_spans": program_spans,
                "layers": object(&measured),
            }),
        );
        out.per_layer(&measured, traced.len());
        return Ok(out);
    }
    let n = plain.len();
    let med = |f: &dyn Fn(&Pass) -> f64| {
        median(&plain.iter().map(|p| f(p)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let jobs_done: usize = plain.iter().map(|p| p.outcomes.len()).sum();
    // Set-up is the server's start and the accept loop's sleep, not
    // compute, so it is reported as measured; the other times at the
    // reference host's speed (see `calib`).
    setups.extend(plain.iter().map(|p| p.setup_s));
    out.metric("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    out.metric("wall_s", med(&|p| p.reference_wall_s(speed)), n);
    out.metric("cpu_s", med(&|p| p.proc.cpu_s()) * speed, n);
    out.metric("peak_rss_mb", med(&|p| p.proc.peak_rss_mb()), n);
    out.metric(
        "jobs_per_s",
        jobs_done as f64 / plain.iter().map(|p| p.reference_wall_s(speed)).sum::<f64>(),
        n,
    );
    out.metric(
        "job_latency_p50_ms",
        latency_ms(&plain, 50.0, speed),
        jobs_done,
    );
    out.metric(
        "job_latency_p90_ms",
        latency_ms(&plain, 90.0, speed),
        jobs_done,
    );
    for class in [Class::Fresh, Class::Variant, Class::Dedupe] {
        let ms: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.outcomes.iter().filter(|o| o.class == class))
            .map(|o| o.latency_ms)
            .collect();
        eprintln!(
            "serve_mixed: {class:?} jobs: {} (p50 {:.1} ms, p90 {:.1} ms)",
            ms.len(),
            median(&ms).unwrap_or(0.0),
            percentile(&ms, 90.0).unwrap_or(0.0)
        );
    }
    if stats::supported_percentile(jobs_done, 10, &stats::LADDER).unwrap_or(0.0) < 90.0 {
        eprintln!("serve_mixed: only {jobs_done} jobs; p90 rests on fewer than 10 beyond it");
    }
    Ok(out)
}

/// The spans of several tracers as one list, parent indexes shifted.
fn concat_spans(tracers: &[&Tracer]) -> Vec<trace::Span> {
    let mut out: Vec<trace::Span> = Vec::new();
    for t in tracers {
        let base = out.len();
        out.extend(t.spans().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_seeded_and_respect_dependencies() {
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
        let conns = sequence(7);
        assert_eq!(conns.len(), CONNECTIONS);
        let mut all_fresh = Vec::new();
        for jobs in &conns {
            let count = |c: Class| jobs.iter().filter(|j| j.class == c).count();
            assert_eq!(
                [
                    count(Class::Fresh),
                    count(Class::Variant),
                    count(Class::Dedupe)
                ],
                QUOTA
            );
            for (i, job) in jobs.iter().enumerate() {
                let earlier = &jobs[..i];
                let seed_of = |body: &str| {
                    let v: Value = serde_json::from_str(body).expect("body is JSON");
                    v.get("seed").and_then(Value::as_u64)
                };
                match job.class {
                    Class::Fresh => {
                        assert!(!earlier.iter().any(|j| j.body == job.body));
                        all_fresh.push(job.body.clone());
                    }
                    // A variant's seed is one of the last fresh seeds of
                    // this connection, and the variant itself is new.
                    Class::Variant => {
                        let fresh: Vec<_> = earlier
                            .iter()
                            .filter(|j| j.class == Class::Fresh)
                            .map(|j| seed_of(&j.body))
                            .collect();
                        let recent = &fresh[fresh.len().saturating_sub(RECENT)..];
                        assert!(recent.contains(&seed_of(&job.body)));
                        assert!(!earlier.iter().any(|j| j.body == job.body));
                    }
                    Class::Dedupe => assert!(earlier.iter().any(|j| j.body == job.body)),
                }
            }
        }
        let distinct: std::collections::BTreeSet<_> = all_fresh.iter().collect();
        assert_eq!(distinct.len(), all_fresh.len(), "fresh seeds never repeat");
    }

    #[test]
    fn job_bodies_parse_as_campaign_specs() {
        for job in sequence(3).iter().flatten() {
            let v = serde_json::from_str(&job.body).expect("body is JSON");
            let spec = rp_server::JobSpec::parse(&v).expect("body is a valid job");
            assert_eq!(spec.kind(), "campaign");
        }
    }
}
