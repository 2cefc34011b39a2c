//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload paper_all|check_test|serve_mixed --seed N
//!           --seconds S --trace 0|1 [--corrupt]
//! ```
//!
//! One run measures one workload for about `S` seconds, checks every
//! output, prints each metric by name with its unit, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with all
//! tracing off; with `--trace 1` they are the per-layer ones, from runs
//! with the benchmark's spans and the program's `rp-obs` collection on,
//! paired with untraced runs to give the tracing overhead. `--corrupt`
//! damages one artifact before verification, to show that verification
//! catches it.
//!
//! Every sample runs in a fresh process. `paper_all` runs `repro all`,
//! built next to this executable; `check_test` runs this executable in
//! `child` mode; `serve_mixed` runs `repro serve`.

mod calib;
mod check_test;
mod child;
mod layers;
mod paper_all;
mod procfs;
mod serve_mixed;
mod stats;
mod trace;

use layers::Metrics;
use remote_peering::world::Scale;
use serde_json::{json, Value};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;

/// Every end-to-end metric with its unit, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
];

/// Fewest samples (set-ups included) a run takes, however long they are.
/// Every sample is timed; a run reports the median.
const MIN_SAMPLES: usize = 3;

const USAGE: &str = "usage: perfbench --workload paper_all|check_test|serve_mixed \
                     --seed N --seconds S --trace 0|1 [--corrupt]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--corrupt" => out.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["paper_all", "check_test", "serve_mixed"].contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    if out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// A map as a JSON object.
pub fn object<T: serde_json::ToJson>(map: &BTreeMap<String, T>) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
}

/// A JSON value on one line (the vendored writer only pretty-prints;
/// its line breaks are all formatting, since strings escape theirs).
pub fn one_line(v: &Value) -> String {
    serde_json::to_string_pretty(v)
        .expect("serialize")
        .lines()
        .map(str::trim_start)
        .collect()
}

/// A finished run: operations attempted and failed, and the metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str, usize)>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(layers::PER_LAYER)
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("every metric is declared");
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Report the per-layer set: measured values, 0 for layers this
    /// workload does not exercise.
    fn per_layer(&mut self, measured: &Metrics, samples: usize) {
        for &(name, _) in layers::PER_LAYER {
            let value = measured.get(name).copied().unwrap_or(0.0);
            self.metric(name, value, samples);
        }
    }
}

/// One sample of `paper_all` or `check_test`: a fresh process run to
/// completion, timed from its spawn.
pub struct Sample {
    seed: u64,
    /// Until the first world was built; `None` for a traced `check_test`
    /// sample, which leaves that build to the check.
    setup_s: Option<f64>,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The host's steal share while the sample ran.
    steal: f64,
    attempted: u64,
    failed: u64,
    /// Artifact id → digest, for the comparison across samples.
    digests: BTreeMap<String, String>,
    /// Per-layer figures (traced samples).
    layers: Metrics,
}

/// Whether a sampling loop may stop: it has its minimum of samples and
/// the next one would overrun `seconds`.
fn done(taken: usize, min: usize, projected: f64, seconds: f64) -> bool {
    taken >= min && projected > seconds
}

/// One `check_test` sample: this executable in `child` mode.
fn check_child(seed: u64, traced: bool, corrupt: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "check_test", "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--trace");
    }
    if corrupt {
        cmd.arg("--corrupt");
    }
    let ticks = procfs::cpu_ticks().unwrap_or_default();
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let (mut setup_s, mut wall_s, mut last) = (None, None, String::new());
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.as_str() {
            "setup" => setup_s = Some(started.elapsed().as_secs_f64()),
            "done" => wall_s = Some(started.elapsed().as_secs_f64()),
            _ => last = line,
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let (true, Some(wall_s), true) = (status.success(), wall_s, traced || setup_s.is_some()) else {
        return Err(format!("check_test child (seed {seed}) failed: {status}"));
    };
    let report: Value = serde_json::from_str(&last).map_err(|e| e.to_string())?;
    let table = |key: &str| report.get(key).and_then(Value::as_object);
    Ok(Sample {
        seed,
        setup_s,
        wall_s,
        cpu_s: num(&report, "cpu_s"),
        peak_rss_mb: num(&report, "peak_rss_mb"),
        steal: procfs::steal_share(ticks, procfs::cpu_ticks().unwrap_or_default()),
        attempted: num(&report, "attempted") as u64,
        failed: num(&report, "failed") as u64,
        digests: table("digests")
            .into_iter()
            .flatten()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect(),
        layers: table("layers")
            .into_iter()
            .flatten()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
            .collect(),
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Samples of `a.workload`, one per `take(i, traced, corrupt)` call,
/// until `seconds` are used: the `paper_all` and `check_test` runner. In
/// trace mode each sample is a pair, untraced then traced, on the same
/// seed.
fn run_samples(
    a: &Args,
    ops_per_sample: u64,
    mut take: impl FnMut(usize, bool, bool) -> Result<Sample, String>,
) -> (Outcome, Vec<Sample>, Vec<Sample>, f64) {
    let mut out = Outcome::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut calibrations = calib::Calibrations::default();
    calibrations.take();
    for i in 0.. {
        let t = Instant::now();
        let modes: &[bool] = if a.trace { &[false, true] } else { &[false] };
        for &mode in modes {
            // The self-test damages the first sample only, so the damage
            // also shows as a digest that differs between samples.
            let taken = take(i, mode, a.corrupt && i == 0 && !mode);
            calibrations.take();
            match taken {
                Ok(s) => {
                    eprintln!(
                        "{} seed {}{}: setup {}, wall {:.3} s, cpu {:.2} s, \
                         peak rss {:.1} MB, host steal {:.1}%",
                        a.workload,
                        s.seed,
                        if mode { " traced" } else { "" },
                        s.setup_s.map_or("-".into(), |x| format!("{x:.3} s")),
                        s.wall_s,
                        s.cpu_s,
                        s.peak_rss_mb,
                        s.steal * 100.0
                    );
                    out.attempted += s.attempted;
                    out.failed += s.failed;
                    if mode {
                        traced.push(s)
                    } else {
                        plain.push(s)
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    out.attempted += ops_per_sample;
                    out.failed += ops_per_sample;
                }
            }
        }
        let min = if a.trace { 1 } else { MIN_SAMPLES };
        let projected = started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64();
        if done(i + 1, min, projected, a.seconds) {
            break;
        }
    }
    // Every run of one seed must produce the same bytes, traced or not.
    let digests: Vec<(u64, &BTreeMap<String, String>)> = plain
        .iter()
        .chain(&traced)
        .map(|s| (s.seed, &s.digests))
        .collect();
    out.failed += digest_mismatches(&digests, &a.workload);
    let speed = calibrations.speed();
    eprintln!("{}: host speed factor {speed:.4}", a.workload);
    (out, plain, traced, speed)
}

/// Report a sample runner's results: end-to-end medians, or with
/// `--trace` the median of each per-layer figure over the traced samples
/// plus `extra`.
fn report_samples(
    a: &Args,
    mut out: Outcome,
    plain: &[Sample],
    traced: &[Sample],
    speed: f64,
    extra: Metrics,
) -> Outcome {
    if plain.is_empty() || (a.trace && traced.is_empty()) {
        return out;
    }
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    if a.trace {
        let mut measured = Metrics::new();
        for &(name, _) in layers::PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|s| s.layers.get(name).copied())
                .collect();
            if let Some(m) = median(&values) {
                measured.insert(name.to_string(), m);
            }
        }
        measured.extend(extra);
        let traced_walls: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
        measured.insert(
            "bench.trace_overhead_pct".into(),
            overhead_pct(&traced_walls, &walls),
        );
        measured.insert("bench.failed_ratio".into(), out.failed_ratio());
        measured.insert(
            "bench.host_steal_pct".into(),
            host_steal_pct(plain.iter().chain(traced).map(|s| s.steal)),
        );
        measured.insert("bench.host_speed".into(), speed);
        out.per_layer(&measured, traced.len());
        return out;
    }
    let n = plain.len();
    let med = |f: &dyn Fn(&Sample) -> f64| {
        median(&plain.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    // Times at the reference host's speed (see `calib`).
    let scale = |s: &Sample| calib::compute_scale(speed, s.steal);
    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s * scale(s)).collect();
    out.metric("setup_s", med(&|s| s.setup_s.unwrap_or(0.0) * scale(s)), n);
    out.metric("wall_s", median(&walls).unwrap_or(0.0), n);
    out.metric("cpu_s", med(&|s| s.cpu_s) * speed, n);
    out.metric("peak_rss_mb", med(&|s| s.peak_rss_mb), n);
    out.metric("jobs_per_s", n as f64 / walls.iter().sum::<f64>(), n);
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.metric(
        "job_latency_p50_ms",
        percentile(&ms, 50.0).unwrap_or(0.0),
        n,
    );
    out.metric(
        "job_latency_p90_ms",
        percentile(&ms, 90.0).unwrap_or(0.0),
        n,
    );
    out
}

/// `paper_all`: `repro all --scale paper`, one process per sample.
fn paper_all(a: &Args) -> Result<Outcome, String> {
    let repro = serve_mixed::repro_path()?;
    let tracer = Tracer::new(a.trace);
    let (out, plain, traced, speed) =
        run_samples(a, paper_all::ARTIFACTS.len() as u64, |_, t, c| {
            paper_all::sample(&repro, a.seed, t, c, &tracer)
        });
    let mut extra = Metrics::new();
    if a.trace && !traced.is_empty() {
        // Not timed: the size of the world the samples built.
        extra.insert(
            "world.approx_mb".into(),
            layers::world_mb(Scale::Paper, a.seed),
        );
        let dir = PathBuf::from(child::OUT_DIR).join("paper_all");
        let program_spans = std::fs::read_to_string(dir.join("run_report.json"))
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok())
            .and_then(|doc| doc.get("spans").cloned())
            .unwrap_or(Value::Null);
        child::write_trace_file(
            "paper_all",
            a.seed,
            &json!({
                "workload": "paper_all",
                "seed": a.seed,
                "benchmark": trace::to_json(&tracer.spans()),
                "program_spans": program_spans,
            }),
        );
    }
    Ok(report_samples(a, out, &plain, &traced, speed, extra))
}

/// `check_test`: one checking child per sample, each on the next seed of
/// the run's seed list.
fn check_test(a: &Args) -> Outcome {
    let (out, plain, traced, speed) =
        run_samples(a, 1, |i, t, c| check_child(check_seed(a.seed, i), t, c));
    report_samples(a, out, &plain, &traced, speed, Metrics::new())
}

/// Artifacts whose digest differs from the first run of the same seed.
fn digest_mismatches(runs: &[(u64, &BTreeMap<String, String>)], workload: &str) -> u64 {
    let mut first: BTreeMap<u64, &BTreeMap<String, String>> = BTreeMap::new();
    let mut mismatches = 0;
    for &(seed, digests) in runs {
        let reference = *first.entry(seed).or_insert(digests);
        for (id, d) in digests {
            if reference.get(id) != Some(d) {
                eprintln!("{workload}: {id} differs between runs of seed {seed}");
                mismatches += 1;
            }
        }
    }
    mismatches
}

impl Outcome {
    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median host steal over a run's samples, %.
fn host_steal_pct(steal: impl Iterator<Item = f64>) -> f64 {
    median(&steal.map(|x| x * 100.0).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Traced minus untraced median wall, as a share of the untraced, %.
fn overhead_pct(traced: &[f64], plain: &[f64]) -> f64 {
    match (median(traced), median(plain)) {
        (Some(t), Some(p)) if p > 0.0 => (t - p) / p * 100.0,
        _ => 0.0,
    }
}

/// Seed of the `i`-th check of a run: distinct per run seed and index.
fn check_seed(seed: u64, i: usize) -> u64 {
    let mut rng = serve_mixed::Rng::new(seed ^ 0xc4ec_7e57);
    (0..=i)
        .map(|_| 1 + rng.next() % 1_000_000_000)
        .last()
        .expect("i + 1 draws")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        child::main(&args[1..]);
        return;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match a.workload.as_str() {
        "paper_all" => paper_all(&a),
        "check_test" => Ok(check_test(&a)),
        _ => serve_mixed::run(&a),
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if out.metrics.is_empty() {
        eprintln!("error: no run of {} completed", a.workload);
        std::process::exit(1);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} seed {} trace {} on {cores} cores: {} of {} operations failed (failed_ratio {:.4})",
        a.workload,
        a.seed,
        u8::from(a.trace),
        out.failed,
        out.attempted,
        out.failed_ratio()
    );
    for (name, value, unit, samples) in &out.metrics {
        println!("  {name:<32} {value:>16.6} {unit:<6} n={samples}");
    }
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|(name, value, unit, _)| (name.clone(), json!({"value": *value, "unit": *unit})))
            .collect(),
    );
    println!(
        "{}",
        one_line(&json!({
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": metrics,
        }))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_artifact_counts_as_a_failure() {
        let table = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let clean = table(&[("table1", "aa"), ("fig2", "bb")]);
        let corrupted = table(&[("table1", "aa"), ("fig2", "bc")]);
        let other_seed = table(&[("table1", "cc"), ("fig2", "dd")]);
        let runs = [(1, &clean), (1, &clean), (2, &other_seed), (2, &other_seed)];
        assert_eq!(digest_mismatches(&runs, "test"), 0);
        let runs = [(1, &clean), (1, &corrupted), (1, &clean), (2, &other_seed)];
        assert_eq!(digest_mismatches(&runs, "test"), 1);
        let mut bytes = "{}".to_string();
        child::corrupt(&mut bytes);
        assert_ne!(child::digest(b"{}"), child::digest(bytes.as_bytes()));
    }

    #[test]
    fn a_run_stops_once_the_next_sample_would_overrun() {
        assert!(!done(2, 3, 40.0, 30.0), "too few samples");
        assert!(!done(5, 3, 29.0, 30.0), "time left");
        assert!(done(3, 3, 31.0, 30.0));
    }

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(layers::PER_LAYER));
    }

    #[test]
    fn results_print_on_one_line() {
        let v = json!({"correct": true, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}});
        let line = one_line(&v);
        assert!(!line.contains('\n'));
        assert_eq!(serde_json::from_str(&line).expect("valid JSON"), v);
    }
}
