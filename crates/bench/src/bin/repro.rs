//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--seed N] [--scale test|paper|production] [--out DIR]
//!       [--threads N] [--shards N] [--report [PATH]] [--trace]
//! repro sweep <SPEC.json|PRESET> [--replicates N] [other flags]
//! repro check [--faults N] [--fuzz N] [other flags]
//! ```
//!
//! Run `repro --help` for the experiment list. Text goes to stdout; raw
//! numbers are written as JSON under `--out` (default `results/`).
//!
//! `repro sweep` runs an `rp-scenario` Monte-Carlo sensitivity sweep from a
//! spec file or a built-in preset and writes the full per-cell statistics
//! to `<out>/sweeps/<name>.json`.
//!
//! `repro check` runs the `rp-testkit` correctness harness — a clean and a
//! fault-injected campaign, the metamorphic invariant suite over both, and
//! the seeded parser fuzzer — and writes `<out>/check_report.json` (a pure
//! function of the seed: bit-identical at any thread count). Exit code 1
//! when an invariant is violated or a parser panics.
//!
//! `--report [PATH]` additionally records spans and metrics across the
//! whole pipeline and writes a `run_report.json` (default
//! `<out>/run_report.json`): the span tree with call counts and self/total
//! times, every registered metric, the filter funnel, and a world summary.
//! `--trace` prints the human-readable span tree to stderr. Either flag
//! enables collection; results are bit-identical with or without it (the
//! instrumentation only reads pipeline state — pinned by
//! `tests/report_schema.rs`).

use remote_peering::campaign::Campaign;
use remote_peering::detect::DetectionReport;
use remote_peering::identify::Identification;
use remote_peering::offload::OffloadStudy;
use remote_peering::world::{Scale, World, WorldConfig};
use rp_bench::experiments::{self, ExperimentOutput};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every experiment name `repro` accepts, in the order they run.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "validate",
    "threshold",
    "ablate",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fit",
    "flattening",
    "inference",
    "invisibility",
    "implications",
    "africa",
    "seeds",
    "econ",
    "all",
];

struct Args {
    experiment: String,
    seed: u64,
    scale: String,
    out: PathBuf,
    threads: usize,
    /// `Some(None)` = `--report` with the default path under `--out`.
    report: Option<Option<PathBuf>>,
    trace: bool,
    /// `--trace-json`: stream span/metric events to a JSONL file.
    trace_json: Option<PathBuf>,
    /// `--trace-chrome`: write a Chrome trace-event file (Perfetto-loadable).
    trace_chrome: Option<PathBuf>,
    /// `--compare` baseline file for `bench` (raw same-host comparison).
    compare: Option<PathBuf>,
    /// `--warn-only`: report `--compare` regressions without failing.
    warn_only: bool,
    /// Experiment following the `profile` subcommand.
    profile_target: Option<String>,
    /// Spec file or preset name following the `sweep` subcommand.
    sweep_spec: Option<String>,
    /// `--replicates` override for `sweep` (default: the spec's own).
    replicates: Option<u64>,
    /// `--faults` perturbation-trial count for `check` (default 200).
    faults: Option<u64>,
    /// `--fuzz` iteration count for `check` (default 500).
    fuzz: Option<u64>,
    /// `--json` output path for `bench` (default `BENCH_10.json`).
    json_out: Option<PathBuf>,
    /// `--quick` single-repetition smoke mode for `bench` (CI).
    quick: bool,
    /// `--shards` data-plane shards per simulated IXP network; 0 means
    /// one. Shards drain serially inside their IXP's worker, so values
    /// above 1 exercise the epoch-barrier protocol rather than buy speed.
    /// Results are bit-identical at every value.
    shards: usize,
    /// `--addr` listen address for `serve`.
    addr: String,
    /// `--workers` job worker threads for `serve`.
    workers: usize,
    /// `--queue-cap` pending-job queue bound for `serve`.
    queue_cap: usize,
    /// `--pool-bytes` world-pool byte budget for `serve` (None: entry
    /// bound only).
    pool_bytes: Option<u64>,
    /// Job-spec file following the `job` subcommand.
    job_spec: Option<String>,
}

fn usage_text() -> String {
    let mut s = String::from(
        "usage: repro [EXPERIMENT] [--seed N] [--scale test|paper|production] [--out DIR]\n\
         \x20            [--threads N] [--report [PATH]] [--trace]\n\
         \x20      repro sweep <SPEC.json|PRESET> [--replicates N] [other flags]\n\
         \x20      repro check [--faults N] [--fuzz N] [other flags]\n\
         \x20      repro bench [--json PATH] [--quick] [--compare OLD.json] [other flags]\n\
         \x20      repro profile <EXPERIMENT> [other flags]\n\
         \x20      repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N]\n\
         \x20            [--pool-bytes N] [other flags]\n\
         \x20      repro job <SPEC.json> [other flags]\n\nexperiments:\n",
    );
    for chunk in EXPERIMENTS.chunks(8) {
        s.push_str("  ");
        s.push_str(&chunk.join(" | "));
        s.push('\n');
    }
    s.push_str("\nsweep presets:\n  ");
    s.push_str(&rp_scenario::ScenarioSpec::preset_names().join(" | "));
    s.push_str(
        "\n\nflags:\n\
         \x20 --seed N          master seed (default 42)\n\
         \x20 --scale S         world scale: test | paper | production (default paper)\n\
         \x20 --out DIR         JSON output directory (default results/)\n\
         \x20 --threads N       worker threads, 0 = automatic (default 0)\n\
         \x20 --shards N        data-plane shards per IXP network, drained serially;\n\
         \x20                   0 = one shard (default 0)\n\
         \x20 --replicates N    sweep replicate seeds per cell (default: the spec's)\n\
         \x20 --faults N        check: perturbation trials (default 200)\n\
         \x20 --fuzz N          check: fuzzer iterations per target (default 500)\n\
         \x20 --json PATH       bench: result file (default BENCH_10.json)\n\
         \x20 --quick           bench: single repetition (CI smoke run)\n\
         \x20 --report [PATH]   collect spans/metrics, write a run report\n\
         \x20                   (default PATH: <out>/run_report.json)\n\
         \x20 --trace           print the span tree to stderr\n\
         \x20 --trace-json P    stream span/metric events to a JSONL file\n\
         \x20 --trace-chrome P  write a Chrome trace-event file (chrome://tracing,\n\
         \x20                   Perfetto); shards appear as separate tracks\n\
         \x20 --compare OLD     bench: compare against a previous result file,\n\
         \x20                   exit 1 past the tolerance unless --warn-only\n\
         \x20 --warn-only       bench: report --compare regressions, never fail\n\
         \x20 --addr HOST:PORT  serve: listen address (default 127.0.0.1:8080,\n\
         \x20                   port 0 picks a free port)\n\
         \x20 --workers N       serve: job worker threads (default 2)\n\
         \x20 --queue-cap N     serve: pending-job queue bound (default 256)\n\
         \x20 --pool-bytes N    serve: world-pool byte budget (default: entry\n\
         \x20                   bound only)\n",
    );
    s
}

fn bad_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// The one exit path for every unrecognized token — flag, experiment, or
/// subcommand argument. One-line `error: unknown <kind> <token>` plus the
/// usage text, exit 2 (via [`bad_usage`]); `tests/cli_usage.rs` pins the
/// shape for both kinds.
fn unknown(kind: &str, token: &str) -> ! {
    bad_usage(&format!("unknown {kind} {token}"))
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".into(),
        seed: 42,
        scale: "paper".into(),
        out: PathBuf::from("results"),
        threads: 0,
        report: None,
        trace: false,
        trace_json: None,
        trace_chrome: None,
        compare: None,
        warn_only: false,
        profile_target: None,
        sweep_spec: None,
        replicates: None,
        faults: None,
        fuzz: None,
        json_out: None,
        quick: false,
        shards: 0,
        addr: "127.0.0.1:8080".into(),
        workers: 2,
        queue_cap: 256,
        pool_bytes: None,
        job_spec: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--seed requires a numeric seed"))
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .unwrap_or_else(|| bad_usage("--scale requires test|paper|production"))
            }
            "--out" => {
                args.out = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| bad_usage("--out requires a directory"))
            }
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    bad_usage("--threads requires a numeric count (0 = automatic)")
                })
            }
            "--shards" => {
                args.shards = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    bad_usage("--shards requires a numeric count (0 = one shard)")
                })
            }
            "--report" => {
                // PATH is optional: consume the next token only when it is
                // neither a flag nor an experiment name.
                let path = match it.peek() {
                    Some(next)
                        if !next.starts_with('-') && !EXPERIMENTS.contains(&next.as_str()) =>
                    {
                        Some(PathBuf::from(it.next().expect("peeked")))
                    }
                    _ => None,
                };
                args.report = Some(path);
            }
            "--replicates" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--replicates requires a positive count"));
                if n == 0 {
                    bad_usage("--replicates requires a positive count");
                }
                args.replicates = Some(n);
            }
            "--faults" => {
                args.faults = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_usage("--faults requires a numeric count")),
                )
            }
            "--fuzz" => {
                args.fuzz = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_usage("--fuzz requires a numeric count")),
                )
            }
            "--json" => {
                args.json_out = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| bad_usage("--json requires a file path")),
                )
            }
            "--quick" => args.quick = true,
            "--trace" => args.trace = true,
            "--trace-json" => {
                args.trace_json = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| bad_usage("--trace-json requires a file path")),
                )
            }
            "--trace-chrome" => {
                args.trace_chrome = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| bad_usage("--trace-chrome requires a file path")),
                )
            }
            "--compare" => {
                args.compare = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| bad_usage("--compare requires a baseline file")),
                )
            }
            "--warn-only" => args.warn_only = true,
            "--addr" => {
                args.addr = it
                    .next()
                    .unwrap_or_else(|| bad_usage("--addr requires HOST:PORT"))
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--workers requires a numeric count"))
            }
            "--queue-cap" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_usage("--queue-cap requires a positive count"));
                if n == 0 {
                    bad_usage("--queue-cap requires a positive count");
                }
                args.queue_cap = n;
            }
            "--pool-bytes" => {
                args.pool_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_usage("--pool-bytes requires a byte count")),
                )
            }
            "--help" | "-h" => {
                print!("{}", usage_text());
                std::process::exit(0);
            }
            "sweep" => args.experiment = "sweep".to_string(),
            "check" => args.experiment = "check".to_string(),
            "bench" => args.experiment = "bench".to_string(),
            "profile" => args.experiment = "profile".to_string(),
            "serve" => args.experiment = "serve".to_string(),
            "job" => args.experiment = "job".to_string(),
            other if !other.starts_with('-') => {
                if args.experiment == "sweep" && args.sweep_spec.is_none() {
                    args.sweep_spec = Some(other.to_string());
                } else if args.experiment == "job" && args.job_spec.is_none() {
                    args.job_spec = Some(other.to_string());
                } else if args.experiment == "profile" && args.profile_target.is_none() {
                    if !EXPERIMENTS.contains(&other) {
                        unknown("experiment", other);
                    }
                    args.profile_target = Some(other.to_string());
                } else if EXPERIMENTS.contains(&other) {
                    args.experiment = other.to_string();
                } else {
                    unknown("experiment", other);
                }
            }
            other => unknown("flag", other),
        }
    }
    if Scale::parse(&args.scale).is_none() {
        bad_usage(&format!(
            "unknown scale {} (use test|paper|production)",
            args.scale
        ));
    }
    args
}

impl Args {
    /// The parsed world scale. `parse_args` already rejected every other
    /// `--scale` value.
    fn scale(&self) -> Scale {
        Scale::parse(&self.scale).expect("parse_args validated --scale")
    }
}

/// Exit with a one-line diagnostic when an output path can't be written
/// (missing permissions, a file where a directory should be, a full disk).
/// Exit code 2, like the usage errors — the run itself didn't fail, the
/// destination did.
fn fail_write(path: &Path, err: &std::io::Error) -> ! {
    eprintln!("error: cannot write {}: {err}", path.display());
    std::process::exit(2);
}

/// Write `contents` to `path`, creating missing parent directories.
fn write_output(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fail_write(path, &e);
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        fail_write(path, &e);
    }
}

/// Run one experiment under its span and write its text/JSON outputs.
fn emit(out_dir: &Path, span: &'static str, f: impl FnOnce() -> ExperimentOutput) {
    let _sp = rp_obs::span(span);
    let output = f();
    println!(
        "==== {} {}",
        output.id,
        "=".repeat(60_usize.saturating_sub(output.id.len()))
    );
    println!("{}", output.text);
    let path = out_dir.join(format!("{}.json", output.id));
    write_output(
        &path,
        &serde_json::to_string_pretty(&output.json).expect("serialize"),
    );
}

/// The campaign every subcommand runs: the paper defaults with the
/// `--shards` override applied (0 keeps the one-shard default).
fn campaign_for(args: &Args) -> Campaign {
    Campaign {
        shards: args.shards,
        memory_budget_bytes: args.scale().default_memory_budget(),
        ..Campaign::default_paper()
    }
}

/// Everything the experiments produced that the run report summarizes.
struct RunArtifacts {
    world: World,
    detection: Option<DetectionReport>,
}

fn run_experiments(args: &Args) -> RunArtifacts {
    // The top-level span; dropping it (at the end of this function) flushes
    // the main thread's collector so the report sees the full tree.
    let _run = rp_obs::span("repro.run");

    let cfg = args.scale().config(args.seed);

    let t0 = Instant::now();
    eprintln!(
        "building world (scale={}, seed={})...",
        args.scale, args.seed
    );
    let world = World::build(&cfg);
    eprintln!(
        "  {} ASes, {} IXPs, {} interfaces, vantage {} [{:.1?}]",
        world.topology.len(),
        world.scene.ixps.len(),
        world.scene.total_interfaces(),
        world.topology.node(world.vantage).asn,
        t0.elapsed()
    );

    let campaign = campaign_for(args);
    let wants = |ids: &[&str]| ids.contains(&args.experiment.as_str()) || args.experiment == "all";

    // Detection-side experiments share one probing run.
    let detection_needed = wants(&[
        "table1",
        "fig2",
        "fig3",
        "fig4a",
        "fig4b",
        "validate",
        "threshold",
    ]);
    let report = if detection_needed {
        let t = Instant::now();
        eprintln!(
            "running probing campaign at {} IXPs...",
            world.studied_ixps().len()
        );
        let r = DetectionReport::run(&world, &campaign);
        eprintln!(
            "  {} interfaces analyzed [{:.1?}]",
            r.stats.analyzed,
            t.elapsed()
        );
        Some(r)
    } else {
        None
    };

    // Offload-side experiments share one study.
    let offload_needed = wants(&[
        "fig5a",
        "fig5b",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fit",
        "flattening",
    ]);
    let study = if offload_needed {
        let t = Instant::now();
        eprintln!("preparing offload study...");
        let s = OffloadStudy::new(&world);
        eprintln!("  done [{:.1?}]", t.elapsed());
        Some(s)
    } else {
        None
    };

    if let Some(report) = &report {
        let ident = Identification::from_report(report);
        if wants(&["table1"]) {
            emit(&args.out, "repro.table1", || {
                experiments::table1(&world, report)
            });
        }
        if wants(&["fig2"]) {
            emit(&args.out, "repro.fig2", || experiments::fig2(report));
        }
        if wants(&["fig3"]) {
            emit(&args.out, "repro.fig3", || {
                experiments::fig3(&world, report)
            });
        }
        if wants(&["fig4a"]) {
            emit(&args.out, "repro.fig4a", || experiments::fig4a(&ident));
        }
        if wants(&["fig4b"]) {
            emit(&args.out, "repro.fig4b", || experiments::fig4b(&ident));
        }
        if wants(&["validate"]) {
            emit(&args.out, "repro.validate", || {
                experiments::validation(&world, &campaign, report)
            });
        }
        if wants(&["threshold"]) {
            emit(&args.out, "repro.threshold", || {
                experiments::threshold_sweep(&world, &campaign, report)
            });
        }
    }

    // Ablation re-analyzes detection's probe set with each filter
    // disabled in turn; it is opt-in (also included in `all`).
    if wants(&["ablate"]) {
        emit(&args.out, "repro.ablate", || {
            experiments::filter_ablation(&world, &campaign)
        });
    }

    if let Some(study) = &study {
        if wants(&["fig5a"]) {
            emit(&args.out, "repro.fig5a", || {
                experiments::fig5a(&world, study)
            });
        }
        if wants(&["fig5b"]) {
            emit(&args.out, "repro.fig5b", || {
                experiments::fig5b(&world, study)
            });
        }
        if wants(&["fig6"]) {
            emit(&args.out, "repro.fig6", || experiments::fig6(&world, study));
        }
        if wants(&["fig7"]) {
            emit(&args.out, "repro.fig7", || experiments::fig7(&world, study));
        }
        if wants(&["fig8"]) {
            emit(&args.out, "repro.fig8", || experiments::fig8(&world, study));
        }
        if wants(&["fig9"]) {
            emit(&args.out, "repro.fig9", || experiments::fig9(&world, study));
        }
        if wants(&["fig10"]) {
            emit(&args.out, "repro.fig10", || {
                experiments::fig10(&world, study)
            });
        }
        if wants(&["fit"]) {
            emit(&args.out, "repro.fit", || {
                experiments::decay_fit(&world, study)
            });
        }
        if wants(&["flattening"]) {
            emit(&args.out, "repro.flattening", || {
                experiments::flattening(&world, study)
            });
        }
    }

    if wants(&["inference"]) {
        emit(&args.out, "repro.inference", || {
            experiments::inference(&world)
        });
    }

    if wants(&["invisibility"]) {
        emit(&args.out, "repro.invisibility", || {
            experiments::invisibility(&world, &campaign)
        });
    }

    if wants(&["implications"]) {
        emit(&args.out, "repro.implications", || {
            experiments::implications(&world)
        });
    }

    if wants(&["africa"]) {
        emit(&args.out, "repro.africa", || experiments::africa(&world));
    }

    if args.experiment == "seeds" {
        // Not part of `all` (it rebuilds the world five times).
        emit(&args.out, "repro.seeds", || {
            experiments::seed_robustness(args.seed, args.scale() == Scale::Paper)
        });
    }

    if wants(&["econ"]) {
        emit(&args.out, "repro.econ", experiments::econ_analysis);
    }

    eprintln!("total: {:.1?}", t0.elapsed());
    RunArtifacts {
        world,
        detection: report,
    }
}

/// Resolve the `sweep` spec argument: an existing file is parsed as JSON;
/// otherwise it must name a built-in preset.
fn resolve_spec(arg: &str) -> rp_scenario::ScenarioSpec {
    use rp_scenario::ScenarioSpec;
    if Path::new(arg).is_file() {
        let text = match std::fs::read_to_string(arg) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {arg}: {e}");
                std::process::exit(2);
            }
        };
        match ScenarioSpec::from_json(&text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: {arg}: {e}");
                std::process::exit(2);
            }
        }
    } else {
        ScenarioSpec::preset(arg).unwrap_or_else(|| {
            bad_usage(&format!(
                "no spec file or preset named {arg} (presets: {})",
                ScenarioSpec::preset_names().join(", ")
            ))
        })
    }
}

/// The `sweep` subcommand: expand the spec, run the replication engine,
/// print a per-cell digest, and write the full statistics JSON.
/// One row of the `bench` subcommand's schema-stable output.
struct BenchRow {
    name: &'static str,
    ops: u64,
    ns_per_op: f64,
    /// Simulator events retired per op (0 when the bench has no event
    /// loop; the queue microbenches count queue operations as events).
    events_per_op: f64,
}

impl BenchRow {
    fn events_per_sec(&self) -> f64 {
        if self.events_per_op == 0.0 {
            0.0
        } else {
            self.events_per_op * 1e9 / self.ns_per_op
        }
    }
}

/// The `bench` subcommand: a fixed suite of data-plane benchmarks whose
/// JSON output keeps the same keys from run to run (`BENCH_10.json` in CI
/// artifacts and at the repository root). Besides the microbench rows, a
/// `fork_vs_rebuild` section quantifies what copy-on-write forking and
/// incremental recompute buy over a from-scratch rebuild for a one-delta
/// re-probe, with the pair asserted byte-identical in-process before its
/// speedup is reported, and
/// a `production_world` section records what the `--scale production`
/// preset costs to build, probe, and drain under its memory budget.
/// `--quick` drops to a single repetition and smaller sharded/production
/// worlds so CI can smoke-run the suite without paying for stable
/// numbers.
fn run_bench_command(args: &Args) {
    use rp_netsim::event::{Event, EventKey, EventQueue};
    use rp_netsim::NodeId;
    use rp_types::SimTime;

    let cfg = args.scale().config(args.seed);
    let reps: u64 = if args.quick { 1 } else { 5 };
    let mut rows: Vec<BenchRow> = Vec::new();

    eprintln!(
        "bench: scale={} seed={} reps={} ...",
        args.scale, args.seed, reps
    );

    // World construction (topology + scene + registry + routing).
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(World::build(&cfg));
    }
    rows.push(BenchRow {
        name: "world_build",
        ops: reps,
        ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
        events_per_op: 0.0,
    });

    let world = World::build(&cfg);
    let campaign = campaign_for(args);
    let ixps = world.studied_ixps();

    // One full campaign pass counts the events and warms the allocator.
    let events: u64 = ixps
        .iter()
        .map(|&ixp| campaign.probe_ixp(&world, ixp, false).events)
        .sum();

    // Serial event-loop throughput: build + schedule + run every studied
    // IXP on one thread (plus its O(interfaces) sample collection).
    let t = Instant::now();
    for _ in 0..reps {
        let n: u64 = ixps
            .iter()
            .map(|&ixp| campaign.probe_ixp(&world, ixp, false).events)
            .sum();
        assert_eq!(n, events, "event count must be reproducible");
    }
    rows.push(BenchRow {
        name: "probe_trace_serial",
        ops: reps,
        ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
        events_per_op: events as f64,
    });

    // The production path: parallel over IXPs, with sample collection.
    std::hint::black_box(campaign.probe_all(&world));
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(campaign.probe_all(&world));
    }
    rows.push(BenchRow {
        name: "probe_all",
        ops: reps,
        ns_per_op: t.elapsed().as_nanos() as f64 / reps as f64,
        events_per_op: events as f64,
    });

    // Calendar-queue microbenches. Spread: pops chase pushes through
    // distinct buckets. Burst: 200 same-time events per drain round (the
    // ARP-flood shape the lazy-sort buckets exist for).
    let timer = |i: u32| Event::Timer {
        node: NodeId(i),
        token: 0,
    };
    let n: u64 = if args.quick { 100_000 } else { 1_000_000 };
    let t = Instant::now();
    let mut q = EventQueue::new();
    for i in 0..n {
        q.push(
            SimTime(i * 1_000_000),
            EventKey { creator: 0, seq: i },
            timer(i as u32),
        );
        if i % 4 == 3 {
            for _ in 0..4 {
                std::hint::black_box(q.pop());
            }
        }
    }
    rows.push(BenchRow {
        name: "event_queue_spread",
        ops: n,
        ns_per_op: t.elapsed().as_nanos() as f64 / n as f64,
        events_per_op: 1.0,
    });

    let rounds = n / 200;
    let t = Instant::now();
    let mut q = EventQueue::new();
    for r in 0..rounds {
        let at = SimTime(r * 50_000_000);
        for i in 0..200u32 {
            q.push(at, EventKey { creator: i, seq: r }, timer(i));
        }
        while q.pop().is_some() {}
    }
    rows.push(BenchRow {
        name: "event_queue_burst200",
        ops: rounds * 200,
        ns_per_op: t.elapsed().as_nanos() as f64 / (rounds * 200) as f64,
        events_per_op: 1.0,
    });

    // Sharded-world benchmark: one big multi-fabric world — the
    // `world_scale` topology knob times the membership scale gives ~10×
    // the members of the base world — probed once pinned to a single
    // shard and once at `--shards` (pass e.g. `--shards 4`; the default is
    // also one shard), so the JSON shows what the epoch-barrier data plane
    // costs on a world large enough to need it.
    // Single repetition: this section measures the shard layout's effect,
    // not run-to-run noise.
    let wscale = if args.quick { 2.0 } else { 10.0 };
    let mut big_cfg = WorldConfig::test_scale(args.seed);
    big_cfg.topology.world_scale = wscale;
    big_cfg.scene.scale *= wscale;
    eprintln!("bench: building sharded-world topology ({wscale}x members)...");
    let t = Instant::now();
    let big = World::build(&big_cfg);
    rows.push(BenchRow {
        name: "sharded_world_build",
        ops: 1,
        ns_per_op: t.elapsed().as_nanos() as f64,
        events_per_op: 0.0,
    });
    let big_ixps = big.studied_ixps();
    let mut big_events = 0u64;
    for (name, shards) in [
        ("sharded_world_1shard", 1),
        ("sharded_world_sharded", args.shards),
    ] {
        let campaign = Campaign {
            shards,
            ..Campaign::default_paper()
        };
        let t = Instant::now();
        let n: u64 = big_ixps
            .iter()
            .map(|&ixp| campaign.probe_ixp(&big, ixp, false).events)
            .sum();
        let ns = t.elapsed().as_nanos() as f64;
        if big_events == 0 {
            big_events = n;
        } else {
            assert_eq!(n, big_events, "shard count changed the event count");
        }
        rows.push(BenchRow {
            name,
            ops: 1,
            ns_per_op: ns,
            events_per_op: n as f64,
        });
    }

    // Production-scale world: the `--scale production` preset (the
    // Euro-IX scene replicated ×10 via `world_scale`, membership density
    // raised past 10⁵ member interfaces) built and drained under its
    // default memory budget. Quick mode shrinks the same recipe so CI can
    // smoke the code path; committed BENCH numbers come from a full run.
    // One repetition per row: like the sharded-world section, this
    // measures scale behavior, not run-to-run noise.
    let prod_cfg = if args.quick {
        let mut c = WorldConfig::production_scale(args.seed);
        c.topology.world_scale = 1.0;
        c.scene.scale = 2.0;
        c
    } else {
        WorldConfig::production_scale(args.seed)
    };
    let prod_budget = Scale::Production.default_memory_budget();
    eprintln!(
        "bench: building production world ({}x topology, {}x members)...",
        prod_cfg.topology.world_scale, prod_cfg.scene.scale
    );
    let t = Instant::now();
    let prod = World::build(&prod_cfg);
    let prod_build_ns = t.elapsed().as_nanos() as f64;
    rows.push(BenchRow {
        name: "production_world_build",
        ops: 1,
        ns_per_op: prod_build_ns,
        events_per_op: 0.0,
    });
    let prod_campaign = Campaign {
        shards: args.shards,
        memory_budget_bytes: prod_budget,
        ..Campaign::default_paper()
    };
    // The full probing path — parallel over IXPs, sample collection, the
    // probe planes materialized — inside the byte budget. This is the row
    // that says "a 10⁵-interface world probes end to end".
    let t = Instant::now();
    let prod_probes = prod_campaign.probe_all(&prod);
    let prod_probe_ns = t.elapsed().as_nanos() as f64;
    let prod_plane_bytes: u64 = prod_probes.iter().map(|(_, p)| p.plane_bytes()).sum();
    drop(prod_probes);
    // Pure shard-drain throughput, one shard vs `--shards`:
    // the aggregate events/s the epoch-barrier data plane sustains on a
    // world this size. Byte-identity across shard counts is asserted via
    // the event totals (the determinism suites pin the artifacts).
    let prod_ixps = prod.studied_ixps();
    let mut prod_events = 0u64;
    for (name, shards) in [
        ("production_drain_1shard", 1),
        ("production_drain_sharded", args.shards),
    ] {
        let campaign = Campaign {
            shards,
            memory_budget_bytes: prod_budget,
            ..Campaign::default_paper()
        };
        let t = Instant::now();
        let n: u64 = prod_ixps
            .iter()
            .map(|&ixp| campaign.probe_ixp(&prod, ixp, false).events)
            .sum();
        let ns = t.elapsed().as_nanos() as f64;
        if prod_events == 0 {
            prod_events = n;
        } else {
            assert_eq!(n, prod_events, "shard count changed the event count");
        }
        rows.push(BenchRow {
            name,
            ops: 1,
            ns_per_op: ns,
            events_per_op: n as f64,
        });
    }
    rows.push(BenchRow {
        name: "production_probe_all",
        ops: 1,
        ns_per_op: prod_probe_ns,
        events_per_op: prod_events as f64,
    });
    let prod_section = serde_json::json!({
        "world_scale": prod_cfg.topology.world_scale,
        "membership_scale": prod_cfg.scene.scale,
        "ases": prod.topology.len(),
        "interfaces": prod.scene.total_interfaces(),
        "approx_bytes": prod.approx_bytes(),
        "memory_budget_bytes": prod_budget,
        "events_per_campaign": prod_events,
        "probe_plane_bytes": prod_plane_bytes,
    });
    drop(prod);

    // Fork vs rebuild: what the copy-on-write fork machinery buys. Both
    // arms of each pair do the same logical work — the bench asserts
    // their outputs byte-identical right here, so the speedup column can
    // never quietly come from diverging computation.
    use rp_testkit::differential::{arms_identical, incremental_arm, rebuild_arm};
    eprintln!("bench: fork vs rebuild ...");
    let visible_delta = ixps.iter().copied().find_map(|ixp| {
        world
            .scene
            .ixp(ixp)
            .members
            .iter()
            .position(|m| m.listing.listed && !m.profile.absent)
            .map(|slot| remote_peering::fork::Delta::RowStale {
                ixp,
                slot: slot as u32,
            })
    });
    let mut fork_section = Vec::new();
    if let Some(delta) = visible_delta {
        // One dirty IXP out of the whole scene: the rebuild arm builds
        // the world again and probes every IXP, the fork arm forks and
        // re-probes only the delta's target.
        let deltas = [delta];
        let parent_probes = campaign.probe_all(&world);
        let t = Instant::now();
        let mut reference = None;
        for _ in 0..reps {
            reference = Some(rebuild_arm(&cfg, &campaign, &deltas));
        }
        let rebuild_ns = t.elapsed().as_nanos() as f64 / reps as f64;
        rows.push(BenchRow {
            name: "fork_rebuild_arm",
            ops: reps,
            ns_per_op: rebuild_ns,
            events_per_op: events as f64,
        });
        let t = Instant::now();
        let mut forked = None;
        for _ in 0..reps {
            forked = Some(incremental_arm(&world, &parent_probes, &campaign, &deltas));
        }
        let incremental_ns = t.elapsed().as_nanos() as f64 / reps as f64;
        rows.push(BenchRow {
            name: "fork_incremental_arm",
            ops: reps,
            ns_per_op: incremental_ns,
            events_per_op: events as f64,
        });
        assert!(
            arms_identical(&reference.expect("reps >= 1"), &forked.expect("reps >= 1")),
            "fork arm diverged from the rebuild arm — the speedup would be meaningless"
        );
        fork_section.push(("probe_1delta", rebuild_ns, incremental_ns));
    }

    println!("==== bench {}", "=".repeat(55));
    println!(
        "{:<22} {:>10} {:>14} {:>16}",
        "benchmark", "ops", "ns/op", "events/sec"
    );
    for row in &rows {
        println!(
            "{:<22} {:>10} {:>14.1} {:>16.0}",
            row.name,
            row.ops,
            row.ns_per_op,
            row.events_per_sec()
        );
    }

    let bench_values: Vec<serde_json::Value> = rows
        .iter()
        .map(|row| {
            serde_json::json!({
                "name": row.name,
                "ops": row.ops,
                "ns_per_op": row.ns_per_op,
                "events_per_op": row.events_per_op,
                "events_per_sec": row.events_per_sec(),
            })
        })
        .collect();
    let out = serde_json::json!({
        "schema": "rp-bench/1",
        "seed": args.seed,
        "scale": args.scale,
        "quick": args.quick,
        "threads": rayon::current_num_threads(),
        "shards": args.shards,
        "total_events_per_campaign": events,
        "sharded_world": {
            "world_scale": wscale,
            "interfaces": big.scene.total_interfaces(),
            "events_per_campaign": big_events,
        },
        "production_world": prod_section,
        // The pair was asserted byte-identical above, so `speedup` is a
        // pure performance delta, never a semantic one.
        "fork_vs_rebuild": serde_json::Value::Object(
            fork_section
                .iter()
                .map(|(name, rebuild_ns, fork_ns)| {
                    (
                        name.to_string(),
                        serde_json::json!({
                            "rebuild_ns": rebuild_ns,
                            "fork_ns": fork_ns,
                            "speedup": rebuild_ns / fork_ns,
                            "byte_identical": true,
                        }),
                    )
                })
                .collect(),
        ),
        "benches": bench_values,
    });
    let path = args
        .json_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_10.json"));
    write_output(
        &path,
        &serde_json::to_string_pretty(&out).expect("serialize bench output"),
    );
    eprintln!("bench results: {}", path.display());

    // `--compare OLD.json`: raw same-host regression gate against a
    // previous result file. Cross-host trend analysis (normalized by the
    // queue microbenches) lives in `scripts/check_bench_trend.py`.
    if let Some(old_path) = &args.compare {
        let old_doc = match std::fs::read_to_string(old_path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
        {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", old_path.display());
                std::process::exit(2);
            }
        };
        let cmp = match rp_obs::compare::compare(&old_doc, &out) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {}: {e}", old_path.display());
                std::process::exit(2);
            }
        };
        let tol = rp_obs::compare::DEFAULT_TOLERANCE;
        println!("==== bench compare vs {} ====", old_path.display());
        print!("{}", cmp.render(tol));
        let regressed = cmp.regressions(tol);
        if !regressed.is_empty() {
            if args.warn_only {
                eprintln!(
                    "bench compare: {} regression(s) past {:.0}% (warn-only)",
                    regressed.len(),
                    tol * 100.0
                );
            } else {
                eprintln!(
                    "bench compare: {} regression(s) past {:.0}%",
                    regressed.len(),
                    tol * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}

fn run_sweep_command(args: &Args, spec_arg: &str) {
    let spec = resolve_spec(spec_arg);
    let t0 = Instant::now();
    eprintln!(
        "sweep {}: {} cells x {} replicates (scale={}, seed={})...",
        spec.name,
        spec.cells().len(),
        args.replicates.unwrap_or(spec.default_replicates),
        args.scale,
        args.seed
    );
    // The shared job path: `repro serve` runs the same function, which is
    // what keeps served sweep artifacts byte-identical to CLI ones.
    let result = rp_server::run_job(&rp_server::JobSpec::Sweep {
        spec,
        seed: args.seed,
        scale: args.scale(),
        replicates: args.replicates,
        shards: args.shards,
    });
    eprintln!("  done [{:.1?}]", t0.elapsed());

    print!("{}", result.digest);
    let path = args.out.join(result.artifact_rel_path());
    write_output(&path, &result.artifact);
    eprintln!("sweep results: {}", path.display());
}

/// The `check` subcommand: run the `rp-testkit` correctness harness and
/// write its deterministic report. Returns whether the harness passed;
/// `main` turns a failure into exit 1 (after closing any trace sink).
fn run_check_command(args: &Args, report_path: Option<&Path>) -> bool {
    let cfg = rp_testkit::CheckConfig {
        seed: args.seed,
        fault_trials: args.faults.unwrap_or(200),
        fuzz_iters: args.fuzz.unwrap_or(500),
        scale: args.scale(),
        shards: args.shards,
    };
    let t0 = Instant::now();
    eprintln!(
        "check: {} fault trials, {} fuzz iterations (scale={}, seed={})...",
        cfg.fault_trials, cfg.fuzz_iters, args.scale, args.seed
    );
    // Runs through the shared job path (`rp_server::run_job`) so `repro
    // serve` produces the identical report and stdout digest; the
    // `repro.run` span is scoped inside it, flushing before the run
    // report snapshots the span tree below.
    let result = rp_server::run_job(&rp_server::JobSpec::Check(cfg));
    eprintln!("  done [{:.1?}]", t0.elapsed());

    print!("{}", result.digest);
    let path = args.out.join(result.artifact_rel_path());
    write_output(&path, &result.artifact);
    eprintln!("check report: {}", path.display());
    let doc = result.doc;

    // `--report` additionally wraps the outcome in an rp-obs run report
    // with the span tree and metrics (wall-clock content, so it lives in
    // its own file; `check_report.json` stays bit-reproducible).
    if let Some(rp) = report_path {
        let mut report = rp_obs::report::RunReport::new();
        report.section(
            "meta",
            serde_json::json!({
                "experiment": "check",
                "seed": args.seed,
                "scale": args.scale,
                "threads": rayon::current_num_threads(),
                "out_dir": args.out.display().to_string(),
            }),
        );
        report.section("check", doc);
        if let Err(e) = report.write(rp) {
            fail_write(rp, &e);
        }
        eprintln!("run report: {}", rp.display());
    }

    result.passed
}

fn write_report(path: &Path, args: &Args, artifacts: &RunArtifacts) {
    let world = &artifacts.world;
    let mut report = rp_obs::report::RunReport::new();
    report.section(
        "meta",
        serde_json::json!({
            "experiment": args.experiment,
            "seed": args.seed,
            "scale": args.scale,
            "threads": rayon::current_num_threads(),
            "out_dir": args.out.display().to_string(),
        }),
    );
    report.section(
        "world",
        serde_json::json!({
            "ases": world.topology.len(),
            "ixps": world.scene.ixps.len(),
            "studied_ixps": world.studied_ixps().len(),
            "interfaces": world.scene.total_interfaces(),
            "vantage_asn": world.topology.node(world.vantage).asn.0,
            "campaign_days": world.config.campaign_days,
        }),
    );
    report.section(
        "filter_funnel",
        match &artifacts.detection {
            Some(d) => d.stats.funnel_json(),
            None => serde_json::Value::Null,
        },
    );
    // RunReport::write creates missing parent directories itself.
    if let Err(e) = report.write(path) {
        fail_write(path, &e);
    }
    eprintln!("run report: {}", path.display());
}

/// Close any installed trace sink and report what it wrote. Called on
/// every exit path that had a sink (sinks buffer; an unflushed sink would
/// truncate the file).
fn finish_trace() {
    match rp_obs::trace::finish() {
        Ok(None) => {}
        Ok(Some(s)) => eprintln!(
            "trace: {} event(s) written, {} dropped",
            s.written, s.dropped
        ),
        Err(e) => eprintln!("error: closing trace sink: {e}"),
    }
}

/// The `profile` subcommand: run one experiment with the sampling profiler
/// armed, write the collapsed-stack profile (flamegraph-ready), and print
/// the hottest span paths. Wall-clock by nature — the profile is *not* a
/// determinism-gated artifact.
fn run_profile_command(args: &mut Args) {
    let target = args
        .profile_target
        .clone()
        .unwrap_or_else(|| bad_usage("profile requires an experiment name"));
    args.experiment = target;
    let profiler = rp_obs::profile::start();
    run_experiments(args);
    let profile = profiler.stop();

    let path = args.out.join("profile.folded");
    write_output(&path, &profile.collapsed());
    eprintln!("profile: {}", path.display());

    println!("==== profile:{} {}", args.experiment, "=".repeat(48));
    println!(
        "{} samples at {:?}",
        profile.total_samples,
        rp_obs::profile::SAMPLE_INTERVAL
    );
    for (stack, n) in profile.top(10) {
        let pct = 100.0 * n as f64 / profile.total_samples.max(1) as f64;
        println!("{pct:6.2}%  {n:>8}  {stack}");
    }
}

/// The `serve` subcommand: bind the job service and run until SIGTERM,
/// SIGINT, or `POST /v1/shutdown`, then drain — finish every accepted
/// job, flush artifacts under `--out`, and return so the process exits 0.
fn run_serve_command(args: &Args) {
    let cfg = rp_server::ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_capacity: args.queue_cap,
        pool_bytes: args.pool_bytes,
        results_dir: Some(args.out.clone()),
        ..rp_server::ServeConfig::default()
    };
    let server = match rp_server::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(2);
        }
    };
    // The e2e drain test and CI parse this line for the resolved address.
    eprintln!("serving on {}", server.local_addr());
    eprintln!(
        "  {} workers, queue cap {}, results under {}",
        args.workers,
        args.queue_cap,
        args.out.display()
    );
    let stats = server.run_until_signal();
    eprintln!(
        "drained: {} done, {} failed, {} cancelled",
        stats.done, stats.failed, stats.cancelled
    );
}

/// The `job` subcommand: run one job envelope from a file, exactly as a
/// `repro serve` worker would, and write its artifact under `--out`.
/// Exists so tests and scripts can byte-compare served results against a
/// fresh single-job run. Returns whether the job's own verdict passed.
fn run_job_command(args: &Args, spec_arg: &str) -> bool {
    let text = std::fs::read_to_string(spec_arg).unwrap_or_else(|e| {
        eprintln!("error: cannot read {spec_arg}: {e}");
        std::process::exit(2);
    });
    let value: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {spec_arg}: JSON parse error: {e:?}");
            std::process::exit(2);
        }
    };
    let spec = match rp_server::JobSpec::parse(&value) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {spec_arg}: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    eprintln!("job {} ({})...", spec.id(), spec.kind());
    let result = rp_server::run_job(&spec);
    eprintln!("  done [{:.1?}]", t0.elapsed());

    print!("{}", result.digest);
    let path = args.out.join(result.artifact_rel_path());
    write_output(&path, &result.artifact);
    eprintln!("job result: {}", path.display());
    result.passed
}

fn main() {
    let mut args = parse_args();
    let report_path = args.report.as_ref().map(|p| {
        p.clone()
            .unwrap_or_else(|| args.out.join("run_report.json"))
    });
    if let Some(path) = &args.trace_json {
        if let Err(e) = rp_obs::trace::install_jsonl(path) {
            fail_write(path, &e);
        }
    }
    if let Some(path) = &args.trace_chrome {
        if let Err(e) = rp_obs::trace::install_chrome(path) {
            fail_write(path, &e);
        }
    }
    // The span/metric collectors feed every downstream consumer: the run
    // report, the streaming trace sinks, and the sampling profiler.
    if report_path.is_some()
        || args.trace
        || rp_obs::trace::active()
        || args.experiment == "profile"
        || args.experiment == "serve"
    {
        rp_obs::enable();
    }
    // Results are bit-identical at any thread count (per-IXP seeding plus
    // order-preserving collection); --threads only trades wall-clock time.
    rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build_global()
        .expect("install global thread pool");
    eprintln!("worker threads: {}", rayon::current_num_threads());

    if args.experiment == "serve" {
        run_serve_command(&args);
        return;
    }

    if args.experiment == "job" {
        let spec_arg = args
            .job_spec
            .clone()
            .unwrap_or_else(|| bad_usage("job requires a spec file"));
        let passed = run_job_command(&args, &spec_arg);
        finish_trace();
        if !passed {
            std::process::exit(1);
        }
        return;
    }

    if args.experiment == "check" {
        let passed = run_check_command(&args, report_path.as_deref());
        if args.trace {
            eprint!("{}", rp_obs::report::render_trace());
        }
        finish_trace();
        if !passed {
            std::process::exit(1);
        }
        return;
    }

    if args.experiment == "bench" {
        run_bench_command(&args);
        return;
    }

    if args.experiment == "profile" {
        run_profile_command(&mut args);
        finish_trace();
        return;
    }

    if args.experiment == "sweep" {
        let spec_arg = args
            .sweep_spec
            .clone()
            .unwrap_or_else(|| bad_usage("sweep requires a spec file or preset name"));
        run_sweep_command(&args, &spec_arg);
        if args.trace {
            eprint!("{}", rp_obs::report::render_trace());
        }
        finish_trace();
        return;
    }

    let artifacts = run_experiments(&args);
    // run_experiments dropped the `repro.run` span, so the main thread's
    // collector has flushed and the snapshots below see the whole run.
    if args.trace {
        eprint!("{}", rp_obs::report::render_trace());
    }
    finish_trace();
    if let Some(path) = &report_path {
        write_report(path, &args, &artifacts);
    }
}
