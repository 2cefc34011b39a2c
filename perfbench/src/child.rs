//! The side of a `check_test` sample that executes inside the fresh
//! child process (this executable in `child` mode): progress marks on
//! stdout, output files, and the one-line JSON report the parent reads
//! back.
//!
//! The child prints `setup` once its first world is built (untraced
//! samples only) and `done` once its outputs are written; the parent
//! timestamps both lines as they arrive. Its last stdout line is the
//! report.

use crate::layers::{self, Metrics};
use crate::procfs;
use crate::trace::{self, Tracer};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

/// Where runs write their outputs and traces, relative to the checkout.
pub const OUT_DIR: &str = ".bench_out";

/// One child's settings.
pub struct Child {
    /// Workload name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// Record spans and per-layer figures.
    pub traced: bool,
    /// Corrupt one artifact before verification (the self-test).
    pub corrupt: bool,
}

impl Child {
    /// Print a progress mark and flush it so the parent sees it now.
    pub fn mark(&self, line: &str) {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{line}").expect("write progress mark");
        out.flush().expect("flush progress mark");
    }

    /// Write one output file under this workload's output directory, as
    /// `repro` writes it under `--out`.
    pub fn write_output(&self, name: &str, bytes: &str) {
        let dir = PathBuf::from(OUT_DIR).join(&self.workload);
        std::fs::create_dir_all(&dir).expect("create the output directory");
        std::fs::write(dir.join(name), bytes).expect("write an output file");
    }
}

/// Append a newline: the bytes change, the JSON still parses, so only a
/// byte comparison can catch it.
pub fn corrupt(artifact: &mut String) {
    artifact.push('\n');
}

/// What one child reports back.
pub struct Report {
    attempted: u64,
    /// Operations that failed verification.
    pub failed: u64,
    digests: BTreeMap<String, String>,
    cpu_s: f64,
    peak_rss_mb: f64,
    layers: Metrics,
    /// The program's span tree at [`Report::program_layers`].
    program_spans: Value,
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl Report {
    /// Start a report of `attempted` operations, reading this process's
    /// CPU time, peak RSS and context switches now.
    pub fn new(attempted: u64) -> Report {
        let proc = procfs::read(None).expect("read /proc/self");
        let ctx = procfs::self_ctx_switches().expect("getrusage");
        let mut layers = Metrics::new();
        layers.insert("process.user_s".into(), proc.user_s);
        layers.insert("process.sys_s".into(), proc.sys_s);
        layers.insert("process.ctx_switches".into(), ctx as f64);
        Report {
            attempted,
            failed: 0,
            digests: BTreeMap::new(),
            cpu_s: proc.cpu_s(),
            peak_rss_mb: proc.peak_rss_mb(),
            layers,
            program_spans: Value::Null,
        }
    }

    /// Record an artifact's digest, for the parent's cross-run comparison.
    pub fn digest(&mut self, id: &str, bytes: &str) {
        self.digests
            .insert(id.to_string(), digest(bytes.as_bytes()));
    }

    /// Set one per-layer figure.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Read the program's span tree and counters as they stand after the
    /// run, with `jsonl`, the run's span stream.
    pub fn program_layers(&mut self, jsonl: &str) {
        let tree = rp_obs::span::snapshot_tree();
        self.program_spans = rp_obs::report::span_tree_json();
        self.layers.extend(layers::program(
            &tree,
            &layers::local_counters(),
            jsonl,
            rayon::current_num_threads(),
        ));
    }

    /// Add per-layer figures measured by the benchmark itself.
    pub fn extend(&mut self, figures: Metrics) {
        self.layers.extend(figures);
    }

    /// Write the spans, their self times and the program's span tree as
    /// [`Report::program_layers`] read it.
    pub fn write_trace(&self, workload: &str, seed: u64, tracer: &Tracer) {
        let doc = json!({
            "workload": workload,
            "seed": seed,
            "benchmark": trace::to_json(&tracer.spans()),
            "program_spans": self.program_spans,
            "layers": crate::object(&self.layers),
        });
        write_trace_file(workload, seed, &doc);
    }

    /// The report line.
    pub fn to_json(&self) -> Value {
        json!({
            "attempted": self.attempted,
            "failed": self.failed,
            "digests": crate::object(&self.digests),
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "layers": crate::object(&self.layers),
        })
    }
}

/// Write a trace document to `.bench_out/trace/<workload>-<seed>-<n>.json`,
/// numbering so that successive traced runs keep their files.
pub fn write_trace_file(workload: &str, seed: u64, doc: &Value) {
    let dir = PathBuf::from(OUT_DIR).join("trace");
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let text = serde_json::to_string_pretty(doc).expect("serialize trace");
    let path = (0..)
        .map(|n| dir.join(format!("{workload}-{seed}-{n}.json")))
        .find(|p| !p.exists())
        .expect("a free trace file name");
    std::fs::write(&path, text).expect("write trace file");
    eprintln!("trace: {}", path.display());
}

/// Parse the child command line (`child <workload> --seed N [--trace]
/// [--corrupt]`) and run it.
pub fn main(args: &[String]) {
    let workload = args.first().cloned().unwrap_or_default();
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .expect("child needs --seed N");
    let child = Child {
        workload,
        seed,
        traced: args.iter().any(|a| a == "--trace"),
        corrupt: args.iter().any(|a| a == "--corrupt"),
    };
    if child.traced {
        rp_obs::enable();
    }
    // `repro`'s thread pool at its default width.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("install global thread pool");
    let report = match child.workload.as_str() {
        "check_test" => crate::check_test::run(&child),
        other => panic!("no child workload {other:?}"),
    };
    child.mark(&crate::one_line(&report.to_json()));
}
