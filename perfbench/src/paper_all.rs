//! `paper_all`: `repro all --scale paper` at its default flags, one fresh
//! `repro` process per sample. The benchmark only spawns it, times it and
//! checks the 22 artifacts it writes under `--out`.
//!
//! Set-up ends when `repro` reports the built world on stderr (the line
//! with the world's AS count). CPU time, peak RSS and context switches
//! are the exited child's, from `wait4`. A traced sample adds
//! `--report` and `--trace-json`, and its per-layer figures are read from
//! those two files.

use crate::procfs;
use crate::trace::Tracer;
use crate::{layers, Sample};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The artifacts one run writes, `<id>.json` each.
pub const ARTIFACTS: [&str; 22] = [
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
    "econ",
];

/// Where the committed seed-42 outputs live, relative to the checkout.
const RESULTS_DIR: &str = "results";

/// What `repro` prints on stderr once the world is built.
const WORLD_BUILT: &str = " ASes, ";

/// What `repro` prints on stderr for its thread pool width.
const THREADS: &str = "worker threads: ";

/// Run `repro all --scale paper --seed <seed>` once, time it and check
/// its artifacts. `corrupt` damages the first artifact before the check.
pub fn sample(
    repro: &Path,
    seed: u64,
    traced: bool,
    corrupt: bool,
    tracer: &Tracer,
) -> Result<Sample, String> {
    let dir = PathBuf::from(crate::child::OUT_DIR).join("paper_all");
    let out = dir.join("out");
    let report = dir.join("run_report.json");
    let stream = dir.join("trace.jsonl");
    // Stale outputs of an earlier sample must not pass for this one's.
    let _ = std::fs::remove_dir_all(&out);
    let root = tracer.span("paper_all.sample", None);

    let mut cmd = Command::new(repro);
    cmd.args([
        "all",
        "--scale",
        "paper",
        "--seed",
        &seed.to_string(),
        "--out",
    ])
    .arg(&out);
    if traced {
        cmd.arg("--report")
            .arg(&report)
            .arg("--trace-json")
            .arg(&stream);
    }
    let ticks = procfs::cpu_ticks().unwrap_or_default();
    let run = tracer.span("paper_all.repro", root.id());
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
    let (mut setup_s, mut threads, mut tail) = (None, 0, Vec::new());
    for line in BufReader::new(child.stderr.take().expect("piped stderr")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if setup_s.is_none() && line.contains(WORLD_BUILT) {
            setup_s = Some(started.elapsed().as_secs_f64());
        }
        if let Some(n) = line.strip_prefix(THREADS) {
            threads = n.trim().parse().unwrap_or(0);
        }
        tail.push(line);
    }
    let exit = procfs::reap(child.id()).map_err(|e| format!("wait for repro: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    drop(run);
    let steal = procfs::steal_share(ticks, procfs::cpu_ticks().unwrap_or_default());
    let fail = |why: &str| {
        let last = &tail[tail.len().saturating_sub(5)..];
        format!("paper_all seed {seed}: {why}\n{}", last.join("\n"))
    };
    if !exit.success {
        return Err(fail("repro failed"));
    }
    let setup_s = setup_s.ok_or_else(|| fail("repro never reported the built world"))?;

    let _check = tracer.span("paper_all.verify", root.id());
    let mut s = Sample {
        seed,
        setup_s: Some(setup_s),
        wall_s,
        cpu_s: exit.proc.cpu_s(),
        peak_rss_mb: exit.proc.peak_rss_mb(),
        steal,
        attempted: ARTIFACTS.len() as u64,
        failed: 0,
        digests: BTreeMap::new(),
        layers: layers::Metrics::new(),
    };
    for (i, id) in ARTIFACTS.iter().enumerate() {
        let Ok(mut bytes) = std::fs::read_to_string(out.join(format!("{id}.json"))) else {
            eprintln!("paper_all: {id}.json is missing");
            s.failed += 1;
            continue;
        };
        if corrupt && i == 0 {
            crate::child::corrupt(&mut bytes);
        }
        s.digests
            .insert(id.to_string(), crate::child::digest(bytes.as_bytes()));
        if seed == 42 {
            let committed = std::fs::read(Path::new(RESULTS_DIR).join(format!("{id}.json")));
            if committed.ok().as_deref() != Some(bytes.as_bytes()) {
                eprintln!("paper_all: {id}.json differs from {RESULTS_DIR}/{id}.json");
                s.failed += 1;
            }
        }
    }
    if traced {
        s.layers = program_layers(&report, &stream, threads)?;
        s.layers.insert("process.user_s".into(), exit.proc.user_s);
        s.layers.insert("process.sys_s".into(), exit.proc.sys_s);
        s.layers
            .insert("process.ctx_switches".into(), exit.ctx_switches as f64);
    }
    Ok(s)
}

/// The per-layer figures of a traced run, from its `--report` file and
/// its `--trace-json` stream.
fn program_layers(report: &Path, stream: &Path, threads: usize) -> Result<layers::Metrics, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let doc: serde_json::Value =
        serde_json::from_str(&read(report)?).map_err(|e| format!("{}: {e}", report.display()))?;
    let tree = layers::span_nodes(doc.get("spans").unwrap_or(&serde_json::Value::Null));
    let counters = doc
        .get("metrics")
        .map(layers::counters_from_json)
        .unwrap_or_default();
    Ok(layers::program(&tree, &counters, &read(stream)?, threads))
}
