//! `check_test`: one `repro check` at test scale with default faults and
//! fuzz, run in a fresh process through `rp_testkit::run_check`.

use crate::child::{Child, Report, OUT_DIR};
use crate::layers;
use crate::trace::Tracer;
use remote_peering::world::{Scale, World};
use rp_testkit::CheckConfig;
use std::path::PathBuf;

/// Run one check and verify that it passed.
pub fn run(child: &Child) -> Report {
    let tracer = Tracer::new(child.traced);
    let root = tracer.span("check_test", None);
    let config = CheckConfig {
        seed: child.seed,
        scale: Scale::Test,
        ..CheckConfig::default()
    };
    let stream = PathBuf::from(OUT_DIR)
        .join("check_test")
        .join("trace.jsonl");
    if child.traced {
        rp_obs::trace::install_jsonl(&stream).expect("open the trace stream");
    } else {
        // The check's clean arm fetches its world through the same memo,
        // so building it here first moves that build in front of the rest
        // of the check without adding one, and marks the set-up. Traced
        // samples skip this, so the memo counters they report are the
        // check's own.
        World::build_cached(&Scale::Test.config(child.seed));
        child.mark("setup");
    }
    let outcome = {
        let _s = tracer.span("testkit.run_check", root.id());
        rp_testkit::run_check(&config)
    };
    let mut artifact =
        serde_json::to_string_pretty(&outcome.to_json()).expect("serialize check report");
    artifact.push('\n');
    child.write_output("check_report.json", &artifact);
    drop(root);
    child.mark("done");

    let mut report = Report::new(1);
    if child.corrupt {
        artifact = artifact.replacen("\"passed\": true", "\"passed\": false", 1);
    }
    let reported = serde_json::from_str(&artifact)
        .ok()
        .and_then(|doc| doc.get("passed").and_then(serde_json::Value::as_bool));
    if !outcome.passed() || reported != Some(true) {
        eprintln!("check_test: seed {} did not pass", child.seed);
        report.failed += 1;
    }
    report.digest("check_report", &artifact);
    if child.traced {
        rp_obs::trace::finish().expect("close the trace stream");
        let jsonl = std::fs::read_to_string(&stream).expect("read the trace stream");
        report.program_layers(&jsonl);
        report.layer("testkit.run_check_ms", tracer.ms("testkit.run_check"));
        report.layer("world.approx_mb", layers::world_mb(Scale::Test, child.seed));
        report.extend(layers::fork_battery(Scale::Test, child.seed, &tracer));
        report.write_trace("check_test", child.seed, &tracer);
    }
    report
}
