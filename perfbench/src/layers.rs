//! Per-layer figures, nearly all read from the program's own `rp-obs`
//! output after a traced run:
//!
//! - the aggregated span tree (world builds and their stages, `probe_all`
//!   and its per-IXP probes, the simulator, filters, offload, the
//!   experiments, the check harness's fuzz span);
//! - the counters and gauges (simulator events and barriers, memo and
//!   cone-cache hits, the filter funnel, invariant checks);
//! - the streamed span events of a `--trace-json` file, for the one
//!   figure an aggregate cannot give: the slowest single IXP probe.
//!
//! `paper_all` reads them from `repro`'s `--report` and `--trace-json`
//! files, `check_test` from its own process, `serve_mixed` from the
//! server's `GET /metrics` and from the reference replay of its jobs.
//!
//! One figure pair comes from a call the program does not make itself
//! in these workloads: [`fork_battery`], a one-delta copy-on-write fork
//! re-probed incrementally, on a world the workload built.

use crate::trace::Tracer;
use remote_peering::world::{Scale, World};
use remote_peering::{Campaign, Delta};
use rp_obs::metrics::MetricValue;
use rp_obs::span::SpanNode;
use serde_json::Value;
use std::collections::BTreeMap;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Every per-layer metric the benchmark reports, in report order. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("process.ctx_switches", "count"),
    ("world.build_ms", "ms"),
    ("world.builds", "count"),
    ("topology.generate_ms", "ms"),
    ("ixp.build_scene_ms", "ms"),
    ("bgp.routing_view_ms", "ms"),
    ("traffic.contributions_ms", "ms"),
    ("world.approx_mb", "MB"),
    ("campaign.probe_all_ms", "ms"),
    ("campaign.probe_all_calls", "count"),
    ("campaign.probe_ixp_max_ms", "ms"),
    ("campaign.probe_ixp_sum_ms", "ms"),
    ("campaign.parallel_efficiency", "ratio"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.shard_barriers", "count"),
    ("detect.analyze_ms", "ms"),
    ("filters.analyzed_ratio", "ratio"),
    ("offload.study_ms", "ms"),
    ("offload.cone_cache_hit_ratio", "ratio"),
    ("experiments.ablate_ms", "ms"),
    ("experiments.invisibility_ms", "ms"),
    ("experiments.inference_ms", "ms"),
    ("experiments.africa_ms", "ms"),
    ("experiments.validate_ms", "ms"),
    ("memo.world_hit_ratio", "ratio"),
    ("memo.probe_hit_ratio", "ratio"),
    ("fork.probe_reused_ratio", "ratio"),
    ("fork.incremental_ms", "ms"),
    ("testkit.run_check_ms", "ms"),
    ("testkit.fuzz_ms", "ms"),
    ("testkit.checks", "count"),
    ("server.http_request_ms", "ms"),
    ("server.job_service_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.dedupe_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_ratio", "ratio"),
    ("bench.host_steal_pct", "%"),
    ("bench.host_speed", "ratio"),
];

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// This process's counters and gauges by name.
pub fn local_counters() -> BTreeMap<String, u64> {
    rp_obs::metrics::snapshot()
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => Some((name.to_string(), n)),
            MetricValue::Histogram { .. } => None,
        })
        .collect()
}

/// Counters and gauges from a metrics document: `repro serve`'s
/// `GET /metrics`, or the `metrics` section of a `repro --report` file.
pub fn counters_from_json(doc: &Value) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(map) = doc.as_object() {
        for (name, m) in map {
            if let Some(n) = m
                .get("value")
                .or_else(|| m.get("max"))
                .and_then(Value::as_u64)
            {
                out.insert(name.clone(), n);
            }
        }
    }
    out
}

/// The figures read from counters: simulator events and barriers, memo
/// and cone-cache hits, the filter funnel, invariant checks.
pub fn from_counters(c: &BTreeMap<String, u64>) -> Metrics {
    let get = |name: &str| c.get(name).copied().unwrap_or(0);
    let mut m = Metrics::new();
    m.insert(
        "netsim.events".into(),
        get("netsim.sim.events_processed") as f64,
    );
    m.insert(
        "netsim.shard_barriers".into(),
        get("netsim.shard.barriers") as f64,
    );
    m.insert(
        "memo.world_hit_ratio".into(),
        hit_ratio(get("core.memo.world_hit"), get("core.memo.world_miss")),
    );
    m.insert(
        "memo.probe_hit_ratio".into(),
        hit_ratio(get("core.memo.probe_hit"), get("core.memo.probe_miss")),
    );
    m.insert(
        "offload.cone_cache_hit_ratio".into(),
        hit_ratio(
            get("core.offload.cone_cache.hits"),
            get("core.offload.cone_cache.misses"),
        ),
    );
    m.insert(
        "filters.analyzed_ratio".into(),
        get("core.filters.analyzed") as f64 / get("core.filters.probed").max(1) as f64,
    );
    m.insert(
        "testkit.checks".into(),
        get("testkit.invariants.checks") as f64,
    );
    m
}

/// `(closes, total ns)` of every node named `name` in `tree`; with
/// `under`, only nodes inside a subtree rooted at a node of that name.
pub fn span_total(tree: &[SpanNode], name: &str, under: Option<&str>) -> (u64, u64) {
    fn walk(
        nodes: &[SpanNode],
        name: &str,
        under: Option<&str>,
        inside: bool,
        acc: &mut (u64, u64),
    ) {
        for n in nodes {
            let inside = inside || under == Some(n.name.as_str());
            if n.name == name && (under.is_none() || inside) {
                acc.0 += n.count;
                acc.1 += n.total_ns;
            }
            walk(&n.children, name, under, inside, acc);
        }
    }
    let mut acc = (0, 0);
    walk(tree, name, under, false, &mut acc);
    acc
}

/// The span tree of a `repro --report` file (its `spans` section).
pub fn span_nodes(doc: &Value) -> Vec<SpanNode> {
    let num = |n: &Value, key: &str| n.get(key).and_then(Value::as_u64).unwrap_or(0);
    doc.as_array()
        .into_iter()
        .flatten()
        .map(|n| SpanNode {
            name: n
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            count: num(n, "count"),
            total_ns: num(n, "total_ns"),
            self_ns: num(n, "self_ns"),
            window_ns: num(n, "window_ns"),
            first_start_ns: num(n, "first_start_ns"),
            children: n.get("children").map(span_nodes).unwrap_or_default(),
        })
        .collect()
}

/// The experiments whose time `paper_all` reports, by `repro`'s span
/// name `repro.<name>`.
const EXPERIMENTS: [&str; 5] = ["ablate", "invisibility", "inference", "africa", "validate"];

/// The figures read from the program's span tree. `threads` is the
/// width of the thread pool `probe_all` fans out on.
pub fn from_spans(tree: &[SpanNode], threads: usize) -> Metrics {
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |name: &str| span_total(tree, name, None).1;
    let (builds, _) = span_total(tree, "core.world.build", None);
    let per_build = |stage: &str| {
        let (_, ns) = span_total(tree, stage, Some("core.world.build"));
        if builds == 0 {
            0.0
        } else {
            ms(ns) / builds as f64
        }
    };
    let (calls, probe_ns) = span_total(tree, "core.campaign.probe_all", None);
    let (_, busy_ns) = span_total(
        tree,
        "core.campaign.probe_ixp",
        Some("core.campaign.probe_all"),
    );
    let mut m = Metrics::new();
    m.insert("world.builds".into(), builds as f64);
    m.insert("world.build_ms".into(), per_build("core.world.build"));
    m.insert(
        "topology.generate_ms".into(),
        per_build("topology.generate"),
    );
    m.insert("ixp.build_scene_ms".into(), per_build("ixp.build_scene"));
    m.insert("bgp.routing_view_ms".into(), per_build("bgp.routing_view"));
    m.insert(
        "traffic.contributions_ms".into(),
        per_build("traffic.contributions"),
    );
    m.insert("campaign.probe_all_ms".into(), ms(probe_ns));
    m.insert("campaign.probe_all_calls".into(), calls as f64);
    m.insert("campaign.probe_ixp_sum_ms".into(), ms(busy_ns));
    m.insert(
        "campaign.parallel_efficiency".into(),
        if probe_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / (threads.max(1) as f64 * probe_ns as f64)
        },
    );
    m.insert(
        "detect.analyze_ms".into(),
        ms(total("core.filters.analyze_ixp")),
    );
    m.insert("offload.study_ms".into(), ms(total("core.offload.new")));
    for name in EXPERIMENTS {
        m.insert(
            format!("experiments.{name}_ms"),
            ms(total(&format!("repro.{name}"))),
        );
    }
    m.insert("testkit.fuzz_ms".into(), ms(total("testkit.check.fuzz")));
    m
}

/// The longest single IXP probe inside `probe_all`, ms, from the span
/// records of a JSONL trace stream (`repro --trace-json`).
pub fn probe_ixp_max_ms(jsonl: &str) -> f64 {
    const PATH_END: &str = "core.campaign.probe_all;core.campaign.probe_ixp";
    jsonl
        .lines()
        .filter(|line| line.contains(PATH_END))
        .filter_map(|line| serde_json::from_str(line).ok())
        .filter(|v: &Value| {
            v.get("type").and_then(Value::as_str) == Some("span")
                && v.get("path")
                    .and_then(Value::as_str)
                    .is_some_and(|p| p.ends_with(PATH_END))
        })
        .filter_map(|v| v.get("dur_ns").and_then(Value::as_u64))
        .max()
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// Every program figure of one traced run: span tree, counters and the
/// JSONL stream, with events per second of simulator time.
pub fn program(
    tree: &[SpanNode],
    counters: &BTreeMap<String, u64>,
    jsonl: &str,
    threads: usize,
) -> Metrics {
    let mut m = from_spans(tree, threads);
    m.extend(from_counters(counters));
    m.insert("campaign.probe_ixp_max_ms".into(), probe_ixp_max_ms(jsonl));
    let sim_s = span_total(tree, "netsim.run", None).1 as f64 / 1e9;
    m.insert(
        "netsim.events_per_s".into(),
        if sim_s > 0.0 {
            m["netsim.events"] / sim_s
        } else {
            0.0
        },
    );
    m
}

/// Size of the world `scale` builds for `seed`, MB, by
/// `World::approx_bytes`. The memo serves a world the run already built.
pub fn world_mb(scale: Scale, seed: u64) -> f64 {
    World::build_cached(&scale.config(seed)).approx_bytes() as f64 / 1e6
}

fn counter(name: &str) -> u64 {
    local_counters().get(name).copied().unwrap_or(0)
}

/// The one-delta fork (collection must be enabled): the `scale` world of
/// `seed` forked with the first studied IXP's membership removed, then
/// re-probed with `probe_all_incremental` against the parent's probes,
/// under the campaign `repro` runs at default flags. The parent world
/// and probes come from the memo when the workload left them there. Gives
/// `fork.incremental_ms` (fork plus re-probe) and
/// `fork.probe_reused_ratio` (IXPs reused ÷ IXPs touched).
pub fn fork_battery(scale: Scale, seed: u64, tracer: &Tracer) -> Metrics {
    let campaign = Campaign {
        shards: 0,
        memory_budget_bytes: scale.default_memory_budget(),
        ..Campaign::default_paper()
    };
    let world = World::build_cached(&scale.config(seed));
    let parent = campaign.probe_all_cached(&world);
    let reused = counter("core.fork.probe_reused");
    let recomputed = counter("core.fork.probe_recomputed");
    let started = std::time::Instant::now();
    {
        let _s = tracer.span("fork.incremental", None);
        let mut fork = world.fork();
        fork.apply(Delta::MemberRemove {
            ixp: world.studied_ixps()[0],
        });
        std::hint::black_box(campaign.probe_all_incremental(&fork, &parent));
    }
    let mut m = Metrics::new();
    m.insert(
        "fork.incremental_ms".into(),
        started.elapsed().as_secs_f64() * 1e3,
    );
    m.insert(
        "fork.probe_reused_ratio".into(),
        hit_ratio(
            counter("core.fork.probe_reused") - reused,
            counter("core.fork.probe_recomputed") - recomputed,
        ),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, count: u64, total_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            count,
            total_ns,
            self_ns: 0,
            window_ns: total_ns,
            first_start_ns: 0,
            children,
        }
    }

    #[test]
    fn span_totals_respect_the_enclosing_subtree() {
        let tree = vec![
            node(
                "core.world.build",
                2,
                4_000_000,
                vec![node("topology.generate", 2, 1_000_000, vec![])],
            ),
            node("topology.generate", 1, 9_000_000, vec![]),
            node(
                "core.detect.run",
                1,
                5_000_000,
                vec![node("core.campaign.probe_all", 1, 3_000_000, vec![])],
            ),
            node("core.campaign.probe_all", 1, 2_000_000, vec![]),
        ];
        assert_eq!(
            span_total(&tree, "topology.generate", None),
            (3, 10_000_000)
        );
        assert_eq!(
            span_total(&tree, "topology.generate", Some("core.world.build")),
            (2, 1_000_000)
        );
        let m = from_spans(&tree, 2);
        assert_eq!(m["world.builds"], 2.0);
        assert_eq!(m["world.build_ms"], 2.0);
        assert_eq!(m["topology.generate_ms"], 0.5);
        assert_eq!(m["campaign.probe_all_calls"], 2.0);
        assert_eq!(m["campaign.probe_all_ms"], 5.0);
    }

    #[test]
    fn parallel_efficiency_counts_only_probes_inside_probe_all() {
        let tree = vec![
            node(
                "core.campaign.probe_all",
                2,
                10_000_000,
                vec![node("core.campaign.probe_ixp", 44, 15_000_000, vec![])],
            ),
            node(
                "core.campaign.probe_all_incremental",
                1,
                4_000_000,
                vec![node("core.campaign.probe_ixp", 1, 4_000_000, vec![])],
            ),
        ];
        let m = from_spans(&tree, 2);
        assert_eq!(m["campaign.probe_ixp_sum_ms"], 15.0);
        assert_eq!(m["campaign.parallel_efficiency"], 0.75);
        assert_eq!(from_spans(&[], 2)["campaign.parallel_efficiency"], 0.0);
    }

    #[test]
    fn span_trees_read_back_from_report_json() {
        let tree = vec![node(
            "repro.run",
            1,
            9_000_000,
            vec![node("repro.ablate", 1, 3_000_000, vec![])],
        )];
        let doc = serde_json::from_str(
            r#"[{"name": "repro.run", "count": 1, "total_ns": 9000000, "self_ns": 0,
                 "window_ns": 9000000, "first_start_ns": 0, "children": [
                {"name": "repro.ablate", "count": 1, "total_ns": 3000000, "self_ns": 0,
                 "window_ns": 3000000, "first_start_ns": 0, "children": []}]}]"#,
        )
        .expect("test JSON");
        // `SpanNode` has no `PartialEq`; its debug text shows every field.
        assert_eq!(format!("{:?}", span_nodes(&doc)), format!("{tree:?}"));
        assert_eq!(from_spans(&tree, 1)["experiments.ablate_ms"], 3.0);
    }

    #[test]
    fn slowest_ixp_probe_comes_from_the_span_stream() {
        let jsonl = concat!(
            r#"{"type":"span","path":"repro.run;core.detect.run;core.campaign.probe_all;core.campaign.probe_ixp","start_ns":1,"dur_ns":7000000,"tid":3}"#,
            "\n",
            r#"{"type":"span","path":"repro.run;core.detect.run;core.campaign.probe_all;core.campaign.probe_ixp;netsim.run","start_ns":1,"dur_ns":9000000,"tid":3}"#,
            "\n",
            r#"{"type":"span","path":"x;core.campaign.probe_all_incremental;core.campaign.probe_ixp","start_ns":1,"dur_ns":8000000,"tid":3}"#,
            "\n",
            r#"{"type":"span","path":"repro.run;repro.ablate;core.campaign.probe_all;core.campaign.probe_ixp","start_ns":1,"dur_ns":7500000,"tid":4}"#,
            "\n",
            r#"{"type":"summary","written":4,"dropped":0}"#,
        );
        assert_eq!(probe_ixp_max_ms(jsonl), 7.5);
        assert_eq!(probe_ixp_max_ms(""), 0.0);
    }

    #[test]
    fn counters_come_from_served_metrics_documents() {
        let doc: Value = serde_json::from_str(
            r#"{"core.memo.world_hit": {"type": "counter", "value": 3},
                "core.memo.world_miss": {"type": "counter", "value": 1},
                "netsim.shard.count": {"type": "gauge", "max": 4},
                "server.jobs.run_ms": {"type": "histogram", "count": 2, "sum": 5.0}}"#,
        )
        .expect("test JSON");
        let c = counters_from_json(&doc);
        assert_eq!(c.len(), 3);
        let m = from_counters(&c);
        assert_eq!(m["memo.world_hit_ratio"], 0.75);
        assert_eq!(m["memo.probe_hit_ratio"], 0.0);
    }
}
