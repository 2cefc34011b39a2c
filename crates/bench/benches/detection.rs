//! Benchmarks for the section 3 pipeline: world construction, the probing
//! campaign (Table 1 / figures 2–4 machinery), and the six filters.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use remote_peering::campaign::Campaign;
use remote_peering::detect::{DetectionReport, DetectionStudy};
use remote_peering::filters::{apply, FilterConfig};
use remote_peering::probe::{InterfaceSamples, Sample};
use remote_peering::world::{World, WorldConfig};
use rp_ixp::registry::ListingEntry;
use rp_ixp::LgOperator;
use rp_types::{Asn, SimTime};
use std::hint::black_box;

fn bench_world_build(c: &mut Criterion) {
    c.bench_function("world/build_test_scale", |b| {
        b.iter(|| World::build(black_box(&WorldConfig::test_scale(42))))
    });
}

fn bench_campaign(c: &mut Criterion) {
    let world = World::build(&WorldConfig::test_scale(42));
    let campaign = Campaign::default_paper();
    let ams = world.studied_ixps()[0];

    // One IXP end to end: build the packet-level scene, run ~4 months of
    // probing, collect samples (the Table 1 unit of work).
    c.bench_function("campaign/probe_one_ixp", |b| {
        b.iter(|| campaign.probe_ixp(black_box(&world), black_box(ams), false))
    });

    // Filters + classification over pre-collected samples.
    let samples = campaign.probe_ixp(&world, ams, false).plane;
    c.bench_function("campaign/analyze_one_ixp", |b| {
        b.iter(|| DetectionStudy::analyze_ixp(black_box(&world), ams, black_box(&samples)))
    });

    // The full 22-IXP study (figures 2-4 input).
    c.bench_function("campaign/full_detection_report", |b| {
        b.iter(|| DetectionReport::run(black_box(&world), black_box(&campaign)))
    });
}

fn bench_filters(c: &mut Criterion) {
    // Filter throughput on a healthy interface with the paper's reply
    // volumes (the hot path of the analysis stage).
    let samples = InterfaceSamples {
        ip: "10.0.2.2".parse().unwrap(),
        per_lg: vec![
            (
                LgOperator::Pch,
                (0..54)
                    .map(|k| Sample {
                        sent_at: SimTime(k as u64 * 1_000_000),
                        rtt_ms: 1.0 + 0.01 * k as f64,
                        ttl: 255,
                    })
                    .collect(),
            ),
            (
                LgOperator::RipeNcc,
                (0..21)
                    .map(|k| Sample {
                        sent_at: SimTime(k as u64 * 2_000_000),
                        rtt_ms: 1.1 + 0.01 * k as f64,
                        ttl: 255,
                    })
                    .collect(),
            ),
        ],
        unanswered: vec![(LgOperator::Pch, 1), (LgOperator::RipeNcc, 0)],
    };
    let entry = ListingEntry {
        ip: "10.0.2.2".parse().unwrap(),
        asns: vec![Asn(64500)],
    };
    let cfg = FilterConfig::default();
    c.bench_function("filters/six_filters_one_interface", |b| {
        b.iter_batched(
            || samples.clone(),
            |s| apply(black_box(&s), black_box(&entry), black_box(&cfg)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_world_build, bench_campaign, bench_filters);
criterion_main!(benches);
