//! Parallel execution must be a pure wall-clock optimization: every
//! parallelized path (the per-IXP campaign, the offload ranking and greedy
//! sweeps, the cone cache) must return results bit-identical to its serial
//! or uncached reference, at whatever thread count the host exposes.
//!
//! These tests run under the CI matrix (`RAYON_NUM_THREADS=1` and unset),
//! so both the degenerate single-worker path and the genuinely concurrent
//! path are exercised against the same assertions.

use rayon::prelude::*;
use remote_peering::campaign::Campaign;
use remote_peering::offload::{GreedyMetric, OffloadStudy, PeerGroup};
use remote_peering::world::{World, WorldConfig};
use rp_types::IxpId;

const SEEDS: [u64; 3] = [7, 42, 20140101];

/// Golden fold of the per-IXP event-trace digests for the seed-42
/// test-scale campaign, captured on the sharded scheduler with intrinsic
/// `(creator, seq)` event keys and per-direction link/fault RNG streams.
/// `Network::trace_digest` folds a commutative hash of `(time, node,
/// kind)` over every dispatched event, so this constant pins the exact
/// event multiset of every studied IXP's campaign at every shard and
/// thread count: any event-queue, frame-pool, or shard-layout rework must
/// reproduce it bit for bit.
const GOLDEN_TRACE_FOLD_SEED_42: u64 = 0x5025_6203_8c65_477b;

/// Total events dispatched across all studied IXPs for the same campaign
/// (a cheap second invariant: a scheduler that reorders but never loses
/// events still has to dispatch exactly as many).
const GOLDEN_TRACE_EVENTS_SEED_42: u64 = 1_086_099;

fn fnv1a_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn golden_event_trace_digest_survives_scheduler_and_pool_swap() {
    // Runs under the CI thread matrix (RAYON_NUM_THREADS=1 and unset), so
    // the golden constants are asserted at one worker and at the host's
    // full width; `tests/check_determinism.rs` additionally pins the
    // binary-driven `--threads 1` vs `--threads 4` byte identity.
    let world = World::build(&WorldConfig::test_scale(42));
    let campaign = Campaign::default_paper();
    let trace = |ixp| {
        let probe = campaign.probe_ixp(&world, ixp, false);
        (probe.trace_digest, probe.events)
    };
    let serial: Vec<(u64, u64)> = world.studied_ixps().into_iter().map(trace).collect();
    let parallel: Vec<(u64, u64)> = world.studied_ixps().into_par_iter().map(trace).collect();
    assert_eq!(serial, parallel, "trace digests depend on scheduling");

    let fold = serial
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &(d, _)| fnv1a_fold(h, d));
    let events: u64 = serial.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        fold, GOLDEN_TRACE_FOLD_SEED_42,
        "event-trace digest diverged from the golden capture \
         (fold=0x{fold:016x}, events={events})"
    );
    assert_eq!(
        events, GOLDEN_TRACE_EVENTS_SEED_42,
        "total dispatched events diverged (events={events})"
    );
}

/// The shard-equivalence contract at the campaign level: explicit shard
/// counts 1, 2, and 4 must all reproduce the golden trace fold (the
/// machine-dependent default is therefore also covered, since it resolves
/// to some explicit count).
#[test]
fn trace_digest_is_shard_count_invariant() {
    let world = World::build(&WorldConfig::test_scale(42));
    let fold_at = |shards: usize| {
        let campaign = Campaign {
            shards,
            ..Campaign::default_paper()
        };
        world
            .studied_ixps()
            .iter()
            .map(|&ixp| campaign.probe_ixp(&world, ixp, false).trace_digest)
            .fold(0xcbf2_9ce4_8422_2325_u64, fnv1a_fold)
    };
    for shards in [1usize, 2, 4] {
        assert_eq!(
            fold_at(shards),
            GOLDEN_TRACE_FOLD_SEED_42,
            "--shards {shards} diverged from the golden trace"
        );
    }
}

#[test]
fn parallel_probe_all_matches_serial_across_seeds() {
    for seed in SEEDS {
        let world = World::build(&WorldConfig::test_scale(seed));
        let campaign = Campaign::default_paper();
        let parallel = campaign.probe_all(&world);
        let serial = rp_testkit::differential::probe_all_serial(&campaign, &world);
        assert_eq!(
            parallel.len(),
            serial.len(),
            "seed {seed}: studied-IXP counts diverge"
        );
        // Element-wise comparison so a mismatch names the IXP.
        for ((pi, ps), (si, ss)) in parallel.iter().zip(serial.iter()) {
            assert_eq!(pi, si, "seed {seed}: IXP order diverged");
            assert_eq!(ps, ss, "seed {seed}: samples diverged at IXP {pi}");
        }
    }
}

#[test]
fn world_build_is_deterministic_under_parallel_sections() {
    // World::build overlaps the registry crawl with the routing
    // computation; both must see identical inputs and the assembled world
    // must match a second build exactly.
    for seed in SEEDS {
        let a = World::build(&WorldConfig::test_scale(seed));
        let b = World::build(&WorldConfig::test_scale(seed));
        assert_eq!(a.vantage, b.vantage, "seed {seed}");
        assert_eq!(a.home_ixps, b.home_ixps, "seed {seed}");
        assert_eq!(
            a.registry.total_entries(),
            b.registry.total_entries(),
            "seed {seed}: registry crawl diverged"
        );
        assert_eq!(
            a.contributions.total_inbound(),
            b.contributions.total_inbound(),
            "seed {seed}: traffic contributions diverged"
        );
    }
}

#[test]
fn greedy_cached_matches_uncached_for_all_groups_and_metrics() {
    let world = World::build(&WorldConfig::test_scale(42));
    let study = OffloadStudy::new(&world);
    for group in PeerGroup::ALL {
        for metric in [GreedyMetric::Traffic, GreedyMetric::Interfaces] {
            let cached = study.greedy_by(group, 20, metric);
            let uncached = study.greedy_by_uncached(group, 20, metric);
            assert_eq!(
                cached, uncached,
                "{group:?}/{metric:?}: cone cache changed the greedy expansion"
            );
        }
    }
}

#[test]
fn reachable_cone_cache_composes_exactly() {
    let world = World::build(&WorldConfig::test_scale(42));
    let study = OffloadStudy::new(&world);
    let all: Vec<IxpId> = world.scene.ixps.iter().map(|x| x.id).collect();
    for group in PeerGroup::ALL {
        for ixps in [&all[..1], &all[..7], &all[..]] {
            assert_eq!(
                study.reachable_cone(ixps, group),
                study.reachable_cone_uncached(ixps, group),
                "{group:?} over {} IXPs: cached cone diverged",
                ixps.len()
            );
        }
    }
}

#[test]
fn instrumentation_is_result_invariant() {
    // The rp-obs spans, counters, and timeline recorders threaded through
    // the hot paths must be pure observers: enabling them cannot perturb a
    // single result, at any shard count. (The byte-level guard on the
    // emitted JSON lives in tests/report_schema.rs; this is the in-process
    // version over the same pipelines.)
    let world = World::build(&WorldConfig::test_scale(42));
    let plain_ranking = OffloadStudy::new(&world).single_ixp_ranking();
    let plain_greedy =
        OffloadStudy::new(&world).greedy_by(PeerGroup::All, 20, GreedyMetric::Traffic);

    let mut baseline_probes = None;
    for shards in [1usize, 2, 4] {
        let campaign = Campaign {
            shards,
            ..Campaign::default_paper()
        };
        let plain = campaign.probe_all(&world);
        rp_obs::enable();
        let instrumented = campaign.probe_all(&world);
        rp_obs::disable();
        assert_eq!(
            plain, instrumented,
            "instrumented campaign produced different samples at --shards {shards}"
        );
        match &baseline_probes {
            None => baseline_probes = Some(plain),
            Some(b) => assert_eq!(
                b, &plain,
                "campaign samples changed between shard counts (shards={shards})"
            ),
        }
    }

    rp_obs::enable();
    let instrumented_world = World::build(&WorldConfig::test_scale(42));
    let instrumented_ranking = OffloadStudy::new(&instrumented_world).single_ixp_ranking();
    let instrumented_greedy =
        OffloadStudy::new(&instrumented_world).greedy_by(PeerGroup::All, 20, GreedyMetric::Traffic);
    rp_obs::disable();

    assert_eq!(world.vantage, instrumented_world.vantage);
    assert_eq!(world.home_ixps, instrumented_world.home_ixps);
    assert_eq!(
        world.registry.total_entries(),
        instrumented_world.registry.total_entries(),
        "instrumented registry crawl diverged"
    );
    assert_eq!(
        plain_ranking, instrumented_ranking,
        "instrumented ranking diverged"
    );
    assert_eq!(
        plain_greedy, instrumented_greedy,
        "instrumented greedy expansion diverged"
    );
}

#[test]
fn single_ixp_ranking_is_stable() {
    let world = World::build(&WorldConfig::test_scale(42));
    let study = OffloadStudy::new(&world);
    let first = study.single_ixp_ranking();
    let second = study.single_ixp_ranking();
    assert_eq!(first, second, "parallel ranking must be run-to-run stable");
    // A fresh study (cold cache) must agree with the warm one.
    let fresh = OffloadStudy::new(&world);
    assert_eq!(
        first,
        fresh.single_ixp_ranking(),
        "cold-cache ranking diverged"
    );
}
