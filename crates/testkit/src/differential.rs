//! The differential harness: fork + incremental recompute versus a
//! from-scratch rebuild, held to *byte* identity.
//!
//! The copy-on-write fork machinery ([`remote_peering::fork`]) makes one
//! promise: a forked world with its delta log applied, probed
//! incrementally (dirty IXPs re-run, everything else reused from the
//! parent), is indistinguishable — down to the last bit — from rebuilding
//! the world from scratch, applying the same deltas in place, and probing
//! everything. This module is the enforcement: it generates randomized
//! delta sequences, runs both arms, and compares the probe bytes and every
//! derived [`RunMetrics`] value by exact `f64` bit pattern.
//!
//! The module also holds the serial reference of the parallel campaign,
//! [`probe_all_serial`]: reference paths live here, in the harness, and
//! nowhere in the product's APIs.
//!
//! A differential harness that cannot fail proves nothing, so every run
//! includes a *broken oracle*: a deliberately stale fork whose probe set
//! reuses the parent's samples for dirty IXPs too. Its comparison is
//! expected to MISMATCH; if it ever matches, the harness has lost the
//! sensitivity it exists for.

use rand::RngExt;
use remote_peering::campaign::Campaign;
use remote_peering::fork::{apply_delta_in_place, Delta};
use remote_peering::memo::{self, ProbeSet};
use remote_peering::metrics::{MethodParams, PreparedRun, RunMetrics};
use remote_peering::probe::ProbePlane;
use remote_peering::world::{World, WorldConfig};
use rp_ixp::model::{
    Access, IxpInstance, LgOperator, ListingInfo, MemberInterface, ResponderProfile,
};
use rp_types::{seed, IxpId, NetworkId};

/// One arm's probed output, reduced to the things the comparison needs:
/// the probe set's content address and the full metric vector.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Fingerprint of the raw per-IXP probe samples.
    pub probes_fp: u64,
    /// Every named run metric, in [`RunMetrics::NAMES`] order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// One differential comparison: did the arms agree, and were they
/// supposed to?
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Human-readable row label (`shards=2 round=1 deltas=3`, ...).
    pub label: String,
    /// The arms agreed byte-for-byte.
    pub matched: bool,
    /// Whether agreement was the expected verdict (`false` for the
    /// broken-oracle rows: a stale fork MUST be caught).
    pub expected: bool,
}

impl DiffOutcome {
    /// The row behaved as the contract demands.
    pub fn ok(&self) -> bool {
        self.matched == self.expected
    }
}

/// An unlisted direct member for the next slot of `ixp` — the standard
/// synthetic row the offload invariant also uses.
fn next_member(ixp: IxpId, slot: u32) -> MemberInterface {
    MemberInterface {
        network: NetworkId(0),
        ip: IxpInstance::ip_for_slot(ixp, slot),
        access: Access::Direct {
            colo_delay_ms: 0.3,
            site: 0,
        },
        profile: ResponderProfile::default(),
        listing: ListingInfo {
            listed: false,
            identifiable: false,
            asn_change: false,
        },
    }
}

/// A randomized, always-valid delta sequence against `world`. Validity is
/// tracked on a scratch copy (copy-on-write makes the clone near-free), so
/// slots stay in range even as earlier deltas add and remove members.
/// Deterministic in `(world, stream_seed, n)`.
pub fn random_deltas(world: &World, stream_seed: u64, n: usize) -> Vec<Delta> {
    let mut scratch = world.clone();
    let mut rng = seed::rng(stream_seed, "diff-deltas", 0);
    let studied = world.studied_ixps();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let ixp = studied[rng.random::<u64>() as usize % studied.len()];
        let members = scratch.scene.ixp(ixp).members.len();
        let slot = if members > 0 {
            (rng.random::<u64>() as usize % members) as u32
        } else {
            0
        };
        let d = match rng.random::<u64>() % 6 {
            0 => Delta::MemberAdd {
                ixp,
                member: next_member(ixp, members as u32),
            },
            1 if members > 1 => Delta::MemberRemove { ixp },
            2 if members > 0 => Delta::RowStale { ixp, slot },
            3 => Delta::LgDrop {
                ixp,
                keep: &[LgOperator::Pch],
            },
            4 if members > 0 => Delta::Pathology {
                ixp,
                slot,
                congested_extra_ms: 1.0 + rng.random::<f64>() * 6.0,
                congested_drop: rng.random::<f64>() * 0.4,
            },
            5 if members > 0 => Delta::PortUpgrade {
                ixp,
                slot,
                delay_ms: 0.02 + rng.random::<f64>() * 0.4,
            },
            _ => continue,
        };
        apply_delta_in_place(&mut scratch, &d);
        out.push(d);
    }
    out
}

fn arm_result(world: World, probed: ProbeSet) -> ArmResult {
    let probes_fp = memo::fingerprint(&probed);
    let run = PreparedRun {
        world: std::sync::Arc::new(world),
        probed: std::sync::Arc::new(probed),
    };
    ArmResult {
        probes_fp,
        metrics: RunMetrics::collect(&run, &MethodParams::default())
            .named()
            .to_vec(),
    }
}

/// The serial reference of [`Campaign::probe_all`]: every studied IXP
/// probed in order on the calling thread. The parallel campaign must
/// equal it bit for bit at any thread count
/// (`tests/parallel_determinism.rs`, `benches/parallel.rs`).
pub fn probe_all_serial(campaign: &Campaign, world: &World) -> ProbeSet {
    world
        .studied_ixps()
        .into_iter()
        .map(|ixp| (ixp, campaign.probe_ixp(world, ixp, false).plane))
        .collect()
}

/// The fast arm: fork `world`, apply the deltas, re-probe incrementally
/// against the parent's probe set.
pub fn incremental_arm(
    world: &World,
    parent_probes: &[(IxpId, ProbePlane)],
    campaign: &Campaign,
    deltas: &[Delta],
) -> ArmResult {
    let mut fork = world.fork();
    for d in deltas {
        fork.apply(d.clone());
    }
    let probed = campaign.probe_all_incremental(&fork, parent_probes);
    arm_result(fork.into_world(), probed)
}

/// The reference arm: build the world again from its config, apply the
/// same deltas in place under a mutation nonce, probe everything.
pub fn rebuild_arm(cfg: &WorldConfig, campaign: &Campaign, deltas: &[Delta]) -> ArmResult {
    let mut world = World::build(cfg);
    world.mark_mutated();
    for d in deltas {
        apply_delta_in_place(&mut world, d);
    }
    let probed = campaign.probe_all(&world);
    arm_result(world, probed)
}

/// The broken oracle: fork and apply like [`incremental_arm`], then serve
/// the *parent's* probe set unchanged — as if the dirty set had been lost
/// (a stale-cone fork). Whenever a delta visibly changes probe bytes, the
/// comparison against the rebuild MUST fail; that failure is the proof the
/// differential checker has teeth.
pub fn stale_fork_arm(
    world: &World,
    parent_probes: &[(IxpId, ProbePlane)],
    deltas: &[Delta],
) -> ArmResult {
    let mut fork = world.fork();
    for d in deltas {
        fork.apply(d.clone());
    }
    arm_result(fork.into_world(), parent_probes.to_vec())
}

/// Exact equality: same probe bytes, same metric names, every value
/// identical down to the `f64` bit pattern.
pub fn arms_identical(a: &ArmResult, b: &ArmResult) -> bool {
    a.probes_fp == b.probes_fp
        && a.metrics.len() == b.metrics.len()
        && a.metrics
            .iter()
            .zip(&b.metrics)
            .all(|((na, va), (nb, vb))| na == nb && va.to_bits() == vb.to_bits())
}

/// A `RowStale` delta guaranteed to change probe bytes: the first listed,
/// present member of the first studied IXP stops answering. (An unlisted
/// `MemberAdd` would not do — the campaign only probes listed rows — which
/// is exactly why the broken-oracle rows use this.)
fn visible_delta(world: &World) -> Option<Delta> {
    for ixp in world.studied_ixps() {
        for (slot, m) in world.scene.ixp(ixp).members.iter().enumerate() {
            if m.listing.listed && !m.profile.absent {
                return Some(Delta::RowStale {
                    ixp,
                    slot: slot as u32,
                });
            }
        }
    }
    None
}

/// Run the probe/metrics differential: `rounds` randomized delta
/// sequences per shard count, each compared fork-incremental vs rebuild,
/// plus one broken-oracle row per shard count. Deterministic in `seed`.
pub fn run_differential(seed: u64, rounds: u64, shard_counts: &[usize]) -> Vec<DiffOutcome> {
    let world_cfg = WorldConfig::test_scale(seed);
    let world = World::build(&world_cfg);
    let mut out = Vec::new();
    for &shards in shard_counts {
        let campaign = Campaign {
            shards,
            ..Campaign::default_paper()
        };
        let parent_probes = campaign.probe_all(&world);
        for round in 0..rounds {
            let stream = seed::derive2(seed, "diff-round", round, shards as u64);
            let deltas = random_deltas(&world, stream, 1 + round as usize % 5);
            let inc = incremental_arm(&world, &parent_probes, &campaign, &deltas);
            let reb = rebuild_arm(&world_cfg, &campaign, &deltas);
            out.push(DiffOutcome {
                label: format!("shards={shards} round={round} deltas={}", deltas.len()),
                matched: arms_identical(&inc, &reb),
                expected: true,
            });
        }
        if let Some(d) = visible_delta(&world) {
            let deltas = [d];
            let stale = stale_fork_arm(&world, &parent_probes, &deltas);
            let reb = rebuild_arm(&world_cfg, &campaign, &deltas);
            out.push(DiffOutcome {
                label: format!("shards={shards} broken-oracle"),
                matched: arms_identical(&stale, &reb),
                expected: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_rebuild_for_random_delta_sequences() {
        let rows = run_differential(11, 3, &[1, 2]);
        let equivalence: Vec<_> = rows.iter().filter(|r| r.expected).collect();
        assert!(equivalence.len() >= 6);
        for r in &equivalence {
            assert!(
                r.ok(),
                "fork+incremental diverged from rebuild: {}",
                r.label
            );
        }
    }

    #[test]
    fn broken_oracle_is_caught() {
        let rows = run_differential(11, 1, &[1]);
        let oracles: Vec<_> = rows.iter().filter(|r| !r.expected).collect();
        assert!(!oracles.is_empty(), "the broken-oracle row must exist");
        for r in &oracles {
            assert!(
                !r.matched,
                "a stale fork slipped past the differential: {}",
                r.label
            );
            assert!(r.ok());
        }
    }
}
