//! Fault *policy* — which faults to inject, where, and how hard.
//!
//! The mechanism lives in [`rp_netsim::fault`]: a [`FaultConfig`] installed
//! on a per-IXP network decides frame by frame. This module owns the
//! campaign-level plan on top of it: the standard link-fault template used
//! by `repro check`, plus the *scene*-level degradations the link layer
//! cannot express — registry rows gone stale (the listed device no longer
//! answers) and looking-glass vantages missing (an IXP probed from one
//! server instead of two, starving the LG-consistent filter).
//!
//! Everything derives from one seed via [`rp_types::seed`], so a plan
//! replays exactly: same seed, same stale rows, same flapping links, same
//! per-frame fault sequence.

use rand::RngExt;
use remote_peering::campaign::Campaign;
use remote_peering::fork::{apply_delta_in_place, Delta, WorldFork};
use remote_peering::world::World;
use rp_ixp::LgOperator;
use rp_netsim::FaultConfig;
use rp_types::{seed, SimDuration, SimTime};

/// A single looking-glass vantage, substituted for an IXP's full LG list by
/// the missing-vantage fault.
const ONE_LG: &[LgOperator] = &[LgOperator::Pch];

/// Scene-level fault tallies from [`FaultPlan::degrade_scene`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SceneFaults {
    /// Listed registry rows whose device was marked absent (stale rows).
    pub stale_rows: u64,
    /// Looking-glass vantages removed (IXPs reduced to a single LG).
    pub dropped_lgs: u64,
}

/// A replayable campaign-level fault plan: a link-fault template plus
/// scene-degradation probabilities.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Link-level fault template; each probed IXP derives its own stream
    /// from it (see [`Campaign::probe_ixp`]).
    pub link: FaultConfig,
    /// Probability that a listed member's registry row is stale — the
    /// device behind it no longer answers.
    pub stale_membership: f64,
    /// Probability that an IXP with two LG vantages loses one.
    pub missing_lg: f64,
}

impl FaultPlan {
    /// The standard plan `repro check` runs: every fault kind active at a
    /// moderate rate, the flap window in the campaign's second quarter.
    ///
    /// The rates are chosen so a faulted run is visibly degraded (the
    /// filter funnel shifts, replies go missing) while enough interfaces
    /// still survive all six filters for the keep-preserving invariants to
    /// have material to work on.
    pub fn standard(seed: u64, campaign: SimDuration) -> FaultPlan {
        let quarter = SimDuration::from_nanos(campaign.nanos() / 4);
        let lo = SimTime::ZERO + quarter;
        let hi = lo + SimDuration::from_nanos(campaign.nanos() / 10);
        FaultPlan {
            link: FaultConfig {
                seed,
                probe_loss: 0.05,
                reply_duplication: 0.03,
                jitter_spike: 0.04,
                jitter_spike_ms: 25.0,
                ttl_rewrite: 0.002,
                ttl_rewrite_to: 7,
                link_flap: 0.02,
                flap_window: Some((lo, hi)),
            },
            stale_membership: 0.03,
            missing_lg: 0.15,
        }
    }

    /// A plan that injects nothing anywhere — the control arm.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            link: FaultConfig::quiet(seed),
            stale_membership: 0.0,
            missing_lg: 0.0,
        }
    }

    /// The paper's campaign with this plan's link faults wired in.
    pub fn campaign(&self) -> Campaign {
        let mut c = Campaign::default_paper();
        c.faults = Some(self.link.clone());
        c
    }

    /// Decide the scene-level degradations for `world` without applying
    /// them: the [`Delta`] list (in deterministic per-IXP, per-slot order)
    /// plus the tallies. Every verdict draws from
    /// `seed::rng2(link.seed, "scene-fault", ixp, member)`, so the same
    /// plan degrades the same world identically every time — whether the
    /// deltas are then applied in place ([`FaultPlan::degrade_scene`]) or
    /// through a copy-on-write fork ([`FaultPlan::degrade_fork`]).
    pub fn scene_deltas(&self, world: &World) -> (Vec<Delta>, SceneFaults) {
        let mut deltas = Vec::new();
        let mut out = SceneFaults::default();
        for inst in world.scene.ixps.iter() {
            let ixp = inst.id.0 as u64;
            for (slot, member) in inst.members.iter().enumerate() {
                if !member.listing.listed || member.profile.absent {
                    continue;
                }
                let mut rng = seed::rng2(self.link.seed, "scene-fault", ixp, slot as u64);
                if rng.random::<f64>() < self.stale_membership {
                    deltas.push(Delta::RowStale {
                        ixp: inst.id,
                        slot: slot as u32,
                    });
                    out.stale_rows += 1;
                }
            }
            if inst.meta.lg.len() >= 2 {
                let mut rng = seed::rng2(self.link.seed, "scene-fault-lg", ixp, 0);
                if rng.random::<f64>() < self.missing_lg {
                    deltas.push(Delta::LgDrop {
                        ixp: inst.id,
                        keep: ONE_LG,
                    });
                    out.dropped_lgs += 1;
                }
            }
        }
        (deltas, out)
    }

    /// Apply the scene-level faults to a built world, in place.
    ///
    /// Stale rows: listed, present members flip to `absent = true` — the
    /// registry still lists them (that is what *stale* means) but pings go
    /// unanswered, which the sample-size filter must absorb. Missing LGs:
    /// an IXP with two vantages keeps only one, disabling the
    /// LG-consistent cross-check there. The verdicts come from
    /// [`FaultPlan::scene_deltas`]; prefer [`FaultPlan::degrade_fork`],
    /// which leaves the input world untouched and keeps a delta log for
    /// incremental re-probing.
    pub fn degrade_scene(&self, world: &mut World) -> SceneFaults {
        // Even a quiet plan counts as a mutation: the world may no longer
        // match its config, so it must never alias the pristine build in
        // the probe memo.
        world.mark_mutated();
        let (deltas, out) = self.scene_deltas(world);
        for d in &deltas {
            apply_delta_in_place(world, d);
        }
        out
    }

    /// Fork `world` and apply the scene-level faults to the fork. Same
    /// verdicts, same bytes as [`FaultPlan::degrade_scene`] on a clone —
    /// proven by `degrade_fork_matches_degrade_scene` below — but the
    /// parent stays pristine, the clone cost is refcount bumps, and the
    /// fork's dirty set scopes any later incremental re-probe.
    pub fn degrade_fork(&self, world: &World) -> (WorldFork, SceneFaults) {
        let (deltas, out) = self.scene_deltas(world);
        let mut fork = world.fork();
        for d in deltas {
            fork.apply(d);
        }
        (fork, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remote_peering::world::WorldConfig;

    #[test]
    fn degrade_scene_replays_exactly() {
        let cfg = WorldConfig::test_scale(11);
        let plan = FaultPlan::standard(99, SimDuration::from_days(14));

        let mut a = World::build(&cfg);
        let fa = plan.degrade_scene(&mut a);
        let mut b = World::build(&cfg);
        let fb = plan.degrade_scene(&mut b);

        assert_eq!(fa, fb);
        assert!(fa.stale_rows > 0, "standard plan should stale some rows");
        for (xa, xb) in a.scene.ixps.iter().zip(&b.scene.ixps) {
            assert_eq!(xa.meta.lg, xb.meta.lg);
            for (ma, mb) in xa.members.iter().zip(&xb.members) {
                assert_eq!(ma.profile.absent, mb.profile.absent);
            }
        }
    }

    #[test]
    fn degrade_fork_matches_degrade_scene() {
        let cfg = WorldConfig::test_scale(11);
        let plan = FaultPlan::standard(99, SimDuration::from_days(14));
        let parent = World::build(&cfg);
        let (fork, ff) = plan.degrade_fork(&parent);
        let mut in_place = World::build(&cfg);
        let fi = plan.degrade_scene(&mut in_place);
        assert_eq!(ff, fi);
        assert!(ff.stale_rows > 0);
        for (xa, xb) in fork.world().scene.ixps.iter().zip(&in_place.scene.ixps) {
            assert_eq!(
                format!("{xa:?}"),
                format!("{xb:?}"),
                "fork and in-place degradation must agree byte-for-byte"
            );
        }
        // The fork's parent is untouched, and the dirty set names exactly
        // the IXPs the deltas hit.
        let pristine = World::build(&cfg);
        for (xa, xb) in parent.scene.ixps.iter().zip(&pristine.scene.ixps) {
            assert_eq!(format!("{xa:?}"), format!("{xb:?}"));
        }
        let touched: std::collections::BTreeSet<_> =
            fork.deltas().iter().map(|d| d.touches()).collect();
        assert_eq!(&touched, fork.dirty_ixps());
    }

    #[test]
    fn quiet_plan_degrades_nothing() {
        let cfg = WorldConfig::test_scale(11);
        let clean = World::build(&cfg);
        let mut w = World::build(&cfg);
        let f = FaultPlan::quiet(3).degrade_scene(&mut w);
        assert_eq!(f, SceneFaults::default());
        for (xa, xb) in clean.scene.ixps.iter().zip(&w.scene.ixps) {
            assert_eq!(xa.meta.lg, xb.meta.lg);
            for (ma, mb) in xa.members.iter().zip(&xb.members) {
                assert_eq!(ma.profile.absent, mb.profile.absent);
            }
        }
    }

    #[test]
    fn stale_rows_stay_listed() {
        let cfg = WorldConfig::test_scale(11);
        let clean = World::build(&cfg);
        let mut w = World::build(&cfg);
        let plan = FaultPlan::standard(99, SimDuration::from_days(14));
        plan.degrade_scene(&mut w);
        // The whole point of a *stale* row: the registry keeps listing it.
        for (xa, xb) in clean.scene.ixps.iter().zip(&w.scene.ixps) {
            for (ma, mb) in xa.members.iter().zip(&xb.members) {
                assert_eq!(ma.listing, mb.listing);
            }
        }
        assert_eq!(clean.registry.total_entries(), w.registry.total_entries());
    }
}
