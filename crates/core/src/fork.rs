//! Copy-on-write world forking and the delta log.
//!
//! Every consumer that perturbs a world — the check harness's faulted
//! arms, the offload member-add/remove invariant, benchmark what-ifs —
//! used to deep-clone the whole thing and re-probe every IXP from
//! scratch. A [`WorldFork`] replaces that with an arena-backed
//! copy-on-write child: the fork shares the parent's topology, registry,
//! routing-view, and contributions planes ([`std::sync::Arc`]) and every
//! per-IXP instance (`IxpScene.ixps` holds `Arc<IxpInstance>`), so
//! creating one costs refcount bumps, and applying a [`Delta`] copies
//! only the single instance it touches.
//!
//! ## The delta log and incremental recompute
//!
//! Each applied [`Delta`] is appended to the fork's log and its target
//! IXP recorded in the *dirty set*. Because a campaign probe of one IXP
//! ([`crate::Campaign::probe_ixp`]) reads only that IXP's instance plus
//! fork-invariant inputs (the world seed, scene-level constants, the
//! provider table, and campaign parameters), probe results for IXPs
//! outside the dirty set are bit-identical between parent and fork —
//! [`crate::Campaign::probe_all_incremental`] exploits exactly this,
//! re-probing the dirty IXPs and reusing the parent's samples elsewhere.
//! The differential harness in `rp-testkit` holds this to byte-identity
//! against a from-scratch rebuild for randomized delta sequences.
//!
//! ## What a delta may touch (and why the registry is off-limits)
//!
//! Deltas mutate *scene* state only: member rows and per-IXP metadata.
//! The registry plane is crawled once at [`World::build`] and shared
//! untouched by all forks — mirroring the in-place mutators it replaces
//! (`degrade_scene` makes rows stale by marking the *device* absent; the
//! registry keeps listing it, which is the point). A mutation that would
//! invalidate the registry, routing view, or contributions (re-homing
//! the vantage, adding peerings, changing generation rates) is not
//! expressible as a [`Delta`]; it requires a fresh [`World::build`].
//! That rule is what makes reuse sound: if a plane could drift, the
//! "unchanged" probes would be stale.
//!
//! ## Content-addressed fork keys
//!
//! A fork's world is keyed by the parent's key text followed by the
//! `Debug` text of each applied delta — deterministic, unlike
//! [`World::mark_mutated`]'s one-shot `mutated#N` keys — so two forks of
//! the same parent with the same delta log share probe memo entries.

use crate::world::World;
use rp_ixp::model::{Access, LgOperator, MemberInterface};
use rp_types::IxpId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One recorded mutation of a forked world. Every variant names the IXP
/// it touches; nothing outside that instance changes.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Append a member interface at the IXP's next subnet slot.
    MemberAdd {
        /// Target IXP.
        ixp: IxpId,
        /// The full interface row to append (callers build the ip with
        /// [`rp_ixp::model::IxpInstance::ip_for_slot`] for the next slot).
        member: MemberInterface,
    },
    /// Remove the IXP's highest-slot member (the inverse of `MemberAdd`).
    MemberRemove {
        /// Target IXP.
        ixp: IxpId,
    },
    /// Degrade one listing to a stale row: the registry keeps listing the
    /// address, but no device answers there any more.
    RowStale {
        /// Target IXP.
        ixp: IxpId,
        /// Member slot index.
        slot: u32,
    },
    /// Drop looking-glass servers, keeping only `keep`.
    LgDrop {
        /// Target IXP.
        ixp: IxpId,
        /// The surviving operator list.
        keep: &'static [LgOperator],
    },
    /// Change one interface's congestion pathology (the per-interface
    /// materialization of a pathology-rate change; scene-wide *rates*
    /// reshape the generator's random stream and need a rebuild).
    Pathology {
        /// Target IXP.
        ixp: IxpId,
        /// Member slot index.
        slot: u32,
        /// New bound of the extra uniform queueing delay per traversal, ms.
        congested_extra_ms: f64,
        /// New echo-request loss probability at the port.
        congested_drop: f64,
    },
    /// Re-provision one member's access tail at a new one-way delay (a
    /// port upgrade, or a downgrade if slower): the colo cross-connect
    /// delay for direct members, the local access tail for remote ones.
    PortUpgrade {
        /// Target IXP.
        ixp: IxpId,
        /// Member slot index.
        slot: u32,
        /// New one-way access delay in milliseconds.
        delay_ms: f64,
    },
}

impl Delta {
    /// The one IXP this delta dirties.
    pub fn touches(&self) -> IxpId {
        match *self {
            Delta::MemberAdd { ixp, .. }
            | Delta::MemberRemove { ixp }
            | Delta::RowStale { ixp, .. }
            | Delta::LgDrop { ixp, .. }
            | Delta::Pathology { ixp, .. }
            | Delta::PortUpgrade { ixp, .. } => ixp,
        }
    }
}

/// Apply one delta to a world in place, going through the scene's
/// copy-on-write seam. This is the *single* definition of what each
/// [`Delta`] means: [`WorldFork::apply`] uses it on the forked world, and
/// the differential harness's from-scratch reference applies the same
/// function to a fresh build — so the two paths cannot drift
/// semantically, only in what they recompute.
///
/// Does not touch the world's memo key; in-place callers must follow up
/// with [`World::mark_mutated`] (forks re-key from their delta log
/// instead).
pub fn apply_delta_in_place(world: &mut World, delta: &Delta) {
    match *delta {
        Delta::MemberAdd { ixp, member } => {
            world.scene.ixp_mut(ixp).members.push(member);
        }
        Delta::MemberRemove { ixp } => {
            world.scene.ixp_mut(ixp).members.pop();
        }
        Delta::RowStale { ixp, slot } => {
            world.scene.ixp_mut(ixp).members[slot as usize]
                .profile
                .absent = true;
        }
        Delta::LgDrop { ixp, keep } => {
            world.scene.ixp_mut(ixp).meta.lg = keep;
        }
        Delta::Pathology {
            ixp,
            slot,
            congested_extra_ms,
            congested_drop,
        } => {
            let m = &mut world.scene.ixp_mut(ixp).members[slot as usize];
            m.profile.congested_extra_ms = congested_extra_ms;
            m.profile.congested_drop = congested_drop;
        }
        Delta::PortUpgrade {
            ixp,
            slot,
            delay_ms,
        } => {
            let m = &mut world.scene.ixp_mut(ixp).members[slot as usize];
            match &mut m.access {
                Access::Direct { colo_delay_ms, .. } => *colo_delay_ms = delay_ms,
                Access::Remote {
                    access_delay_ms, ..
                } => *access_delay_ms = delay_ms,
            }
        }
    }
}

/// A copy-on-write child of a [`World`], carrying its delta log and dirty
/// set. Create one with [`World::fork`].
#[derive(Clone)]
pub struct WorldFork {
    parent_key: Arc<str>,
    world: World,
    deltas: Vec<Delta>,
    dirty: BTreeSet<IxpId>,
}

impl WorldFork {
    pub(crate) fn new(parent: &World) -> WorldFork {
        rp_obs::counter!("core.fork.forks").add(1);
        WorldFork {
            parent_key: parent.memo_key.clone(),
            world: parent.clone(),
            deltas: Vec::new(),
            dirty: BTreeSet::new(),
        }
    }

    /// Apply a delta: mutate (copy-on-write) the one instance it touches,
    /// append it to the log, dirty its IXP, and append the delta's text to
    /// the world's key. Same parent, same deltas, same key — across jobs
    /// and processes.
    pub fn apply(&mut self, delta: Delta) {
        apply_delta_in_place(&mut self.world, &delta);
        self.dirty.insert(delta.touches());
        self.world.memo_key = format!("{}|{delta:?}", self.world.memo_key).into();
        self.deltas.push(delta);
        rp_obs::counter!("core.fork.deltas_applied").add(1);
    }

    /// Replay another fork's delta log onto this fork, in order. Both
    /// forks must descend from the same parent; the result is as if the
    /// other fork's deltas had been applied here directly (the
    /// fork-commutativity invariant in `rp-testkit` checks this merge
    /// against the single-fork sequence).
    pub fn absorb(&mut self, other: &WorldFork) {
        debug_assert_eq!(
            self.parent_key, other.parent_key,
            "absorb requires forks of the same parent"
        );
        for d in other.deltas() {
            self.apply(d.clone());
        }
    }

    /// The forked world (parent planes plus applied deltas).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Unwrap into the forked [`World`], keeping its fork key.
    pub fn into_world(self) -> World {
        self.world
    }

    /// The fork's current content address (the parent's key while the
    /// log is empty).
    pub fn fingerprint(&self) -> u64 {
        self.world.fingerprint()
    }

    /// IXPs whose probe results may differ from the parent's.
    pub fn dirty_ixps(&self) -> &BTreeSet<IxpId> {
        &self.dirty
    }

    /// The applied deltas, in application order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo;
    use crate::world::WorldConfig;
    use rp_ixp::model::{IxpInstance, ListingInfo, ResponderProfile};
    use rp_types::NetworkId;

    fn world() -> World {
        World::build(&WorldConfig::test_scale(91))
    }

    fn add_member_delta(w: &World, ixp: IxpId) -> Delta {
        let slot = w.scene.ixp(ixp).members.len() as u32;
        Delta::MemberAdd {
            ixp,
            member: MemberInterface {
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
            },
        }
    }

    #[test]
    fn fork_shares_planes_and_instances_until_written() {
        let w = world();
        let ixp = w.studied_ixps()[0];
        let other = w.studied_ixps()[1];
        let mut f = w.fork();
        assert!(std::sync::Arc::ptr_eq(&w.topology, &f.world().topology));
        assert!(w.scene.shares_ixp_with(&f.world().scene, ixp));
        f.apply(add_member_delta(&w, ixp));
        assert!(
            !w.scene.shares_ixp_with(&f.world().scene, ixp),
            "written instance must be copied"
        );
        assert!(
            w.scene.shares_ixp_with(&f.world().scene, other),
            "untouched instance stays shared"
        );
    }

    #[test]
    fn parent_is_unchanged_by_child_mutation() {
        let w = world();
        let ixp = w.studied_ixps()[0];
        let before = memo::fingerprint(&w.scene.ixp(ixp));
        let mut f = w.fork();
        f.apply(add_member_delta(&w, ixp));
        f.apply(Delta::RowStale { ixp, slot: 0 });
        assert_eq!(memo::fingerprint(&w.scene.ixp(ixp)), before);
        assert_eq!(
            f.world().scene.ixp(ixp).members.len(),
            w.scene.ixp(ixp).members.len() + 1
        );
    }

    #[test]
    fn fork_keys_are_deterministic_and_distinct_from_parent() {
        let w = world();
        let ixp = w.studied_ixps()[0];
        let mut a = w.fork();
        let mut b = w.fork();
        assert_eq!(
            a.fingerprint(),
            w.fingerprint(),
            "empty fork aliases parent"
        );
        a.apply(add_member_delta(&w, ixp));
        b.apply(add_member_delta(&w, ixp));
        assert_eq!(a.fingerprint(), b.fingerprint(), "same deltas, same key");
        assert_ne!(a.fingerprint(), w.fingerprint());
        b.apply(Delta::RowStale { ixp, slot: 0 });
        assert_ne!(a.fingerprint(), b.fingerprint(), "diverged logs re-key");
    }

    #[test]
    fn deltas_mean_the_same_in_place() {
        let w = world();
        let ixp = w.studied_ixps()[0];
        let deltas = [
            add_member_delta(&w, ixp),
            Delta::RowStale { ixp, slot: 2 },
            Delta::PortUpgrade {
                ixp,
                slot: 1,
                delay_ms: 0.05,
            },
            Delta::Pathology {
                ixp,
                slot: 3,
                congested_extra_ms: 4.0,
                congested_drop: 0.3,
            },
            Delta::LgDrop {
                ixp,
                keep: &[LgOperator::Pch],
            },
            Delta::MemberRemove { ixp },
        ];
        let mut f = w.fork();
        for d in &deltas {
            f.apply(d.clone());
        }
        let mut in_place = w.clone();
        for d in &deltas {
            apply_delta_in_place(&mut in_place, d);
        }
        in_place.mark_mutated();
        assert_eq!(
            memo::fingerprint(&f.world().scene.ixp(ixp)),
            memo::fingerprint(&in_place.scene.ixp(ixp)),
            "fork and in-place application agree byte-for-byte"
        );
        assert_ne!(
            f.fingerprint(),
            in_place.fingerprint(),
            "fork keys are deterministic, nonces are unique"
        );
    }

    #[test]
    fn absorb_equals_sequential_application() {
        let w = world();
        let ixp_a = w.studied_ixps()[0];
        let ixp_b = w.studied_ixps()[1];
        let da = Delta::RowStale {
            ixp: ixp_a,
            slot: 0,
        };
        let db = Delta::PortUpgrade {
            ixp: ixp_b,
            slot: 0,
            delay_ms: 0.07,
        };
        let mut seq = w.fork();
        seq.apply(da.clone());
        seq.apply(db.clone());
        let mut fa = w.fork();
        fa.apply(da);
        let mut fb = w.fork();
        fb.apply(db);
        fa.absorb(&fb);
        assert_eq!(fa.fingerprint(), seq.fingerprint());
        assert_eq!(
            memo::fingerprint(&fa.world().scene),
            memo::fingerprint(&seq.world().scene)
        );
        assert_eq!(fa.dirty_ixps(), seq.dirty_ixps());
    }
}
