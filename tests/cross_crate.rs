//! Cross-crate consistency: invariants that only hold if the substrates
//! agree with each other.

use remote_peering::campaign::Campaign;
use remote_peering::detect::DetectionStudy;
use remote_peering::probe::ProbeRow;
use remote_peering::world::{World, WorldConfig};
use rp_bgp::{is_valley_free, propagate, propagate_iterative, RoutingView};
use rp_ixp::model::Access;
use rp_topology::cone::{cone_union, customer_cone};
use rp_topology::{generate, AsType, TopologyConfig};
use rp_types::geo::WORLD_CITIES;
use rp_types::NetworkId;

#[test]
fn scene_memberships_reference_real_topology_networks() {
    let world = World::build(&WorldConfig::test_scale(77));
    for ixp in &world.scene.ixps {
        for m in &ixp.members {
            assert!(m.network.index() < world.topology.len());
            if let Access::Remote {
                origin_city,
                provider,
                ..
            } = m.access
            {
                assert_eq!(origin_city, world.topology.node(m.network).home_city);
                assert!((provider as usize) < world.scene.providers.len());
            }
        }
    }
}

#[test]
fn measured_rtts_respect_topology_geography() {
    // The netsim-measured minimum RTT of a healthy remote interface must
    // be at least the great-circle fiber RTT the geo substrate predicts —
    // pseudowires can detour, never shortcut.
    let world = World::build(&WorldConfig::test_scale(76));
    let ixp = world.studied_ixps()[0];
    let inst = world.scene.ixp(ixp);
    let samples = Campaign::default_paper()
        .probe_ixp(&world, ixp, false)
        .plane;
    let ixp_loc = inst.city().location;
    let mut checked = 0;
    for m in inst.members.iter().filter(|m| {
        m.listing.listed
            && !m.profile.absent
            && !m.profile.blackhole
            && m.profile.congested_extra_ms == 0.0
    }) {
        if let Access::Remote { origin_city, .. } = m.access {
            let s = samples.rows().find(|s| s.ip() == m.ip).unwrap();
            if let Some(min) = s.min_rtt() {
                let fiber_rtt = 2.0
                    * WORLD_CITIES[origin_city as usize]
                        .location
                        .fiber_delay_ms(ixp_loc);
                assert!(
                    min >= fiber_rtt * 0.99,
                    "{}: measured {min} ms below physics {fiber_rtt} ms",
                    m.ip
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 3, "checked only {checked} remote interfaces");
}

#[test]
fn detection_results_agree_with_scene_attachment_kinds() {
    // Every analyzed interface's classification is consistent with how the
    // scene wired it: sub-threshold ⇒ direct or nearby-remote; above ⇒
    // remote.
    let world = World::build(&WorldConfig::test_scale(75));
    for &ixp in &world.studied_ixps()[..6] {
        let samples = Campaign::default_paper()
            .probe_ixp(&world, ixp, false)
            .plane;
        let study = DetectionStudy::analyze_ixp(&world, ixp, &samples);
        let inst = world.scene.ixp(ixp);
        for a in &study.analyzed {
            let m = inst.members.iter().find(|m| m.ip == a.ip).unwrap();
            if a.min_rtt_ms >= 10.0 {
                assert!(
                    m.access.is_remote(),
                    "{}: direct but min {}",
                    a.ip,
                    a.min_rtt_ms
                );
            }
        }
    }
}

#[test]
fn bgp_engines_agree_and_respect_topology_policies() {
    for seed in [301, 302] {
        let topo = generate(&TopologyConfig::test_scale(seed));
        let origin = topo.of_type(AsType::Content).next().unwrap().id;
        let fast = propagate(&topo, origin);
        let slow = propagate_iterative(&topo, origin);
        for id in topo.ids() {
            match (&fast[id.index()], &slow[id.index()]) {
                (Some(f), Some(s)) => {
                    assert_eq!(f.class, s.class, "class at {id}");
                    assert_eq!(f.len(), s.len(), "length at {id}");
                    let mut full = vec![id];
                    full.extend_from_slice(&f.path);
                    assert!(is_valley_free(&topo, &full), "{id}");
                }
                (None, None) => {}
                other => panic!("engines disagree on reachability at {id}: {other:?}"),
            }
        }
    }
}

#[test]
fn traffic_contributions_align_with_routing_view() {
    // A network contributes transit traffic iff the BGP view says it is
    // reached via a transit provider — the linchpin between rp-traffic and
    // rp-bgp.
    let world = World::build(&WorldConfig::test_scale(74));
    let view = RoutingView::new(&world.topology, world.vantage);
    for id in world.topology.ids() {
        let (i, o) = world.contributions.of(id);
        let via_transit = id != world.vantage && view.uses_transit(&world.topology, id);
        assert_eq!(
            i.0 > 0.0 || o.0 > 0.0,
            via_transit,
            "{id}: contribution/routing mismatch"
        );
    }
}

#[test]
fn cones_are_monotone_under_union() {
    let topo = generate(&TopologyConfig::test_scale(303));
    let roots: Vec<NetworkId> = topo.ids().take(5).collect();
    let union = cone_union(&topo, &roots);
    for &r in &roots {
        let single = customer_cone(&topo, r);
        for member in single.iter() {
            assert!(union.contains(member), "union must contain {member}");
        }
    }
    assert!(union.count() >= roots.len());
}
