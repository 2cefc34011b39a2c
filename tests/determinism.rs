//! Reproducibility contract: the same configuration produces bit-identical
//! worlds, measurements, and study results; different seeds differ.

use remote_peering::campaign::Campaign;
use remote_peering::detect::DetectionStudy;
use remote_peering::offload::{OffloadStudy, PeerGroup};
use remote_peering::world::{World, WorldConfig};

#[test]
fn identical_configs_produce_identical_worlds() {
    let a = World::build(&WorldConfig::test_scale(99));
    let b = World::build(&WorldConfig::test_scale(99));
    assert_eq!(a.vantage, b.vantage);
    assert_eq!(a.topology.edges, b.topology.edges);
    assert_eq!(
        a.topology
            .ases
            .iter()
            .map(|x| (x.asn, x.home_city, x.address_space))
            .collect::<Vec<_>>(),
        b.topology
            .ases
            .iter()
            .map(|x| (x.asn, x.home_city, x.address_space))
            .collect::<Vec<_>>(),
    );
    for (x, y) in a.scene.ixps.iter().zip(&b.scene.ixps) {
        assert_eq!(x.members, y.members, "{}", x.meta.acronym);
    }
    assert_eq!(a.contributions.inbound, b.contributions.inbound);
    assert_eq!(a.contributions.outbound, b.contributions.outbound);
}

#[test]
fn identical_campaigns_produce_identical_measurements() {
    let world = World::build(&WorldConfig::test_scale(98));
    let campaign = Campaign::default_paper();
    let ixp = world.studied_ixps()[3];
    let a = campaign.probe_ixp(&world, ixp, false).plane;
    let b = campaign.probe_ixp(&world, ixp, false).plane;
    assert_eq!(a, b, "probing must be replayable frame for frame");

    let sa = DetectionStudy::analyze_ixp(&world, ixp, &a);
    let sb = DetectionStudy::analyze_ixp(&world, ixp, &b);
    assert_eq!(sa.analyzed, sb.analyzed);
    assert_eq!(sa.stats, sb.stats);
}

#[test]
fn different_seeds_produce_different_worlds_but_same_shape() {
    let a = World::build(&WorldConfig::test_scale(1));
    let b = World::build(&WorldConfig::test_scale(2));
    // Different microstate...
    assert_ne!(
        a.topology
            .ases
            .iter()
            .map(|x| x.home_city)
            .collect::<Vec<_>>(),
        b.topology
            .ases
            .iter()
            .map(|x| x.home_city)
            .collect::<Vec<_>>(),
    );
    // ... same macrostate: both worlds satisfy the structural contracts.
    for w in [&a, &b] {
        assert!(w.topology.validate().is_empty());
        assert_eq!(w.studied_ixps().len(), 22);
        assert_eq!(w.scene.ixps.len(), 65);
        assert!(w.contributions.contributors() > w.topology.len() / 2);
    }
}

#[test]
fn offload_study_is_deterministic() {
    let world = World::build(&WorldConfig::test_scale(97));
    let s1 = OffloadStudy::new(&world);
    let s2 = OffloadStudy::new(&world);
    let g1 = s1.greedy(PeerGroup::OpenSelective, 8);
    let g2 = s2.greedy(PeerGroup::OpenSelective, 8);
    assert_eq!(g1.len(), g2.len());
    for (a, b) in g1.iter().zip(&g2) {
        assert_eq!(a.ixp, b.ixp);
        assert_eq!(a.remaining_in, b.remaining_in);
        assert_eq!(a.remaining_out, b.remaining_out);
        assert_eq!(a.remaining_interfaces, b.remaining_interfaces);
    }
}
