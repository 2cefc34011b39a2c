//! Quickstart: build a reduced world, probe one IXP, detect remote peers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the paper's section 3 pipeline end to end at test scale
//! (a few hundred ASes; builds and probes in seconds): generate the
//! simulated Internet, run the ping campaign at one IXP from its
//! looking-glass servers, apply the six filters, and classify interfaces
//! against the 10 ms remoteness threshold.

use remote_peering::campaign::Campaign;
use remote_peering::classify::{RttRange, REMOTENESS_THRESHOLD_MS};
use remote_peering::detect::DetectionStudy;
use remote_peering::world::{World, WorldConfig};

fn main() {
    // Deterministic scenario: same seed, same world, same measurements.
    let world = World::build(&WorldConfig::test_scale(7));
    println!(
        "world: {} ASes, {} IXPs ({} with looking glasses), study network {}",
        world.topology.len(),
        world.scene.ixps.len(),
        world.studied_ixps().len(),
        world.topology.node(world.vantage).asn,
    );

    // Probe AMS-IX: the campaign materializes the IXP as a packet-level
    // layer-2 network and pings every listed member interface from the LG
    // servers, under the paper's rate limits.
    let ams = world
        .scene
        .ixps
        .iter()
        .find(|x| x.meta.acronym == "AMS-IX")
        .expect("AMS-IX is in the dataset")
        .id;
    let campaign = Campaign::default_paper();
    let samples = campaign.probe_ixp(&world, ams, false).plane;
    println!("probed {} listed interfaces at AMS-IX", samples.len());

    // Filters + classification.
    let study = DetectionStudy::analyze_ixp(&world, ams, &samples);
    println!(
        "analyzed {} interfaces (filters discarded {:?} in the paper's order)",
        study.analyzed.len(),
        study.stats.in_order(),
    );
    println!(
        "remote interfaces (min RTT >= {REMOTENESS_THRESHOLD_MS} ms): {}",
        study.remote_count()
    );

    // Show a few detections with their distance class.
    let mut shown = 0;
    for a in &study.analyzed {
        let range = RttRange::of(a.min_rtt_ms);
        if range.is_remote() && shown < 5 {
            println!(
                "  {} -> min RTT {:6.2} ms  [{}]  {}",
                a.ip,
                a.min_rtt_ms,
                range,
                a.asn
                    .map(|asn| asn.to_string())
                    .unwrap_or_else(|| "unidentified".into()),
            );
            shown += 1;
        }
    }

    // The scene is ground truth: verify the conservative threshold made no
    // false calls.
    let confusion = remote_peering::validate::confusion(&world, &study);
    println!(
        "ground truth: precision {:.3}, recall {:.3} (false positives: {})",
        confusion.precision(),
        confusion.recall(),
        confusion.false_positive,
    );
}
