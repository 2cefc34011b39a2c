//! The probing campaign: section 3.1's measurement method, run against the
//! packet simulator.
//!
//! For each studied IXP the campaign materializes the scene as a real
//! layer-2/3 network — fabric switches (one per site), looking-glass hosts
//! inside the IXP subnet, member routers behind colo cross-connects or
//! remote-peering pseudowires, and the pathology gadgets — then issues LG
//! queries under the paper's constraints:
//!
//! - at most one query per minute per LG server;
//! - a PCH query triggers 5 ping requests, a RIPE NCC query 3;
//! - queries per interface are capped so the per-interface reply maxima
//!   match the paper (54 via PCH, 21 via RIPE NCC);
//! - measurements are spread across the campaign window at different times
//!   of day and days of the week; where an IXP hosts both operators' LG
//!   servers, the two crawls cover different halves of the window (the
//!   independent crawls of the real operators), which is what arms the
//!   LG-consistent filter against epoch-long floor shifts.

use crate::memo::ProbeSet;
use crate::probe::{PlaneBuilder, ProbePlane, Sample};
use crate::world::World;
use rand::RngExt;
use rayon::prelude::*;
use rp_ixp::membership::late_epoch_extra_ms;
use rp_ixp::model::{Access, IxpInstance, MemberInterface};
use rp_ixp::LgOperator;
use rp_netsim::{CongestionEpisode, DelayModel, LinkClass, Network, NodeId, RouterBehavior};
use rp_types::geo::WORLD_CITIES;
use rp_types::{seed, IxpId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Result of tracerouting one listed interface from inside the IXP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracerouteResult {
    /// Probed address.
    pub ip: Ipv4Addr,
    /// Ground truth: the interface attaches through a remote-peering
    /// pseudowire.
    pub truly_remote: bool,
    /// Ground truth: the listed address really sits one IP hop behind the
    /// fabric (the registry-stale gadget).
    pub extra_hop: bool,
    /// IP hops traceroute revealed *before* the destination (routers that
    /// answered Time Exceeded).
    pub intermediate_hops: usize,
    /// Whether the destination itself answered.
    pub reached: bool,
}

/// Per-interface minimum RTTs measured by a validation route server
/// (`None` when the interface never answered).
pub type RouteServerMins = Vec<(Ipv4Addr, Option<f64>)>;

/// Everything one IXP's campaign run produced ([`Campaign::probe_ixp`]).
/// Besides the sample plane, the fault tallies, trace digest, and event
/// count are O(shards) reads of the finished network.
#[derive(Debug, Clone)]
pub struct IxpProbe {
    /// Per-interface LG samples, rows in registry order.
    pub plane: ProbePlane,
    /// Per-interface route-server minima, when the route server was asked
    /// to ping too.
    pub route_server: Option<RouteServerMins>,
    /// Exact tallies of the faults the configured injector fired (all zero
    /// when [`Campaign::faults`] is `None`).
    pub faults: rp_netsim::FaultCounts,
    /// The run's event-trace digest (see `Network::trace_digest`).
    pub trace_digest: u64,
    /// Total events the run dispatched.
    pub events: u64,
}

/// A materialized IXP scene ready for probing.
struct BuiltIxp {
    net: Network,
    fabrics: Vec<NodeId>,
    lgs: Vec<(LgOperator, NodeId)>,
    /// Listed interfaces in registry order: (scene slot, interface).
    listed: Vec<(u32, MemberInterface)>,
}

/// Campaign parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Campaign {
    /// LG queries issued per interface from a PCH server (5 pings each).
    pub queries_pch: u32,
    /// LG queries issued per interface from a RIPE NCC server (3 pings
    /// each).
    pub queries_ripe: u32,
    /// Minimum spacing between two queries to the same LG server.
    pub min_query_interval: SimDuration,
    /// Spacing between the pings of one query.
    pub ping_spacing: SimDuration,
    /// Extra pings per interface from the route server during validation
    /// runs (the TorIX cross-check of section 3.3).
    pub route_server_pings: u32,
    /// Optional deterministic fault injection (rp-testkit's harness):
    /// every per-IXP network gets an injector whose stream derives from
    /// this template via `derived("campaign-fault", ixp, 0)`, so the fault
    /// sequence is replayable and independent per IXP. `None` = the clean
    /// campaign.
    pub faults: Option<rp_netsim::FaultConfig>,
    /// Data-plane shards per IXP network. `0` (the default) means one
    /// shard; any explicit value is used as-is. Shards always drain
    /// serially on the worker probing their IXP — [`Campaign::probe_all`]
    /// parallelizes across IXPs only — so more than one shard exercises
    /// the epoch-barrier protocol without buying speed. Results are
    /// bit-identical at every shard count.
    #[serde(default)]
    pub shards: usize,
    /// Optional world-level byte budget for the campaign's peak working
    /// set. Bounds two things: how many IXP networks [`Campaign::probe_all`]
    /// keeps alive at once (probing proceeds in sequential chunks sized so
    /// the concurrent scenes fit the budget) and each network's retained
    /// per-shard capacity ([`rp_netsim::Network::set_memory_budget`]).
    /// Pure peak-RSS policy: results are byte-identical with or without
    /// a budget.
    #[serde(default)]
    pub memory_budget_bytes: Option<u64>,
}

impl Campaign {
    /// The paper's parameters: enough queries that the per-interface reply
    /// maxima are 54 (PCH: 11 × 5 with one ping typically lost to timing)
    /// and 21 (RIPE NCC: 7 × 3).
    pub fn default_paper() -> Self {
        Campaign {
            queries_pch: 11,
            queries_ripe: 7,
            min_query_interval: SimDuration::from_mins(1),
            ping_spacing: SimDuration::from_secs(1),
            route_server_pings: 8,
            faults: None,
            shards: 0,
            memory_budget_bytes: None,
        }
    }

    /// Coarse-but-conservative peak-bytes estimate for probing one IXP:
    /// the materialized network (a handful of devices and links per
    /// listed interface), the recorded ping outcomes (~75 per interface
    /// under the paper's query caps), and the finished sample plane. Used
    /// only to size [`Campaign::probe_all`] chunks, so it must scale with
    /// the member count, not be exact.
    fn approx_probe_bytes(inst: &IxpInstance) -> u64 {
        (1 << 20) + inst.members.len() as u64 * 4_096
    }

    /// How many IXPs [`Campaign::probe_all`] may probe concurrently under
    /// the configured budget: enough chunks that the *largest* studied
    /// scenes fit side by side. Without a budget every IXP runs in one
    /// chunk (the historical behavior).
    fn probe_chunk_size(&self, world: &World, n: usize) -> usize {
        let Some(budget) = self.memory_budget_bytes else {
            return n.max(1);
        };
        let worst = world
            .scene
            .studied()
            .map(Self::approx_probe_bytes)
            .max()
            .unwrap_or(1);
        ((budget / worst.max(1)) as usize).clamp(1, n.max(1))
    }

    /// The per-network slice of the world budget handed to each simulator:
    /// the whole budget divided by how many networks run concurrently.
    fn per_network_budget(&self, world: &World) -> Option<u64> {
        let budget = self.memory_budget_bytes?;
        let lanes = self
            .probe_chunk_size(world, world.scene.studied().count())
            .min(rayon::current_num_threads().max(1));
        Some(budget / lanes.max(1) as u64)
    }

    fn queries_for(&self, op: LgOperator) -> u32 {
        match op {
            LgOperator::Pch => self.queries_pch,
            LgOperator::RipeNcc => self.queries_ripe,
        }
    }

    /// Materialize one IXP's scene as a simulator network: fabric switches
    /// (one per site), the dataset's looking-glass hosts, and a member
    /// device behind every listed interface. `healthy_only` skips absent,
    /// blackholing, and congested members (the traceroute survey wants
    /// responsive targets; the probing campaign wants everything).
    fn build_ixp_network(
        &self,
        world: &World,
        ixp: IxpId,
        domain: &str,
        healthy_only: bool,
    ) -> BuiltIxp {
        let inst = world.scene.ixp(ixp);
        assert!(
            !inst.meta.lg.is_empty(),
            "{} has no looking glass",
            inst.meta.acronym
        );
        let duration = world.campaign_duration();
        let seed_base = seed::derive(world.config.seed, domain, ixp.0 as u64);
        // `with_shards` clamps the `0` default to one shard.
        let mut net = Network::with_shards(seed_base, self.shards);
        net.set_timeline_scope(format!("ixp.{}", inst.meta.acronym));
        if let Some(b) = self.per_network_budget(world) {
            net.set_memory_budget(b);
        }
        let n_shards = net.shard_count() as usize;
        let shard_for = move |site: usize| site % n_shards;

        // Fabric: one switch per site, chained with inter-site spans. The
        // data plane shards by site: everything hanging off a site's
        // fabric switch (LG hosts, member routers, remote-peering
        // pseudowires) lives on that site's shard, so the only cross-shard
        // links are the inter-site spans — whose ≥ 0.05 ms fiber delay is
        // the scheduler's lookahead.
        let fabrics: Vec<NodeId> = (0..inst.sites.len())
            .map(|w| net.add_switch_on(shard_for(w)))
            .collect();
        for w in 0..fabrics.len().saturating_sub(1) {
            let a_city = WORLD_CITIES[inst.sites[w] as usize].location;
            let b_city = WORLD_CITIES[inst.sites[w + 1] as usize].location;
            let span = a_city.fiber_delay_ms(b_city).max(0.05);
            net.connect_classed(
                fabrics[w],
                fabrics[w + 1],
                DelayModel::with_one_way_ms(span),
                LinkClass::InterSite,
            );
        }

        // Looking-glass hosts.
        let mut lgs: Vec<(LgOperator, NodeId)> = Vec::new();
        for (k, &op) in inst.meta.lg.iter().enumerate() {
            let site = k.min(fabrics.len() - 1);
            let host = net.add_host_on(shard_for(site));
            let (_, hp) = net.connect(fabrics[site], host, DelayModel::with_one_way_ms(0.05));
            net.bind_host(host, hp, IxpInstance::lg_ip(ixp, k as u32));
            lgs.push((op, host));
        }

        // Member devices for every listed interface.
        let listed: Vec<(u32, MemberInterface)> = inst
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.listing.listed)
            .filter(|(_, m)| {
                !healthy_only
                    || (!m.profile.absent
                        && !m.profile.blackhole
                        && m.profile.congested_extra_ms == 0.0)
            })
            .map(|(slot, m)| (slot as u32, *m))
            .collect();
        for &(slot, ref m) in &listed {
            if m.profile.absent {
                continue; // listed address, no device — ARP never resolves
            }
            self.build_member(world, &mut net, inst, &fabrics, ixp, slot, m, duration);
        }

        BuiltIxp {
            net,
            fabrics,
            lgs,
            listed,
        }
    }

    /// Probe one IXP: build its network, run the campaign window, and
    /// collect per-interface samples (rows ordered as the registry lists
    /// them). With `route_server` the IXP's route server also pings every
    /// listed interface (section 3.3's validation cross-check).
    ///
    /// Runs on the calling thread: with [`Campaign::shards`] > 1 the
    /// network's shard windows drain one after another, bit-identical to
    /// the single-shard run.
    pub fn probe_ixp(&self, world: &World, ixp: IxpId, route_server: bool) -> IxpProbe {
        let inst = world.scene.ixp(ixp);
        let (
            BuiltIxp {
                net, lgs, listed, ..
            },
            rs_host,
        ) = self.run_campaign_ixp(world, ixp, route_server);

        // --- Collect samples into the dense plane, two passes over the
        // recorded outcomes: count per (row, LG) group, then place each
        // sample at its group cursor. Row lookup is pure arithmetic — the
        // interned slot of the target address indexes a dense slot→row
        // map — so the loop touches no hash table.
        let lg_n = inst.meta.lg.len();
        let rows = listed.len();
        let mut row_of = vec![u32::MAX; inst.members.len()];
        for (i, (slot, _)) in listed.iter().enumerate() {
            row_of[*slot as usize] = i as u32;
        }
        let row_for = |target: Ipv4Addr| -> Option<usize> {
            let slot = inst.slot_of(target)? as usize;
            let row = row_of[slot];
            (row != u32::MAX).then_some(row as usize)
        };
        let mut reply_counts = vec![0u32; rows * lg_n];
        let mut unanswered = vec![0u32; rows * lg_n];
        for (k, (_, host)) in lgs.iter().enumerate() {
            for outcome in net.host(*host).outcomes() {
                let Some(i) = row_for(outcome.target) else {
                    continue;
                };
                match outcome.reply {
                    Some(_) => reply_counts[i * lg_n + k] += 1,
                    None => unanswered[i * lg_n + k] += 1,
                }
            }
        }
        let ips: Vec<Ipv4Addr> = listed.iter().map(|(_, m)| m.ip).collect();
        let mut builder = PlaneBuilder::new(inst.meta.lg.to_vec(), ips, &reply_counts, unanswered);
        let rtt_hist = rp_obs::histogram!("core.campaign.rtt_ms", rp_obs::metrics::RTT_MS_BUCKETS);
        rp_obs::counter!("core.campaign.interfaces_probed").add(listed.len() as u64);
        for (k, (_, host)) in lgs.iter().enumerate() {
            for outcome in net.host(*host).outcomes() {
                let Some(i) = row_for(outcome.target) else {
                    continue;
                };
                if let Some(r) = outcome.reply {
                    rtt_hist.observe(r.rtt.as_millis_f64());
                    builder.place(
                        i,
                        k,
                        Sample {
                            sent_at: outcome.sent_at.unwrap_or(outcome.planned_at),
                            rtt_ms: r.rtt.as_millis_f64(),
                            ttl: r.ttl,
                        },
                    );
                }
            }
        }
        let plane = builder.finish();

        let route_server = rs_host.map(|rs| {
            // Dense per-slot minima; +∞ marks "never answered".
            let mut mins = vec![f64::INFINITY; inst.members.len()];
            for outcome in net.host(rs).outcomes() {
                if let Some(r) = outcome.reply {
                    if let Some(slot) = inst.slot_of(outcome.target) {
                        let e = &mut mins[slot as usize];
                        *e = e.min(r.rtt.as_millis_f64());
                    }
                }
            }
            listed
                .iter()
                .map(|(slot, m)| {
                    let min = mins[*slot as usize];
                    (m.ip, min.is_finite().then_some(min))
                })
                .collect()
        });

        IxpProbe {
            plane,
            route_server,
            faults: net.fault_counts(),
            trace_digest: net.trace_digest(),
            events: net.events_processed(),
        }
    }

    /// Materialize the scene, schedule every LG query (and the optional
    /// route-server pings), and run to completion. Returns the finished
    /// network and the route server's node, if one was added.
    fn run_campaign_ixp(
        &self,
        world: &World,
        ixp: IxpId,
        with_route_server: bool,
    ) -> (BuiltIxp, Option<NodeId>) {
        let duration = world.campaign_duration();
        let mut built = self.build_ixp_network(world, ixp, "campaign", false);
        let BuiltIxp {
            net,
            fabrics,
            lgs,
            listed,
        } = &mut built;
        if let Some(template) = &self.faults {
            net.install_faults(rp_netsim::FaultInjector::new(template.derived(
                "campaign-fault",
                ixp.0 as u64,
                0,
            )));
        }
        let mut rng = seed::rng(world.config.seed, "campaign-schedule", ixp.0 as u64);

        // --- Optional route server (validation).
        let route_server = if with_route_server {
            let host = net.add_host();
            let (_, hp) = net.connect(fabrics[0], host, DelayModel::with_one_way_ms(0.05));
            net.bind_host(host, hp, IxpInstance::route_server_ip(ixp));
            Some(host)
        } else {
            None
        };

        // --- Probe schedule. With two LG operators the crawls split the
        // window; a single operator covers the whole window.
        let windows: Vec<(f64, f64)> = match lgs.len() {
            1 => vec![(0.0, 1.0)],
            _ => vec![(0.0, 0.5), (0.5, 1.0)],
        };
        for ((op, host), (w_lo, w_hi)) in lgs.iter().zip(windows) {
            let q_count = self.queries_for(*op);
            let total_queries = (q_count as u64) * listed.len().max(1) as u64;
            let window_ns = ((w_hi - w_lo) * duration.nanos() as f64) as u64;
            let interval = SimDuration::from_nanos(window_ns / total_queries.max(1))
                .max(self.min_query_interval);
            let start =
                SimTime::ZERO + SimDuration::from_nanos((w_lo * duration.nanos() as f64) as u64);
            let mut q_idx: u64 = 0;
            for _ in 0..q_count {
                for (_, m) in listed.iter() {
                    // Jitter the slot by up to ±25% of the interval so
                    // probes land at varied times of day.
                    let jitter_ns =
                        (interval.nanos() as f64 * (rng.random::<f64>() - 0.5) * 0.5) as i64;
                    let base = start + interval.mul(q_idx);
                    let at = SimTime((base.nanos() as i64 + jitter_ns).max(0) as u64);
                    for p in 0..op.pings_per_query() {
                        net.plan_ping(*host, at + self.ping_spacing.mul(p as u64), m.ip);
                    }
                    q_idx += 1;
                }
            }
        }

        // --- Route-server pings (spread over the whole window).
        if let Some(rs) = route_server {
            let interval = SimDuration::from_nanos(
                duration.nanos() / (self.route_server_pings as u64 * listed.len().max(1) as u64),
            )
            .max(self.min_query_interval);
            let mut k: u64 = 0;
            for _ in 0..self.route_server_pings {
                for (_, m) in listed.iter() {
                    net.plan_ping(rs, SimTime::ZERO + interval.mul(k), m.ip);
                    k += 1;
                }
            }
        }

        net.run_to_completion();

        (built, route_server)
    }

    /// Traceroute survey: run layer-3 path discovery from the first LG
    /// server toward every listed interface of the IXP, exactly as a
    /// topology-inference system would. Returns, per interface, the number
    /// of IP hops revealed and whether the destination answered —
    /// demonstrating the paper's claim that "traceroute and BGP data do not
    /// reveal IP addresses or ASNs of remote-peering providers": a
    /// pseudowire spanning an ocean produces the same one-hop trace as a
    /// colo cross-connect.
    pub fn traceroute_survey(
        &self,
        world: &World,
        ixp: IxpId,
        max_ttl: u8,
    ) -> Vec<TracerouteResult> {
        let BuiltIxp {
            mut net,
            lgs,
            listed,
            ..
        } = self.build_ixp_network(world, ixp, "traceroute", true);
        let lg = lgs[0].1;
        for (k, (_, m)) in listed.iter().enumerate() {
            net.plan_traceroute(
                lg,
                SimTime::ZERO + SimDuration::from_mins(k as u64),
                m.ip,
                max_ttl,
            );
        }
        net.run_to_completion();

        listed
            .iter()
            .map(|(_, m)| {
                let hops = net.host(lg).traceroute_hops(m.ip);
                let revealed: Vec<Ipv4Addr> = hops.iter().filter_map(|(_, src)| *src).collect();
                let reached = revealed.contains(&m.ip);
                let intermediate_hops = revealed.iter().filter(|ip| **ip != m.ip).count();
                TracerouteResult {
                    ip: m.ip,
                    truly_remote: m.access.is_remote(),
                    extra_hop: m.profile.extra_hop,
                    intermediate_hops,
                    reached,
                }
            })
            .collect()
    }

    /// [`Campaign::traceroute_survey`] at every studied IXP, one IXP per
    /// worker, concatenated in studied-IXP order. Each survey is seeded
    /// independently, so the result is identical at every thread count.
    pub fn traceroute_all(&self, world: &World, max_ttl: u8) -> Vec<TracerouteResult> {
        let sp = rp_obs::span("core.campaign.traceroute_all");
        let parent = sp.path();
        let surveys: Vec<Vec<TracerouteResult>> = world
            .studied_ixps()
            .par_iter()
            .map(|&ixp| {
                let _sp = rp_obs::span_under(&parent, "core.campaign.traceroute_ixp");
                self.traceroute_survey(world, ixp, max_ttl)
            })
            .collect();
        surveys.concat()
    }

    /// Probe every studied IXP, one IXP per worker.
    ///
    /// Each IXP's simulation is seeded independently from the master seed
    /// (`seed::derive(seed, "campaign", ixp)`), so no state flows between
    /// IXPs and the result is bit-identical to a serial loop over
    /// [`Campaign::probe_ixp`] regardless of thread count or scheduling —
    /// the property `tests/parallel_determinism.rs` pins against the
    /// serial reference in `rp_testkit::differential`.
    pub fn probe_all(&self, world: &World) -> ProbeSet {
        let sp = rp_obs::span("core.campaign.probe_all");
        let parent = sp.path();
        let ixps = world.studied_ixps();
        rp_obs::counter!("core.campaign.ixps_probed").add(ixps.len() as u64);
        // Under a memory budget the IXPs are probed in sequential chunks:
        // peak RSS is bounded by the widest chunk's scenes, not the world
        // size. Chunks concatenate in studied-IXP order and every IXP is
        // seeded independently, so the output bytes are identical at every
        // chunk width (one chunk without a budget).
        let chunk = self.probe_chunk_size(world, ixps.len());
        let mut out: ProbeSet = Vec::with_capacity(ixps.len());
        for batch in ixps.chunks(chunk) {
            let mut part: ProbeSet = batch
                .par_iter()
                .map(|&ixp| {
                    let _sp = rp_obs::span_under(&parent, "core.campaign.probe_ixp");
                    (ixp, self.probe_ixp(world, ixp, false).plane)
                })
                .collect();
            out.append(&mut part);
        }
        let bytes: u64 = out.iter().map(|(_, p)| p.plane_bytes()).sum();
        rp_obs::gauge!("core.plane_bytes").record_max(bytes);
        out
    }

    /// Memoized [`Campaign::probe_all`]: the probe set is fetched from the
    /// process-wide memo under the world's key text plus this campaign's
    /// `Debug` text, and computed once on a miss. Safe because probing is
    /// a pure function of `(world, campaign)`, mutated worlds carry a
    /// unique key (see [`World::mark_mutated`]), and every hit compares
    /// the full key text. `probe_all` itself never consults the cache, so
    /// benchmarks and determinism tests that call it keep measuring real
    /// work.
    pub fn probe_all_cached(&self, world: &World) -> std::sync::Arc<ProbeSet> {
        let key = format!("{}\n{self:?}", world.memo_key);
        crate::memo::probes_cached(&key, || self.probe_all(world))
    }

    /// Incremental re-probe of a forked world: IXPs in the fork's dirty
    /// set are probed for real (in parallel), every other studied IXP
    /// reuses the parent's samples from `parent_probes`. Byte-identical
    /// to `probe_all(fork.world())` because a per-IXP probe reads only
    /// that IXP's instance plus fork-invariant inputs (world seed,
    /// scene-level constants, provider table, campaign parameters) — the
    /// soundness argument is spelled out in [`crate::fork`], and the
    /// `rp-testkit` differential harness enforces it against a
    /// from-scratch rebuild.
    ///
    /// `parent_probes` must be the full-campaign probe set of the fork's
    /// parent under this same campaign (any studied IXP missing from it
    /// is probed fresh, so a stale or partial parent degrades to extra
    /// work, never to wrong bytes).
    pub fn probe_all_incremental(
        &self,
        fork: &crate::fork::WorldFork,
        parent_probes: &[(IxpId, ProbePlane)],
    ) -> ProbeSet {
        let sp = rp_obs::span("core.campaign.probe_all_incremental");
        let parent = sp.path();
        let world = fork.world();
        let ixps = world.studied_ixps();
        let out: ProbeSet = ixps
            .par_iter()
            .map(|&ixp| {
                if !fork.dirty_ixps().contains(&ixp) {
                    if let Some((_, samples)) = parent_probes.iter().find(|(i, _)| *i == ixp) {
                        rp_obs::counter!("core.fork.probe_reused").add(1);
                        return (ixp, samples.clone());
                    }
                }
                let _sp = rp_obs::span_under(&parent, "core.campaign.probe_ixp");
                rp_obs::counter!("core.fork.probe_recomputed").add(1);
                (ixp, self.probe_ixp(world, ixp, false).plane)
            })
            .collect();
        out
    }

    /// Materialize one member interface as simulator devices.
    #[allow(clippy::too_many_arguments)]
    fn build_member(
        &self,
        world: &World,
        net: &mut Network,
        inst: &IxpInstance,
        fabrics: &[NodeId],
        ixp: IxpId,
        slot: u32,
        m: &MemberInterface,
        duration: SimDuration,
    ) {
        let site = (m.access.site() as usize).min(fabrics.len() - 1);
        let fabric = fabrics[site];
        let ixp_loc = WORLD_CITIES[inst.sites[site] as usize].location;
        // Everything below hangs off this site's fabric switch, so it all
        // lives on the site's shard: only inter-site spans cross shards.
        let shard = site % net.shard_count() as usize;

        // The attachment point seen from the fabric plus the access link's
        // delay model.
        let (attach, access_delay) = match m.access {
            Access::Direct { colo_delay_ms, .. } => (fabric, colo_delay_ms),
            Access::Remote {
                provider,
                origin_city,
                access_delay_ms,
                ..
            } => {
                // Provider switch at the IXP, long-haul pseudowire to the
                // provider switch near the member, then the member's tail.
                let prov_ixp = net.add_switch_on(shard);
                let prov_far = net.add_switch_on(shard);
                net.connect(fabric, prov_ixp, DelayModel::with_one_way_ms(0.05));
                let origin = WORLD_CITIES[origin_city as usize].location;
                let wire_ms = (world.scene.providers[provider as usize]
                    .pseudowire_delay_ms(origin, ixp_loc)
                    * world.config.scene.pseudowire_slack)
                    .max(0.05);
                net.connect_classed(
                    prov_ixp,
                    prov_far,
                    DelayModel::with_one_way_ms(wire_ms),
                    LinkClass::Pseudowire,
                );
                (prov_far, access_delay_ms)
            }
        };

        // Access link: the late-epoch pathology lives here; congestion is
        // a *responder* property (see below).
        let mut link = DelayModel::with_one_way_ms(access_delay.max(0.05));
        let late = late_epoch_extra_ms(&world.config.scene, ixp, slot);
        if late > 0.0 {
            link = link.with_persistent_episode(CongestionEpisode {
                start: SimTime::ZERO + SimDuration::from_nanos(duration.nanos() / 2),
                end: SimTime::ZERO + duration + SimDuration::from_days(30),
                extra_mean_ms: late,
            });
        }

        // A congested member port polices ICMP on the control plane:
        // replies mostly take a slow path whose *bounded* extra delay
        // ([55%, 100%] of the profile's bound, itself at most 7.5 ms) can
        // never push a direct member's minimum RTT over the 10 ms
        // threshold, while the occasional fast-path reply recovers the true
        // floor — leaving too few replies near the minimum for the
        // RTT-consistent filter. Heavy request loss comes with the regime.
        let slow_path = if m.profile.congested_extra_ms > 0.0 {
            let hi_us = (m.profile.congested_extra_ms * 1_000.0) as u64;
            Some(rp_netsim::router::SlowPath {
                fast_prob: 0.09,
                // The slow floor sits more than 5 ms above the fast path,
                // so slow replies never corroborate a fast-path minimum.
                slow_us: (5_300, hi_us.max(5_400)),
            })
        } else {
            None
        };
        let behavior = RouterBehavior {
            initial_ttl: m.profile.initial_ttl,
            drop_prob: m.profile.congested_drop,
            slow_path,
            ttl_changes: m
                .profile
                .ttl_change
                .iter()
                .map(|(frac, ttl)| {
                    (
                        SimTime::ZERO
                            + SimDuration::from_nanos((frac * duration.nanos() as f64) as u64),
                        *ttl,
                    )
                })
                .collect(),
            blackhole_icmp: m.profile.blackhole,
            ..RouterBehavior::default()
        };

        if m.profile.extra_hop {
            // Registry-stale gadget: a front router proxy-ARPs for the
            // listed address and forwards one IP hop to the inner router
            // that actually holds it.
            let front = net.add_router_on(shard, RouterBehavior::default());
            let (_, f_access) = net.connect_classed(attach, front, link, LinkClass::Access);
            let front_ip = Ipv4Addr::new(172, 16, (ixp.0 % 250) as u8, (2 + slot % 250) as u8);
            net.bind_router(front, f_access, front_ip);
            let inner = net.add_router_on(shard, behavior);
            let (f_in, i_port) = net.connect(front, inner, DelayModel::with_one_way_ms(0.8));
            net.bind_router(front, f_in, Ipv4Addr::new(192, 168, (slot % 250) as u8, 1));
            net.bind_router(inner, i_port, m.ip);
            let front_r = net.router_mut(front);
            front_r.add_proxy_arp(f_access, m.ip);
            front_r.add_route(m.ip, f_in);
            front_r.set_default_route(f_access);
            front_r.set_proxy_arp_all(f_in);
            let inner_r = net.router_mut(inner);
            inner_r.set_default_route(i_port);
        } else {
            let router = net.add_router_on(shard, behavior);
            let (_, r_port) = net.connect_classed(attach, router, link, LinkClass::Access);
            net.bind_router(router, r_port, m.ip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeRow;
    use crate::world::{World, WorldConfig};

    fn small_world() -> World {
        World::build(&WorldConfig::test_scale(81))
    }

    fn probe(world: &World, acronym: &str) -> (IxpId, ProbePlane) {
        let ixp = world
            .scene
            .ixps
            .iter()
            .find(|x| x.meta.acronym == acronym)
            .unwrap()
            .id;
        (
            ixp,
            Campaign::default_paper().probe_ixp(world, ixp, false).plane,
        )
    }

    #[test]
    fn reply_caps_match_paper_maxima() {
        let world = small_world();
        let (_, samples) = probe(&world, "AMS-IX");
        for s in samples.rows() {
            for k in 0..s.lg_count() {
                let (op, replies) = s.lg(k);
                let cap = op.max_replies() as usize + 1;
                assert!(
                    replies.len() <= cap,
                    "{}: {} replies via {:?}",
                    s.ip(),
                    replies.len(),
                    op
                );
            }
        }
    }

    #[test]
    fn healthy_interfaces_answer_almost_everything() {
        let world = small_world();
        let (ixp, samples) = probe(&world, "TorIX");
        let inst = world.scene.ixp(ixp);
        let healthy: Vec<&MemberInterface> = inst
            .members
            .iter()
            .filter(|m| {
                m.listing.listed
                    && !m.profile.absent
                    && !m.profile.blackhole
                    && m.profile.congested_extra_ms == 0.0
            })
            .collect();
        for m in healthy {
            let s = samples.rows().find(|s| s.ip() == m.ip).unwrap();
            assert!(
                s.reply_total() >= 20,
                "{}: only {} replies",
                m.ip,
                s.reply_total()
            );
        }
    }

    #[test]
    fn absent_and_blackholed_interfaces_stay_silent() {
        let world = small_world();
        for acr in ["AMS-IX", "LINX"] {
            let (ixp, samples) = probe(&world, acr);
            let inst = world.scene.ixp(ixp);
            for m in inst
                .members
                .iter()
                .filter(|m| m.listing.listed && (m.profile.absent || m.profile.blackhole))
            {
                let s = samples.rows().find(|s| s.ip() == m.ip).unwrap();
                assert_eq!(s.reply_total(), 0, "{} should be silent", m.ip);
            }
        }
    }

    #[test]
    fn remote_interfaces_show_geography_direct_do_not() {
        let world = small_world();
        let (ixp, samples) = probe(&world, "AMS-IX");
        let inst = world.scene.ixp(ixp);
        let ams = inst.city().location;
        for m in inst.members.iter().filter(|m| {
            m.listing.listed
                && !m.profile.absent
                && !m.profile.blackhole
                && !m.profile.extra_hop
                && m.profile.congested_extra_ms == 0.0
        }) {
            let s = samples.rows().find(|s| s.ip() == m.ip).unwrap();
            let Some(min) = s.min_rtt() else { continue };
            match m.access {
                Access::Direct { .. } => {
                    assert!(min < 5.0, "{}: direct min {min} ms", m.ip);
                }
                Access::Remote { origin_city, .. } => {
                    let fiber = 2.0
                        * WORLD_CITIES[origin_city as usize]
                            .location
                            .fiber_delay_ms(ams);
                    assert!(
                        min >= fiber * 0.95,
                        "{}: remote min {min} ms below fiber floor {fiber}",
                        m.ip
                    );
                }
            }
        }
    }

    #[test]
    fn extra_hop_interfaces_reply_with_decremented_ttl() {
        let world = small_world();
        let mut found = 0;
        for ixp in world.studied_ixps() {
            let samples = Campaign::default_paper()
                .probe_ixp(&world, ixp, false)
                .plane;
            let inst = world.scene.ixp(ixp);
            for m in inst
                .members
                .iter()
                .filter(|m| m.listing.listed && m.profile.extra_hop)
            {
                let s = samples.rows().find(|s| s.ip() == m.ip).unwrap();
                // The interface may also carry a TTL-change pathology, so
                // the reply TTL is one below whichever initial TTL was in
                // effect — never the pristine 64/255 a subnet-local reply
                // would carry.
                let expected: Vec<u8> = std::iter::once(m.profile.initial_ttl)
                    .chain(m.profile.ttl_change.map(|(_, t)| t))
                    .map(|t| t.wrapping_sub(1))
                    .collect();
                for k in 0..s.lg_count() {
                    let (_, replies) = s.lg(k);
                    for r in replies {
                        assert!(
                            expected.contains(&r.ttl),
                            "{}: TTL {} must betray the extra hop (expected one of {:?})",
                            m.ip,
                            r.ttl,
                            expected
                        );
                        found += 1;
                    }
                }
            }
        }
        assert!(
            found > 0,
            "no extra-hop interfaces probed — raise the rate or scale"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let world = small_world();
        let (_, a) = probe(&world, "VIX");
        let (_, b) = probe(&world, "VIX");
        assert_eq!(a, b);
    }

    #[test]
    fn memory_budget_does_not_change_probe_bytes() {
        // A budget tight enough to force chunked probing (and per-network
        // capacity caps) must reproduce the unbudgeted campaign exactly —
        // the budget is peak-RSS policy, not methodology.
        let world = small_world();
        let free = Campaign::default_paper().probe_all(&world);
        let capped = Campaign {
            memory_budget_bytes: Some(2 << 20),
            ..Campaign::default_paper()
        };
        assert!(
            capped.probe_chunk_size(&world, world.studied_ixps().len())
                < world.studied_ixps().len(),
            "budget must actually force chunking for this test to bite"
        );
        assert_eq!(free, capped.probe_all(&world));
    }

    #[test]
    fn route_server_crosscheck_produces_minimums() {
        let world = small_world();
        let torix = world
            .scene
            .ixps
            .iter()
            .find(|x| x.meta.acronym == "TorIX")
            .unwrap()
            .id;
        let probe = Campaign::default_paper().probe_ixp(&world, torix, true);
        let rs = probe.route_server.unwrap();
        assert_eq!(rs.len(), probe.plane.len());
        let answered = rs.iter().filter(|(_, m)| m.is_some()).count();
        assert!(answered * 10 >= rs.len() * 8, "{answered}/{}", rs.len());
    }
}
