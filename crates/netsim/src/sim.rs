//! The network container and sharded event loop.
//!
//! `Network` owns every device and link, partitioned into one or more
//! *shards* — each with its own calendar event queue, frame arena, RNG
//! streams, and fault injector. Shards advance in lock-step *windows*
//! bounded by a conservative lookahead (the minimum one-way base delay of
//! any link that crosses a shard boundary); frames crossing shards are
//! buffered in per-destination outboxes and delivered at the epoch barrier
//! between windows.
//!
//! Determinism contract: the same construction sequence and seed produce
//! the same event trace, frame for frame, **at any shard count and on any
//! number of threads**. Every source of per-event state is keyed to an
//! entity that lives on exactly one shard:
//!
//! - event ordering uses the intrinsic [`EventKey`] `(creator, seq)` pair,
//!   a pure function of each creator's own history (see `event.rs`);
//! - link jitter draws from a per-*direction* stream owned by the
//!   transmitting side's shard;
//! - router per-event RNGs are indexed by a per-node dispatch counter;
//! - fault decisions draw from per-`(link, direction)` streams
//!   (see `fault.rs`).
//!
//! None of these depend on how entities are assigned to shards, so any
//! partition — including the trivial one-shard partition — yields
//! bit-identical observables. The epoch barrier guarantees no event is
//! dispatched before a cross-shard frame that precedes it: a shard that
//! has drained everything before `T` cannot receive a cross-shard frame
//! earlier than `T + lookahead` (every delay term is additive and
//! non-negative), and windows never extend past `t_min + lookahead`.

use crate::event::{Event, EventKey, EventQueue};
use crate::fault::{FaultCounts, FaultEvent, FaultInjector, TxFaults, DUPLICATE_GAP};
use crate::frame::{Frame, FrameArena, MacAddr, Payload};
use crate::host::Host;
use crate::link::DelayModel;
use crate::router::{Router, RouterBehavior};
use crate::switch::Switch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rp_types::{seed, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Index of a node (device) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Index of a port on a node. Ports are allocated in [`Network::connect`]
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(pub u16);

impl PortId {
    /// Index into per-port storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Something a device wants done after handling an event.
#[derive(Debug, Clone)]
pub enum Action {
    /// Transmit `frame` out of `port` after a local delay (processing time).
    Send {
        /// Egress port.
        port: PortId,
        /// Frame to transmit.
        frame: Frame,
        /// Local processing delay before the frame enters the link.
        after: SimDuration,
    },
    /// Fire a timer for this device at absolute time `at`.
    Schedule {
        /// When the timer fires.
        at: SimTime,
        /// Opaque token handed back to the device.
        token: u64,
    },
}

impl Action {
    /// A send with no local processing delay.
    pub fn send(port: PortId, frame: Frame) -> Action {
        Action::Send {
            port,
            frame,
            after: SimDuration::ZERO,
        }
    }
}

/// The device living at a node.
#[derive(Debug)]
pub enum Device {
    /// A MAC-learning layer-2 switch.
    Switch(Switch),
    /// An IP router.
    Router(Router),
    /// A measurement host.
    Host(Host),
}

#[derive(Debug, Clone, Copy)]
struct Attachment {
    far_node: NodeId,
    far_port: PortId,
    /// Shard owning the far node (frames to it may need a handoff).
    far_shard: u32,
    link: u32,
    /// Which direction of the (full-duplex) link this side transmits on.
    dir: u8,
    /// Index of this direction's [`DirState`] in the transmitting shard.
    dir_loc: u32,
}

/// Shard placement and port wiring of one node. Devices themselves live
/// inside their shard so a window touches only its own shard's state.
#[derive(Debug)]
struct NodeMeta {
    ports: Vec<Attachment>,
    /// Owning shard.
    shard: u32,
    /// Index into the owning shard's `devices`/`seqs`/`rx` vectors.
    loc: u32,
}

/// Topology role of a link, declared at [`Network::connect_classed`] time.
///
/// Classes exist for the deterministic timelines: traffic is attributed
/// to the *canonical* topology partition (what kind of link a frame
/// crossed), never to the physical shard layout — so the per-class byte
/// series are identical at `--shards 1` and `--shards 8`. In particular
/// `InterSite` marks the inter-fabric-site spans that *would* cross
/// shards at full sharding: its frame count is the canonical handoff
/// volume, defined even when the whole fabric runs on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkClass {
    /// Anything unclassified (fabric-internal hops, test rigs).
    #[default]
    Core,
    /// A member's access port onto the IXP fabric (port utilization).
    Access,
    /// A fiber span between fabric sites of one distributed IXP.
    InterSite,
    /// A remote-peering pseudowire long-haul segment.
    Pseudowire,
}

/// Immutable link description; per-direction mutable state ([`DirState`])
/// lives in the transmitting shard.
#[derive(Debug)]
struct LinkMeta {
    delay: DelayModel,
    a: NodeId,
    b: NodeId,
    class: LinkClass,
}

/// Mutable per-direction link state, owned by the shard of the node that
/// transmits in this direction.
#[derive(Debug)]
struct DirState {
    /// Jitter stream for this direction; `None` for fully deterministic
    /// delay models, which skip RNG construction and per-frame sampling.
    /// Streams are per-direction (not per-link) so both endpoints of a
    /// cross-shard link can sample without coordination — and so draws are
    /// a pure function of each direction's own traffic, independent of the
    /// shard layout.
    rng: Option<StdRng>,
    /// Transmit-queue horizon: the instant this direction's line becomes
    /// idle (finite-bandwidth links only).
    busy_until: SimTime,
}

/// A frame in transit to another shard, buffered until the next barrier.
#[derive(Debug)]
struct Xfer {
    at: SimTime,
    key: EventKey,
    node: NodeId,
    port: PortId,
    frame: Frame,
}

/// Read-only state every shard needs while draining a window. Shards hold
/// devices and queues by value; this is the only data shared between
/// shards, and it is never written during a window.
struct Ctx<'a> {
    nodes: &'a [NodeMeta],
    links: &'a [LinkMeta],
    router_key: seed::DomainKey,
    obs_active: bool,
    /// Debug-only skew added to cross-shard deliveries; see
    /// [`Network::debug_skew_cross_shard`].
    xshard_skew: SimDuration,
}

/// One shard of the data plane: a self-contained event loop over the
/// devices assigned to it, plus outboxes for frames leaving the shard.
struct Shard {
    /// This shard's index, so `deliver` can tell local from cross-shard.
    me: u32,
    devices: Vec<Device>,
    /// Per-device event-creation counters (the `seq` of [`EventKey`]),
    /// indexed by device `loc`.
    seqs: Vec<u64>,
    /// Per-device dispatched-event counters, indexed by `loc`; feeds the
    /// router per-event RNG index so it is independent of shard layout.
    rx: Vec<u64>,
    /// Per-direction link state, indexed by `Attachment::dir_loc`.
    dirs: Vec<DirState>,
    queue: EventQueue,
    /// Slab of in-flight frames: events carry 4-byte
    /// [`crate::frame::FrameId`]s instead of frame copies; slots are freed
    /// the moment a frame is delivered. Strictly per-shard — cross-shard
    /// frames travel by value and are re-allocated in the destination
    /// arena at the barrier.
    frames: FrameArena,
    now: SimTime,
    /// Stand-in generator passed to routers for ARP frames, whose handling
    /// never draws — ARP floods hit every member on a fabric, so skipping
    /// the per-event seeding there is a measurable win. Debug builds
    /// assert after every use that it was in fact never advanced.
    arp_rng: StdRng,
    /// Scratch buffer device handlers write their actions into; reused
    /// across every dispatch so the hot loop never allocates.
    scratch: Vec<Action>,
    /// Optional fault injection consulted on every frame transmission.
    /// Per-shard like every other mutable stream; decision streams are
    /// keyed by `(link, dir)`, so the split cannot change outcomes.
    faults: Option<FaultInjector>,
    events_processed: u64,
    /// Frames dropped because a device transmitted on an unconnected port.
    dropped_unconnected: u64,
    /// Largest per-link transmit-queue depth seen (frames waiting ahead of
    /// a newly enqueued frame, plus itself). Only tracked while
    /// observability is on.
    queue_depth_hwm: u64,
    /// Commutative trace digest: the wrapping sum of a mixed hash of
    /// `(time, node, kind)` over every dispatched event. Addition commutes,
    /// so the merged digest is independent of how events interleave across
    /// shards — it pins *which* events ran at *what* times, which together
    /// with per-entity keying pins the whole trace.
    digest: u64,
    /// Frames bound for other shards, buffered until the next barrier.
    /// `outbox[dst]` for `dst == me` stays empty.
    outbox: Vec<Vec<Xfer>>,
    /// Total frames this shard handed to other shards.
    handoffs: u64,
    /// Sim-time timeline series recorded by this shard (only while
    /// observability is on); drained into the process registry by
    /// [`Network::flush_obs`]. Everything recorded here is a pure
    /// function of the shard-invariant event trace — see the
    /// `rp_obs::timeline` module docs for the rules.
    timeline: rp_obs::TimelineRecorder,
    /// Batched `netsim.events` count for the current sim-time bucket:
    /// dispatch is the hottest loop in the repo, so per-event recording
    /// folds into one add until the bucket changes.
    tl_ev_bucket: u64,
    tl_ev_accum: u64,
}

/// How many windows pass between memory-budget checks. Measuring retained
/// capacity walks every shard's bucket ring, so the check amortizes over a
/// batch of windows; capacity only ever grows with the in-flight peak, so
/// a late check bounds the same maximum.
const BUDGET_CHECK_WINDOWS: u64 = 64;

#[inline]
fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed, dependency-free.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[inline]
fn event_hash(at: SimTime, node: u32, kind: u64) -> u64 {
    mix64(
        at.nanos()
            .wrapping_add(mix64((u64::from(node) << 1) | kind)),
    )
}

impl Shard {
    fn new(me: u32, total: usize) -> Self {
        Shard {
            me,
            devices: Vec::new(),
            seqs: Vec::new(),
            rx: Vec::new(),
            dirs: Vec::new(),
            queue: EventQueue::new(),
            frames: FrameArena::new(),
            now: SimTime::ZERO,
            arp_rng: StdRng::seed_from_u64(0),
            scratch: Vec::new(),
            faults: None,
            events_processed: 0,
            dropped_unconnected: 0,
            queue_depth_hwm: 0,
            digest: 0,
            outbox: (0..total).map(|_| Vec::new()).collect(),
            handoffs: 0,
            timeline: rp_obs::TimelineRecorder::new(),
            tl_ev_bucket: 0,
            tl_ev_accum: 0,
        }
    }

    /// Exact heap bytes retained by this shard's data-plane storage: the
    /// event queue's bucket capacity plus the frame arena's slots. The
    /// quantity [`Network::set_memory_budget`] bounds.
    fn retained_bytes(&self) -> u64 {
        self.queue.retained_bytes() + self.frames.retained_bytes()
    }

    /// Count one dispatched event on the `netsim.events` rate series,
    /// batching within a bucket (events are near-sorted in time, so the
    /// common case is one register add).
    #[inline]
    fn tl_event(&mut self) {
        let b = rp_obs::timeline::bucket_of(self.now.nanos());
        if b != self.tl_ev_bucket {
            self.tl_flush_events();
            self.tl_ev_bucket = b;
        }
        self.tl_ev_accum += 1;
    }

    /// Flush the batched event count into the recorder.
    fn tl_flush_events(&mut self) {
        if self.tl_ev_accum > 0 {
            self.timeline
                .rate_bucket("netsim.events", self.tl_ev_bucket, self.tl_ev_accum);
            self.tl_ev_accum = 0;
        }
    }

    /// Mint the next event key for the device at `loc` (global id `node`).
    #[inline]
    fn next_key(&mut self, node: NodeId, loc: usize) -> EventKey {
        let seq = self.seqs[loc];
        self.seqs[loc] += 1;
        EventKey {
            creator: node.0,
            seq,
        }
    }

    /// Drain every event strictly before `horizon`.
    fn drain_window(&mut self, ctx: &Ctx<'_>, horizon: SimTime) {
        while let Some((at, event)) = self.queue.pop_before(horizon) {
            self.now = at;
            self.dispatch(ctx, event);
        }
    }

    fn dispatch(&mut self, ctx: &Ctx<'_>, event: Event) {
        self.events_processed += 1;
        let (node, kind) = match &event {
            Event::FrameArrival { node, .. } => (*node, 0u64),
            Event::Timer { node, .. } => (*node, 1u64),
        };
        self.digest = self.digest.wrapping_add(event_hash(self.now, node.0, kind));
        if ctx.obs_active {
            self.tl_event();
        }
        let meta = &ctx.nodes[node.index()];
        let loc = meta.loc as usize;
        self.rx[loc] += 1;
        let mut actions = std::mem::take(&mut self.scratch);
        match event {
            Event::FrameArrival { port, frame, .. } => {
                // Copy the frame out of the arena and release its slot
                // immediately: delivery ends the in-flight lifetime.
                let frame = self.frames.take(frame);
                let n_ports = meta.ports.len() as u16;
                let now = self.now;
                match &mut self.devices[loc] {
                    Device::Switch(sw) => sw.on_frame_into(port, n_ports, frame, &mut actions),
                    Device::Router(r) => {
                        if matches!(frame.payload, Payload::Arp(_)) {
                            // The ARP arms never draw, so the per-event
                            // stream need not be derived at all: an
                            // untouched generator leaves no trace.
                            r.on_frame_into(now, port, frame, &mut self.arp_rng, &mut actions);
                            debug_assert_eq!(
                                self.arp_rng,
                                StdRng::seed_from_u64(0),
                                "router ARP handling drew from its RNG; \
                                 the ARP fast path is no longer sound"
                            );
                        } else {
                            // Derive a per-event RNG from (node, per-node
                            // dispatch count). The count is a property of
                            // the node's own history, so the stream is the
                            // same at every shard count.
                            let mut rng = seed::rng_from_key(
                                ctx.router_key,
                                (node.0 as u64) << 40 | self.rx[loc],
                            );
                            r.on_frame_into(now, port, frame, &mut rng, &mut actions);
                        }
                    }
                    Device::Host(h) => h.on_frame_into(now, port, frame, &mut actions),
                }
            }
            Event::Timer { token, .. } => {
                let now = self.now;
                if let Device::Host(h) = &mut self.devices[loc] {
                    h.on_timer_into(now, token, &mut actions);
                }
            }
        }
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    port,
                    mut frame,
                    after,
                } => {
                    let Some(att) = meta.ports.get(port.index()).copied() else {
                        self.dropped_unconnected += 1;
                        continue; // unconnected port: drop
                    };
                    let fx = match self.faults.as_mut() {
                        Some(inj) => inj.on_transmit(self.now, att.link, att.dir, &mut frame),
                        None => TxFaults::default(),
                    };
                    if fx.drop {
                        continue; // injected loss: the frame never transmits
                    }
                    let ready = self.now + after;
                    let delay_model = &ctx.links[att.link as usize].delay;
                    // Finite-bandwidth links serialize frames through a
                    // per-direction FIFO: transmission starts when both the
                    // frame and the line are ready.
                    let tx_time = delay_model.serialization(frame.wire_size());
                    let ds = &mut self.dirs[att.dir_loc as usize];
                    let start = ready.max(ds.busy_until);
                    if ctx.obs_active && (self.events_processed & 63) == 0 {
                        // Queue depth behind this frame, in frames: backlog
                        // wait divided by one serialization time, plus the
                        // frame itself. Sampled on power-of-two per-shard
                        // event counts so the gauge costs nothing in steady
                        // state. Pure read — never feeds back into the
                        // simulation (which is why a shard-count-dependent
                        // sampling phase is acceptable here).
                        let tx_ns = tx_time.nanos();
                        if tx_ns > 0 && start > ready {
                            let depth = (start.nanos() - ready.nanos()) / tx_ns + 1;
                            self.queue_depth_hwm = self.queue_depth_hwm.max(depth);
                        }
                    }
                    let tx_done = start + tx_time;
                    ds.busy_until = tx_done;
                    if ctx.obs_active {
                        // Per-class wire-byte timelines, keyed by transmit
                        // start (sim time) and the link's *canonical* role —
                        // both shard-invariant. InterSite frames are the
                        // canonical cross-shard handoff volume.
                        let bytes = frame.wire_size() as u64;
                        let t = start.nanos();
                        match ctx.links[att.link as usize].class {
                            LinkClass::Core => {}
                            LinkClass::Access => {
                                self.timeline.rate("netsim.access_bytes", t, bytes);
                            }
                            LinkClass::InterSite => {
                                self.timeline.rate("netsim.inter_site_bytes", t, bytes);
                                self.timeline.rate("netsim.inter_site_frames", t, 1);
                            }
                            LinkClass::Pseudowire => {
                                self.timeline.rate("netsim.pseudowire_bytes", t, bytes);
                            }
                        }
                    }
                    let delay = match ds.rng.as_mut() {
                        Some(rng) => delay_model.sample(start, rng),
                        None => delay_model.sample_deterministic(start),
                    };
                    let arrival = tx_done + delay + fx.extra_delay;
                    if fx.duplicate {
                        let key = self.next_key(node, loc);
                        self.deliver(ctx, &att, arrival + DUPLICATE_GAP, key, frame);
                    }
                    let key = self.next_key(node, loc);
                    self.deliver(ctx, &att, arrival, key, frame);
                }
                Action::Schedule { at, token } => {
                    if ctx.obs_active {
                        self.timeline
                            .level("netsim.queue_depth", self.now.nanos(), at.nanos(), 1);
                    }
                    let key = self.next_key(node, loc);
                    self.queue.push(at, key, Event::Timer { node, token });
                }
            }
        }
        self.scratch = actions;
    }

    /// Route a transmitted frame to its destination: locally if the far
    /// node shares this shard, otherwise into the outbox for delivery at
    /// the next epoch barrier.
    fn deliver(
        &mut self,
        ctx: &Ctx<'_>,
        att: &Attachment,
        at: SimTime,
        key: EventKey,
        frame: Frame,
    ) {
        if ctx.obs_active {
            // Both level series use (creation sim-time → scheduled
            // sim-time) intervals known right here, so the value at every
            // bucket boundary is exact and independent of which shard the
            // frame physically traverses. Queue depth counts pending
            // events (frames + timers); frames-in-flight is the logical
            // arena occupancy — frames between transmission and arrival.
            let (t0, t1) = (self.now.nanos(), at.nanos());
            self.timeline.level("netsim.queue_depth", t0, t1, 1);
            self.timeline.level("netsim.frames_in_flight", t0, t1, 1);
        }
        if att.far_shard == self.me {
            let frame = self.frames.alloc(frame);
            self.queue.push(
                at,
                key,
                Event::FrameArrival {
                    node: att.far_node,
                    port: att.far_port,
                    frame,
                },
            );
        } else {
            self.handoffs += 1;
            self.outbox[att.far_shard as usize].push(Xfer {
                at: at + ctx.xshard_skew,
                key,
                node: att.far_node,
                port: att.far_port,
                frame,
            });
        }
    }
}

/// A simulated network of switches, routers, and hosts, partitioned into
/// one or more independently scheduled shards.
pub struct Network {
    seed: u64,
    nodes: Vec<NodeMeta>,
    links: Vec<LinkMeta>,
    shards: Vec<Shard>,
    next_mac: u64,
    /// Counter for construction-time plans (`plan_ping`/`plan_traceroute`);
    /// their event keys use [`EventKey::PLAN_CREATOR`] with this sequence.
    plan_seq: u64,
    /// Precomputed `(seed, "router-frame")` key: the per-event router RNG
    /// is derived once per frame, so the domain-label hash is hoisted out
    /// of the hot loop.
    router_key: seed::DomainKey,
    /// `rp_obs::enabled()` sampled at run start: the event loop is the
    /// hottest code in the repo, so per-event work reads one bool instead
    /// of the atomic, and counters flush to the registry once per run.
    obs_active: bool,
    obs_flushed_events: u64,
    obs_flushed_drops: u64,
    obs_flushed_barriers: u64,
    obs_flushed_handoffs: u64,
    /// Cached conservative lookahead: `Some(None)` means "computed: no
    /// cross-shard links" (windows are unbounded); invalidated by
    /// [`Network::connect`].
    lookahead_cache: Option<Option<SimDuration>>,
    /// Number of epoch barriers executed.
    barrier_rounds: u64,
    /// Wall-clock nanoseconds spent inside barriers (obs runs only).
    barrier_wait_ns: u64,
    /// Optional byte budget for the network's retained per-shard capacity
    /// (frame-arena slots plus event-queue buckets). `None` — the default —
    /// never shrinks, preserving the grow-only high-water behavior.
    memory_budget: Option<u64>,
    /// Capacity-eviction rounds executed under the budget (a round =
    /// one shard found over its cap and shrunk).
    shrink_rounds: u64,
    /// Total bytes released by capacity evictions.
    shrink_bytes: u64,
    /// Largest per-shard retained-capacity byte count observed (sampled at
    /// budget checks and at the final flush).
    arena_bytes_hwm: u64,
    obs_flushed_shrinks: u64,
    /// Debug-only extra delay on cross-shard deliveries; breaks the
    /// shard-count invariance on purpose so oracle tests can prove their
    /// checkers fire. Zero in all real runs.
    xshard_skew: SimDuration,
    /// Label for scoped timeline series (`<scope>.port_util_bytes`),
    /// typically `ixp.<ACRONYM>` set by the campaign layer. `None` keeps
    /// the aggregate series only.
    timeline_scope: Option<String>,
    /// Base track id for this network's shards in the Chrome trace, lazily
    /// allocated on the first traced window.
    trace_tracks: Option<u32>,
}

impl Network {
    /// An empty single-shard network. All per-device and per-link
    /// randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_shards(seed, 1)
    }

    /// An empty network with `shards` data-plane shards (clamped to at
    /// least 1). Devices are placed with [`Network::add_switch_on`] and
    /// friends; results are bit-identical at every shard count as long as
    /// the construction sequence is the same.
    pub fn with_shards(seed: u64, shards: usize) -> Self {
        let n = shards.max(1);
        Network {
            seed,
            nodes: Vec::new(),
            links: Vec::new(),
            shards: (0..n).map(|me| Shard::new(me as u32, n)).collect(),
            next_mac: 1,
            plan_seq: 0,
            router_key: seed::domain_key(seed, "router-frame"),
            obs_active: false,
            obs_flushed_events: 0,
            obs_flushed_drops: 0,
            obs_flushed_barriers: 0,
            obs_flushed_handoffs: 0,
            lookahead_cache: None,
            barrier_rounds: 0,
            barrier_wait_ns: 0,
            memory_budget: None,
            shrink_rounds: 0,
            shrink_bytes: 0,
            arena_bytes_hwm: 0,
            obs_flushed_shrinks: 0,
            xshard_skew: SimDuration::ZERO,
            timeline_scope: None,
            trace_tracks: None,
        }
    }

    /// Label this network's scoped timeline series: the access-port byte
    /// series is additionally published as `<scope>.port_util_bytes`
    /// (the campaign passes `ixp.<ACRONYM>` so per-IXP port utilization
    /// survives the cross-IXP aggregation).
    pub fn set_timeline_scope(&mut self, scope: String) {
        self.timeline_scope = Some(scope);
    }

    /// Number of data-plane shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Cap the network's retained per-shard capacity (frame-arena slots
    /// plus event-queue buckets) at `bytes`, split evenly across shards.
    /// Enforcement happens between windows by releasing *idle* capacity —
    /// drained queue buckets, fully-freed arena slots — so pending events
    /// and in-flight frames are never touched and every simulation result
    /// is byte-identical with or without a budget. Purely a peak-RSS
    /// policy, like the shard count itself.
    pub fn set_memory_budget(&mut self, bytes: u64) {
        self.memory_budget = Some(bytes);
    }

    /// Exact heap bytes currently retained by every shard's data-plane
    /// storage (capacity, not occupancy).
    pub fn retained_bytes(&self) -> u64 {
        self.shards.iter().map(Shard::retained_bytes).sum()
    }

    /// Capacity-eviction rounds executed so far under the memory budget.
    pub fn capacity_evictions(&self) -> u64 {
        self.shrink_rounds
    }

    /// Total bytes released by capacity evictions so far.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.shrink_bytes
    }

    /// Release idle capacity on every shard over its per-shard cap. Called
    /// between windows (every [`BUDGET_CHECK_WINDOWS`]) and once after the
    /// final drain; a no-op without a configured budget.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.memory_budget else {
            return;
        };
        let cap = budget / self.shards.len().max(1) as u64;
        for s in &mut self.shards {
            let held = s.retained_bytes();
            self.arena_bytes_hwm = self.arena_bytes_hwm.max(held);
            if held <= cap {
                continue;
            }
            // Queue capacity first (drained buckets dominate the slack),
            // then the arena gets whatever headroom remains.
            let mut freed = s
                .queue
                .shrink_retained(cap.saturating_sub(s.frames.retained_bytes()));
            freed += s
                .frames
                .shrink_retained(cap.saturating_sub(s.queue.retained_bytes()));
            if freed > 0 {
                self.shrink_rounds += 1;
                self.shrink_bytes += freed;
            }
        }
    }

    /// Install a fault injector; every subsequent frame transmission
    /// consults it. Replaces any previously installed injector. Each shard
    /// gets its own copy — decision streams are keyed by `(link, dir)`, so
    /// the copies never interfere and tallies/logs merge exactly.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        let cfg = injector.config().clone();
        for s in &mut self.shards {
            s.faults = Some(FaultInjector::new(cfg.clone()));
        }
    }

    /// Exact tallies of injected faults, merged across shards (all zero
    /// without an injector).
    pub fn fault_counts(&self) -> FaultCounts {
        let mut total = FaultCounts::default();
        for s in &self.shards {
            if let Some(inj) = &s.faults {
                total.merge(&inj.counts());
            }
        }
        total
    }

    /// The injector's replay log in canonical order, merged across shards
    /// (empty without an injector).
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        FaultInjector::merge_logs(self.shards.iter().filter_map(|s| s.faults.as_ref()))
    }

    fn add_node_on(&mut self, shard: usize, device: Device) -> NodeId {
        assert!(
            shard < self.shards.len(),
            "shard {shard} out of range: network has {} shards",
            self.shards.len()
        );
        let id = NodeId(self.nodes.len() as u32);
        let s = &mut self.shards[shard];
        let loc = s.devices.len() as u32;
        s.devices.push(device);
        s.seqs.push(0);
        s.rx.push(0);
        self.nodes.push(NodeMeta {
            ports: Vec::new(),
            shard: shard as u32,
            loc,
        });
        id
    }

    /// Add a MAC-learning layer-2 switch on shard 0.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_switch_on(0)
    }

    /// Add a MAC-learning layer-2 switch on the given shard.
    pub fn add_switch_on(&mut self, shard: usize) -> NodeId {
        self.add_node_on(shard, Device::Switch(Switch::new()))
    }

    /// Add an IP router with the given responder behavior on shard 0.
    pub fn add_router(&mut self, behavior: RouterBehavior) -> NodeId {
        self.add_router_on(0, behavior)
    }

    /// Add an IP router with the given responder behavior on the given
    /// shard.
    pub fn add_router_on(&mut self, shard: usize, behavior: RouterBehavior) -> NodeId {
        self.add_node_on(shard, Device::Router(Router::new(behavior)))
    }

    /// Add a measurement host on shard 0. Its ICMP id is derived from the
    /// node index.
    pub fn add_host(&mut self) -> NodeId {
        self.add_host_on(0)
    }

    /// Add a measurement host on the given shard. Its ICMP id is derived
    /// from the (global) node index, so placement cannot change it.
    pub fn add_host_on(&mut self, shard: usize) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.add_node_on(shard, Device::Host(Host::new(0x4000 | id.0 as u16)))
    }

    /// Allocate a fresh unicast MAC address.
    pub fn alloc_mac(&mut self) -> MacAddr {
        let m = MacAddr::from_index(self.next_mac);
        self.next_mac += 1;
        m
    }

    /// Connect `a` and `b` with a link; returns the allocated port on each
    /// side. Delay is sampled independently per traversal direction, from
    /// a stream owned by the transmitting side's shard.
    pub fn connect(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> (PortId, PortId) {
        self.connect_classed(a, b, delay, LinkClass::Core)
    }

    /// [`Network::connect`] with an explicit [`LinkClass`], so the
    /// deterministic timelines can attribute traffic to the canonical
    /// topology role of the link.
    pub fn connect_classed(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: DelayModel,
        class: LinkClass,
    ) -> (PortId, PortId) {
        let link_idx = self.links.len() as u32;
        let seed = self.seed;
        let deterministic = delay.is_deterministic();
        self.links.push(LinkMeta { delay, a, b, class });
        self.lookahead_cache = None;
        let (shard_a, shard_b) = (self.nodes[a.index()].shard, self.nodes[b.index()].shard);
        let dir_state = |shards: &mut Vec<Shard>, shard: u32, dir: u8| {
            let s = &mut shards[shard as usize];
            let loc = s.dirs.len() as u32;
            s.dirs.push(DirState {
                rng: if deterministic {
                    None
                } else {
                    Some(seed::rng2(seed, "link", link_idx as u64, dir as u64))
                },
                busy_until: SimTime::ZERO,
            });
            loc
        };
        // Direction 0 carries a→b (transmitter a), direction 1 carries b→a.
        let a_dir_loc = dir_state(&mut self.shards, shard_a, 0);
        let b_dir_loc = dir_state(&mut self.shards, shard_b, 1);
        let pa = PortId(self.nodes[a.index()].ports.len() as u16);
        let pb = PortId(self.nodes[b.index()].ports.len() as u16);
        self.nodes[a.index()].ports.push(Attachment {
            far_node: b,
            far_port: pb,
            far_shard: shard_b,
            link: link_idx,
            dir: 0,
            dir_loc: a_dir_loc,
        });
        self.nodes[b.index()].ports.push(Attachment {
            far_node: a,
            far_port: pa,
            far_shard: shard_a,
            link: link_idx,
            dir: 1,
            dir_loc: b_dir_loc,
        });
        (pa, pb)
    }

    fn device_mut(&mut self, id: NodeId) -> &mut Device {
        let meta = &self.nodes[id.index()];
        &mut self.shards[meta.shard as usize].devices[meta.loc as usize]
    }

    /// Mutable access to a router (panics if `id` is not a router).
    pub fn router_mut(&mut self, id: NodeId) -> &mut Router {
        match self.device_mut(id) {
            Device::Router(r) => r,
            other => panic!("{id} is not a router: {other:?}"),
        }
    }

    /// Shared access to a host (panics if `id` is not a host).
    pub fn host(&self, id: NodeId) -> &Host {
        let meta = &self.nodes[id.index()];
        match &self.shards[meta.shard as usize].devices[meta.loc as usize] {
            Device::Host(h) => h,
            other => panic!("{id} is not a host: {other:?}"),
        }
    }

    /// Mutable access to a host (panics if `id` is not a host).
    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match self.device_mut(id) {
            Device::Host(h) => h,
            other => panic!("{id} is not a host: {other:?}"),
        }
    }

    /// Bind a host interface on `port` with address `ip` (MAC allocated
    /// internally).
    pub fn bind_host(&mut self, host: NodeId, port: PortId, ip: Ipv4Addr) {
        let mac = self.alloc_mac();
        self.host_mut(host).bind(port, ip, mac);
    }

    /// Bind a router interface on `port` with address `ip` (MAC allocated
    /// internally).
    pub fn bind_router(&mut self, router: NodeId, port: PortId, ip: Ipv4Addr) {
        let mac = self.alloc_mac();
        self.router_mut(router).bind(port, ip, mac);
    }

    /// Mint the key for a construction-time plan event.
    fn plan_key(&mut self) -> EventKey {
        let seq = self.plan_seq;
        self.plan_seq += 1;
        EventKey {
            creator: EventKey::PLAN_CREATOR,
            seq,
        }
    }

    /// Plan a ping from `host` to `target` at absolute time `at`.
    pub fn plan_ping(&mut self, host: NodeId, at: SimTime, target: Ipv4Addr) {
        let token = self.host_mut(host).register_plan(at, target);
        let key = self.plan_key();
        let shard = self.nodes[host.index()].shard as usize;
        if rp_obs::enabled() {
            // Plan timers sit in the queue from construction (sim t=0)
            // until they fire.
            self.shards[shard]
                .timeline
                .level("netsim.queue_depth", 0, at.nanos(), 1);
        }
        self.shards[shard]
            .queue
            .push(at, key, Event::Timer { node: host, token });
    }

    /// Plan a traceroute: one probe per hop TTL `1..=max_ttl`, one second
    /// apart, starting at `at`. Read the result with
    /// [`Host::traceroute_hops`].
    pub fn plan_traceroute(&mut self, host: NodeId, at: SimTime, target: Ipv4Addr, max_ttl: u8) {
        for hop in 1..=max_ttl {
            let t = at + SimDuration::from_secs(hop as u64 - 1);
            let token = self.host_mut(host).register_probe(t, target, hop);
            let key = self.plan_key();
            let shard = self.nodes[host.index()].shard as usize;
            if rp_obs::enabled() {
                self.shards[shard]
                    .timeline
                    .level("netsim.queue_depth", 0, t.nanos(), 1);
            }
            self.shards[shard]
                .queue
                .push(t, key, Event::Timer { node: host, token });
        }
    }

    /// Current simulated time: the furthest any shard has advanced.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events processed so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Frames dropped so far at unconnected ports.
    pub fn frames_dropped_unconnected(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_unconnected).sum()
    }

    /// Largest per-link transmit-queue depth observed (0 unless a run
    /// executed with observability enabled).
    pub fn queue_depth_hwm(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.queue_depth_hwm)
            .max()
            .unwrap_or(0)
    }

    /// Frames that crossed a shard boundary so far.
    pub fn cross_shard_handoffs(&self) -> u64 {
        self.shards.iter().map(|s| s.handoffs).sum()
    }

    /// Epoch barriers executed so far.
    pub fn barrier_rounds(&self) -> u64 {
        self.barrier_rounds
    }

    /// Commutative digest over `(time, node, kind)` of every dispatched
    /// event: each event contributes a mixed hash via wrapping addition,
    /// so the merged value is independent of dispatch interleaving — and
    /// therefore identical at every shard and thread count. Two runs that
    /// dispatch the same events at the same times — the bit-reproducibility
    /// contract — report the same digest regardless of how the event queue,
    /// frame storage, or shard layout is implemented.
    pub fn trace_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.digest))
    }

    /// Debug/test hook: delay every cross-shard delivery by `skew`. This
    /// deliberately breaks the shard-count-invariance contract (a
    /// multi-shard run no longer matches `--shards 1`), so metamorphic
    /// broken-oracle tests can prove their checkers actually fire. Never
    /// call this outside tests.
    #[doc(hidden)]
    pub fn debug_skew_cross_shard(&mut self, skew: SimDuration) {
        self.xshard_skew = skew;
    }

    /// Conservative lookahead: the minimum one-way base delay over links
    /// whose endpoints live on different shards, or `None` when no link
    /// crosses a shard boundary (windows are then unbounded — the
    /// single-shard case). Panics on a zero-delay cross-shard link, which
    /// would force zero-length windows.
    fn lookahead(&mut self) -> Option<SimDuration> {
        if let Some(cached) = self.lookahead_cache {
            return cached;
        }
        let mut min: Option<SimDuration> = None;
        for lm in &self.links {
            let (sa, sb) = (
                self.nodes[lm.a.index()].shard,
                self.nodes[lm.b.index()].shard,
            );
            if sa == sb {
                continue;
            }
            let l = lm.delay.min_one_way();
            assert!(
                l > SimDuration::ZERO,
                "cross-shard link between {} and {} has zero base delay: \
                 the epoch-barrier scheduler needs positive lookahead on \
                 every link that crosses a shard boundary — keep such links \
                 inside one shard or give them a positive base delay",
                lm.a,
                lm.b
            );
            min = Some(match min {
                Some(m) => m.min(l),
                None => l,
            });
        }
        self.lookahead_cache = Some(min);
        min
    }

    /// Lazily reserve Chrome-trace tracks for this network's shards.
    fn trace_track_base(&mut self) -> u32 {
        if let Some(b) = self.trace_tracks {
            return b;
        }
        let label = self.timeline_scope.as_deref().unwrap_or("net");
        let b = rp_obs::trace::alloc_tracks(label, self.shards.len());
        self.trace_tracks = Some(b);
        b
    }

    /// Drain one window (all events strictly before `horizon`) on every
    /// shard, in shard order on the calling thread. Parallelism lives one
    /// level up — the campaign probes IXPs concurrently, one network per
    /// worker. With a trace sink installed, each shard's window becomes a
    /// slice on its own track.
    fn run_window(&mut self, horizon: SimTime) {
        let tracks = rp_obs::trace::active().then(|| self.trace_track_base());
        let ctx = Ctx {
            nodes: &self.nodes,
            links: &self.links,
            router_key: self.router_key,
            obs_active: self.obs_active,
            xshard_skew: self.xshard_skew,
        };
        for s in &mut self.shards {
            let Some(base) = tracks else {
                s.drain_window(&ctx, horizon);
                continue;
            };
            let t0 = rp_obs::trace::clock_ns();
            let e0 = s.events_processed;
            s.drain_window(&ctx, horizon);
            if s.events_processed > e0 {
                rp_obs::trace::slice(
                    "window",
                    base + s.me,
                    t0,
                    rp_obs::trace::clock_ns(),
                    s.events_processed - e0,
                );
            }
        }
    }

    /// Deliver buffered cross-shard frames into their destination queues
    /// and arenas. Runs between windows — the epoch barrier.
    fn deliver_handoffs(&mut self) {
        if self.shards.len() <= 1 {
            return;
        }
        let t0 = self.obs_active.then(std::time::Instant::now);
        self.barrier_rounds += 1;
        let n = self.shards.len();
        let mut moved = 0u64;
        for src in 0..n {
            for dst in 0..n {
                if src == dst || self.shards[src].outbox[dst].is_empty() {
                    continue;
                }
                let xs = std::mem::take(&mut self.shards[src].outbox[dst]);
                let d = &mut self.shards[dst];
                moved += xs.len() as u64;
                for x in xs {
                    let frame = d.frames.alloc(x.frame);
                    d.queue.push(
                        x.at,
                        x.key,
                        Event::FrameArrival {
                            node: x.node,
                            port: x.port,
                            frame,
                        },
                    );
                }
            }
        }
        if moved > 0 && rp_obs::trace::active() {
            rp_obs::trace::instant("netsim.barrier", moved);
        }
        if let Some(t0) = t0 {
            self.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Push the run's event/drop deltas, queue-depth high-water mark, and
    /// (multi-shard runs) barrier statistics to the process-wide metrics
    /// registry.
    fn flush_obs(&mut self) {
        if !self.obs_active {
            return;
        }
        let events = self.events_processed();
        rp_obs::counter!("netsim.sim.events_processed").add(events - self.obs_flushed_events);
        self.obs_flushed_events = events;
        let drops = self.frames_dropped_unconnected();
        rp_obs::counter!("netsim.sim.frames_dropped_unconnected")
            .add(drops - self.obs_flushed_drops);
        self.obs_flushed_drops = drops;
        rp_obs::gauge!("netsim.link.queue_depth_hwm").record_max(self.queue_depth_hwm());
        let held = self
            .shards
            .iter()
            .map(Shard::retained_bytes)
            .max()
            .unwrap_or(0);
        self.arena_bytes_hwm = self.arena_bytes_hwm.max(held);
        rp_obs::gauge!("netsim.shard.arena_bytes").record_max(self.arena_bytes_hwm);
        if self.shrink_rounds > self.obs_flushed_shrinks {
            rp_obs::counter!("netsim.shard.capacity_evictions")
                .add(self.shrink_rounds - self.obs_flushed_shrinks);
            self.obs_flushed_shrinks = self.shrink_rounds;
        }
        if self.shards.len() > 1 {
            rp_obs::gauge!("netsim.shard.count").record_max(self.shards.len() as u64);
            rp_obs::counter!("netsim.shard.barriers")
                .add(self.barrier_rounds - self.obs_flushed_barriers);
            self.obs_flushed_barriers = self.barrier_rounds;
            let handoffs = self.cross_shard_handoffs();
            rp_obs::counter!("netsim.shard.handoffs").add(handoffs - self.obs_flushed_handoffs);
            self.obs_flushed_handoffs = handoffs;
            rp_obs::gauge!("netsim.shard.events_max").record_max(
                self.shards
                    .iter()
                    .map(|s| s.events_processed)
                    .max()
                    .unwrap_or(0),
            );
            rp_obs::gauge!("netsim.shard.barrier_wait_ns").record_max(self.barrier_wait_ns);
        }
        // Drain the per-shard timelines into the process registry, merged
        // in canonical shard order (the merge is commutative anyway — the
        // order is for reading the code, not for correctness). Scoped
        // port-utilization is re-published per IXP when a scope is set.
        let mut tl = rp_obs::TimelineRecorder::new();
        for s in &mut self.shards {
            s.tl_flush_events();
            tl.merge(&s.timeline);
            s.timeline = rp_obs::TimelineRecorder::new();
        }
        if !tl.is_empty() {
            if let Some(scope) = &self.timeline_scope {
                if let Some(data) = tl.series_data("netsim.access_bytes") {
                    rp_obs::timeline::publish_as(format!("{scope}.port_util_bytes"), data);
                }
            }
            rp_obs::timeline::publish(&tl);
        }
    }

    /// The bounded-lag event loop: repeatedly pick the global minimum
    /// pending time, drain every shard up to `t_min + lookahead`, then
    /// exchange cross-shard frames at the barrier.
    fn drain(&mut self, deadline: Option<SimTime>) {
        self.obs_active = rp_obs::enabled();
        let _sp = rp_obs::span("netsim.run");
        let lookahead = self.lookahead();
        let mut windows = 0u64;
        loop {
            let t_min = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.peek_time())
                .min();
            let Some(t_min) = t_min else { break };
            if deadline.is_some_and(|d| t_min > d) {
                break;
            }
            // Window horizon is exclusive. With cross-shard links the
            // lookahead is positive (enforced above), so the window always
            // contains the t_min event: progress is guaranteed.
            let mut horizon = match lookahead {
                Some(l) => SimTime(t_min.nanos().saturating_add(l.nanos())),
                None => SimTime(u64::MAX),
            };
            if let Some(d) = deadline {
                horizon = horizon.min(SimTime(d.nanos().saturating_add(1)));
            }
            self.run_window(horizon);
            self.deliver_handoffs();
            windows += 1;
            if self.memory_budget.is_some() && windows % BUDGET_CHECK_WINDOWS == 0 {
                self.enforce_budget();
            }
        }
        self.enforce_budget();
        if let Some(d) = deadline {
            for s in &mut self.shards {
                s.now = s.now.max(d);
            }
        }
        self.flush_obs();
    }

    /// Run until the queue drains or the next event lies beyond `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.drain(Some(deadline));
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) {
        self.drain(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::CongestionEpisode;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// The Figure 1 scene: an LG server and a direct member on the IXP
    /// fabric, plus a remote member reaching the fabric through a two-switch
    /// layer-2 pseudowire spanning real distance.
    struct Figure1 {
        net: Network,
        lg: NodeId,
        direct_ip: Ipv4Addr,
        remote_ip: Ipv4Addr,
    }

    fn figure1(seed: u64) -> Figure1 {
        figure1_sharded(seed, 1)
    }

    /// Same scene at any shard count: with more than one shard the remote
    /// provider chain (both provider switches and the remote router) lives
    /// on shard 1, coupled to shard 0 only through the fabric↔prov_ixp
    /// link. The construction sequence is identical at every shard count,
    /// so all observables must be too.
    fn figure1_sharded(seed: u64, shards: usize) -> Figure1 {
        let mut net = Network::with_shards(seed, shards);
        let far = shards.saturating_sub(1).min(1);
        let fabric = net.add_switch();

        // LG server in the IXP subnet.
        let lg = net.add_host();
        let (_, lg_port) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lg_port, ip("10.0.0.1"));

        // Direct member: colo cross-connect, ~0.4 ms one way.
        let direct = net.add_router(RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        });
        let (_, dp) = net.connect(fabric, direct, DelayModel::with_one_way_ms(0.4));
        net.bind_router(direct, dp, ip("10.0.0.10"));

        // Remote member: provider switch at the IXP, long-haul span,
        // provider switch at the member metro, member access link.
        let prov_ixp = net.add_switch_on(far);
        let prov_far = net.add_switch_on(far);
        net.connect(fabric, prov_ixp, DelayModel::with_one_way_ms(0.05));
        net.connect(prov_ixp, prov_far, DelayModel::with_one_way_ms(12.0)); // ~2,400 km
        let remote = net.add_router_on(
            far,
            RouterBehavior {
                initial_ttl: 64,
                ..Default::default()
            },
        );
        let (_, rp) = net.connect(prov_far, remote, DelayModel::with_one_way_ms(0.3));
        net.bind_router(remote, rp, ip("10.0.0.20"));

        Figure1 {
            net,
            lg,
            direct_ip: ip("10.0.0.10"),
            remote_ip: ip("10.0.0.20"),
        }
    }

    fn ping_n(net: &mut Network, lg: NodeId, target: Ipv4Addr, n: u32) {
        for k in 0..n {
            let at = SimTime::ZERO + SimDuration::from_secs(1 + k as u64);
            net.plan_ping(lg, at, target);
        }
    }

    #[test]
    fn direct_member_answers_fast_with_max_ttl() {
        let mut f = figure1(1);
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        f.net.run_to_completion();
        let outs: Vec<_> = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.target == f.direct_ip)
            .collect();
        assert_eq!(outs.len(), 5);
        for o in outs {
            let r = o.reply.expect("direct member replies");
            assert_eq!(r.ttl, 255, "no IP hop on the reply path");
            let ms = r.rtt.as_millis_f64();
            assert!((0.8..3.0).contains(&ms), "direct RTT {ms} ms");
        }
    }

    #[test]
    fn remote_member_keeps_max_ttl_but_shows_distance() {
        let mut f = figure1(2);
        ping_n(&mut f.net, f.lg, f.remote_ip, 5);
        f.net.run_to_completion();
        let min_rtt = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.target == f.remote_ip)
            .filter_map(|o| o.reply)
            .map(|r| {
                assert_eq!(r.ttl, 64, "pseudowire is pure layer 2");
                r.rtt
            })
            .min()
            .expect("remote member replies");
        let ms = min_rtt.as_millis_f64();
        assert!(
            (24.0..30.0).contains(&ms),
            "remote RTT {ms} ms reflects geography"
        );
    }

    /// The shard-equivalence contract in miniature: the same scene split
    /// across two shards (remote chain on shard 1, everything else on
    /// shard 0) must reproduce the single-shard run bit for bit — same
    /// outcomes, same event count, same trace digest.
    #[test]
    fn sharded_run_matches_single_shard_bit_for_bit() {
        let run = |shards: usize| {
            let mut f = figure1_sharded(42, shards);
            ping_n(&mut f.net, f.lg, f.direct_ip, 6);
            ping_n(&mut f.net, f.lg, f.remote_ip, 6);
            f.net.run_to_completion();
            (
                f.net.host(f.lg).outcomes().to_vec(),
                f.net.events_processed(),
                f.net.trace_digest(),
                f.net.cross_shard_handoffs(),
            )
        };
        let (out1, ev1, dig1, ho1) = run(1);
        let (out2, ev2, dig2, ho2) = run(2);
        assert_eq!(out1, out2, "outcomes must not depend on the shard count");
        assert_eq!(ev1, ev2, "event counts must not depend on the shard count");
        assert_eq!(
            dig1, dig2,
            "trace digests must not depend on the shard count"
        );
        assert_eq!(ho1, 0, "one shard can have no handoffs");
        assert!(ho2 > 0, "the remote chain must actually cross shards");
    }

    /// A memory budget is pure peak-RSS policy: the tightest possible cap
    /// must reproduce the uncapped run bit for bit, while actually
    /// releasing retained capacity along the way.
    #[test]
    fn memory_budget_is_invisible_to_results() {
        let run = |budget: Option<u64>| {
            let mut f = figure1_sharded(42, 2);
            if let Some(b) = budget {
                f.net.set_memory_budget(b);
            }
            ping_n(&mut f.net, f.lg, f.direct_ip, 8);
            ping_n(&mut f.net, f.lg, f.remote_ip, 8);
            f.net.run_to_completion();
            (
                f.net.host(f.lg).outcomes().to_vec(),
                f.net.events_processed(),
                f.net.trace_digest(),
                f.net.bytes_reclaimed(),
            )
        };
        let (out_free, ev_free, dig_free, rec_free) = run(None);
        // A 1-byte budget forces a shrink at every check: the harshest cap.
        let (out_cap, ev_cap, dig_cap, rec_cap) = run(Some(1));
        assert_eq!(out_free, out_cap, "budget must not change outcomes");
        assert_eq!(ev_free, ev_cap, "budget must not change the event count");
        assert_eq!(dig_free, dig_cap, "budget must not change the trace");
        assert_eq!(rec_free, 0, "no budget, no evictions");
        assert!(rec_cap > 0, "an over-budget run must release capacity");
    }

    /// Budget enforcement releases only idle capacity: after a capped run
    /// the retained bytes are below the uncapped run's, and the network
    /// still works (a follow-up ping regrows what it needs).
    #[test]
    fn memory_budget_bounds_retained_capacity() {
        let mut f = figure1(43);
        ping_n(&mut f.net, f.lg, f.direct_ip, 8);
        f.net.run_to_completion();
        let uncapped = f.net.retained_bytes();

        let mut g = figure1(43);
        g.net.set_memory_budget(1);
        ping_n(&mut g.net, g.lg, g.direct_ip, 8);
        g.net.run_to_completion();
        assert!(
            g.net.retained_bytes() < uncapped,
            "capped {} must hold less than uncapped {}",
            g.net.retained_bytes(),
            uncapped
        );
        assert!(g.net.capacity_evictions() > 0);
        // The shrunk network keeps working: capacity regrows on demand.
        let before = g.net.host(g.lg).outcomes().len();
        g.net.plan_ping(g.lg, SimTime(1 << 40), g.direct_ip);
        g.net.run_to_completion();
        assert_eq!(g.net.host(g.lg).outcomes().len(), before + 1);
    }

    /// The broken-oracle hook: skewing cross-shard deliveries must change
    /// observables, proving the equivalence assertions above have teeth.
    #[test]
    fn cross_shard_skew_breaks_equivalence() {
        let run = |skew_us: u64| {
            let mut f = figure1_sharded(42, 2);
            f.net
                .debug_skew_cross_shard(SimDuration::from_micros(skew_us));
            ping_n(&mut f.net, f.lg, f.remote_ip, 6);
            f.net.run_to_completion();
            (f.net.host(f.lg).outcomes().to_vec(), f.net.trace_digest())
        };
        let (out_clean, dig_clean) = run(0);
        let (out_skewed, dig_skewed) = run(500);
        assert_ne!(dig_clean, dig_skewed, "skew must perturb the trace");
        assert_ne!(out_clean, out_skewed, "skew must perturb RTTs");
    }

    /// A zero-delay link may not cross shards: the scheduler needs positive
    /// lookahead, and collapsing windows silently would be worse.
    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_delay_cross_shard_link_panics() {
        let mut net = Network::with_shards(7, 2);
        let a = net.add_switch_on(0);
        let b = net.add_switch_on(1);
        net.connect(a, b, DelayModel::ideal(SimDuration::ZERO));
        let lg = net.add_host_on(0);
        let (_, lgp) = net.connect(a, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        net.plan_ping(
            lg,
            SimTime::ZERO + SimDuration::from_secs(1),
            ip("10.0.0.2"),
        );
        net.run_to_completion();
    }

    #[test]
    fn extra_ip_hop_decrements_reply_ttl() {
        // Registry-stale scenario: the probed address actually lives on an
        // inner router one IP hop behind the fabric-facing front router.
        let mut net = Network::new(3);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lgp, ip("10.0.0.1"));

        let target = ip("10.0.0.30");
        let front = net.add_router(RouterBehavior::default());
        let (_, f_fab) = net.connect(fabric, front, DelayModel::with_one_way_ms(0.3));
        net.bind_router(front, f_fab, ip("10.0.0.31"));
        let inner = net.add_router(RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        });
        let (f_in, i_port) = net.connect(front, inner, DelayModel::with_one_way_ms(1.0));
        net.bind_router(front, f_in, ip("192.168.0.1"));
        net.bind_router(inner, i_port, target);

        let front_r = net.router_mut(front);
        front_r.add_proxy_arp(f_fab, target);
        front_r.add_route(target, f_in);
        front_r.set_default_route(f_fab);
        net.router_mut(inner).set_default_route(i_port);
        net.router_mut(inner).set_proxy_arp_all(i_port);
        // The inner router routes replies back via the front router; the
        // front router proxy-answers ARP on the inner segment.
        net.router_mut(front).set_proxy_arp_all(f_in);

        for k in 0..6 {
            net.plan_ping(lg, SimTime::ZERO + SimDuration::from_secs(k), target);
        }
        net.run_to_completion();
        let replies: Vec<_> = net
            .host(lg)
            .outcomes()
            .iter()
            .filter_map(|o| o.reply)
            .collect();
        assert!(!replies.is_empty(), "gadget must answer");
        for r in replies {
            assert_eq!(r.ttl, 254, "one forwarding hop eats one TTL");
        }
    }

    #[test]
    fn congestion_episode_inflates_rtt_but_min_recovers() {
        let mut net = Network::new(4);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::with_one_way_ms(0.05));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        let member = net.add_router(RouterBehavior {
            initial_ttl: 255,
            ..Default::default()
        });
        let episode = CongestionEpisode {
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_secs(100),
            extra_mean_ms: 40.0,
        };
        let (_, mp) = net.connect(
            fabric,
            member,
            DelayModel::with_one_way_ms(0.4).with_episode(episode),
        );
        net.bind_router(member, mp, ip("10.0.0.10"));

        // Probes both during and after the congestion window.
        for k in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(10 + k),
                ip("10.0.0.10"),
            );
        }
        for k in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(200 + k),
                ip("10.0.0.10"),
            );
        }
        net.run_to_completion();
        let rtts: Vec<f64> = net
            .host(lg)
            .outcomes()
            .iter()
            .filter_map(|o| o.reply)
            .map(|r| r.rtt.as_millis_f64())
            .collect();
        assert_eq!(rtts.len(), 10);
        let during_max = rtts[..5].iter().cloned().fold(0.0, f64::max);
        let after_min = rtts[5..].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(during_max > 5.0, "congestion visible: max {during_max} ms");
        assert!(after_min < 3.0, "min-RTT recovers: {after_min} ms");
    }

    #[test]
    fn finite_bandwidth_serializes_back_to_back_frames() {
        // A 1 Mbps member access link: a 98-byte ping takes 784 µs on the
        // wire, so five pings fired simultaneously drain as a FIFO and the
        // k-th reply is delayed by ~k·784 µs of queueing on the request
        // direction.
        let mut net = Network::new(11);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::ideal(SimDuration::from_micros(5)));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        let member = net.add_router(RouterBehavior {
            initial_ttl: 255,
            proc_delay_us: (10, 10),
            ..Default::default()
        });
        let (_, mp) = net.connect(
            fabric,
            member,
            DelayModel::ideal(SimDuration::from_micros(50)).with_bandwidth_mbps(1.0),
        );
        net.bind_router(member, mp, ip("10.0.0.10"));
        // Resolve ARP first so the burst is pure echo traffic.
        net.plan_ping(
            lg,
            SimTime::ZERO + SimDuration::from_secs(1),
            ip("10.0.0.10"),
        );
        for _ in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(2),
                ip("10.0.0.10"),
            );
        }
        net.run_to_completion();
        let rtts: Vec<f64> = net
            .host(lg)
            .outcomes()
            .iter()
            .skip(1)
            .filter_map(|o| o.reply)
            .map(|r| r.rtt.as_millis_f64())
            .collect();
        assert_eq!(rtts.len(), 5);
        // Strictly increasing queueing delay across the burst...
        for w in rtts.windows(2) {
            assert!(
                w[1] > w[0] + 0.5,
                "queueing must separate replies: {rtts:?}"
            );
        }
        // ... by roughly one serialization time (0.784 ms) per position.
        let spread = rtts[4] - rtts[0];
        assert!(
            (2.5..5.0).contains(&spread),
            "spread {spread} ms over the burst"
        );
    }

    #[test]
    fn unconstrained_links_do_not_queue() {
        let mut net = Network::new(12);
        let fabric = net.add_switch();
        let lg = net.add_host();
        let (_, lgp) = net.connect(fabric, lg, DelayModel::ideal(SimDuration::from_micros(5)));
        net.bind_host(lg, lgp, ip("10.0.0.1"));
        let member = net.add_router(RouterBehavior {
            initial_ttl: 255,
            proc_delay_us: (10, 10),
            ..Default::default()
        });
        let (_, mp) = net.connect(
            fabric,
            member,
            DelayModel::ideal(SimDuration::from_micros(50)),
        );
        net.bind_router(member, mp, ip("10.0.0.10"));
        net.plan_ping(
            lg,
            SimTime::ZERO + SimDuration::from_secs(1),
            ip("10.0.0.10"),
        );
        for _ in 0..5 {
            net.plan_ping(
                lg,
                SimTime::ZERO + SimDuration::from_secs(2),
                ip("10.0.0.10"),
            );
        }
        net.run_to_completion();
        let rtts: Vec<f64> = net
            .host(lg)
            .outcomes()
            .iter()
            .skip(1)
            .filter_map(|o| o.reply)
            .map(|r| r.rtt.as_millis_f64())
            .collect();
        let spread = rtts.iter().cloned().fold(0.0, f64::max)
            - rtts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 0.01,
            "no queueing without a capacity: spread {spread} ms"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_outcomes() {
        let run = |seed| {
            let mut f = figure1(seed);
            ping_n(&mut f.net, f.lg, f.direct_ip, 8);
            ping_n(&mut f.net, f.lg, f.remote_ip, 8);
            f.net.run_to_completion();
            f.net.host(f.lg).outcomes().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fault_injection_replays_exactly_and_degrades_the_run() {
        use crate::fault::{FaultConfig, FaultInjector};
        let run = |fault_seed: u64, shards: usize| {
            let mut f = figure1_sharded(21, shards);
            f.net.install_faults(FaultInjector::new(FaultConfig {
                probe_loss: 0.3,
                reply_duplication: 0.2,
                jitter_spike: 0.2,
                jitter_spike_ms: 30.0,
                ttl_rewrite: 0.1,
                ttl_rewrite_to: 7,
                ..FaultConfig::quiet(fault_seed)
            }));
            ping_n(&mut f.net, f.lg, f.direct_ip, 30);
            f.net.run_to_completion();
            let outcomes = f.net.host(f.lg).outcomes().to_vec();
            (outcomes, f.net.fault_counts(), f.net.fault_log())
        };
        let (a_out, a_counts, a_log) = run(7, 1);
        let (b_out, b_counts, b_log) = run(7, 1);
        assert_eq!(a_out, b_out, "same fault seed must replay bit for bit");
        assert_eq!(a_counts, b_counts);
        assert_eq!(a_log, b_log);
        assert!(a_counts.total() > 0, "faults must actually fire");
        assert!(a_counts.probe_drops > 0, "{a_counts:?}");
        let lost = a_out.iter().filter(|o| o.reply.is_none()).count();
        assert!(lost > 0, "probe loss must cost replies");

        // Fault decisions key on (link, dir), so the shard layout cannot
        // change what fires — counts and merged log included.
        let (s_out, s_counts, s_log) = run(7, 2);
        assert_eq!(a_out, s_out, "fault outcomes must survive sharding");
        assert_eq!(a_counts, s_counts);
        assert_eq!(a_log, s_log);

        let (c_out, c_counts, _) = run(8, 1);
        assert!(
            a_out != c_out || a_counts != c_counts,
            "different fault seeds must differ somewhere"
        );
    }

    #[test]
    fn quiet_faults_change_nothing() {
        use crate::fault::{FaultConfig, FaultInjector};
        let run = |faulted: bool| {
            let mut f = figure1(22);
            if faulted {
                f.net
                    .install_faults(FaultInjector::new(FaultConfig::quiet(99)));
            }
            ping_n(&mut f.net, f.lg, f.remote_ip, 10);
            f.net.run_to_completion();
            f.net.host(f.lg).outcomes().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn ttl_rewrite_shows_up_in_replies() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut f = figure1(23);
        f.net.install_faults(FaultInjector::new(FaultConfig {
            ttl_rewrite: 1.0,
            ttl_rewrite_to: 9,
            ..FaultConfig::quiet(5)
        }));
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        f.net.run_to_completion();
        for o in f.net.host(f.lg).outcomes() {
            if let Some(r) = o.reply {
                assert_eq!(r.ttl, 9, "every reply TTL is rewritten in flight");
            }
        }
    }

    #[test]
    fn flap_window_silences_flapping_links() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut f = figure1(24);
        let window = (SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1_000));
        f.net.install_faults(FaultInjector::new(FaultConfig {
            link_flap: 1.0, // every link flaps...
            flap_window: Some(window),
            ..FaultConfig::quiet(6)
        }));
        ping_n(&mut f.net, f.lg, f.direct_ip, 5);
        f.net.run_to_completion();
        let answered = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.reply.is_some())
            .count();
        assert_eq!(answered, 0, "nothing crosses a flapping link");
        assert!(f.net.fault_counts().flap_drops > 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut f = figure1(5);
        ping_n(&mut f.net, f.lg, f.direct_ip, 5); // at t = 1..5 s
        f.net
            .run_until(SimTime::ZERO + SimDuration::from_millis(1_500));
        let answered = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.reply.is_some())
            .count();
        assert_eq!(answered, 1, "only the first probe fits before the deadline");
        f.net.run_to_completion();
        let answered = f
            .net
            .host(f.lg)
            .outcomes()
            .iter()
            .filter(|o| o.reply.is_some())
            .count();
        assert_eq!(answered, 5);
    }

    /// Deadlines compose with sharding: pausing at a deadline and resuming
    /// must land exactly where an uninterrupted run does.
    #[test]
    fn sharded_run_until_resumes_exactly() {
        let mut f = figure1_sharded(5, 2);
        ping_n(&mut f.net, f.lg, f.remote_ip, 5);
        f.net
            .run_until(SimTime::ZERO + SimDuration::from_millis(2_500));
        f.net.run_to_completion();
        let mut g = figure1_sharded(5, 2);
        ping_n(&mut g.net, g.lg, g.remote_ip, 5);
        g.net.run_to_completion();
        assert_eq!(
            f.net.host(f.lg).outcomes(),
            g.net.host(g.lg).outcomes(),
            "pause/resume must not perturb the run"
        );
        assert_eq!(f.net.trace_digest(), g.net.trace_digest());
    }
}
