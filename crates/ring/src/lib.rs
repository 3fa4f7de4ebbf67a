//! A Cambridge Ring network simulator.
//!
//! Pilgrim's nodes communicate over the Cambridge Ring (paper §2, §5.2).
//! The properties of that network that the paper's analysis depends on are
//! modelled directly:
//!
//! * **Basic blocks** take about **3.5 ms** to reach their destination —
//!   the smallest generally available protocol unit (§5.2).
//! * **No data-link broadcast**: halting N nodes requires N serial
//!   transmissions, each occupying the sender's transmitter (§5.2).
//! * **Hardware negative acknowledgement**: "the transmitting hardware is
//!   informed if the packet just sent was not received by the destination
//!   network interface" (§5.2). Senders therefore *know* about
//!   interface-level loss and can retransmit; this is what makes the halt
//!   broadcast reliable.
//! * Packets can still be lost *silently* above the interface (buffer
//!   overruns and the like) — this is how `maybe`-protocol RPCs lose call
//!   or reply packets (§4.1).
//!
//! An Ethernet-style [`Medium::Ethernet`] variant provides the broadcast
//! facility the paper contrasts against ("something approaching this can be
//! achieved on a single broadcast network such as Ethernet"), including its
//! lack of reliable broadcast: a broadcast can be lost per-receiver with no
//! indication to the sender.
//!
//! # Examples
//!
//! ```
//! use pilgrim_ring::{Network, NetworkConfig, NodeId, TxStatus};
//! use pilgrim_sim::SimTime;
//!
//! let mut net: Network<&str> = Network::new(NetworkConfig::default(), 3);
//! let status = net.send(SimTime::ZERO, NodeId(0), NodeId(2), "hello", 32);
//! assert!(matches!(status, TxStatus::Queued { .. }));
//! let (deliveries, _) = net.poll(SimTime::from_millis(10));
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].dst, NodeId(2));
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use pilgrim_sim::json::Fields;
use pilgrim_sim::{
    Counter, DetRng, EventKind, EventQueue, Gauge, Json, Metrics, SimDuration, SimTime, SpanId,
    TraceCategory, Tracer,
};

mod topology;

pub use topology::{link_key, LinkModel, PartitionWindow, Topology};

/// Identifies a node (a station) on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Which physical network is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Medium {
    /// The Cambridge Ring: serial unicasts, hardware NACK, no broadcast.
    #[default]
    CambridgeRing,
    /// An Ethernet-like broadcast network: true broadcast, but no
    /// negative acknowledgement — loss is silent.
    Ethernet,
}

/// Tuning knobs for the network model.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Fixed per-packet latency. Default 3.308 ms, so that a small
    /// (32-byte) basic block arrives in the paper's 3.5 ms.
    pub base_latency: SimDuration,
    /// Additional latency per payload byte. Default 6 µs.
    pub per_byte: SimDuration,
    /// Probability the destination interface refuses a packet (reported to
    /// the sender as a NACK on the ring; silent on Ethernet).
    pub p_interface_loss: f64,
    /// Probability a packet is lost *after* the interface accepted it
    /// (never reported to the sender).
    pub p_silent_loss: f64,
    /// Physical medium.
    pub medium: Medium,
    /// Seed for the loss model.
    pub seed: u64,
    /// How the station space is carved into bridged segments.
    pub topology: Topology,
    /// Behaviour of every bridge link (latency, jitter, bandwidth, loss).
    pub link: LinkModel,
    /// Scheduled partitions of bridge links, applied as a pure function
    /// of simulated time — recipe-captured, so they replay for free.
    pub partitions: Vec<PartitionWindow>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            base_latency: SimDuration::from_micros(3_308),
            per_byte: SimDuration::from_micros(6),
            p_interface_loss: 0.0,
            p_silent_loss: 0.0,
            medium: Medium::CambridgeRing,
            seed: 0,
            topology: Topology::Flat,
            link: LinkModel::default(),
            partitions: Vec::new(),
        }
    }
}

impl Medium {
    /// Stable wire name, used by the replay recipe format.
    pub fn name(self) -> &'static str {
        match self {
            Medium::CambridgeRing => "cambridge-ring",
            Medium::Ethernet => "ethernet",
        }
    }

    /// The inverse of [`name`](Medium::name).
    pub fn parse(name: &str) -> Option<Medium> {
        match name {
            "cambridge-ring" => Some(Medium::CambridgeRing),
            "ethernet" => Some(Medium::Ethernet),
            _ => None,
        }
    }
}

impl NetworkConfig {
    /// Transmission latency for a payload of `bytes`.
    pub fn latency(&self, bytes: usize) -> SimDuration {
        self.base_latency + self.per_byte * bytes as u64
    }

    /// The config as a JSON object for the replay recipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "base_latency_us",
                Json::Int(self.base_latency.as_micros() as i128),
            ),
            ("per_byte_us", Json::Int(self.per_byte.as_micros() as i128)),
            ("p_interface_loss", Json::Float(self.p_interface_loss)),
            ("p_silent_loss", Json::Float(self.p_silent_loss)),
            ("medium", Json::Str(self.medium.name().to_string())),
            ("seed", Json::Int(self.seed as i128)),
            ("topology", self.topology.to_json()),
            ("link", self.link.to_json()),
            (
                "partitions",
                Json::Array(
                    self.partitions
                        .iter()
                        .map(PartitionWindow::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a config from [`to_json`](NetworkConfig::to_json) output.
    ///
    /// # Errors
    ///
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<NetworkConfig, String> {
        let f = Fields::new(v, &"network config");
        let config = NetworkConfig {
            base_latency: SimDuration::from_micros(f.uint("base_latency_us")?),
            per_byte: SimDuration::from_micros(f.uint("per_byte_us")?),
            p_interface_loss: f.float("p_interface_loss")?,
            p_silent_loss: f.float("p_silent_loss")?,
            medium: Medium::parse(f.str("medium")?).ok_or_else(|| f.out_of_range("medium"))?,
            seed: f.uint("seed")?,
            topology: Topology::from_json(f.object("topology")?)?,
            link: LinkModel::from_json(f.object("link")?)?,
            partitions: f.list("partitions", PartitionWindow::from_json)?,
        };
        f.finish()?;
        Ok(config)
    }
}

/// Result of handing a packet to the transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// Accepted by the destination interface; will be delivered (unless it
    /// is lost silently) at the given time.
    Queued {
        /// Expected arrival time.
        deliver_at: SimTime,
    },
    /// The destination network interface did not receive the packet — the
    /// Cambridge Ring hardware reports this to the sender (§5.2), who may
    /// retransmit.
    Nack,
}

/// A packet delivered by [`Network::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Arrival time.
    pub at: SimTime,
    /// Causal span the packet belongs to, if any — carried unchanged from
    /// sender to receiver, the wire leg of cross-node trace propagation.
    pub span: Option<SpanId>,
    /// Wire size the packet was sent with, bytes.
    pub bytes: u32,
    /// The payload.
    pub payload: P,
}

/// Counters describing everything the network has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to the transmitter.
    pub sent: u64,
    /// Packets delivered to a destination.
    pub delivered: u64,
    /// Interface-level refusals reported to senders.
    pub nacked: u64,
    /// Packets lost silently in transit.
    pub silently_lost: u64,
    /// The subset of `silently_lost` dropped crossing a bridge link — a
    /// partition cut or a per-hop loss draw.
    pub bridge_lost: u64,
    /// Total payload bytes handed to the transmitter.
    pub bytes_sent: u64,
}

/// One outcome for the network's ledger ([`Network::record`]), one per
/// [`NetStats`] counter; `Sent` carries the bytes handed over.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Sent(u64),
    Nacked,
    Lost,
    BridgeLost,
    Delivered,
}

/// Per-bridge-link telemetry handles. `busy_us` accumulates serialization
/// time (utilization = its window delta over the window length),
/// `queue_us` accumulates time packets waited behind the link's `free_at`,
/// `backlog_us` is the instantaneous serialization backlog a packet saw
/// when it reached the link, and `lost` splits the aggregate
/// `net.bridge_lost` per link.
#[derive(Debug, Clone)]
struct LinkMeters {
    bytes: Counter,
    busy_us: Counter,
    queue_us: Counter,
    lost: Counter,
    backlog_us: Gauge,
}

/// Per-segment traffic handles: sends/bytes attributed to the source
/// station's segment, deliveries to the destination's. `tx_busy_us`
/// accumulates local-leg transmitter occupancy (the ring's ~3.5 ms per
/// small packet), so a segment's windowed delta over (window × stations)
/// is the station-utilization series that makes the ~285 pkts/s
/// capacity cliff readable from a run report.
#[derive(Debug, Clone)]
struct SegMeters {
    sent: Counter,
    delivered: Counter,
    bytes: Counter,
    tx_busy_us: Counter,
}

/// Metrics handles the network bumps directly; registered once by
/// [`Network::attach_metrics`] so the hot path never does a name lookup.
/// Each link's handles live in its [`Link`] entry.
#[derive(Debug, Clone)]
struct NetMeters {
    sent: Counter,
    delivered: Counter,
    nacked: Counter,
    silently_lost: Counter,
    bridge_lost: Counter,
    bytes_sent: Counter,
    /// One meter set per segment; empty on flat topologies.
    segs: Vec<SegMeters>,
}

impl NetMeters {
    /// Registers the six aggregates, then every link's meters in table
    /// order, then every segment's — the order tsdb columns, summaries
    /// and blackbox dumps follow. A flat topology has no links and
    /// registers no segment meters, so a single-segment world registers
    /// the six aggregates alone.
    fn new(metrics: &Metrics, links: &mut [Link], segs: u32) -> NetMeters {
        let mut meters = NetMeters {
            sent: metrics.counter("net.sent"),
            delivered: metrics.counter("net.delivered"),
            nacked: metrics.counter("net.nacked"),
            silently_lost: metrics.counter("net.silently_lost"),
            bridge_lost: metrics.counter("net.bridge_lost"),
            bytes_sent: metrics.counter("net.bytes_sent"),
            segs: Vec::new(),
        };
        for link in links {
            let (a, b) = link.key;
            let name = |field: &str| format!("net.link{a}-{b}.{field}");
            link.meters = Some(LinkMeters {
                bytes: metrics.counter(&name("bytes")),
                busy_us: metrics.counter(&name("busy_us")),
                queue_us: metrics.counter(&name("queue_us")),
                lost: metrics.counter(&name("lost")),
                backlog_us: metrics.gauge(&name("backlog_us")),
            });
        }
        if segs > 1 {
            meters.segs = (0..segs)
                .map(|s| SegMeters {
                    sent: metrics.counter(&format!("net.seg{s}.sent")),
                    delivered: metrics.counter(&format!("net.seg{s}.delivered")),
                    bytes: metrics.counter(&format!("net.seg{s}.bytes")),
                    tx_busy_us: metrics.counter(&format!("net.seg{s}.tx_busy_us")),
                })
                .collect();
        }
        meters
    }
}

/// One bridge link: everything the network keeps about it. The table
/// holds one per [`Topology::all_links`] entry, in that order.
#[derive(Debug, Default)]
struct Link {
    /// The normalized `(lo, hi)` segment pair.
    key: (u32, u32),
    /// Store-and-forward serialization: when the link frees up.
    free_at: SimTime,
    /// Forced down by the driver ([`Network::set_link_up`]), on top of
    /// the scheduled partition windows.
    forced_down: bool,
    meters: Option<LinkMeters>,
}

/// Which transmitter a packet uses. Basic-block data and tiny
/// control/debug messages are assembled at different protocol levels on
/// the ring, so a control message never queues behind a data transfer
/// already in progress (the paper's 3.5 ms-per-halt-message arithmetic
/// presumes this); messages of the *same* class still serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxClass {
    /// Ordinary basic-block data (RPC packets).
    Data = 0,
    /// Small control messages (debugger–agent traffic, halt broadcast).
    Control = 1,
}

#[derive(Debug, Clone, Copy)]
struct Station {
    up: bool,
    /// When each [`TxClass`]'s transmitter frees up, indexed by class.
    tx_free_at: [SimTime; 2],
}

/// The simulated network, generic over the payload type carried in packets.
#[derive(Debug)]
pub struct Network<P> {
    config: NetworkConfig,
    stations: Vec<Station>,
    queue: EventQueue<Delivery<P>>,
    rng: DetRng,
    forced_drops: HashMap<(NodeId, NodeId), u32>,
    /// The world total. Stored rather than folded over `per_station`
    /// because [`poll`](Network::poll) returns it on every call.
    stats: NetStats,
    /// Per-station counters: sends/NACKs/losses attributed to the source
    /// station, deliveries to the destination. Indexed by `NodeId`.
    /// Segment totals are folds over these.
    per_station: Vec<NetStats>,
    /// Segment of each station, from the topology's contiguous blocks.
    seg_of: Vec<u32>,
    /// Segment count (1 = flat: no packet crosses a bridge).
    segs: u32,
    /// Every bridge link, in [`Topology::all_links`] order.
    links: Vec<Link>,
    tracer: Option<Tracer>,
    meters: Option<NetMeters>,
}

impl<P> Network<P> {
    /// Creates a network with `nodes` stations, all up.
    pub fn new(config: NetworkConfig, nodes: u32) -> Network<P> {
        let rng = DetRng::seed(config.seed ^ 0x5049_4c47); // "PILG"
        let segs = config.topology.segments();
        let seg_of: Vec<u32> = (0..nodes)
            .map(|i| config.topology.segment_of(i, nodes))
            .collect();
        let links: Vec<Link> = config
            .topology
            .all_links()
            .into_iter()
            .map(|key| Link {
                key,
                ..Link::default()
            })
            .collect();
        Network {
            config,
            stations: vec![
                Station {
                    up: true,
                    tx_free_at: [SimTime::ZERO; 2]
                };
                nodes as usize
            ],
            queue: EventQueue::new(),
            rng,
            forced_drops: HashMap::new(),
            stats: NetStats::default(),
            per_station: vec![NetStats::default(); nodes as usize],
            seg_of,
            segs,
            links,
            tracer: None,
            meters: None,
        }
    }

    /// Forces the bridge link between segments `a` and `b` down (or back
    /// up). Scheduled partition windows still apply on top. A pair that
    /// is no bridge of the topology is accepted and changes nothing, so a
    /// recording that journals one still replays.
    pub fn set_link_up(&mut self, a: u32, b: u32, up: bool) {
        if let Some(slot) = self.config.topology.link_slot(a, b) {
            self.links[slot].forced_down = !up;
        }
    }

    /// Walks the bridge hops from `src`'s segment to `dst`'s (none when
    /// they share one), asking the topology for each next hop, starting
    /// the first hop at `depart`. Returns the far-side arrival time, or
    /// `None` when a partition cut (scheduled, or forced by the driver)
    /// or a per-hop loss draw ate the packet — a loss counted against the
    /// link and, as a bridge loss, against `src`. Draw order per hop is
    /// fixed (loss, then jitter) and later hops are skipped after a loss,
    /// so the RNG stream is a pure function of the config and the send
    /// sequence.
    fn bridge_leg(
        &mut self,
        src: NodeId,
        dst: NodeId,
        depart: SimTime,
        bytes: usize,
    ) -> Option<SimTime> {
        let mut t = depart;
        let (mut at, dseg) = (self.seg_of[src.0 as usize], self.seg_of[dst.0 as usize]);
        while let Some((next, hop)) = self.config.topology.next_hop(at, dseg) {
            at = next;
            let link = &self.links[hop];
            let cut =
                link.forced_down || self.config.partitions.iter().any(|w| w.cuts(link.key, t));
            if cut || self.rng.chance(self.config.link.p_loss) {
                if let Some(lm) = &link.meters {
                    lm.lost.inc();
                }
                self.record(src, Outcome::BridgeLost);
                return None;
            }
            let occupy = self.config.link.per_byte * bytes as u64;
            let jitter = self.config.link.jitter.as_micros();
            // Saturating: a configured jitter of `u64::MAX` µs draws from
            // `[0, u64::MAX)` instead of overflowing into `below(0)`.
            let jitter = SimDuration::from_micros(self.rng.below(jitter.saturating_add(1)));
            let link = &mut self.links[hop];
            let start = t.max(link.free_at);
            link.free_at = start + occupy;
            if let Some(lm) = &link.meters {
                lm.bytes.add(bytes as u64);
                lm.busy_us.add(occupy.as_micros());
                lm.queue_us.add((start - t).as_micros());
                // Serialization backlog this packet saw, including itself.
                lm.backlog_us.set((link.free_at - t).as_micros() as i64);
            }
            t = start + occupy + self.config.link.latency + jitter;
        }
        Some(t)
    }

    /// Attaches a tracer; packet send/NACK/loss/delivery become typed
    /// `net`-category events (span-stamped when the sender supplied one).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Registers this network's counters in `metrics` and starts bumping
    /// them (`net.sent`, `net.delivered`, `net.nacked`,
    /// `net.silently_lost`, `net.bridge_lost`, `net.bytes_sent`). Bridged
    /// topologies also register, per link in
    /// [`bridge_links`](Network::bridge_links) order, the counters
    /// `net.link{a}-{b}.bytes` / `.busy_us` / `.queue_us` / `.lost` and
    /// the gauge `net.link{a}-{b}.backlog_us`, then per segment
    /// `net.seg{s}.sent` / `.delivered` / `.bytes` / `.tx_busy_us`; flat
    /// worlds register nothing extra, so their reports stay
    /// byte-identical.
    pub fn attach_metrics(&mut self, metrics: &Metrics) {
        self.meters = Some(NetMeters::new(metrics, &mut self.links, self.segs));
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of stations.
    pub fn nodes(&self) -> u32 {
        self.stations.len() as u32
    }

    /// Activity counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// One station's counters: sends, NACKs, and silent losses are
    /// attributed to the *source* station, deliveries to the
    /// *destination*.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a station on this network.
    pub fn station_stats(&self, node: NodeId) -> NetStats {
        self.per_station[node.0 as usize]
    }

    /// Number of segments (1 for flat topologies).
    pub fn segments(&self) -> u32 {
        self.segs
    }

    /// One segment's counters, same attribution rules as
    /// [`station_stats`](Network::station_stats): the sum of the entries
    /// in its block of stations.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is not a segment of this topology.
    pub fn segment_stats(&self, seg: u32) -> NetStats {
        assert!(seg < self.segs, "no segment {seg} of {}", self.segs);
        let block = self.config.topology.stations_of(seg, self.nodes());
        self.per_station[block.start as usize..block.end as usize]
            .iter()
            .fold(NetStats::default(), |t, s| NetStats {
                sent: t.sent + s.sent,
                delivered: t.delivered + s.delivered,
                nacked: t.nacked + s.nacked,
                silently_lost: t.silently_lost + s.silently_lost,
                bridge_lost: t.bridge_lost + s.bridge_lost,
                bytes_sent: t.bytes_sent + s.bytes_sent,
            })
    }

    /// Every bridge link of the topology, in telemetry registration
    /// order. Empty for flat topologies.
    pub fn bridge_links(&self) -> Vec<(u32, u32)> {
        self.links.iter().map(|l| l.key).collect()
    }

    /// How many stations live in one segment — the denominator that
    /// turns a segment's `tx_busy_us` window delta into per-station
    /// utilization.
    pub fn stations_in(&self, seg: u32) -> u32 {
        self.config.topology.stations_of(seg, self.nodes()).len() as u32
    }

    /// Marks a node's interface up or down (a crashed node refuses
    /// packets, which senders on the ring observe as NACKs).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a station on this network.
    pub fn set_up(&mut self, node: NodeId, up: bool) {
        self.stations[node.0 as usize].up = up;
    }

    /// Is the node's interface up?
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a station on this network.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.stations[node.0 as usize].up
    }

    /// Forces the next `count` packets from `src` to `dst` to be lost
    /// silently (after interface acceptance). Deterministic fault
    /// injection for the lost-call / lost-reply experiments (§4.1).
    /// Any pair and any count are accepted — a recording may journal
    /// either — and counts on one pair add up, saturating at `u32::MAX`.
    pub fn drop_next(&mut self, src: NodeId, dst: NodeId, count: u32) {
        let pending = self.forced_drops.entry((src, dst)).or_insert(0);
        *pending = pending.saturating_add(count);
    }

    fn take_forced_drop(&mut self, src: NodeId, dst: NodeId) -> bool {
        match self.forced_drops.get_mut(&(src, dst)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Transmits one packet from `src` to `dst`.
    ///
    /// The transmitter is serial: if it is still busy with a previous
    /// packet, this one starts when it frees up (§5.2's "a number of
    /// messages must be sent serially"). On the ring an interface-level
    /// refusal is reported synchronously as [`TxStatus::Nack`]; on
    /// Ethernet the same loss is silent and the status still reads
    /// `Queued`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a station on this network.
    pub fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: P,
        bytes: usize,
    ) -> TxStatus {
        self.send_spanned(now, src, dst, payload, bytes, TxClass::Data, None)
    }

    /// One packet-level trace event; the `wants` check happened already.
    #[cold]
    fn trace_packet(&self, time: SimTime, node: u32, span: Option<SpanId>, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.emit(time, TraceCategory::Net, Some(node), span, kind);
        }
    }

    fn wants_net(&self) -> bool {
        self.tracer
            .as_ref()
            .is_some_and(|t| t.wants(TraceCategory::Net))
    }

    /// [`Network::send`] on a chosen transmitter class, carrying a causal
    /// span: the span rides the packet to the receiver (via
    /// [`Delivery::span`]) and stamps every packet-level trace event, so
    /// one RPC call's wire activity — across nodes, including
    /// retransmissions — shares one span.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a station on this network.
    #[allow(clippy::too_many_arguments)]
    pub fn send_spanned(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: P,
        bytes: usize,
        class: TxClass,
        span: Option<SpanId>,
    ) -> TxStatus {
        match self.transmit(now, src, dst, payload, bytes, class, span) {
            Ok(status) => status,
            Err(_) => TxStatus::Nack,
        }
    }

    /// One transmission attempt. A ring NACK is the only outcome in which
    /// the packet never left the sender, so it is the only one that hands
    /// the payload back (`Err`) — a retransmitting caller moves it into the
    /// next attempt instead of keeping a copy per attempt.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: P,
        bytes: usize,
        class: TxClass,
        span: Option<SpanId>,
    ) -> Result<TxStatus, P> {
        assert!((src.0 as usize) < self.stations.len(), "unknown src {src}");
        assert!((dst.0 as usize) < self.stations.len(), "unknown dst {dst}");
        let arrive = self.occupy_transmitter(now, src, bytes, class);
        let traced = self.wants_net();
        if traced {
            self.trace_packet(
                now,
                src.0,
                span,
                EventKind::PacketSent {
                    src: src.0,
                    dst: dst.0,
                    bytes: bytes as u32,
                },
            );
        }
        let Some(at) = self.bridge_leg(src, dst, arrive, bytes) else {
            self.lose_silently(now, src, dst, bytes as u32, span, traced);
            return Ok(TxStatus::Queued { deliver_at: arrive });
        };
        let refused =
            !self.stations[dst.0 as usize].up || self.rng.chance(self.config.p_interface_loss);
        // Only the ring NACKs, and only on the sender's own segment: the
        // local hardware can vouch for no leg but the one it carries, so a
        // partition cut, a bridge loss, or a refusal by a remote
        // destination interface all look like silent loss to the sender
        // (this is why `maybe`-protocol traffic degrades under partition
        // while exactly-once retries until its attempt budget runs out).
        let local = self.seg_of[src.0 as usize] == self.seg_of[dst.0 as usize];
        if refused && local && self.config.medium == Medium::CambridgeRing {
            self.record(src, Outcome::Nacked);
            if traced {
                self.trace_packet(
                    now,
                    src.0,
                    span,
                    EventKind::PacketNacked {
                        src: src.0,
                        dst: dst.0,
                        bytes: bytes as u32,
                    },
                );
            }
            return Err(payload);
        }
        if refused || self.take_forced_drop(src, dst) || self.rng.chance(self.config.p_silent_loss)
        {
            self.lose_silently(now, src, dst, bytes as u32, span, traced);
        } else {
            self.queue.schedule(
                at,
                Delivery {
                    src,
                    dst,
                    at,
                    span,
                    bytes: bytes as u32,
                    payload,
                },
            );
        }
        Ok(TxStatus::Queued { deliver_at: at })
    }

    /// The sender's side of every transmission, unicast or broadcast:
    /// count the send, then hold `src`'s `class` transmitter for the
    /// whole transmission (charged to its segment's `tx_busy_us`).
    /// Returns when the packet reaches the end of the sender's segment.
    fn occupy_transmitter(
        &mut self,
        now: SimTime,
        src: NodeId,
        bytes: usize,
        class: TxClass,
    ) -> SimTime {
        self.record(src, Outcome::Sent(bytes as u64));
        let latency = self.config.latency(bytes);
        let free_at = &mut self.stations[src.0 as usize].tx_free_at[class as usize];
        let arrive = now.max(*free_at) + latency;
        *free_at = arrive;
        let sseg = self.seg_of[src.0 as usize] as usize;
        if let Some(s) = self.meters.as_ref().and_then(|m| m.segs.get(sseg)) {
            s.tx_busy_us.add(latency.as_micros());
        }
        arrive
    }

    /// Reliable unicast on the ring: retransmits on NACK until the
    /// destination interface accepts, or `max_attempts` is exhausted (e.g.
    /// the node has crashed). This is exactly the halt-broadcast protocol's
    /// negative-acknowledgement scheme (§5.2). The payload moves through
    /// the attempts; it is never copied.
    ///
    /// Returns `(status, attempts)`.
    pub fn send_with_retransmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        mut payload: P,
        bytes: usize,
        max_attempts: u32,
    ) -> (TxStatus, u32) {
        let mut attempts = 0;
        loop {
            attempts += 1;
            // Each attempt starts when the transmitter frees up. Reliable
            // sends are control traffic (the halt protocol, §5.2).
            match self.transmit(now, src, dst, payload, bytes, TxClass::Control, None) {
                Ok(status) => return (status, attempts),
                Err(returned) if attempts < max_attempts => payload = returned,
                Err(_) => return (TxStatus::Nack, attempts),
            }
        }
    }

    fn lose_silently(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        span: Option<SpanId>,
        traced: bool,
    ) {
        self.record(src, Outcome::Lost);
        if traced {
            self.trace_packet(
                now,
                src.0,
                span,
                EventKind::PacketLost {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                },
            );
        }
    }

    /// The one place a network count is written: the world total and
    /// `station`'s entry (the source's for every outcome but a delivery,
    /// which is the destination's), then the matching registry meters —
    /// `net.*`, and `net.seg{s}.*` for sends and deliveries on bridged
    /// topologies.
    fn record(&mut self, station: NodeId, outcome: Outcome) {
        let i = station.0 as usize;
        for s in [&mut self.stats, &mut self.per_station[i]] {
            match outcome {
                Outcome::Sent(bytes) => {
                    s.sent += 1;
                    s.bytes_sent += bytes;
                }
                Outcome::Nacked => s.nacked += 1,
                Outcome::Lost => s.silently_lost += 1,
                Outcome::BridgeLost => s.bridge_lost += 1,
                Outcome::Delivered => s.delivered += 1,
            }
        }
        let Some(m) = &self.meters else {
            return;
        };
        let seg = m.segs.get(self.seg_of[i] as usize);
        match outcome {
            Outcome::Sent(bytes) => {
                m.sent.inc();
                m.bytes_sent.add(bytes);
                if let Some(s) = seg {
                    s.sent.inc();
                    s.bytes.add(bytes);
                }
            }
            Outcome::Nacked => m.nacked.inc(),
            Outcome::Lost => m.silently_lost.inc(),
            Outcome::BridgeLost => m.bridge_lost.inc(),
            Outcome::Delivered => {
                m.delivered.inc();
                if let Some(s) = seg {
                    s.delivered.inc();
                }
            }
        }
    }

    /// The earliest pending delivery, if any.
    pub fn next_delivery_at(&mut self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Removes and returns every packet due at or before `now`, along with
    /// the updated statistics. Deliveries come out in arrival order.
    pub fn poll(&mut self, now: SimTime) -> (Vec<Delivery<P>>, NetStats) {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        (out, self.stats)
    }

    /// [`poll`](Self::poll) appending to a buffer the caller owns, so a
    /// pump that polls every window allocates nothing once it has grown.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) {
        let traced = self.wants_net();
        while let Some((_, d)) = self.queue.pop_due(now) {
            self.record(d.dst, Outcome::Delivered);
            if traced {
                self.trace_packet(
                    d.at,
                    d.dst.0,
                    d.span,
                    EventKind::PacketDelivered {
                        src: d.src.0,
                        dst: d.dst.0,
                        bytes: d.bytes,
                    },
                );
            }
            out.push(d);
        }
    }
}

impl<P: Clone> Network<P> {
    /// Ethernet-style broadcast: one transmission reaches every other *up*
    /// station, but each receiver may silently miss it (per-receiver
    /// interface/silent loss). Not available on the Cambridge Ring, which
    /// "does not provide a broadcast facility at the data-link layer"
    /// (§5.2).
    ///
    /// Returns the arrival time, or `None` when the medium has no
    /// broadcast facility.
    pub fn broadcast(
        &mut self,
        now: SimTime,
        src: NodeId,
        payload: P,
        bytes: usize,
    ) -> Option<SimTime> {
        if self.config.medium != Medium::Ethernet {
            return None;
        }
        let arrive = self.occupy_transmitter(now, src, bytes, TxClass::Control);
        let traced = self.wants_net();
        for i in 0..self.stations.len() {
            let dst = NodeId(i as u32);
            if dst == src || !self.stations[i].up {
                continue;
            }
            // A broadcast only floods the sender's own segment natively;
            // bridges re-emit it hop by hop, so remote receivers see it
            // later (or not at all if a bridge hop loses it).
            let Some(at) = self.bridge_leg(src, dst, arrive, bytes) else {
                self.lose_silently(now, src, dst, bytes as u32, None, traced);
                continue;
            };
            // Draw order differs from unicast's (interface, silent, then
            // forced), and the recorded digests pin it.
            let lost = self.rng.chance(self.config.p_interface_loss)
                || self.rng.chance(self.config.p_silent_loss)
                || self.take_forced_drop(src, dst);
            if lost {
                self.lose_silently(now, src, dst, bytes as u32, None, traced);
                continue;
            }
            self.queue.schedule(
                at,
                Delivery {
                    src,
                    dst,
                    at,
                    span: None,
                    bytes: bytes as u32,
                    payload: payload.clone(),
                },
            );
        }
        Some(arrive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(cfg: NetworkConfig) -> Network<u32> {
        Network::new(cfg, 4)
    }

    #[test]
    fn per_station_stats_attribute_by_direction() {
        let mut n = net(NetworkConfig::default());
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 7, 32);
        n.send(SimTime::ZERO, NodeId(2), NodeId(1), 8, 64);
        let (got, _) = n.poll(SimTime::from_secs(1));
        assert_eq!(got.len(), 2);
        let s0 = n.station_stats(NodeId(0));
        assert_eq!((s0.sent, s0.bytes_sent, s0.delivered), (1, 32, 0));
        let s1 = n.station_stats(NodeId(1));
        assert_eq!((s1.sent, s1.delivered), (0, 2), "deliveries land on dst");
        let s2 = n.station_stats(NodeId(2));
        assert_eq!((s2.sent, s2.bytes_sent), (1, 64));
        // NACKs are charged to the sender.
        n.set_up(NodeId(3), false);
        let st = n.send(SimTime::ZERO, NodeId(0), NodeId(3), 9, 32);
        assert_eq!(st, TxStatus::Nack);
        assert_eq!(n.station_stats(NodeId(0)).nacked, 1);
        assert_eq!(n.station_stats(NodeId(3)).nacked, 0);
    }

    #[test]
    fn small_basic_block_takes_3_5_ms() {
        let mut n = net(NetworkConfig::default());
        let st = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 7, 32);
        match st {
            TxStatus::Queued { deliver_at } => {
                assert_eq!(deliver_at, SimTime::from_micros(3_500));
            }
            TxStatus::Nack => panic!("unexpected NACK"),
        }
    }

    #[test]
    fn serial_transmission_spaces_arrivals() {
        // Halting three remote nodes: arrivals at 3.5, 7.0, 10.5 ms — the
        // paper's "confident of contacting only two nodes" within the 8 ms
        // RPC latency window.
        let mut n = net(NetworkConfig::default());
        let mut arrivals = Vec::new();
        for dst in 1..4 {
            if let TxStatus::Queued { deliver_at } =
                n.send(SimTime::ZERO, NodeId(0), NodeId(dst), dst, 32)
            {
                arrivals.push(deliver_at.as_micros());
            }
        }
        assert_eq!(arrivals, vec![3_500, 7_000, 10_500]);
        let within_8ms = arrivals.iter().filter(|a| **a <= 8_000).count();
        assert_eq!(within_8ms, 2);
    }

    #[test]
    fn poll_delivers_in_order() {
        let mut n = net(NetworkConfig::default());
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1, 32);
        n.send(SimTime::ZERO, NodeId(2), NodeId(1), 2, 16);
        let (due, stats) = n.poll(SimTime::from_millis(20));
        assert_eq!(due.len(), 2);
        // The 16-byte packet from the idle transmitter of node 2 wins.
        assert_eq!(due[0].payload, 2);
        assert_eq!(due[1].payload, 1);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.sent, 2);
    }

    #[test]
    fn poll_respects_now() {
        let mut n = net(NetworkConfig::default());
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 9, 32);
        let (due, _) = n.poll(SimTime::from_millis(3));
        assert!(due.is_empty());
        assert_eq!(n.next_delivery_at(), Some(SimTime::from_micros(3_500)));
        let (due, _) = n.poll(SimTime::from_millis(4));
        assert_eq!(due.len(), 1);
    }

    #[test]
    fn down_interface_nacks_on_ring() {
        let mut n = net(NetworkConfig::default());
        n.set_up(NodeId(1), false);
        assert!(!n.is_up(NodeId(1)));
        let st = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 32);
        assert_eq!(st, TxStatus::Nack);
        assert_eq!(n.stats().nacked, 1);
    }

    #[test]
    fn down_interface_is_silent_on_ethernet() {
        let mut n = net(NetworkConfig {
            medium: Medium::Ethernet,
            ..Default::default()
        });
        n.set_up(NodeId(1), false);
        let st = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 0, 32);
        assert!(
            matches!(st, TxStatus::Queued { .. }),
            "Ethernet gives no NACK"
        );
        let (due, stats) = n.poll(SimTime::from_millis(20));
        assert!(due.is_empty());
        assert_eq!(stats.silently_lost, 1);
    }

    #[test]
    fn retransmit_overcomes_interface_loss() {
        let mut n = net(NetworkConfig {
            p_interface_loss: 0.5,
            seed: 42,
            ..Default::default()
        });
        let mut max_attempts_seen = 0;
        let mut delivered = 0;
        for i in 0..50 {
            let (st, attempts) = n.send_with_retransmit(
                SimTime::from_millis(i * 20),
                NodeId(0),
                NodeId(1),
                i as u32,
                32,
                100,
            );
            assert!(matches!(st, TxStatus::Queued { .. }));
            max_attempts_seen = max_attempts_seen.max(attempts);
            delivered += 1;
        }
        assert_eq!(delivered, 50);
        assert!(
            max_attempts_seen > 1,
            "loss model must have forced retransmissions"
        );
    }

    #[test]
    fn retransmit_gives_up_on_crashed_node() {
        let mut n = net(NetworkConfig::default());
        n.set_up(NodeId(3), false);
        let (st, attempts) = n.send_with_retransmit(SimTime::ZERO, NodeId(0), NodeId(3), 0, 32, 5);
        assert_eq!(st, TxStatus::Nack);
        assert_eq!(attempts, 5);
        assert_eq!(n.stats().nacked, 5);
    }

    /// Deliberately not `Clone`: a retransmitting send that compiles with
    /// this payload cannot be copying it per attempt.
    #[derive(Debug, PartialEq)]
    struct Parcel(u32);

    #[test]
    fn retransmit_moves_a_payload_that_is_not_clone() {
        let mut n: Network<Parcel> = Network::new(
            NetworkConfig {
                p_interface_loss: 0.5,
                seed: 42,
                ..Default::default()
            },
            4,
        );
        let mut retried = false;
        for i in 0..20 {
            let (st, attempts) =
                n.send_with_retransmit(SimTime::ZERO, NodeId(0), NodeId(1), Parcel(i), 32, 100);
            assert!(matches!(st, TxStatus::Queued { .. }));
            retried |= attempts > 1;
        }
        assert!(retried, "loss model must have forced retransmissions");
        let (due, _) = n.poll(SimTime::from_secs(10));
        let got: Vec<u32> = due.iter().map(|d| d.payload.0).collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    /// The loop `send_with_retransmit` replaced: a fresh copy per attempt.
    fn copy_per_attempt(
        n: &mut Network<u32>,
        now: SimTime,
        dst: NodeId,
        payload: u32,
        max_attempts: u32,
    ) -> (TxStatus, u32) {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let status = n.send_spanned(now, NodeId(0), dst, payload, 32, TxClass::Control, None);
            match status {
                TxStatus::Queued { .. } => return (status, attempts),
                TxStatus::Nack if attempts < max_attempts => continue,
                TxStatus::Nack => return (TxStatus::Nack, attempts),
            }
        }
    }

    #[test]
    fn moving_retransmit_draws_the_rng_like_the_copying_loop() {
        let cfg = NetworkConfig {
            p_interface_loss: 0.4,
            p_silent_loss: 0.1,
            seed: 7,
            ..Default::default()
        };
        let (mut moved, mut copied) = (net(cfg.clone()), net(cfg));
        for i in 0..200u32 {
            let now = SimTime::from_millis(u64::from(i) * 5);
            let dst = NodeId(1 + i % 3);
            // A budget of 2 makes some sends give up, so both exits are compared.
            let max = 2 + i % 4;
            assert_eq!(
                moved.send_with_retransmit(now, NodeId(0), dst, i, 32, max),
                copy_per_attempt(&mut copied, now, dst, i, max),
                "send {i}"
            );
        }
        assert_eq!(moved.stats(), copied.stats());
        assert!(moved.stats().nacked > 0 && moved.stats().silently_lost > 0);
        let (a, _) = moved.poll(SimTime::from_secs(60));
        let (b, _) = copied.poll(SimTime::from_secs(60));
        let key = |d: &Delivery<u32>| (d.at, d.dst, d.payload);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forced_drops_lose_exact_packets() {
        let mut n = net(NetworkConfig::default());
        n.drop_next(NodeId(0), NodeId(1), 1);
        let st1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1, 32);
        assert!(
            matches!(st1, TxStatus::Queued { .. }),
            "silent loss looks fine to sender"
        );
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 2, 32);
        let (due, stats) = n.poll(SimTime::from_millis(20));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload, 2);
        assert_eq!(stats.silently_lost, 1);
    }

    #[test]
    fn ring_has_no_broadcast() {
        let mut n = net(NetworkConfig::default());
        assert_eq!(n.broadcast(SimTime::ZERO, NodeId(0), 0, 16), None);
    }

    #[test]
    fn ethernet_broadcast_reaches_all_up_nodes_at_once() {
        let mut n = net(NetworkConfig {
            medium: Medium::Ethernet,
            ..Default::default()
        });
        n.set_up(NodeId(2), false);
        let at = n.broadcast(SimTime::ZERO, NodeId(0), 7, 32).unwrap();
        assert_eq!(at, SimTime::from_micros(3_500));
        let (due, _) = n.poll(SimTime::from_millis(10));
        let dsts: Vec<NodeId> = due.iter().map(|d| d.dst).collect();
        assert_eq!(dsts, vec![NodeId(1), NodeId(3)]);
        assert!(
            due.iter().all(|d| d.at == at),
            "broadcast arrives everywhere at once"
        );
    }

    #[test]
    fn spans_and_instruments_follow_packets() {
        use pilgrim_sim::{EventKind, Metrics, TraceCategory, Tracer};
        let mut n = net(NetworkConfig::default());
        let tracer = Tracer::new();
        let metrics = Metrics::new();
        n.attach_tracer(tracer.clone());
        n.attach_metrics(&metrics);
        let span = tracer.next_span();
        n.drop_next(NodeId(0), NodeId(1), 1);
        n.send_spanned(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1,
            32,
            TxClass::Data,
            Some(span),
        );
        n.send_spanned(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            2,
            32,
            TxClass::Data,
            Some(span),
        );
        let (due, _) = n.poll(SimTime::from_millis(20));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].span, Some(span), "span crosses the wire");
        assert_eq!(due[0].bytes, 32);

        let timeline = tracer.events_for_span(span);
        let kinds: Vec<&str> = timeline.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec!["PacketSent", "PacketLost", "PacketSent", "PacketDelivered"]
        );
        assert_eq!(metrics.counter_value("net.sent"), Some(2));
        assert_eq!(metrics.counter_value("net.delivered"), Some(1));
        assert_eq!(metrics.counter_value("net.silently_lost"), Some(1));
        assert_eq!(metrics.counter_value("net.bytes_sent"), Some(64));
        assert_eq!(n.stats().bytes_sent, 64);

        // Disabling the net category suppresses packet events entirely.
        tracer.set_filter(&[TraceCategory::Rpc]);
        n.send(SimTime::from_millis(30), NodeId(0), NodeId(1), 3, 32);
        n.poll(SimTime::from_millis(60));
        assert!(tracer
            .events()
            .iter()
            .all(|e| !matches!(e.kind, EventKind::PacketSent { .. })
                || e.time < SimTime::from_millis(30)));
    }

    #[test]
    fn bridged_links_meter_bytes_queueing_and_losses() {
        use pilgrim_sim::Metrics;
        // 4 stations over a 1-arm star: 0,1 in the hub, 2,3 in the arm.
        let mut n = net(NetworkConfig {
            topology: Topology::Star { arms: 1 },
            ..Default::default()
        });
        let metrics = Metrics::new();
        n.attach_metrics(&metrics);
        assert_eq!(n.segments(), 2);
        assert_eq!(n.bridge_links(), vec![(0, 1)]);

        // Two same-size packets from different hub stations reach the
        // bridge at the same instant; the second serializes behind the
        // first (32 bytes × 1 µs/byte), so it queues for 32 µs.
        n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1, 32);
        n.send(SimTime::ZERO, NodeId(1), NodeId(3), 2, 32);
        assert_eq!(metrics.counter_value("net.link0-1.bytes"), Some(64));
        assert_eq!(metrics.counter_value("net.link0-1.busy_us"), Some(64));
        assert_eq!(metrics.counter_value("net.link0-1.queue_us"), Some(32));
        assert_eq!(metrics.gauge_value("net.link0-1.backlog_us"), Some(64));
        assert_eq!(metrics.counter_value("net.link0-1.lost"), Some(0));

        // A forced cut turns the next crossing into a per-link loss.
        n.set_link_up(0, 1, false);
        n.send(SimTime::from_millis(50), NodeId(0), NodeId(2), 3, 32);
        assert_eq!(metrics.counter_value("net.link0-1.lost"), Some(1));
        assert_eq!(n.stats().bridge_lost, 1);

        // Segment attribution: sends from the hub, deliveries in the arm.
        let (due, _) = n.poll(SimTime::from_millis(20));
        assert_eq!(due.len(), 2);
        assert_eq!(n.segment_stats(0).sent, 3);
        assert_eq!(n.segment_stats(0).bridge_lost, 1);
        assert_eq!(n.segment_stats(1).delivered, 2);
        assert_eq!(metrics.counter_value("net.seg0.sent"), Some(3));
        assert_eq!(metrics.counter_value("net.seg1.delivered"), Some(2));

        // Transmitter occupancy lands on the sender's segment: three
        // 32-byte sends from the hub, each holding its station's
        // transmitter for base + 32 × per-byte.
        let per_packet = NetworkConfig::default().latency(32).as_micros();
        assert_eq!(
            metrics.counter_value("net.seg0.tx_busy_us"),
            Some(3 * per_packet)
        );
        assert_eq!(metrics.counter_value("net.seg1.tx_busy_us"), Some(0));
        assert_eq!(n.stations_in(0), 2);
        assert_eq!(n.stations_in(1), 2);
    }

    #[test]
    fn flat_networks_register_no_link_or_segment_meters() {
        use pilgrim_sim::Metrics;
        let mut n = net(NetworkConfig::default());
        let metrics = Metrics::new();
        n.attach_metrics(&metrics);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1, 32);
        assert_eq!(metrics.counter_value("net.sent"), Some(1));
        assert_eq!(metrics.counter_value("net.seg0.sent"), None);
        assert!(!metrics.report().contains("net.link"));
    }

    #[test]
    fn nack_is_traced_with_its_span() {
        use pilgrim_sim::{SpanId, Tracer};
        let mut n = net(NetworkConfig::default());
        let tracer = Tracer::new();
        n.attach_tracer(tracer.clone());
        n.set_up(NodeId(1), false);
        n.send_spanned(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            0,
            32,
            TxClass::Data,
            SpanId::from_wire(9),
        );
        let events = tracer.events_for_span(SpanId::from_wire(9).expect("nonzero"));
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["PacketSent", "PacketNacked"]);
    }

    #[test]
    fn latency_scales_with_size() {
        let cfg = NetworkConfig::default();
        assert!(cfg.latency(1024) > cfg.latency(32));
        assert_eq!(
            cfg.latency(0).as_micros() + 6 * 100,
            cfg.latency(100).as_micros()
        );
    }

    #[test]
    fn same_seed_same_losses() {
        let run = |seed| {
            let mut n = net(NetworkConfig {
                p_silent_loss: 0.3,
                seed,
                ..Default::default()
            });
            for i in 0..100 {
                n.send(
                    SimTime::from_millis(i * 10),
                    NodeId(0),
                    NodeId(1),
                    i as u32,
                    32,
                );
            }
            let (due, _) = n.poll(SimTime::from_secs(10));
            due.iter().map(|d| d.payload).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn network_config_round_trips_through_json() {
        let cfg = NetworkConfig {
            base_latency: SimDuration::from_micros(1_234),
            per_byte: SimDuration::from_micros(7),
            p_interface_loss: 0.125,
            p_silent_loss: 0.0625,
            medium: Medium::Ethernet,
            seed: u64::MAX,
            topology: Topology::Star { arms: 3 },
            link: LinkModel {
                latency: SimDuration::from_micros(750),
                jitter: SimDuration::from_micros(50),
                per_byte: SimDuration::from_micros(2),
                p_loss: 0.03125,
            },
            partitions: vec![PartitionWindow {
                from: SimTime::from_secs(30),
                to: SimTime::from_secs(45),
                a: 0,
                b: 1,
            }],
        };
        let mut rendered = String::new();
        cfg.to_json().write(&mut rendered);
        let parsed = Json::parse(&rendered).expect("valid JSON");
        let back = NetworkConfig::from_json(&parsed).expect("decodes");
        assert_eq!(back.base_latency, cfg.base_latency);
        assert_eq!(back.per_byte, cfg.per_byte);
        assert_eq!(back.p_interface_loss, cfg.p_interface_loss);
        assert_eq!(back.p_silent_loss, cfg.p_silent_loss);
        assert_eq!(back.medium, cfg.medium);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.topology, cfg.topology);
        assert_eq!(back.link, cfg.link);
        assert_eq!(back.partitions, cfg.partitions);
    }

    #[test]
    fn config_json_without_topology_fields_is_refused() {
        // The writer always emits the three topology keys, so each is
        // required: absent is refused by name, never read as a flat
        // network. A nested section that is not an object is refused by
        // its own key, not by the first field its decoder looks for.
        for key in ["partitions", "link", "topology"] {
            let Json::Object(mut pairs) = NetworkConfig::default().to_json() else {
                panic!("config renders an object")
            };
            pairs.retain(|(k, _)| k != key);
            assert_eq!(
                NetworkConfig::from_json(&Json::Object(pairs)).unwrap_err(),
                format!("network config: missing `{key}`")
            );
            let mut mistyped = NetworkConfig::default().to_json();
            *mistyped.get_mut(key).expect("the config renders every key") =
                Json::Str("oops".into());
            assert_eq!(
                NetworkConfig::from_json(&mistyped).unwrap_err(),
                format!("network config: `{key}` out of range")
            );
        }
    }

    /// Two segments of two stations each over the default ring config.
    fn two_segments(link: LinkModel, partitions: Vec<PartitionWindow>) -> Network<u32> {
        Network::new(
            NetworkConfig {
                topology: Topology::RingOfRings { segments: 2 },
                link,
                partitions,
                ..Default::default()
            },
            4,
        )
    }

    #[test]
    fn stations_map_to_contiguous_segments() {
        let n = two_segments(LinkModel::default(), Vec::new());
        assert_eq!(n.seg_of, vec![0, 0, 1, 1]);
    }

    #[test]
    fn cross_segment_send_pays_bridge_latency() {
        let mut n = two_segments(LinkModel::default(), Vec::new());
        // Same-segment: plain ring latency.
        let TxStatus::Queued { deliver_at: local } =
            n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1, 32)
        else {
            panic!("local send queued")
        };
        assert_eq!(local, SimTime::from_micros(3_500));
        // Cross-segment: + serialization (32 µs) + bridge latency (500 µs).
        let mut n = two_segments(LinkModel::default(), Vec::new());
        let TxStatus::Queued { deliver_at: far } =
            n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1, 32)
        else {
            panic!("bridged send queued")
        };
        assert_eq!(far, SimTime::from_micros(3_500 + 32 + 500));
        let (due, stats) = n.poll(SimTime::from_secs(1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, far);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.bridge_lost, 0);
    }

    #[test]
    fn saturated_bridge_serializes_packets() {
        // per_byte = 100 µs makes the 32-byte serialization (3.2 ms)
        // dominate: the second packet queues behind the first on the link.
        let slow = LinkModel {
            per_byte: SimDuration::from_micros(100),
            ..Default::default()
        };
        let mut n = two_segments(slow, Vec::new());
        let TxStatus::Queued { deliver_at: first } =
            n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1, 32)
        else {
            panic!("queued")
        };
        let TxStatus::Queued { deliver_at: second } =
            n.send(SimTime::ZERO, NodeId(1), NodeId(3), 2, 32)
        else {
            panic!("queued")
        };
        // Both ring legs finish at 3.5 ms; the bridge serializes them.
        assert_eq!(first.as_micros(), 3_500 + 3_200 + 500);
        assert_eq!(second.as_micros(), 3_500 + 2 * 3_200 + 500);
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let window = PartitionWindow {
            from: SimTime::from_millis(10),
            to: SimTime::from_millis(20),
            a: 0,
            b: 1,
        };
        let mut n = two_segments(LinkModel::default(), vec![window]);
        // Before the cut: delivered.
        let st = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1, 32);
        assert!(matches!(st, TxStatus::Queued { .. }));
        // During the cut: silently lost — crucially NOT a NACK, even on the
        // ring, because the sender's segment accepted the packet.
        let st = n.send(SimTime::from_millis(12), NodeId(0), NodeId(2), 2, 32);
        assert!(
            matches!(st, TxStatus::Queued { .. }),
            "no NACK over bridges"
        );
        // After the heal: delivered again.
        let st = n.send(SimTime::from_millis(25), NodeId(0), NodeId(2), 3, 32);
        assert!(matches!(st, TxStatus::Queued { .. }));
        let (due, stats) = n.poll(SimTime::from_secs(1));
        let payloads: Vec<u32> = due.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, vec![1, 3]);
        assert_eq!(stats.bridge_lost, 1);
        assert_eq!(stats.silently_lost, 1, "bridge losses count as silent");
    }

    #[test]
    fn link_forced_down_by_the_driver_behaves_like_partition() {
        let mut n = two_segments(LinkModel::default(), Vec::new());
        n.set_link_up(0, 1, false);
        assert!(n.links[0].forced_down);
        n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1, 32);
        n.set_link_up(0, 1, true);
        assert!(!n.links[0].forced_down);
        n.send(SimTime::from_millis(10), NodeId(0), NodeId(2), 2, 32);
        let (due, stats) = n.poll(SimTime::from_secs(1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload, 2);
        assert_eq!(stats.bridge_lost, 1);
    }

    #[test]
    fn remote_down_interface_never_nacks() {
        // A crashed destination on the *same* segment NACKs on the ring;
        // across a bridge the same condition is a silent loss.
        let mut n = two_segments(LinkModel::default(), Vec::new());
        n.set_up(NodeId(2), false);
        let st = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1, 32);
        assert!(matches!(st, TxStatus::Queued { .. }));
        let (due, stats) = n.poll(SimTime::from_secs(1));
        assert!(due.is_empty());
        assert_eq!(stats.silently_lost, 1);
        assert_eq!(stats.nacked, 0);
    }

    #[test]
    fn bridge_jitter_is_bounded_and_seeded() {
        let jittery = LinkModel {
            jitter: SimDuration::from_micros(200),
            ..Default::default()
        };
        let run = |seed: u64| {
            let mut n = Network::<u32>::new(
                NetworkConfig {
                    topology: Topology::RingOfRings { segments: 2 },
                    link: jittery,
                    seed,
                    ..Default::default()
                },
                4,
            );
            let mut arrivals = Vec::new();
            for i in 0..20u64 {
                let at = SimTime::from_millis(i * 10);
                if let TxStatus::Queued { deliver_at } =
                    n.send(at, NodeId(0), NodeId(2), i as u32, 32)
                {
                    arrivals.push(deliver_at.as_micros() - at.as_micros());
                }
            }
            arrivals
        };
        let a = run(3);
        assert_eq!(a, run(3), "jitter is a pure function of the seed");
        let base = 3_500 + 32 + 500;
        assert!(a.iter().all(|&d| d >= base && d <= base + 200));
        assert!(a.iter().any(|&d| d != base), "jitter actually fires");
    }

    #[test]
    fn lossy_bridge_drops_a_fraction() {
        let lossy = LinkModel {
            p_loss: 0.5,
            ..Default::default()
        };
        let mut n = two_segments(lossy, Vec::new());
        for i in 0..100u64 {
            n.send(
                SimTime::from_millis(i * 10),
                NodeId(0),
                NodeId(2),
                i as u32,
                32,
            );
        }
        let (due, stats) = n.poll(SimTime::from_secs(10));
        assert!(stats.bridge_lost > 20 && stats.bridge_lost < 80);
        assert_eq!(due.len() as u64 + stats.bridge_lost, 100);
    }

    #[test]
    fn broadcast_crosses_bridges_late() {
        let mut n = Network::<u32>::new(
            NetworkConfig {
                medium: Medium::Ethernet,
                topology: Topology::RingOfRings { segments: 2 },
                ..Default::default()
            },
            4,
        );
        let local_at = n.broadcast(SimTime::ZERO, NodeId(0), 7, 32).unwrap();
        let (due, _) = n.poll(SimTime::from_secs(1));
        assert_eq!(due.len(), 3);
        for d in &due {
            if n.seg_of[d.dst.0 as usize] == 0 {
                assert_eq!(d.at, local_at);
            } else {
                assert!(d.at > local_at, "remote receivers hear it later");
            }
        }
    }

    #[test]
    fn a_station_per_segment_builds_and_routes_at_its_size() {
        // 200 000 one-station segments: a table of a route per pair of
        // segments would hold 4·10^10 of them; walking the ring needs none.
        let segments = 200_000;
        let config = NetworkConfig {
            topology: Topology::RingOfRings { segments },
            ..Default::default()
        };
        let link = config.link;
        let mut n = Network::<u32>::new(config.clone(), segments);
        assert_eq!(n.segments(), segments);
        assert_eq!(n.stations_in(segments - 1), 1);
        let hops = |k: u64| config.latency(32) + (link.per_byte * 32 + link.latency) * k;
        // Forward, backward and across the wrap-around bridge (0, s - 1),
        // one hop each, then the whole half-ring: a tie, taken forward.
        let sends = [
            (0, 1, 1),
            (2, 1, 1),
            (segments - 1, 0, 1),
            (5, 5 + segments / 2, 100_000),
        ];
        for (src, dst, k) in sends {
            let status = n.send(SimTime::ZERO, NodeId(src), NodeId(dst), src, 32);
            let due = SimTime::ZERO + hops(k);
            assert_eq!(
                status,
                TxStatus::Queued { deliver_at: due },
                "{src} -> {dst}"
            );
        }
        let (due, stats) = n.poll(SimTime::ZERO + hops(100_000));
        assert_eq!(due.len(), 4);
        assert_eq!(stats.bridge_lost, 0);
        assert_eq!(n.segment_stats(0).sent, 1);
        assert_eq!(n.segment_stats(1).delivered, 2);
    }

    #[test]
    fn segment_counters_fold_their_block_of_stations() {
        // 10 stations over 4 segments (3/3/3/1) and over 6 (2/2/2/2/2/0).
        for segments in [4, 6] {
            let topology = Topology::RingOfRings { segments };
            let mut n = Network::<u32>::new(
                NetworkConfig {
                    topology,
                    p_interface_loss: 0.2,
                    p_silent_loss: 0.1,
                    link: LinkModel {
                        p_loss: 0.1,
                        ..LinkModel::default()
                    },
                    ..Default::default()
                },
                10,
            );
            for i in 0..60u32 {
                let at = SimTime::from_millis(u64::from(i));
                n.send(at, NodeId(i * 7 % 10), NodeId(i * 3 % 10), i, 32);
            }
            n.poll(SimTime::from_secs(10));
            for seg in 0..segments {
                let members = (0..10).filter(|i| topology.segment_of(*i, 10) == seg);
                let (count, fold) = members.fold((0, NetStats::default()), |(c, t), i| {
                    let s = n.station_stats(NodeId(i));
                    let sum = NetStats {
                        sent: t.sent + s.sent,
                        delivered: t.delivered + s.delivered,
                        nacked: t.nacked + s.nacked,
                        silently_lost: t.silently_lost + s.silently_lost,
                        bridge_lost: t.bridge_lost + s.bridge_lost,
                        bytes_sent: t.bytes_sent + s.bytes_sent,
                    };
                    (c + 1, sum)
                });
                assert_eq!(n.stations_in(seg), count, "{segments} segments: {seg}");
                assert_eq!(n.segment_stats(seg), fold, "{segments} segments: {seg}");
            }
            assert_eq!(n.stations_in(segments), 0);
        }
    }
}
