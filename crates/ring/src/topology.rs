//! Bridged multi-segment topologies.
//!
//! The paper's network is one flat Cambridge Ring. Real installations
//! bridged several rings together (and modern traffic models are
//! segment-routed: NIC → bridge → backbone), so the simulator supports
//! carving the station space into *segments* joined by *bridge links*:
//!
//! * [`Topology::Flat`] — the classic single segment, byte-identical to
//!   the pre-topology behaviour;
//! * [`Topology::RingOfRings`] — segments joined in a cycle, packets
//!   take the shorter arc of bridge hops;
//! * [`Topology::Star`] — leaf segments joined through a hub (segment
//!   0), at most two bridge hops between any pair of stations.
//!
//! Stations are assigned to segments in contiguous blocks, so "stations
//! 0–24 are ring 0" reads off the station index. Every bridge hop is
//! store-and-forward through a [`LinkModel`]: serialization at the
//! link's bandwidth, fixed forwarding latency, seeded uniform jitter,
//! and an independent per-hop loss probability. Bridge links can also be
//! partitioned — by a declarative, recipe-captured schedule of
//! [`PartitionWindow`]s or by the driver at run time — during which every
//! packet whose path crosses the cut is lost silently (a sender's ring
//! hardware can only see its own segment, so no NACK crosses a bridge).

use std::ops::Range;

use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, SimDuration, SimTime};

/// How the station space is carved into bridged segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// One flat segment; no bridges, identical to the paper's ring.
    #[default]
    Flat,
    /// `segments` rings joined in a cycle by bridge links; packets cross
    /// the shorter arc.
    RingOfRings {
        /// Number of segments in the cycle (≥ 1).
        segments: u32,
    },
    /// `arms` leaf segments each bridged to a hub (segment 0).
    Star {
        /// Number of leaf segments (≥ 1); total segments = `arms + 1`.
        arms: u32,
    },
}

impl Topology {
    /// Total number of segments.
    pub fn segments(self) -> u32 {
        match self {
            Topology::Flat => 1,
            Topology::RingOfRings { segments } => segments.max(1),
            Topology::Star { arms } => arms.max(1).saturating_add(1),
        }
    }

    /// The segment `station` belongs to, out of `stations` total.
    /// Contiguous blocks: with S segments the first `ceil(stations/S)`
    /// stations form segment 0, and so on.
    pub fn segment_of(self, station: u32, stations: u32) -> u32 {
        let segs = self.segments();
        if segs <= 1 || stations == 0 {
            return 0;
        }
        let block = stations.div_ceil(segs);
        (station / block).min(segs - 1)
    }

    /// The stations of segment `seg`, out of `stations` total: the
    /// contiguous block [`segment_of`](Topology::segment_of) maps to
    /// `seg`, cut short (or empty) where the station space ends.
    pub(crate) fn stations_of(self, seg: u32, stations: u32) -> Range<u32> {
        let block = u64::from(stations.div_ceil(self.segments()));
        let start = u64::from(seg) * block;
        let clamp = |i: u64| i.min(u64::from(stations)) as u32;
        clamp(start)..clamp(start + block)
    }

    /// The first bridge hop from segment `at` toward segment `dst`: the
    /// neighbouring segment it reaches and the link's slot in
    /// [`all_links`](Topology::all_links). `None` once `at == dst`, and
    /// for a segment outside the topology. A star goes through the hub;
    /// a ring of rings takes the shorter arc, forward on a tie. Walking
    /// hop by hop stays on the arc the source chose: each step shortens
    /// that side by one and lengthens the other by one.
    pub(crate) fn next_hop(self, at: u32, dst: u32) -> Option<(u32, usize)> {
        let s = self.segments();
        if at == dst || at >= s || dst >= s {
            return None;
        }
        let next = match self {
            Topology::Flat => return None,
            Topology::Star { .. } if at == 0 => dst,
            Topology::Star { .. } => 0,
            Topology::RingOfRings { .. } => {
                let fwd = if dst > at { dst - at } else { s - (at - dst) };
                if fwd <= s - fwd {
                    (at + 1) % s
                } else {
                    at.checked_sub(1).unwrap_or(s - 1)
                }
            }
        };
        Some((next, self.link_slot(at, next)?))
    }

    /// Where the bridge between segments `a` and `b` sits in
    /// [`all_links`](Topology::all_links), or `None` when no bridge
    /// joins them.
    pub(crate) fn link_slot(self, a: u32, b: u32) -> Option<usize> {
        let (lo, hi) = link_key(a, b);
        if lo == hi || hi >= self.segments() {
            return None;
        }
        match self {
            Topology::Flat => None,
            // (0, 1), (0, 2), …: one bridge per arm.
            Topology::Star { .. } => (lo == 0).then(|| hi as usize - 1),
            // (0, 1), then (0, s - 1) when s > 2, then (1, 2), (2, 3), …
            Topology::RingOfRings { .. } if hi == lo + 1 => {
                Some(if lo == 0 { 0 } else { lo as usize + 1 })
            }
            Topology::RingOfRings { .. } => (lo == 0 && hi == self.segments() - 1).then_some(1),
        }
    }

    /// Every bridge link in the topology, as normalized `(lo, hi)`
    /// segment pairs in ascending order. Flat topologies have none;
    /// per-link telemetry registers one meter set per entry, so the
    /// order here fixes the metric registration order.
    pub fn all_links(self) -> Vec<(u32, u32)> {
        match self {
            Topology::Flat => Vec::new(),
            Topology::Star { .. } => {
                let s = self.segments();
                (1..s).map(|arm| link_key(0, arm)).collect()
            }
            Topology::RingOfRings { .. } => {
                let s = self.segments();
                if s < 2 {
                    return Vec::new();
                }
                let mut links: Vec<(u32, u32)> = (0..s).map(|i| link_key(i, (i + 1) % s)).collect();
                links.sort_unstable();
                links.dedup();
                links
            }
        }
    }

    /// Stable wire name, used by the replay recipe format.
    pub fn to_json(self) -> Json {
        match self {
            Topology::Flat => Json::obj(vec![("kind", Json::Str("flat".into()))]),
            Topology::RingOfRings { segments } => Json::obj(vec![
                ("kind", Json::Str("ring-of-rings".into())),
                ("segments", Json::Int(segments as i128)),
            ]),
            Topology::Star { arms } => Json::obj(vec![
                ("kind", Json::Str("star".into())),
                ("arms", Json::Int(arms as i128)),
            ]),
        }
    }

    /// The inverse of [`to_json`](Topology::to_json).
    ///
    /// # Errors
    ///
    /// Unknown kinds and missing fields.
    pub fn from_json(v: &Json) -> Result<Topology, String> {
        let f = Fields::new(v, &"topology");
        let topology = match f.str("kind")? {
            "flat" => Topology::Flat,
            "ring-of-rings" => Topology::RingOfRings {
                segments: f.uint("segments")?,
            },
            "star" => Topology::Star {
                arms: f.uint("arms")?,
            },
            other => return Err(format!("topology: unknown kind `{other}`")),
        };
        f.finish()?;
        Ok(topology)
    }
}

/// Normalized bridge-link key between two segments.
pub fn link_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Per-bridge-hop behaviour: store-and-forward serialization, forwarding
/// latency, seeded jitter, and independent loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed forwarding latency per hop.
    pub latency: SimDuration,
    /// Maximum extra per-hop delay; each hop draws uniformly from
    /// `[0, jitter]` out of the network's seeded RNG.
    pub jitter: SimDuration,
    /// Serialization cost per payload byte — the link's bandwidth. The
    /// link is busy for `bytes × per_byte`, so packets queue behind each
    /// other on a saturated bridge.
    pub per_byte: SimDuration,
    /// Probability a packet is lost crossing the hop (always silent:
    /// NACKs do not cross bridges).
    pub p_loss: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            per_byte: SimDuration::from_micros(1),
            p_loss: 0.0,
        }
    }
}

impl LinkModel {
    /// The model as a JSON object for the replay recipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("latency_us", Json::Int(self.latency.as_micros() as i128)),
            ("jitter_us", Json::Int(self.jitter.as_micros() as i128)),
            ("per_byte_us", Json::Int(self.per_byte.as_micros() as i128)),
            ("p_loss", Json::Float(self.p_loss)),
        ])
    }

    /// The inverse of [`to_json`](LinkModel::to_json).
    ///
    /// # Errors
    ///
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<LinkModel, String> {
        let f = Fields::new(v, &"link model");
        let link = LinkModel {
            latency: SimDuration::from_micros(f.uint("latency_us")?),
            jitter: SimDuration::from_micros(f.uint("jitter_us")?),
            per_byte: SimDuration::from_micros(f.uint("per_byte_us")?),
            p_loss: f.float("p_loss")?,
        };
        f.finish()?;
        Ok(link)
    }
}

/// One scheduled partition: the bridge link between segments `a` and `b`
/// is down during `[from, to)`. Part of [`super::NetworkConfig`], so the
/// schedule rides the replay recipe and loaded runs reproduce their
/// partitions without any journalled stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Cut begins (inclusive).
    pub from: SimTime,
    /// Cut heals (exclusive).
    pub to: SimTime,
    /// One end of the bridge link.
    pub a: u32,
    /// The other end.
    pub b: u32,
}

impl PartitionWindow {
    /// Does this window cut the link `(a, b)` at time `at`?
    pub fn cuts(&self, link: (u32, u32), at: SimTime) -> bool {
        link_key(self.a, self.b) == link && self.from <= at && at < self.to
    }

    /// The window as a JSON object for the replay recipe.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("from_us", Json::Int(self.from.as_micros() as i128)),
            ("to_us", Json::Int(self.to.as_micros() as i128)),
            ("a", Json::Int(self.a as i128)),
            ("b", Json::Int(self.b as i128)),
        ])
    }

    /// The inverse of [`to_json`](PartitionWindow::to_json).
    ///
    /// # Errors
    ///
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<PartitionWindow, String> {
        let f = Fields::new(v, &"partition window");
        let window = PartitionWindow {
            from: SimTime::from_micros(f.uint("from_us")?),
            to: SimTime::from_micros(f.uint("to_us")?),
            a: f.uint("a")?,
            b: f.uint("b")?,
        };
        f.finish()?;
        Ok(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkConfig, NodeId};

    /// The route table's old builder, kept as the oracle for
    /// [`Topology::next_hop`]: the ordered bridge links a packet crosses
    /// from segment `a` to segment `b`.
    fn path_links(t: Topology, a: u32, b: u32) -> Vec<(u32, u32)> {
        if a == b {
            return Vec::new();
        }
        match t {
            Topology::Flat => Vec::new(),
            Topology::Star { .. } => {
                let mut links = Vec::new();
                if a != 0 {
                    links.push(link_key(a, 0));
                }
                if b != 0 {
                    links.push(link_key(0, b));
                }
                links
            }
            Topology::RingOfRings { .. } => {
                let s = t.segments();
                let fwd = (b + s - a) % s; // hops going a, a+1, …
                let back = (a + s - b) % s; // hops going a, a-1, …
                let mut links = Vec::new();
                let mut cur = a;
                if fwd <= back {
                    for _ in 0..fwd {
                        let next = (cur + 1) % s;
                        links.push(link_key(cur, next));
                        cur = next;
                    }
                } else {
                    for _ in 0..back {
                        let next = (cur + s - 1) % s;
                        links.push(link_key(cur, next));
                        cur = next;
                    }
                }
                links
            }
        }
    }

    /// The links a packet crosses walking [`Topology::next_hop`] from
    /// `a` to `b`, each read from its slot in `all_links`. Checks that
    /// every hop lands on the far end of the link it took.
    fn walk(t: Topology, a: u32, b: u32) -> Vec<(u32, u32)> {
        let all = t.all_links();
        let mut hops = Vec::new();
        let mut at = a;
        while let Some((next, slot)) = t.next_hop(at, b) {
            assert_eq!(all[slot], link_key(at, next), "{t:?}: {at} -> {next}");
            hops.push(all[slot]);
            at = next;
            assert!(
                hops.len() <= t.segments() as usize,
                "{t:?}: {a} -> {b} loops"
            );
        }
        hops
    }

    fn routed() -> impl Iterator<Item = Topology> {
        let rings = (1..=12).map(|segments| Topology::RingOfRings { segments });
        rings.chain((1..=10).map(|arms| Topology::Star { arms }))
    }

    #[test]
    fn walked_hops_match_the_path_oracle() {
        for t in routed() {
            for a in 0..t.segments() {
                for b in 0..t.segments() {
                    assert_eq!(walk(t, a, b), path_links(t, a, b), "{t:?}: {a} -> {b}");
                }
            }
            let s = t.segments();
            assert_eq!(t.next_hop(s, 0), None);
            assert_eq!(t.next_hop(0, s), None);
        }
    }

    #[test]
    fn link_slots_are_all_links_positions() {
        for t in routed().chain([Topology::Flat]) {
            let all = t.all_links();
            for a in 0..=t.segments() {
                for b in 0..=t.segments() {
                    let key = link_key(a, b);
                    let expect = all.iter().position(|l| *l == key);
                    assert_eq!(t.link_slot(a, b), expect, "{t:?}: {key:?}");
                }
            }
        }
    }

    #[test]
    fn set_link_up_reaches_exactly_its_bridge() {
        for t in routed() {
            let config = NetworkConfig {
                topology: t,
                ..NetworkConfig::default()
            };
            let s = t.segments();
            let mut net: Network<()> = Network::new(config, s);
            let all = t.all_links();
            for a in 0..=s {
                for b in 0..=s {
                    net.set_link_up(a, b, false);
                    let down: Vec<(u32, u32)> = net
                        .links
                        .iter()
                        .filter(|l| l.forced_down)
                        .map(|l| l.key)
                        .collect();
                    let bridge = all.contains(&link_key(a, b));
                    let want = if bridge { vec![link_key(a, b)] } else { vec![] };
                    assert_eq!(down, want, "{t:?}: {a}:{b}");
                    net.set_link_up(a, b, true);
                }
            }
            // A forced cut on a non-bridge pair still lets every packet through.
            net.set_link_up(0, 0, false);
            net.set_link_up(s, 0, false);
            for dst in 0..s {
                let status = net.send(SimTime::ZERO, NodeId(0), NodeId(dst), (), 32);
                assert!(matches!(status, crate::TxStatus::Queued { .. }));
            }
            assert_eq!(net.stats().bridge_lost, 0, "{t:?}");
        }
    }

    #[test]
    fn flat_is_one_segment() {
        let t = Topology::Flat;
        assert_eq!(t.segments(), 1);
        assert_eq!(t.segment_of(7, 100), 0);
        assert_eq!(t.next_hop(0, 0), None);
        assert_eq!(t.stations_of(0, 100), 0..100);
    }

    #[test]
    fn contiguous_blocks_cover_all_stations() {
        let t = Topology::RingOfRings { segments: 4 };
        // 10 stations over 4 segments: blocks of 3 — 3/3/3/1.
        let segs: Vec<u32> = (0..10).map(|i| t.segment_of(i, 10)).collect();
        assert_eq!(segs, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        let blocks: Vec<Range<u32>> = (0..5).map(|s| t.stations_of(s, 10)).collect();
        assert_eq!(blocks, vec![0..3, 3..6, 6..9, 9..10, 10..10]);
        // Exactly-divisible case.
        let t8 = Topology::RingOfRings { segments: 2 };
        let segs: Vec<u32> = (0..8).map(|i| t8.segment_of(i, 8)).collect();
        assert_eq!(segs, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::Star { arms: 3 };
        assert_eq!(t.segments(), 4);
        assert_eq!(Topology::Star { arms: u32::MAX }.segments(), u32::MAX);
        assert_eq!(walk(t, 1, 2), vec![(0, 1), (0, 2)]);
        assert_eq!(walk(t, 0, 3), vec![(0, 3)]);
        assert_eq!(walk(t, 3, 0), vec![(0, 3)]);
    }

    #[test]
    fn ring_of_rings_takes_shorter_arc() {
        let t = Topology::RingOfRings { segments: 5 };
        // 0 → 2: forward (2 hops) beats backward (3 hops).
        assert_eq!(walk(t, 0, 2), vec![(0, 1), (1, 2)]);
        // 0 → 4: backward, one hop.
        assert_eq!(walk(t, 0, 4), vec![(0, 4)]);
        // Even cycle tie break goes forward.
        let t4 = Topology::RingOfRings { segments: 4 };
        assert_eq!(walk(t4, 0, 2), vec![(0, 1), (1, 2)]);
        assert_eq!(walk(t4, 2, 0), vec![(2, 3), (0, 3)]);
    }

    #[test]
    fn partition_window_cuts_half_open() {
        let w = PartitionWindow {
            from: SimTime::from_secs(30),
            to: SimTime::from_secs(45),
            a: 1,
            b: 0,
        };
        assert!(!w.cuts((0, 1), SimTime::from_micros(29_999_999)));
        assert!(w.cuts((0, 1), SimTime::from_secs(30)));
        assert!(w.cuts((0, 1), SimTime::from_micros(44_999_999)));
        assert!(!w.cuts((0, 1), SimTime::from_secs(45)));
        assert!(!w.cuts((0, 2), SimTime::from_secs(31)));
    }

    #[test]
    fn all_links_enumerates_every_bridge() {
        assert!(Topology::Flat.all_links().is_empty());
        assert!(Topology::RingOfRings { segments: 1 }.all_links().is_empty());
        // A two-segment cycle has exactly one bridge, not two.
        assert_eq!(
            Topology::RingOfRings { segments: 2 }.all_links(),
            vec![(0, 1)]
        );
        assert_eq!(
            Topology::RingOfRings { segments: 4 }.all_links(),
            vec![(0, 1), (0, 3), (1, 2), (2, 3)]
        );
        assert_eq!(
            Topology::Star { arms: 3 }.all_links(),
            vec![(0, 1), (0, 2), (0, 3)]
        );
        // Every path link appears in the enumeration.
        for t in [
            Topology::RingOfRings { segments: 5 },
            Topology::Star { arms: 4 },
        ] {
            let all = t.all_links();
            for a in 0..t.segments() {
                for b in 0..t.segments() {
                    for link in path_links(t, a, b) {
                        assert!(all.contains(&link), "{t:?}: {link:?} missing");
                    }
                }
            }
        }
    }

    #[test]
    fn topology_json_round_trips() {
        for t in [
            Topology::Flat,
            Topology::RingOfRings { segments: 6 },
            Topology::Star { arms: 4 },
        ] {
            let mut rendered = String::new();
            t.to_json().write(&mut rendered);
            let back = Topology::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back, t);
        }
        assert!(Topology::from_json(&Json::parse("{\"kind\": \"mesh\"}").unwrap()).is_err());
    }
}
