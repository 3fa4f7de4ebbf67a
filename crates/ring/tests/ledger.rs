//! The network's RNG stream and ledgers, pinned.
//!
//! One fixed-seed traffic script per topology × medium exercises every
//! outcome the network records — interface, silent and bridge loss, a
//! partition window, a link and a station forced down, forced drops,
//! retransmission, both transmitter classes and (on Ethernet) broadcast —
//! and hashes everything observable: each send's status, each delivery,
//! each station's counters, every registry meter in registration order,
//! and the tracer's JSONL. The pinned digests (`ledger.snapshot.txt`) were
//! computed before the ledger, the sender path and the bridge-link table
//! were each cut to one copy, so they prove the cut moved no draw, count,
//! metric or trace byte.

use pilgrim_ring::{
    Delivery, LinkModel, Medium, NetStats, Network, NetworkConfig, NodeId, PartitionWindow,
    Topology, TxClass, TxStatus,
};
use pilgrim_sim::check::{check, choice, ensure_eq, u64_range, zip};
use pilgrim_sim::{DetRng, Metrics, SimDuration, SimTime, SpanId, Tracer};

const STATIONS: u32 = 20;

/// FNV-1a over little-endian words and raw bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn status(&mut self, st: TxStatus) {
        match st {
            TxStatus::Queued { deliver_at } => {
                self.u64(0);
                self.u64(deliver_at.as_micros());
            }
            TxStatus::Nack => self.u64(1),
        }
    }

    fn delivery(&mut self, d: &Delivery<u64>) {
        self.u64(u64::from(d.src.0));
        self.u64(u64::from(d.dst.0));
        self.u64(d.at.as_micros());
        self.u64(d.span.map_or(u64::MAX, SpanId::get));
        self.u64(u64::from(d.bytes));
        self.u64(d.payload);
    }
}

fn config(topology: Topology, medium: Medium, seed: u64) -> NetworkConfig {
    NetworkConfig {
        p_interface_loss: 0.05,
        p_silent_loss: 0.03,
        medium,
        seed,
        topology,
        link: LinkModel {
            latency: SimDuration::from_micros(300),
            jitter: SimDuration::from_micros(40),
            per_byte: SimDuration::from_micros(2),
            p_loss: 0.04,
        },
        // (0, 3) is a bridge of both RingOfRings{4} and Star{3}.
        partitions: vec![PartitionWindow {
            from: SimTime::from_millis(150),
            to: SimTime::from_millis(260),
            a: 3,
            b: 0,
        }],
        ..NetworkConfig::default()
    }
}

/// What one script run leaves behind.
struct Run {
    net: Network<u64>,
    metrics: Metrics,
    tracer: Tracer,
    /// Every status and delivery, in the order the script saw them.
    seen: Fnv,
}

/// Drives `steps` random operations from `seed` over a fresh network.
fn run_script(topology: Topology, medium: Medium, seed: u64, steps: u32) -> Run {
    let mut net: Network<u64> = Network::new(config(topology, medium, seed), STATIONS);
    let metrics = Metrics::new();
    let tracer = Tracer::new();
    net.attach_metrics(&metrics);
    net.attach_tracer(tracer.clone());
    let mut rng = DetRng::seed(seed ^ 0x005c_41b7);
    let mut seen = Fnv(0xcbf2_9ce4_8422_2325);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for step in 0..steps {
        now += SimDuration::from_micros(rng.below(1_500));
        // Driver stimuli at fixed fractions of the script: a stretch with
        // the (0, 1) bridge forced down, then one with station 5 down.
        let at = |tenths: u32| step == steps * tenths / 10;
        if at(3) {
            net.set_link_up(0, 1, false);
        }
        if at(5) {
            net.set_link_up(1, 0, true);
        }
        if at(6) {
            net.set_up(NodeId(5), false);
        }
        if at(8) {
            net.set_up(NodeId(5), true);
        }
        let src = NodeId(rng.below(u64::from(STATIONS)) as u32);
        let dst = NodeId((src.0 + 1 + rng.below(u64::from(STATIONS) - 1) as u32) % STATIONS);
        let bytes = 16 + rng.below(480) as usize;
        let payload = u64::from(step);
        match rng.below(20) {
            0..=8 => {
                let class = if rng.chance(0.3) {
                    TxClass::Control
                } else {
                    TxClass::Data
                };
                let span = rng.chance(0.5).then(|| tracer.next_span());
                seen.status(net.send_spanned(now, src, dst, payload, bytes, class, span));
            }
            9..=11 => {
                let budget = 1 + rng.below(4) as u32;
                let (st, attempts) =
                    net.send_with_retransmit(now, src, dst, payload, bytes, budget);
                seen.status(st);
                seen.u64(u64::from(attempts));
            }
            12 => net.drop_next(src, dst, 1 + rng.below(3) as u32),
            13 if medium == Medium::Ethernet => {
                let at = net.broadcast(now, src, payload, bytes);
                seen.u64(at.map_or(u64::MAX, SimTime::as_micros));
            }
            _ => net.poll_into(now, &mut out),
        }
        for d in out.drain(..) {
            seen.delivery(&d);
        }
    }
    for d in net.poll(now + SimDuration::from_secs(10)).0 {
        seen.delivery(&d);
    }
    Run {
        net,
        metrics,
        tracer,
        seen,
    }
}

fn fields(s: NetStats) -> [u64; 6] {
    [
        s.sent,
        s.delivered,
        s.nacked,
        s.silently_lost,
        s.bridge_lost,
        s.bytes_sent,
    ]
}

/// The hash of everything a run leaves observable.
fn digest(run: Run) -> u64 {
    let Run {
        net,
        metrics,
        tracer,
        mut seen,
    } = run;
    for i in 0..net.nodes() {
        for v in fields(net.station_stats(NodeId(i))) {
            seen.u64(v);
        }
    }
    metrics.for_each_counter(|name, c| {
        seen.bytes(name.as_bytes());
        seen.u64(c.get());
    });
    metrics.for_each_gauge(|name, g| {
        seen.bytes(name.as_bytes());
        seen.u64(g.get() as u64);
    });
    seen.bytes(tracer.to_jsonl().as_bytes());
    seen.0
}

const TOPOLOGIES: [Topology; 3] = [
    Topology::Flat,
    Topology::RingOfRings { segments: 4 },
    Topology::Star { arms: 3 },
];
const MEDIA: [Medium; 2] = [Medium::CambridgeRing, Medium::Ethernet];

/// One `topology medium digest` line per pair, computed at the parent of
/// the network's one-ledger refactor. `sh scripts/pins.sh` rewrites it
/// from the lines this test prints between the markers below.
const SNAPSHOT: &str = include_str!("ledger.snapshot.txt");

#[test]
fn traffic_script_digests_are_pinned() {
    let mut got = String::new();
    for t in TOPOLOGIES {
        for m in MEDIA {
            let run = run_script(t, m, 0x5eed, 1_500);
            // The script reaches every outcome its world can produce.
            let s = run.net.stats();
            assert!(s.delivered > 0 && s.silently_lost > 0, "{t:?} {m:?}: {s:?}");
            assert_eq!(
                s.nacked > 0,
                m == Medium::CambridgeRing,
                "{t:?} {m:?}: {s:?}"
            );
            assert_eq!(s.bridge_lost > 0, t != Topology::Flat, "{t:?} {m:?}: {s:?}");
            got.push_str(&format!("{t:?} {} {:#018x}\n", m.name(), digest(run)));
        }
    }
    println!("----- digest -----\n{got}----- end digest -----");
    assert_eq!(got, SNAPSHOT, "the traffic script's digests moved");
}

#[test]
fn stored_totals_match_the_station_fold_and_the_meters() {
    let gen = zip(
        u64_range(0, u64::MAX),
        zip(
            choice(TOPOLOGIES.to_vec()),
            zip(choice(MEDIA.to_vec()), u64_range(0, 400)),
        ),
    );
    check(
        "ring_ledgers_agree",
        &gen,
        |&(seed, (topology, (medium, steps)))| {
            let Run { net, metrics, .. } = run_script(topology, medium, seed, steps as u32);
            let mut fold = [0u64; 6];
            for i in 0..net.nodes() {
                for (f, v) in fold.iter_mut().zip(fields(net.station_stats(NodeId(i)))) {
                    *f += v;
                }
            }
            let total = fields(net.stats());
            ensure_eq(total, fold)?;
            let counter = |name: String| metrics.counter_value(&name).unwrap_or(u64::MAX);
            let aggregates = [
                "sent",
                "delivered",
                "nacked",
                "silently_lost",
                "bridge_lost",
                "bytes_sent",
            ];
            ensure_eq(total, aggregates.map(|f| counter(format!("net.{f}"))))?;
            if net.segments() > 1 {
                for s in 0..net.segments() {
                    let seg = net.segment_stats(s);
                    ensure_eq(
                        [seg.sent, seg.delivered, seg.bytes_sent],
                        ["sent", "delivered", "bytes"].map(|f| counter(format!("net.seg{s}.{f}"))),
                    )?;
                }
            }
            Ok(())
        },
    );
}
