//! The server's record of the calls it has accepted: duplicate
//! suppression and the exactly-once reply cache.
//!
//! A call id is `node << 40 | counter`, and a server sees only a subset of
//! each caller's counters (a client spreads them over every server it
//! calls), so a dense window per caller would be mostly holes. Each caller
//! gets a log sorted by counter instead: a new call almost always carries
//! a counter above the caller's last and is appended, the reply that
//! follows finds it near the tail, and only retransmissions and
//! jitter-reordered packets reach the binary search. The callers are
//! themselves a log sorted by node id — the same structure one level up.
//!
//! Entries are never dropped, so they are kept at the size of what they
//! say. A caller's log holds 24-byte entries — the counter, the reply's
//! span header and where its outcome lies — and the outcomes sit back to
//! back in one byte arena per caller: a tag byte, then the results in the
//! byte form of [`WireValue::encode_into`] or the failure reason's UTF-8.

use std::cmp::Ordering;

use crate::marshal::WireValue;
use crate::packet::{call_id_counter, call_id_node, CallId, RpcPacket};

/// A vector of `(key, value)` kept sorted by key.
#[derive(Debug)]
struct SortedLog<T>(Vec<(u64, T)>);

impl<T> Default for SortedLog<T> {
    fn default() -> Self {
        SortedLog(Vec::new())
    }
}

impl<T: Default> SortedLog<T> {
    /// How far back from the tail a lookup walks before it bisects.
    const TAIL: usize = 8;

    /// Where `key` is, or where it would go. Nearly every lookup is for
    /// one of the newest entries — the call just appended, or one of the
    /// few still executing that a reply is being recorded for — so the
    /// search walks back from the tail and bisects only what is left.
    fn position(&self, key: u64) -> Result<usize, usize> {
        let older = self.0.len().saturating_sub(Self::TAIL);
        for at in (older..self.0.len()).rev() {
            match self.0[at].0.cmp(&key) {
                Ordering::Equal => return Ok(at),
                Ordering::Less => return Err(at + 1),
                Ordering::Greater => {}
            }
        }
        self.0[..older].binary_search_by_key(&key, |e| e.0)
    }

    /// The entry under `key`, created with the default value when absent,
    /// and whether it was already there.
    fn find_or_insert(&mut self, key: u64) -> (&mut T, bool) {
        let found = self.position(key);
        let at = found.unwrap_or_else(|at| {
            self.0.insert(at, (key, T::default()));
            at
        });
        (&mut self.0[at].1, found.is_ok())
    }

    fn get(&self, key: u64) -> Option<&T> {
        Some(&self.0[self.position(key).ok()?].1)
    }
}

/// Tag byte of an outcome whose reply carried results.
const REPLIED: u8 = 0;
/// Tag byte of an outcome whose reply carried a failure reason.
const FAILED: u8 = 1;
/// [`Slot::len`] of a call that is still executing.
const EXECUTING: u32 = u32::MAX;

/// A call as its caller's log keeps it: the span header its reply carried
/// and where the reply's outcome lies in the caller's arena — `len` bytes
/// from `at`, or `len == EXECUTING` while no reply has been sent.
#[derive(Debug, Clone, Copy)]
struct Slot {
    span: u64,
    at: u32,
    len: u32,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            span: 0,
            at: 0,
            len: EXECUTING,
        }
    }
}

/// One caller's calls, and the bytes of their outcomes.
#[derive(Debug, Default)]
struct CallerLog {
    calls: SortedLog<Slot>,
    arena: Vec<u8>,
}

impl CallerLog {
    fn reply(&self, slot: Slot) -> Option<CachedReply<'_>> {
        (slot.len != EXECUTING).then(|| {
            let at = slot.at as usize;
            CachedReply {
                span: slot.span,
                bytes: &self.arena[at..at + slot.len as usize],
            }
        })
    }
}

/// How a served call ended, as its reply said.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome<'a> {
    /// The marshalled results of a [`RpcPacket::Reply`].
    Replied(&'a [WireValue]),
    /// The reason of a [`RpcPacket::ReplyFailure`].
    Failed(&'a str),
}

/// What a reply said, kept so a retransmitted call is answered without
/// executing twice: the span header it carried and its outcome's bytes.
/// The call id is the cache key and the wire size is a function of the
/// packet, so the reply is rebuilt from these rather than stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CachedReply<'a> {
    span: u64,
    bytes: &'a [u8],
}

impl CachedReply<'_> {
    /// Whether the reply carried results rather than a failure.
    pub(crate) fn replied(&self) -> bool {
        self.bytes.first() == Some(&REPLIED)
    }

    /// The reply packet to `call_id` that this entry was cached from.
    pub(crate) fn packet(&self, call_id: CallId) -> RpcPacket {
        let span = self.span;
        let (tag, mut rest) = self
            .bytes
            .split_first()
            .expect("an outcome opens with its tag");
        if *tag == REPLIED {
            let mut results = Vec::new();
            while !rest.is_empty() {
                let value = WireValue::decode(&mut rest);
                results.push(value.expect("the cache decodes what it encoded"));
            }
            RpcPacket::Reply {
                call_id,
                span,
                results,
            }
        } else {
            RpcPacket::ReplyFailure {
                call_id,
                span,
                reason: String::from_utf8_lossy(rest).into_owned(),
            }
        }
    }
}

/// Every call this node has accepted, keyed by call id: executing, or
/// answered with the outcome its reply carried. Entries are never
/// dropped: a client halted under the debugger re-arms its retry timer
/// without consuming an attempt (§5.2), so no bound on a retransmission's
/// lateness follows from the retry ladder.
#[derive(Debug, Default)]
pub(crate) struct SeenCalls(SortedLog<CallerLog>);

impl SeenCalls {
    /// The log of `id`'s caller, created empty when this is the first the
    /// server hears from it.
    fn caller(&mut self, id: CallId) -> &mut CallerLog {
        self.0.find_or_insert(u64::from(call_id_node(id).0)).0
    }

    /// The record of `id` — its cached reply, `None` while it executes —
    /// created (as executing) when this is the first the server hears of
    /// it, and whether it already existed.
    pub(crate) fn find_or_insert(&mut self, id: CallId) -> (Option<CachedReply<'_>>, bool) {
        let caller = self.caller(id);
        let (slot, known) = caller.calls.find_or_insert(call_id_counter(id));
        let slot = *slot;
        (caller.reply(slot), known)
    }

    /// The record of `id`, if the server has heard of it.
    pub(crate) fn get(&self, id: CallId) -> Option<Option<CachedReply<'_>>> {
        let caller = self.0.get(u64::from(call_id_node(id).0))?;
        Some(caller.reply(*caller.calls.get(call_id_counter(id))?))
    }

    /// Marks `id` as executing again: a duplicate `maybe` call is never
    /// suppressed. The bytes of an earlier outcome stay in the arena,
    /// unreferenced, so what a node orphans is bounded by the duplicates
    /// it re-executed.
    pub(crate) fn restart(&mut self, id: CallId) {
        let caller = self.caller(id);
        *caller.calls.find_or_insert(call_id_counter(id)).0 = Slot::default();
    }

    /// Caches the outcome of the reply sent to `id`, appending its bytes
    /// to the caller's arena.
    ///
    /// # Panics
    ///
    /// One caller's outcomes passing 4 GiB.
    pub(crate) fn record(&mut self, id: CallId, span: u64, outcome: Outcome<'_>) {
        let caller = self.caller(id);
        let arena = &mut caller.arena;
        let at = arena.len();
        match outcome {
            Outcome::Replied(results) => {
                arena.push(REPLIED);
                results.iter().for_each(|r| r.encode_into(arena));
            }
            Outcome::Failed(reason) => {
                arena.push(FAILED);
                arena.extend_from_slice(reason.as_bytes());
            }
        }
        let end = u32::try_from(arena.len())
            .ok()
            .filter(|&end| end != EXECUTING)
            .expect("one caller's cached replies fit in 4 GiB");
        let at = at as u32;
        *caller.calls.find_or_insert(call_id_counter(id)).0 = Slot {
            span,
            at,
            len: end - at,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::make_call_id;
    use pilgrim_ring::NodeId;
    use pilgrim_sim::check::{check, ensure_eq, int_range, u64_range, vecs, zip};
    use pilgrim_sim::DetRng;

    #[test]
    fn insertion_below_the_tail_lands_in_order_and_a_duplicate_finds_the_same_entry() {
        let mut log: SortedLog<u32> = SortedLog::default();
        // Longer than the tail the lookup walks, so both halves of the
        // search place entries.
        let mut order: Vec<u64> = (0..40).map(|i| 1_000 + i * 10).collect();
        order.extend([1_005, 1_385, 7, 1_195, 2_000, 1_001]);
        for &key in &order {
            let (v, existed) = log.find_or_insert(key);
            assert!(!existed, "{key}");
            *v = key as u32 * 2;
        }
        assert!(log.0.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", log.0);
        assert_eq!(log.0.len(), order.len());
        for &key in &order {
            assert_eq!(log.get(key), Some(&(key as u32 * 2)));
            let (v, existed) = log.find_or_insert(key);
            assert!(existed, "{key}");
            assert_eq!(*v, key as u32 * 2, "the entry written before");
        }
        assert_eq!(log.0.len(), order.len(), "a duplicate adds nothing");
        for key in [0, 999, 1_006, 1_391, 2_001, u64::MAX] {
            assert_eq!(log.get(key), None, "{key}");
        }
    }

    #[test]
    fn callers_are_kept_apart_and_an_unheard_of_node_allocates_nothing_large() {
        let mut seen = SeenCalls::default();
        // Interleaved callers, counters arriving out of order per caller.
        for (node, counter) in [(3, 1), (0, 7), (3, 3), (9, 1), (0, 2), (3, 2)] {
            let id = make_call_id(NodeId(node), counter);
            let (entry, existed) = seen.find_or_insert(id);
            assert!(!existed && entry.is_none());
            seen.record(id, id, Outcome::Replied(&[]));
        }
        for (node, counter) in [(0, 2), (0, 7), (3, 1), (3, 2), (3, 3), (9, 1)] {
            let id = make_call_id(NodeId(node), counter);
            let reply = seen.get(id).flatten().expect("replied");
            assert_eq!((reply.span, reply.bytes), (id, &[REPLIED][..]));
            assert!(seen.find_or_insert(id).1);
        }
        // Same counter, another node; and a node id no station has.
        assert_eq!(seen.get(make_call_id(NodeId(1), 1)), None);
        let hostile = make_call_id(NodeId(0xff_ffff), 1);
        assert_eq!(seen.get(hostile), None);
        assert!(!seen.find_or_insert(hostile).1);
        assert_eq!(seen.0 .0.len(), 4, "one log per caller heard from");
    }

    #[test]
    fn a_cached_outcome_rebuilds_the_reply_it_was_cached_from() {
        let id = make_call_id(NodeId(4), 9);
        let results = vec![WireValue::Int(3), WireValue::Str("ok".into())];
        let sent = [
            RpcPacket::Reply {
                call_id: id,
                span: 17,
                results: results.clone(),
            },
            RpcPacket::ReplyFailure {
                call_id: id,
                span: 0,
                reason: "remote fault".into(),
            },
        ];
        let outcomes = [Outcome::Replied(&results), Outcome::Failed("remote fault")];
        for (sent, outcome) in sent.iter().zip(outcomes) {
            let mut seen = SeenCalls::default();
            seen.record(id, sent.span().map_or(0, |s| s.get()), outcome);
            let cached = seen.get(id).flatten().expect("recorded");
            assert_eq!(&cached.packet(id), sent);
            assert_eq!(cached.replied(), matches!(outcome, Outcome::Replied(_)));
        }
        // A log entry is the counter, the span and where the outcome lies.
        assert_eq!(std::mem::size_of::<(u64, Slot)>(), 24);
    }

    /// The reply cache as it was before it kept bytes: each entry boxes a
    /// copy of its outcome, `None` while the call executes.
    #[derive(Debug, Default)]
    struct Oracle(SortedLog<SortedLog<Option<OracleReply>>>);

    #[derive(Debug)]
    struct OracleReply {
        span: u64,
        outcome: OracleOutcome,
    }

    #[derive(Debug)]
    enum OracleOutcome {
        Replied(Box<[WireValue]>),
        Failed(Box<str>),
    }

    impl OracleReply {
        fn packet(&self, call_id: CallId) -> RpcPacket {
            let span = self.span;
            match &self.outcome {
                OracleOutcome::Replied(results) => RpcPacket::Reply {
                    call_id,
                    span,
                    results: results.to_vec(),
                },
                OracleOutcome::Failed(reason) => RpcPacket::ReplyFailure {
                    call_id,
                    span,
                    reason: reason.to_string(),
                },
            }
        }
    }

    impl Oracle {
        fn find_or_insert(&mut self, id: CallId) -> (&mut Option<OracleReply>, bool) {
            let (caller, _) = self.0.find_or_insert(u64::from(call_id_node(id).0));
            caller.find_or_insert(call_id_counter(id))
        }

        fn get(&self, id: CallId) -> Option<&Option<OracleReply>> {
            self.0
                .get(u64::from(call_id_node(id).0))?
                .get(call_id_counter(id))
        }
    }

    /// A string of `n` characters, some of them multi-byte.
    fn text(rng: &mut DetRng) -> String {
        let n = [0, 1, 7, 300][rng.below(4) as usize];
        (0..n).map(|i| if i % 5 == 4 { 'λ' } else { 'a' }).collect()
    }

    /// An arbitrary results value, nested up to `depth` levels.
    fn value(rng: &mut DetRng, depth: u32) -> WireValue {
        let composite = |rng: &mut DetRng| -> Vec<WireValue> {
            (0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()
        };
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => WireValue::Null,
            1 => WireValue::Int(match rng.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -1,
                _ => rng.next_u64() as i64,
            }),
            2 => WireValue::Bool(rng.below(2) == 1),
            3 => WireValue::Str(text(rng).into()),
            4 => WireValue::Array(composite(rng)),
            _ => WireValue::Record {
                type_name: text(rng).into(),
                fields: composite(rng),
            },
        }
    }

    /// Callers, among them node ids no ring has.
    const NODES: [u32; 5] = [0, 1, 3, 0x7f_ffff, 0xff_ffff];

    /// Random streams of the four things the endpoint does to the cache —
    /// find-or-insert a call, restart a `maybe` call, record a reply (empty,
    /// nested, long-stringed) or a failure — over interleaved callers and
    /// out-of-order, duplicated and hostile counters, on the byte log and on
    /// the boxed oracle. After every step, every id met so far (and some
    /// never met) must read the same, down to the rebuilt packet.
    #[test]
    fn the_byte_log_matches_the_boxed_reply_oracle() {
        let ops = vecs(
            zip(
                zip(int_range(0, 6), int_range(0, NODES.len() as i64)),
                zip(int_range(0, 44), u64_range(0, u64::MAX)),
            ),
            120,
        );
        check("seen byte log == boxed reply oracle", &ops, |ops| {
            let mut seen = SeenCalls::default();
            let mut oracle = Oracle::default();
            let mut ids = vec![make_call_id(NodeId(2), 1)];
            let read = |r: Option<CachedReply<'_>>, id| r.map(|r| r.packet(id));
            let read_oracle = |r: &Option<OracleReply>, id| r.as_ref().map(|r| r.packet(id));
            for &((op, node), (counter, seed)) in ops {
                let counter = match counter {
                    40 => 0,
                    41 => 0xff_ffff_ffff,
                    42 => 0xff_ffff_fffe,
                    43 => 1 << 32,
                    small => 1_000 - small as u64 * 7,
                };
                let id = make_call_id(NodeId(NODES[node as usize]), counter);
                if !ids.contains(&id) {
                    ids.push(id);
                }
                let mut rng = DetRng::seed(seed);
                let span = rng.next_u64();
                match op {
                    0 => {
                        let (got, known) = seen.find_or_insert(id);
                        let got = (read(got, id), known);
                        let (want, existed) = oracle.find_or_insert(id);
                        ensure_eq(got, (read_oracle(want, id), existed))?;
                    }
                    1 => {
                        seen.restart(id);
                        *oracle.find_or_insert(id).0 = None;
                    }
                    2 | 3 => {
                        let results: Vec<WireValue> = (0..rng.below(4) * (op - 2) as u64)
                            .map(|_| value(&mut rng, 3))
                            .collect();
                        seen.record(id, span, Outcome::Replied(&results));
                        *oracle.find_or_insert(id).0 = Some(OracleReply {
                            span,
                            outcome: OracleOutcome::Replied(results.into()),
                        });
                    }
                    4 => {
                        let reason = text(&mut rng);
                        seen.record(id, span, Outcome::Failed(&reason));
                        *oracle.find_or_insert(id).0 = Some(OracleReply {
                            span,
                            outcome: OracleOutcome::Failed(reason.into()),
                        });
                    }
                    _ => {}
                }
                for &id in ids.iter().chain(&[make_call_id(NodeId(1), 0xff_ffff_fffd)]) {
                    let got = seen.get(id).map(|r| read(r, id));
                    ensure_eq(got, oracle.get(id).map(|r| read_oracle(r, id)))?;
                    let replied = seen.get(id).flatten().map(|r| r.replied());
                    let want = oracle.get(id).and_then(Option::as_ref);
                    ensure_eq(
                        replied,
                        want.map(|r| matches!(r.outcome, OracleOutcome::Replied(_))),
                    )?;
                }
            }
            Ok(())
        });
    }
}
