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

/// How a served call ended, as its reply said.
#[derive(Debug, PartialEq)]
pub(crate) enum Outcome {
    /// The marshalled results of a [`RpcPacket::Reply`].
    Replied(Box<[WireValue]>),
    /// The reason of a [`RpcPacket::ReplyFailure`].
    Failed(Box<str>),
}

/// What a reply said, kept so a retransmitted call is answered without
/// executing twice. The call id is the cache key and the wire size is a
/// function of the packet, so the reply is rebuilt from these two fields
/// rather than stored.
#[derive(Debug, PartialEq)]
pub(crate) struct CachedReply {
    /// The causal span header the reply carried.
    pub(crate) span: u64,
    /// What the reply carried besides its header.
    pub(crate) outcome: Outcome,
}

impl CachedReply {
    /// The reply packet to `call_id` that this entry was cached from.
    pub(crate) fn packet(&self, call_id: CallId) -> RpcPacket {
        let span = self.span;
        match &self.outcome {
            Outcome::Replied(results) => RpcPacket::Reply {
                call_id,
                span,
                results: results.to_vec(),
            },
            Outcome::Failed(reason) => RpcPacket::ReplyFailure {
                call_id,
                span,
                reason: reason.to_string(),
            },
        }
    }
}

/// Every call this node has accepted, keyed by call id. The value is
/// `None` while the call executes and the reply's outcome once one has
/// been sent. Entries are never dropped: a client halted under the
/// debugger re-arms its retry timer without consuming an attempt (§5.2),
/// so no bound on a retransmission's lateness follows from the retry
/// ladder.
#[derive(Debug, Default)]
pub(crate) struct SeenCalls(SortedLog<SortedLog<Option<CachedReply>>>);

impl SeenCalls {
    /// The record of `id`, created (as executing) when this is the first
    /// the server hears of it, and whether it already existed.
    pub(crate) fn find_or_insert(&mut self, id: CallId) -> (&mut Option<CachedReply>, bool) {
        let (caller, _) = self.0.find_or_insert(u64::from(call_id_node(id).0));
        caller.find_or_insert(call_id_counter(id))
    }

    /// The record of `id`, if the server has heard of it.
    pub(crate) fn get(&self, id: CallId) -> Option<&Option<CachedReply>> {
        self.0
            .get(u64::from(call_id_node(id).0))?
            .get(call_id_counter(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::make_call_id;
    use pilgrim_ring::NodeId;

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
        let reply = |id| CachedReply {
            span: id,
            outcome: Outcome::Replied(Box::new([])),
        };
        // Interleaved callers, counters arriving out of order per caller.
        for (node, counter) in [(3, 1), (0, 7), (3, 3), (9, 1), (0, 2), (3, 2)] {
            let id = make_call_id(NodeId(node), counter);
            let (entry, existed) = seen.find_or_insert(id);
            assert!(!existed && entry.is_none());
            *entry = Some(reply(id));
        }
        for (node, counter) in [(0, 2), (0, 7), (3, 1), (3, 2), (3, 3), (9, 1)] {
            let id = make_call_id(NodeId(node), counter);
            assert_eq!(seen.get(id), Some(&Some(reply(id))));
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
        let cached = [
            CachedReply {
                span: 17,
                outcome: Outcome::Replied(results.into()),
            },
            CachedReply {
                span: 0,
                outcome: Outcome::Failed("remote fault".into()),
            },
        ];
        for (sent, cached) in sent.iter().zip(&cached) {
            assert_eq!(&cached.packet(id), sent);
        }
        // A log entry is the counter, the span and a boxed outcome.
        assert!(std::mem::size_of::<(u64, Option<CachedReply>)>() <= 40);
    }
}
