//! The flight recorder's dump format: a self-describing snapshot of the
//! recent past, captured at the moment something went wrong.
//!
//! Pilgrim's premise is debugging *in the target environment under
//! conditions of actual use* (§1) — which means the interesting moment
//! has usually already happened by the time anyone attaches a debugger.
//! The flight recorder closes that gap: a fixed-budget ring of recent
//! trace events runs inside the [`Tracer`] even with full tracing off,
//! and the always-on time-series store (coarse by default) keeps the
//! last few metric windows. When a watchpoint trips, a `maybe` call is diagnosed as
//! lost, or the operator asks for one, the world freezes both rings into
//! a [`BlackboxSnapshot`] — rendered with the same `pilgrim_sim::json`
//! machinery as replay artifacts, so [`crate::open`] loads either format
//! for `pilgrim trace`.
//!
//! [`Tracer`]: pilgrim_sim::Tracer

use pilgrim_sim::json::Fields;
use pilgrim_sim::{Json, SimTime, TraceEvent};

use crate::saved::Saved;

/// Blackbox format tag, checked on load.
pub const FORMAT: &str = "pilgrim-blackbox";
/// Blackbox format version, checked on load.
pub const VERSION: u32 = 1;

/// A frozen flight-recorder snapshot: why and when it was taken, the
/// metrics inventory at that instant, the retained time-series
/// windows, and the recent-event ring as JSONL.
#[derive(Debug, Clone)]
pub struct BlackboxSnapshot {
    /// What triggered the dump (`watch rpc.failed > 0`, `maybe-lost-call`,
    /// `manual`, …).
    pub reason: String,
    /// Simulated time of the snapshot.
    pub at: SimTime,
    /// Sync-point ordinal of the snapshot.
    pub sync_index: u64,
    /// The raw metrics inventory (`Metrics::report`) at the snapshot.
    pub metrics: String,
    /// The time-series store's window summary at the snapshot — the same
    /// text `World::tsdb_summary` returns.
    pub windows: String,
    /// Every retained series rendered sample by sample
    /// (`SeriesStore::render_all`), so offline tooling can answer "what
    /// did net.bridge_lost do over the last few windows" from the dump
    /// alone.
    pub series: String,
    /// The flight-recorder event ring, oldest first, one JSON event per
    /// line — the same encoding as a replay artifact's trace section.
    pub events: String,
}

impl BlackboxSnapshot {
    /// Renders the snapshot as one self-describing JSON document
    /// (trailing newline included).
    pub fn render(&self) -> String {
        let doc = Json::obj(vec![
            ("format", Json::Str(FORMAT.to_string())),
            ("version", Json::Int(VERSION as i128)),
            ("reason", Json::Str(self.reason.clone())),
            ("at_us", Json::Int(self.at.as_micros() as i128)),
            ("sync_index", Json::Int(self.sync_index as i128)),
            ("metrics", Json::Str(self.metrics.clone())),
            ("windows", Json::Str(self.windows.clone())),
            ("series", Json::Str(self.series.clone())),
            ("events", Json::Str(self.events.clone())),
        ]);
        let mut out = String::new();
        doc.write(&mut out);
        out.push('\n');
        out
    }

    /// Parses a snapshot rendered by [`render`](BlackboxSnapshot::render).
    ///
    /// # Errors
    ///
    /// Everything [`Saved::parse`] rejects, and a well-formed document of
    /// the other kind (a replay recording).
    pub fn parse(text: &str) -> Result<BlackboxSnapshot, String> {
        Saved::parse(text).and_then(Saved::dump)
    }

    /// The sections of a parsed document whose `format` tag and version
    /// [`Saved::parse`] has already checked.
    pub(crate) fn from_doc(doc: &Json) -> Result<BlackboxSnapshot, String> {
        let f = Fields::new(doc, &"blackbox");
        let snapshot = BlackboxSnapshot {
            reason: f.str("reason")?.to_string(),
            at: SimTime::from_micros(f.uint("at_us")?),
            sync_index: f.uint("sync_index")?,
            metrics: f.str("metrics")?.to_string(),
            windows: f.str("windows")?.to_string(),
            series: f.str("series")?.to_string(),
            events: f.str("events")?.to_string(),
        };
        // `format` and `version` were checked before any section was read.
        f.get("format")?;
        f.get("version")?;
        f.finish()?;
        Ok(snapshot)
    }

    /// Decodes the event ring back into typed trace events.
    ///
    /// # Errors
    ///
    /// A malformed event line.
    pub fn decode_events(&self) -> Result<Vec<TraceEvent>, String> {
        TraceEvent::parse_jsonl(&self.events).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlackboxSnapshot {
        BlackboxSnapshot {
            reason: "watch rpc.failed > 0".into(),
            at: SimTime::from_micros(1234),
            sync_index: 17,
            metrics: "counter rpc.failed: 1\n".into(),
            windows: "tsdb: 1 samples retained (1 taken)\n".into(),
            series: "tsdb counter rpc.failed: 1 samples (interval 64 sync points)\n".into(),
            events: String::new(),
        }
    }

    #[test]
    fn snapshot_round_trips_byte_exactly() {
        let snap = sample();
        let text = snap.render();
        let back = BlackboxSnapshot::parse(&text).expect("parses");
        assert_eq!(back.render(), text);
        assert_eq!(back.reason, snap.reason);
        assert_eq!(back.at, snap.at);
        assert_eq!(back.sync_index, snap.sync_index);
        assert_eq!(back.series, snap.series);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(BlackboxSnapshot::parse("{\"format\": \"pilgrim-replay\"}").is_err());
        assert!(BlackboxSnapshot::parse("not json").is_err());
        // Runaway nesting is refused by the JSON layer, not the stack.
        let deep = BlackboxSnapshot::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(deep.contains("nesting deeper than"), "{deep}");
        let wrong_version = sample()
            .render()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(BlackboxSnapshot::parse(&wrong_version).is_err());
    }

    #[test]
    fn empty_event_ring_decodes_to_no_events() {
        assert_eq!(sample().decode_events().expect("decodes").len(), 0);
    }
}
