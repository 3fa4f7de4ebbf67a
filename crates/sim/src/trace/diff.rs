//! The divergence differ: where two traces first disagree, field by
//! field.

use super::{SpanId, TraceEvent};
use crate::json::Json;

/// One field-level difference inside a divergent event pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Field path, e.g. `time_us`, `span`, or `data.call_id`.
    pub field: String,
    /// Rendered value on the expected (recorded) side.
    pub expected: String,
    /// Rendered value on the actual (fresh) side.
    pub actual: String,
}

/// The first point where two traces disagree, with enough structure to
/// name the event rather than eyeball a string diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based index of the first divergent event.
    pub index: usize,
    /// Recorded event at that index, if the recorded trace reaches it.
    pub expected: Option<TraceEvent>,
    /// Fresh event at that index, if the fresh trace reaches it.
    pub actual: Option<TraceEvent>,
    /// Field-by-field differences when both sides have an event.
    pub fields: Vec<FieldDiff>,
}

impl Divergence {
    /// A human-readable multi-line report naming the divergent event's
    /// index, span, and kind, then each differing field.
    pub fn report(&self) -> String {
        let mut out = String::new();
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                out.push_str(&format!(
                    "trace divergence at event {}: expected kind {} (span {}), got kind {} (span {})\n",
                    self.index,
                    e.kind.name(),
                    span_str(e.span),
                    a.kind.name(),
                    span_str(a.span),
                ));
                for d in &self.fields {
                    out.push_str(&format!(
                        "  {}: expected {}, got {}\n",
                        d.field, d.expected, d.actual
                    ));
                }
                out.push_str(&format!("  expected event: {e}\n"));
                out.push_str(&format!("  actual event:   {a}\n"));
            }
            (Some(e), None) => {
                out.push_str(&format!(
                    "trace divergence at event {}: fresh trace ended early; expected kind {} (span {})\n  expected event: {e}\n",
                    self.index,
                    e.kind.name(),
                    span_str(e.span),
                ));
            }
            (None, Some(a)) => {
                out.push_str(&format!(
                    "trace divergence at event {}: fresh trace has extra kind {} (span {})\n  actual event: {a}\n",
                    self.index,
                    a.kind.name(),
                    span_str(a.span),
                ));
            }
            (None, None) => out.push_str("traces agree\n"),
        }
        out
    }
}

fn span_str(span: Option<SpanId>) -> String {
    opt_str(span.map(SpanId::get))
}

/// Compares two traces event-by-event and returns the first divergence,
/// or `None` when they are identical.
///
/// The comparison is structural: envelope fields (`time_us`, `category`,
/// `node`, `span`) and each typed payload field are diffed individually,
/// so the report can say *which* field moved instead of printing two
/// JSON lines.
///
/// # Examples
///
/// ```
/// use pilgrim_sim::{first_divergence, EventKind, SimTime, TraceCategory, TraceEvent};
///
/// let ev = |pid| TraceEvent {
///     time: SimTime::ZERO,
///     category: TraceCategory::Sched,
///     node: Some(0),
///     span: None,
///     kind: EventKind::ProcessExited { pid },
/// };
/// assert!(first_divergence(&[ev(1)], &[ev(1)]).is_none());
/// let d = first_divergence(&[ev(1)], &[ev(2)]).unwrap();
/// assert_eq!(d.index, 0);
/// assert_eq!(d.fields[0].field, "data.pid");
/// ```
pub fn first_divergence(expected: &[TraceEvent], actual: &[TraceEvent]) -> Option<Divergence> {
    let shared = expected.len().min(actual.len());
    for i in 0..shared {
        let (e, a) = (&expected[i], &actual[i]);
        if e == a {
            continue;
        }
        // One rule for every field: render both sides, report a mismatch.
        let mut fields = Vec::new();
        let mut diff = |field: String, expected: String, actual: String| {
            if expected != actual {
                fields.push(FieldDiff {
                    field,
                    expected,
                    actual,
                });
            }
        };
        let micros = |ev: &TraceEvent| ev.time.as_micros().to_string();
        diff("time_us".into(), micros(e), micros(a));
        diff(
            "category".into(),
            e.category.to_string(),
            a.category.to_string(),
        );
        diff("node".into(), opt_str(e.node), opt_str(a.node));
        diff("span".into(), span_str(e.span), span_str(a.span));
        diff("kind".into(), e.kind.name().into(), a.kind.name().into());
        if e.kind.name() == a.kind.name() {
            if let (Json::Object(ep), Json::Object(ap)) = (e.kind.data(), a.kind.data()) {
                let json = |v: &Json| {
                    let mut out = String::new();
                    v.write(&mut out);
                    out
                };
                for ((key, ev), (_, av)) in ep.iter().zip(ap.iter()) {
                    diff(format!("data.{key}"), json(ev), json(av));
                }
            }
        }
        return Some(Divergence {
            index: i,
            expected: Some(e.clone()),
            actual: Some(a.clone()),
            fields,
        });
    }
    if expected.len() != actual.len() {
        return Some(Divergence {
            index: shared,
            expected: expected.get(shared).cloned(),
            actual: actual.get(shared).cloned(),
            fields: Vec::new(),
        });
    }
    None
}

/// `v`'s number, or `-` for none.
fn opt_str(v: Option<impl ToString>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::super::kind::tests::all_event_kinds;
    use super::super::{EventKind, TraceCategory};
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn divergence_checker_reports_first_differing_field() {
        let base: Vec<TraceEvent> = all_event_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                time: SimTime::from_micros(i as u64),
                category: TraceCategory::Debug,
                node: Some(0),
                span: SpanId::from_wire(i as u64 + 1),
                kind,
            })
            .collect();
        assert!(first_divergence(&base, &base).is_none());

        // Mutate one payload field deep in the middle: a failure made a
        // success moves both the `ok` and the `outcome` members.
        let mut mutated = base.clone();
        if let EventKind::CallCompleted { failure, .. } = &mut mutated[7].kind {
            *failure = None;
        } else {
            panic!("expected CallCompleted at index 7");
        }
        let d = first_divergence(&base, &mutated).expect("must diverge");
        assert_eq!(d.index, 7);
        assert_eq!(d.fields.len(), 2);
        assert_eq!(d.fields[0].field, "data.ok");
        assert_eq!(d.fields[0].expected, "false");
        assert_eq!(d.fields[0].actual, "true");
        assert_eq!(d.fields[1].field, "data.outcome");
        let report = d.report();
        assert!(report.contains("event 7"), "{report}");
        assert!(report.contains("CallCompleted"), "{report}");
        assert!(report.contains("span 8"), "{report}");

        // A truncated trace reports the first missing index.
        let d = first_divergence(&base, &base[..5]).expect("must diverge");
        assert_eq!(d.index, 5);
        assert!(d.actual.is_none());
        assert!(d.report().contains("ended early"), "{}", d.report());

        // A changed kind reports the kind field, not a payload path.
        let mut rekinded = base.clone();
        rekinded[2].kind = EventKind::BreakpointHalt;
        let d = first_divergence(&base, &rekinded).expect("must diverge");
        assert_eq!(d.index, 2);
        assert!(d.fields.iter().any(|f| f.field == "kind"));
    }
}
