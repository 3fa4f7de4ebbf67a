//! In-memory span recorder for the traced pass.
//!
//! Every unit is a root span; each public call the benchmark makes into
//! a crate is a child `{name, start_ns, end_ns, parent, unit}`. Spans are
//! recorded by the benchmark around its own calls, never inside the
//! program under test, and are written out only after the last unit.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its children cover.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub workload: &'static str,
    /// Ordinal of the unit inside the traced pass.
    pub unit: u32,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a unit root.
    pub parent: Option<u32>,
    /// 1 for an ordinary span. Greater for a summed span: the total time
    /// of that many calls made in a loop, laid end to end from the start
    /// of the parent (see [`Spans::summed`]).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    workload: &'static str,
    unit: u32,
}

impl Spans {
    /// A recorder that records (`on`) or one whose `enter`/`exit` do
    /// nothing, not even read the clock (the timed pass).
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            workload: "",
            unit: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a unit.
    pub fn begin_unit(&mut self, workload: &'static str, unit: u32) -> Open {
        self.workload = workload;
        self.unit = unit;
        debug_assert!(self.stack.is_empty(), "unit opened inside a span");
        self.enter("unit")
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            workload: self.workload,
            unit: self.unit,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            calls: 1,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records calls made in a tight loop as one span per name rather
    /// than one per call: `(name, total_ns, calls)`. The spans are laid
    /// end to end from the start of the span that is open now, so its
    /// self time is what the loop spent outside those calls.
    pub fn summed(&mut self, parts: &[(&'static str, u64, u64)]) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, total_ns, calls) in parts {
            self.spans.push(Span {
                workload: self.workload,
                unit: self.unit,
                name,
                start_ns: at,
                end_ns: at + total_ns,
                parent: Some(parent),
                calls,
            });
            at += total_ns;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: duration minus
/// the union of the children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The smallest share of a unit root that its children cover, over the
/// units of `workload` (1.0 when there are none).
pub fn min_unit_coverage(spans: &[Span], workload: &str) -> f64 {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.workload == workload && s.parent.is_none() && s.dur_ns() > 0)
        .map(|(s, own)| 1.0 - *own as f64 / s.dur_ns() as f64)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            workload: "w",
            unit: 0,
            name,
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("setup", 0, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("build", 5, 25, Some(1)),
            // Overlapping siblings count once; a child that overruns its
            // parent is clipped to it.
            span("a", 40, 60, Some(2)),
            span("b", 50, 70, Some(2)),
            span("c", 80, 120, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 20, 20, 20, 20, 40]);
        assert!((min_unit_coverage(&spans, "w") - 0.9).abs() < 1e-12);
        assert_eq!(min_unit_coverage(&spans, "other"), 1.0);
    }

    #[test]
    fn recorder_nests_and_lays_summed_spans_end_to_end() {
        let mut s = Spans::new(true);
        let unit = s.begin_unit("w", 3);
        let run = s.enter("run");
        s.summed(&[("run_until", 40, 7), ("spawn", 2, 7)]);
        s.exit(run);
        s.exit(unit);
        let spans = s.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].unit),
            ("unit", None, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("run", Some(0)));
        let run_start = spans[1].start_ns;
        assert_eq!(
            (spans[2].start_ns, spans[2].end_ns, spans[2].calls),
            (run_start, run_start + 40, 7)
        );
        assert_eq!(
            (spans[3].start_ns, spans[3].end_ns, spans[3].parent),
            (run_start + 40, run_start + 42, Some(1))
        );
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut s = Spans::new(false);
        let unit = s.begin_unit("w", 0);
        let inner = s.enter("setup");
        s.summed(&[("x", 1, 1)]);
        s.exit(inner);
        s.exit(unit);
        assert!(s.into_spans().is_empty());
    }
}
