//! Simulated-time profiling primitives: call-edge trees, folded-stack
//! emission, time-attribution ledgers, and metric watchpoints.
//!
//! The VM layer already counts per-procedure instruction/cost totals when
//! `profile_vm` is on; this module supplies the structures that turn those
//! raw counts into a *profiler*:
//!
//! * [`CallTree`] — a prefix tree over call stacks. Each node is a unique
//!   stack (root → frame), so emitting one line per node with its self
//!   cost yields the folded-stack format (`a;b;c 4200`) that standard
//!   flamegraph tooling consumes.
//! * [`TimeLedger`] — splits a process's simulated lifetime into buckets
//!   (executing, runnable-waiting, blocked on a semaphore, blocked on an
//!   RPC, sleeping, stopped by the debugger). Schedulers settle the ledger
//!   at every state transition.
//! * [`Watchpoint`] — a comparison predicate over a registered metric
//!   (`rpc.failed > 0`). The world evaluates armed watchpoints at every
//!   sync point and halts when one trips: breakpoint semantics for
//!   metrics.
//!
//! Everything here is deterministic: identical runs produce byte-identical
//! folded output and trip watchpoints at identical sync points.

use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Index of a node inside a [`CallTree`].
pub type CallNodeId = u32;

/// One node of a [`CallTree`]: a unique call stack, identified by its
/// deepest frame plus the parent stack.
#[derive(Debug, Clone)]
struct CallNode {
    /// Parent stack, `None` for a root frame.
    parent: Option<CallNodeId>,
    /// The frame id (a VM procedure id) at the top of this stack.
    frame: u32,
    /// Instructions retired while this exact stack was on top.
    instr: u64,
    /// Simulated cost (µs) charged while this exact stack was on top.
    cost: u64,
    /// Child stacks, keyed by frame id. Linear scan: fan-out per frame is
    /// small (a procedure calls few distinct callees).
    children: Vec<(u32, CallNodeId)>,
}

/// A caller→callee edge aggregated out of a [`CallTree`].
///
/// `caller` is `None` for root frames (entry procedures with no VM
/// caller). Costs are *self* costs of the callee while invoked from that
/// caller, summed over every stack that ends in the edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling frame id, or `None` when `callee` is a stack root.
    pub caller: Option<u32>,
    /// Called frame id.
    pub callee: u32,
    /// Instructions retired in `callee` when invoked from `caller`.
    pub instr: u64,
    /// Simulated self cost (µs) of `callee` when invoked from `caller`.
    pub cost: u64,
}

/// A prefix tree over VM call stacks with per-stack self costs.
///
/// Frames are plain `u32` ids (the VM's procedure ids); mapping ids to
/// names happens at emission time via a caller-supplied lookup, keeping
/// the hot recording path free of strings.
#[derive(Debug, Clone, Default)]
pub struct CallTree {
    nodes: Vec<CallNode>,
    /// Root stacks, keyed by frame id.
    roots: Vec<(u32, CallNodeId)>,
}

impl CallTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns the root stack `[frame]`, returning its node id.
    pub fn root(&mut self, frame: u32) -> CallNodeId {
        if let Some(&(_, id)) = self.roots.iter().find(|(f, _)| *f == frame) {
            return id;
        }
        let id = self.push(None, frame);
        self.roots.push((frame, id));
        id
    }

    /// Interns the child stack `parent + [frame]`, returning its node id.
    pub fn child(&mut self, parent: CallNodeId, frame: u32) -> CallNodeId {
        let kids = &self.nodes[parent as usize].children;
        if let Some(&(_, id)) = kids.iter().find(|(f, _)| *f == frame) {
            return id;
        }
        let id = self.push(Some(parent), frame);
        self.nodes[parent as usize].children.push((frame, id));
        id
    }

    fn push(&mut self, parent: Option<CallNodeId>, frame: u32) -> CallNodeId {
        let id = self.nodes.len() as CallNodeId;
        self.nodes.push(CallNode {
            parent,
            frame,
            instr: 0,
            cost: 0,
            children: Vec::new(),
        });
        id
    }

    /// Charges `instr` instructions and `cost` µs of self time to `node`.
    pub fn record(&mut self, node: CallNodeId, instr: u64, cost: u64) {
        let n = &mut self.nodes[node as usize];
        n.instr += instr;
        n.cost += cost;
    }

    /// The frame id at the top of `node`'s stack.
    pub fn frame_of(&self, node: CallNodeId) -> u32 {
        self.nodes[node as usize].frame
    }

    /// The parent stack of `node`, `None` for roots.
    pub fn parent_of(&self, node: CallNodeId) -> Option<CallNodeId> {
        self.nodes[node as usize].parent
    }

    /// Interns the full stack `frames` (outermost first), returning the
    /// node for the deepest frame. Used when an incremental cursor cannot
    /// be reused (e.g. after an unwind past several frames).
    pub fn intern_stack(&mut self, frames: impl IntoIterator<Item = u32>) -> Option<CallNodeId> {
        let mut cursor = None;
        for frame in frames {
            cursor = Some(match cursor {
                None => self.root(frame),
                Some(parent) => self.child(parent, frame),
            });
        }
        cursor
    }

    /// Emits folded-stack lines: one `(stack, cost)` pair per node with
    /// nonzero self cost, where `stack` joins frame names root-first with
    /// `;`. Output is sorted lexicographically by stack so identical
    /// profiles render byte-identically.
    pub fn folded(&self, name_of: impl Fn(u32) -> String) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if node.cost == 0 && node.instr == 0 {
                continue;
            }
            let mut frames = vec![node.frame];
            let mut cur = node.parent;
            while let Some(p) = cur {
                let pn = &self.nodes[p as usize];
                frames.push(pn.frame);
                cur = pn.parent;
            }
            frames.reverse();
            let stack = frames
                .iter()
                .map(|&f| name_of(f))
                .collect::<Vec<_>>()
                .join(";");
            let _ = id;
            out.push((stack, node.cost));
        }
        out.sort();
        out
    }

    /// Aggregates the tree into caller→callee edges, summed over every
    /// stack containing the edge and sorted by `(caller, callee)`.
    pub fn edges(&self) -> Vec<CallEdge> {
        let mut agg: BTreeMap<(Option<u32>, u32), (u64, u64)> = BTreeMap::new();
        for node in &self.nodes {
            if node.cost == 0 && node.instr == 0 {
                continue;
            }
            let caller = node.parent.map(|p| self.nodes[p as usize].frame);
            let e = agg.entry((caller, node.frame)).or_insert((0, 0));
            e.0 += node.instr;
            e.1 += node.cost;
        }
        agg.into_iter()
            .map(|((caller, callee), (instr, cost))| CallEdge {
                caller,
                callee,
                instr,
                cost,
            })
            .collect()
    }
}

/// The bucket a process's simulated time is attributed to between two
/// scheduler transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerBucket {
    /// Retiring VM instructions (or native-procedure cost).
    Executing,
    /// Runnable, waiting in the run queue for a time slice.
    Runnable,
    /// Blocked on a semaphore or mutex.
    BlockedSem,
    /// Blocked on an in-flight RPC.
    BlockedRpc,
    /// Sleeping until a wakeup time.
    Sleeping,
    /// Stopped by the debugger (halted, trapped, or trace-stopped).
    Stopped,
}

/// Per-process simulated-time attribution: how much of its lifetime went
/// to each [`LedgerBucket`]. Settled by the scheduler at every state
/// transition, so the buckets sum to the observed lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeLedger {
    /// Time retiring VM instructions.
    pub executing: SimDuration,
    /// Time runnable but not scheduled.
    pub runnable: SimDuration,
    /// Time blocked on semaphores/mutexes.
    pub blocked_sem: SimDuration,
    /// Time blocked on RPC completions.
    pub blocked_rpc: SimDuration,
    /// Time sleeping.
    pub sleeping: SimDuration,
    /// Time stopped under the debugger.
    pub stopped: SimDuration,
}

impl TimeLedger {
    /// Adds `d` to `bucket`.
    pub fn add(&mut self, bucket: LedgerBucket, d: SimDuration) {
        match bucket {
            LedgerBucket::Executing => self.executing += d,
            LedgerBucket::Runnable => self.runnable += d,
            LedgerBucket::BlockedSem => self.blocked_sem += d,
            LedgerBucket::BlockedRpc => self.blocked_rpc += d,
            LedgerBucket::Sleeping => self.sleeping += d,
            LedgerBucket::Stopped => self.stopped += d,
        }
    }

    /// Sums another ledger into this one.
    pub fn merge(&mut self, other: &TimeLedger) {
        self.executing += other.executing;
        self.runnable += other.runnable;
        self.blocked_sem += other.blocked_sem;
        self.blocked_rpc += other.blocked_rpc;
        self.sleeping += other.sleeping;
        self.stopped += other.stopped;
    }

    /// Total attributed time across all buckets.
    pub fn total(&self) -> SimDuration {
        self.executing
            + self.runnable
            + self.blocked_sem
            + self.blocked_rpc
            + self.sleeping
            + self.stopped
    }

    /// Renders the ledger as `exec {}us run {}us sem {}us rpc {}us sleep
    /// {}us stop {}us` (stable column order for report snapshots).
    pub fn render(&self) -> String {
        format!(
            "exec {}us run {}us sem {}us rpc {}us sleep {}us stop {}us",
            self.executing.as_micros(),
            self.runnable.as_micros(),
            self.blocked_sem.as_micros(),
            self.blocked_rpc.as_micros(),
            self.sleeping.as_micros(),
            self.stopped.as_micros(),
        )
    }
}

/// Tracks the open interval for one process's [`TimeLedger`]: the time the
/// current scheduler state was entered. Callers attribute `[since, now]`
/// to the *pre-transition* bucket whenever the state changes.
#[derive(Debug, Clone, Copy)]
pub struct LedgerClock {
    /// When the current state was entered.
    pub since: SimTime,
}

impl LedgerClock {
    /// Starts the clock at `now`.
    pub fn new(now: SimTime) -> Self {
        Self { since: now }
    }

    /// The length of the open interval at `now`, leaving it open.
    pub fn open(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.since)
    }

    /// Closes the open interval at `now`, returning its length, and
    /// reopens it at `now`.
    pub fn settle(&mut self, now: SimTime) -> SimDuration {
        let d = self.open(now);
        self.since = now;
        d
    }
}

/// Comparison operator of a [`Watchpoint`] predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A predicate over one registered metric: `metric op threshold`.
///
/// Sampling resolves the name against counters first, then gauges, then
/// histograms (a histogram samples as its observation count). The world
/// evaluates armed watchpoints at every lockstep sync point and halts at
/// the first one where the predicate holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watchpoint {
    /// Metric name, e.g. `rpc.failed`.
    pub metric: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side of the comparison.
    pub threshold: i64,
}

impl Watchpoint {
    /// Parses `"<metric> <op> <threshold>"` (whitespace-separated, e.g.
    /// `rpc.failed > 0`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed part.
    pub fn parse(expr: &str) -> Result<Watchpoint, String> {
        let mut parts = expr.split_whitespace();
        let metric = parts
            .next()
            .ok_or_else(|| "empty watch expression (want `metric op value`)".to_string())?;
        let op = match parts.next() {
            Some(">") => CmpOp::Gt,
            Some(">=") => CmpOp::Ge,
            Some("<") => CmpOp::Lt,
            Some("<=") => CmpOp::Le,
            Some("==") | Some("=") => CmpOp::Eq,
            Some("!=") => CmpOp::Ne,
            Some(other) => {
                return Err(format!("unknown operator `{other}` (want > >= < <= == !=)"))
            }
            None => return Err("missing operator (want `metric op value`)".to_string()),
        };
        let raw = parts
            .next()
            .ok_or_else(|| "missing threshold (want `metric op value`)".to_string())?;
        let threshold: i64 = raw
            .parse()
            .map_err(|_| format!("threshold `{raw}` is not an integer"))?;
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected trailing token `{extra}`"));
        }
        Ok(Watchpoint {
            metric: metric.to_string(),
            op,
            threshold,
        })
    }

    /// Canonical rendering (`metric op threshold`), stable regardless of
    /// the whitespace the user typed.
    pub fn expr(&self) -> String {
        format!("{} {} {}", self.metric, self.op, self.threshold)
    }

    /// Samples the metric's current value, or `None` when no instrument
    /// of that name is registered yet. Counters win over gauges over
    /// histograms; a histogram samples as its observation count.
    pub fn sample(&self, metrics: &Metrics) -> Option<i64> {
        if let Some(v) = metrics.counter_value(&self.metric) {
            return i64::try_from(v).ok().or(Some(i64::MAX));
        }
        if let Some(v) = metrics.gauge_value(&self.metric) {
            return Some(v);
        }
        metrics
            .histogram_named(&self.metric)
            .map(|h| i64::try_from(h.count()).ok().unwrap_or(i64::MAX))
    }

    /// Evaluates the predicate; `Some(observed)` when it holds. Unknown
    /// metrics never trip.
    pub fn tripped(&self, metrics: &Metrics) -> Option<i64> {
        let v = self.sample(metrics)?;
        self.op.eval(v, self.threshold).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(f: u32) -> String {
        match f {
            0 => "main".to_string(),
            1 => "server_loop".to_string(),
            2 => "hash_insert".to_string(),
            n => format!("p{n}"),
        }
    }

    #[test]
    fn call_tree_interns_stacks_once() {
        let mut t = CallTree::new();
        let main = t.root(0);
        assert_eq!(t.root(0), main);
        let loop_ = t.child(main, 1);
        assert_eq!(t.child(main, 1), loop_);
        let ins = t.child(loop_, 2);
        assert_ne!(ins, loop_);
        assert_eq!(t.parent_of(ins), Some(loop_));
        assert_eq!(t.frame_of(ins), 2);
        assert_eq!(t.intern_stack([0, 1, 2]), Some(ins));
    }

    #[test]
    fn folded_emits_sorted_nonzero_stacks() {
        let mut t = CallTree::new();
        let main = t.root(0);
        let loop_ = t.child(main, 1);
        let ins = t.child(loop_, 2);
        t.record(ins, 10, 4200);
        t.record(main, 1, 7);
        // `loop_` has zero self cost: no line.
        let folded = t.folded(names);
        assert_eq!(
            folded,
            vec![
                ("main".to_string(), 7),
                ("main;server_loop;hash_insert".to_string(), 4200),
            ]
        );
    }

    #[test]
    fn recursion_folds_to_repeated_frames() {
        let mut t = CallTree::new();
        let a = t.root(0);
        let b = t.child(a, 2);
        let c = t.child(b, 2);
        t.record(c, 5, 50);
        let folded = t.folded(names);
        assert_eq!(
            folded,
            vec![("main;hash_insert;hash_insert".to_string(), 50)]
        );
    }

    #[test]
    fn edges_aggregate_across_stacks() {
        let mut t = CallTree::new();
        // Two distinct stacks ending in the same main→hash_insert edge.
        let a = t.root(0);
        let ab = t.child(a, 2);
        let al = t.child(a, 1);
        let alb = t.child(al, 2);
        // ...plus hash_insert reached from server_loop.
        t.record(ab, 3, 30);
        t.record(alb, 4, 40);
        t.record(a, 1, 1);
        let edges = t.edges();
        assert_eq!(
            edges,
            vec![
                CallEdge {
                    caller: None,
                    callee: 0,
                    instr: 1,
                    cost: 1
                },
                CallEdge {
                    caller: Some(0),
                    callee: 2,
                    instr: 3,
                    cost: 30
                },
                CallEdge {
                    caller: Some(1),
                    callee: 2,
                    instr: 4,
                    cost: 40
                },
            ]
        );
    }

    #[test]
    fn ledger_buckets_sum_to_total() {
        let mut l = TimeLedger::default();
        l.add(LedgerBucket::Executing, SimDuration::from_micros(10));
        l.add(LedgerBucket::Runnable, SimDuration::from_micros(20));
        l.add(LedgerBucket::BlockedSem, SimDuration::from_micros(30));
        l.add(LedgerBucket::BlockedRpc, SimDuration::from_micros(40));
        l.add(LedgerBucket::Sleeping, SimDuration::from_micros(50));
        l.add(LedgerBucket::Stopped, SimDuration::from_micros(60));
        assert_eq!(l.total(), SimDuration::from_micros(210));
        let mut m = TimeLedger::default();
        m.merge(&l);
        m.merge(&l);
        assert_eq!(m.total(), SimDuration::from_micros(420));
        assert_eq!(
            l.render(),
            "exec 10us run 20us sem 30us rpc 40us sleep 50us stop 60us"
        );
    }

    #[test]
    fn ledger_clock_settles_intervals() {
        let mut c = LedgerClock::new(SimTime::from_micros(100));
        assert_eq!(
            c.open(SimTime::from_micros(120)),
            SimDuration::from_micros(20)
        );
        assert_eq!(
            c.settle(SimTime::from_micros(130)),
            SimDuration::from_micros(30)
        );
        assert_eq!(
            c.settle(SimTime::from_micros(130)),
            SimDuration::from_micros(0)
        );
    }

    #[test]
    fn watchpoint_parses_and_renders_canonically() {
        let w = Watchpoint::parse("  rpc.failed   >    0 ").unwrap();
        assert_eq!(w.metric, "rpc.failed");
        assert_eq!(w.op, CmpOp::Gt);
        assert_eq!(w.threshold, 0);
        assert_eq!(w.expr(), "rpc.failed > 0");
        for (src, op) in [
            ("m >= 1", CmpOp::Ge),
            ("m < -3", CmpOp::Lt),
            ("m <= 2", CmpOp::Le),
            ("m == 0", CmpOp::Eq),
            ("m = 0", CmpOp::Eq),
            ("m != 5", CmpOp::Ne),
        ] {
            assert_eq!(Watchpoint::parse(src).unwrap().op, op, "{src}");
        }
        for bad in ["", "m", "m >", "m ~ 1", "m > x", "m > 1 extra"] {
            assert!(Watchpoint::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn watchpoint_samples_counters_then_gauges_then_histograms() {
        let m = Metrics::new();
        let c = m.counter("hits");
        let g = m.gauge("depth");
        let h = m.histogram("lat", &[10, 100]);
        c.add(3);
        g.set(-7);
        h.observe(5);
        h.observe(500);
        let wc = Watchpoint::parse("hits >= 3").unwrap();
        assert_eq!(wc.sample(&m), Some(3));
        assert_eq!(wc.tripped(&m), Some(3));
        let wg = Watchpoint::parse("depth < 0").unwrap();
        assert_eq!(wg.sample(&m), Some(-7));
        assert_eq!(wg.tripped(&m), Some(-7));
        let wh = Watchpoint::parse("lat == 2").unwrap();
        assert_eq!(wh.sample(&m), Some(2));
        assert_eq!(wh.tripped(&m), Some(2));
        let unknown = Watchpoint::parse("nope > 0").unwrap();
        assert_eq!(unknown.sample(&m), None);
        assert_eq!(unknown.tripped(&m), None);
        let untripped = Watchpoint::parse("hits > 3").unwrap();
        assert_eq!(untripped.tripped(&m), None);
    }
}
