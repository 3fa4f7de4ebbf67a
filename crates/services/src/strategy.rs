//! Server-side timeout-extension strategies (§6.2) and the watcher state
//! machine implementing the Figure 3 and Figure 4 algorithms.
//!
//! A *watcher* is a native process on the server node guarding one timed
//! grant (a TUID, a resource allocation). It waits on a semaphore that the
//! refresh/renew handler signals; a timeout means the client missed its
//! deadline — unless the client is being debugged, in which case the
//! strategy decides how to extend, exactly per the paper's pseudocode.

use pilgrim_cclu::{ExecEnv, RpcProtocol, RpcRequest, StepOutcome, SysReply, Value};
use pilgrim_mayflower::{NativeProcess, SemId, SpawnOpts};
use pilgrim_rpc::HandlerCtx;
use pilgrim_sim::{SimDuration, SimTime};

/// How a server treats a client's timeout while the client may be under a
/// debugger (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutStrategy {
    /// No debugging awareness: expire on the real-time deadline. The
    /// baseline that spuriously revokes grants of breakpointed clients.
    Naive,
    /// "The simplest way": if the client is under a debugger, extend
    /// indefinitely (restart the full timeout).
    IgnoreWhileDebugged,
    /// Figure 3: `get_debuggee_status` at the start of every timeout and
    /// again on expiry; extend by exactly the un-elapsed logical time.
    StatusOnly,
    /// Figure 4: no work unless the timeout expires; then
    /// `get_debuggee_status` at the client plus `convert_debuggee_time`
    /// at the debugger.
    StatusAndConvert,
}

impl TimeoutStrategy {
    /// Stable wire name (recorded in a service's setup entry).
    pub fn name(self) -> &'static str {
        match self {
            TimeoutStrategy::Naive => "naive",
            TimeoutStrategy::IgnoreWhileDebugged => "ignore-while-debugged",
            TimeoutStrategy::StatusOnly => "status-only",
            TimeoutStrategy::StatusAndConvert => "status-and-convert",
        }
    }

    /// The inverse of [`name`](TimeoutStrategy::name).
    ///
    /// # Errors
    ///
    /// Unknown names.
    pub fn parse(s: &str) -> Result<TimeoutStrategy, String> {
        use TimeoutStrategy::*;
        [Naive, IgnoreWhileDebugged, StatusOnly, StatusAndConvert]
            .into_iter()
            .find(|t| t.name() == s)
            .ok_or_else(|| format!("unknown timeout strategy `{s}`"))
    }
}

impl std::fmt::Display for TimeoutStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeoutStrategy::Naive => f.write_str("naive"),
            TimeoutStrategy::IgnoreWhileDebugged => f.write_str("ignore-while-debugged"),
            TimeoutStrategy::StatusOnly => f.write_str("status-only (Fig 3)"),
            TimeoutStrategy::StatusAndConvert => f.write_str("status+convert (Fig 4)"),
        }
    }
}

/// Counters shared between a service's handlers, its watchers, and the
/// experiment harnesses.
#[derive(Debug, Default, Clone, Copy)]
pub struct StrategyStats {
    /// `get_debuggee_status` calls made by watchers.
    pub status_calls: u64,
    /// `convert_debuggee_time` calls made by watchers.
    pub convert_calls: u64,
    /// Timeouts extended instead of expiring.
    pub extensions: u64,
    /// Grants revoked on a genuine expiry.
    pub revocations: u64,
    /// Refreshes observed.
    pub refreshes: u64,
}

/// A strategy event, reported by watchers for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyEvent {
    /// A `get_debuggee_status` call was made.
    StatusCall,
    /// A `convert_debuggee_time` call was made.
    ConvertCall,
    /// A timeout was extended.
    Extension,
    /// The grant was revoked.
    Revocation,
    /// A refresh arrived in time.
    Refresh,
}

impl StrategyStats {
    /// Applies one event to the counters.
    pub fn apply(&mut self, ev: StrategyEvent) {
        match ev {
            StrategyEvent::StatusCall => self.status_calls += 1,
            StrategyEvent::ConvertCall => self.convert_calls += 1,
            StrategyEvent::Extension => self.extensions += 1,
            StrategyEvent::Revocation => self.revocations += 1,
            StrategyEvent::Refresh => self.refreshes += 1,
        }
    }
}

/// What the service does when the watcher decides the grant's fate. The
/// watcher owns its hooks; they reach the service's state themselves.
pub trait GrantHooks: 'static {
    /// Called when the grant is revoked (timeout genuinely expired) at
    /// `at`, the watcher's clock.
    fn revoke(&mut self, at: SimTime);
    /// Is the grant still wanted? (Released grants stop their watcher.)
    fn active(&self) -> bool;
    /// Accounting sink for strategy events.
    fn record(&mut self, ev: StrategyEvent);
}

/// A grant watcher: the Figure 3 / Figure 4 loops as a schedulable native
/// process.
pub struct Watcher<H: GrantHooks> {
    hooks: H,
    sem: SemId,
    client_node: i64,
    timeout_ms: i64,
    tolerance_ms: i64,
    strategy: TimeoutStrategy,
    phase: Phase,
    /// Figure 3's `client_start`.
    client_start: i64,
    /// Client logical time captured at expiry (Figure 4 carries it to the
    /// convert step).
    client_now: i64,
    /// Wait duration for the next `semaphore_wait`.
    next_wait_ms: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    AwaitInitialStatus,
    Waiting,
    AwaitExpiryStatus,
    AwaitConvert,
}

/// Cost (µs) charged per watcher decision step.
const STEP_COST: u64 = 25;

enum Next {
    Continue(Vec<Value>),
    Block,
    Exit,
}

impl<H: GrantHooks> Watcher<H> {
    /// Spawns a watcher guarding one grant to `ctx.caller`, as a process
    /// on the serving node that debug halts pass over.
    ///
    /// `name` is what the debugger lists it as, kept once in the node's
    /// name table; `sem` must be signalled by the service's refresh
    /// handler; `timeout` is the grant lifetime; `tolerance` is the
    /// paper's `clock_tolerance`.
    pub fn spawn(
        ctx: &mut HandlerCtx<'_>,
        hooks: H,
        name: &str,
        sem: SemId,
        timeout: SimDuration,
        tolerance: SimDuration,
        strategy: TimeoutStrategy,
    ) {
        let timeout_ms = timeout.as_millis() as i64;
        let watcher = Watcher {
            hooks,
            sem,
            client_node: i64::from(ctx.caller.0),
            timeout_ms,
            tolerance_ms: tolerance.as_millis() as i64,
            strategy,
            phase: Phase::Init,
            client_start: 0,
            client_now: 0,
            next_wait_ms: timeout_ms,
        };
        let opts = SpawnOpts {
            name: Some(ctx.node.intern_name(name)),
            no_halt: true,
            ..Default::default()
        };
        ctx.node.spawn_native(Box::new(watcher), opts);
    }

    fn rpc_status(&mut self, env: &mut ExecEnv<'_>) -> SysReply {
        self.hooks.record(StrategyEvent::StatusCall);
        env.sys.rpc(RpcRequest {
            proc_name: "get_debuggee_status".into(),
            args: vec![],
            node: self.client_node,
            protocol: RpcProtocol::Maybe,
            nrets: 2,
        })
    }

    fn rpc_convert(&mut self, env: &mut ExecEnv<'_>, debugger: i64, date: i64) -> SysReply {
        self.hooks.record(StrategyEvent::ConvertCall);
        env.sys.rpc(RpcRequest {
            proc_name: "convert_debuggee_time".into(),
            args: vec![Value::Int(date)],
            node: debugger,
            protocol: RpcProtocol::Maybe,
            nrets: 1,
        })
    }

    /// Parses a maybe-protocol `get_debuggee_status` reply:
    /// `(ok, debugger, logical_ms)`.
    fn parse_status(resume: &[Value]) -> (bool, i64, i64) {
        let ok = matches!(resume.first(), Some(Value::Bool(true)));
        let dbg = resume.get(1).and_then(Value::as_int).unwrap_or(-1);
        let t = resume.get(2).and_then(Value::as_int).unwrap_or(0);
        (ok, dbg, t)
    }

    fn revoke(&mut self, env: &mut ExecEnv<'_>) -> Next {
        self.hooks.record(StrategyEvent::Revocation);
        self.hooks
            .revoke(SimTime::from_micros(env.sys.now_us() as u64));
        Next::Exit
    }

    fn extend(&mut self, wait_ms: i64) -> Next {
        self.hooks.record(StrategyEvent::Extension);
        self.start_wait(wait_ms)
    }

    fn start_wait(&mut self, wait_ms: i64) -> Next {
        self.phase = Phase::Waiting;
        self.next_wait_ms = wait_ms.max(1);
        Next::Continue(vec![])
    }

    fn advance(&mut self, resume: Vec<Value>, env: &mut ExecEnv<'_>) -> Next {
        if !self.hooks.active() {
            return Next::Exit;
        }
        match self.phase {
            Phase::Init => match self.strategy {
                // Figure 3 pays a status call at the start of *every*
                // timeout, even when the client is not being debugged.
                TimeoutStrategy::StatusOnly => {
                    self.phase = Phase::AwaitInitialStatus;
                    match self.rpc_status(env) {
                        SysReply::Block => Next::Block,
                        SysReply::Val(v) => Next::Continue(v),
                    }
                }
                _ => {
                    self.client_start = now_ms(env);
                    self.start_wait(self.timeout_ms)
                }
            },
            Phase::AwaitInitialStatus => {
                let (ok, _dbg, t) = Self::parse_status(&resume);
                self.client_start = if ok { t } else { now_ms(env) };
                self.start_wait(self.timeout_ms)
            }
            Phase::Waiting => {
                // (Re-)enter the semaphore wait, or process its outcome.
                if resume.is_empty() {
                    return match env.sys.sem_wait(self.sem, self.next_wait_ms) {
                        SysReply::Block => Next::Block,
                        SysReply::Val(v) => Next::Continue(v),
                    };
                }
                let signalled = matches!(resume.first(), Some(Value::Bool(true)));
                if signalled {
                    // Refresh: a whole new timeout episode.
                    self.hooks.record(StrategyEvent::Refresh);
                    self.phase = Phase::Init;
                    Next::Continue(vec![])
                } else {
                    // Timed out.
                    match self.strategy {
                        TimeoutStrategy::Naive => self.revoke(env),
                        _ => {
                            self.phase = Phase::AwaitExpiryStatus;
                            match self.rpc_status(env) {
                                SysReply::Block => Next::Block,
                                SysReply::Val(v) => Next::Continue(v),
                            }
                        }
                    }
                }
            }
            Phase::AwaitExpiryStatus => {
                let (ok, dbg, client_now) = Self::parse_status(&resume);
                let real_now = now_ms(env);
                if !ok {
                    // Client unreachable: treat as expired.
                    return self.revoke(env);
                }
                match self.strategy {
                    TimeoutStrategy::Naive => self.revoke(env),
                    TimeoutStrategy::IgnoreWhileDebugged => {
                        if dbg >= 0 {
                            // Extend indefinitely: restart the full
                            // timeout while the debugger stays attached.
                            self.extend(self.timeout_ms)
                        } else {
                            self.revoke(env)
                        }
                    }
                    TimeoutStrategy::StatusOnly => {
                        // Figure 3: client logical time is slow — the
                        // client may have been breakpointed during the
                        // timeout.
                        if real_now > client_now + self.tolerance_ms {
                            let time_left = self.timeout_ms - (client_now - self.client_start);
                            if time_left > self.tolerance_ms {
                                self.client_start = client_now;
                                self.extend(time_left)
                            } else {
                                self.revoke(env)
                            }
                        } else {
                            self.revoke(env)
                        }
                    }
                    TimeoutStrategy::StatusAndConvert => {
                        if real_now > client_now + self.tolerance_ms && dbg >= 0 {
                            // Figure 4: recover the logical start of the
                            // timeout from the debugger's breakpoint log.
                            self.client_now = client_now;
                            self.phase = Phase::AwaitConvert;
                            match self.rpc_convert(env, dbg, real_now - self.timeout_ms) {
                                SysReply::Block => Next::Block,
                                SysReply::Val(v) => Next::Continue(v),
                            }
                        } else {
                            self.revoke(env)
                        }
                    }
                }
            }
            Phase::AwaitConvert => {
                let ok = matches!(resume.first(), Some(Value::Bool(true)));
                let client_start = resume.get(1).and_then(Value::as_int).unwrap_or(0);
                if !ok {
                    return self.revoke(env);
                }
                let time_left = self.timeout_ms - (self.client_now - client_start);
                if time_left > self.tolerance_ms {
                    self.extend(time_left)
                } else {
                    self.revoke(env)
                }
            }
        }
    }
}

fn now_ms(env: &mut ExecEnv<'_>) -> i64 {
    // The service node is never debugged, so its logical time is real time.
    env.sys.now_ms()
}

impl<H: GrantHooks> NativeProcess for Watcher<H> {
    fn step(&mut self, resume: Vec<Value>, env: &mut ExecEnv<'_>) -> StepOutcome {
        let mut vals = resume;
        // Spin the state machine until it blocks or finishes; each
        // decision costs a little simulated time.
        let mut cost = 0;
        for _ in 0..16 {
            cost += STEP_COST;
            match self.advance(std::mem::take(&mut vals), env) {
                Next::Continue(v) => vals = v,
                Next::Block => return StepOutcome::Blocked { cost },
                Next::Exit => return StepOutcome::Exited { cost },
            }
        }
        StepOutcome::Blocked { cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_display_names() {
        assert_eq!(TimeoutStrategy::Naive.to_string(), "naive");
        assert_eq!(
            TimeoutStrategy::StatusOnly.to_string(),
            "status-only (Fig 3)"
        );
        assert_eq!(
            TimeoutStrategy::StatusAndConvert.to_string(),
            "status+convert (Fig 4)"
        );
    }

    #[test]
    fn parse_status_handles_short_replies() {
        struct H(StrategyStats);
        impl GrantHooks for H {
            fn revoke(&mut self, _: SimTime) {}
            fn active(&self) -> bool {
                true
            }
            fn record(&mut self, ev: StrategyEvent) {
                self.0.apply(ev);
            }
        }
        let (ok, dbg, t) = Watcher::<H>::parse_status(&[Value::Bool(false)]);
        assert!(!ok);
        assert_eq!(dbg, -1);
        assert_eq!(t, 0);
        let (ok, dbg, t) =
            Watcher::<H>::parse_status(&[Value::Bool(true), Value::Int(5), Value::Int(1_234)]);
        assert!(ok);
        assert_eq!(dbg, 5);
        assert_eq!(t, 1_234);
    }
}
