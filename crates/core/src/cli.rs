//! A textual command interface for the debugger — the "user interface"
//! half of the debugger proper (§3).
//!
//! [`DebugCli::exec`] parses one command line, performs it against the
//! [`World`], and returns the rendered output, so a debugging session can
//! be driven interactively, from a script, or from tests. Every command
//! maps onto the same agent requests the programmatic API uses; nothing
//! here has private access to the target nodes.
//!
//! ```text
//! pilgrim> connect 0 1 2
//! connected session#1001 to nodes [0, 1, 2]
//! pilgrim> break 1:2
//! breakpoint #0 at node1 line 2
//! pilgrim> run 0 main
//! started p1 on node0
//! pilgrim> wait-stop
//! breakpoint #0 hit on node1 p1 in price at line 2
//! ```

use std::fmt::Write as _;

use pilgrim_rpc::WireValue;
use pilgrim_sim::{SimDuration, SpanId};

use crate::debugger::DebugEvent;
use crate::proto::{AgentReply, AgentRequest, Invocation, StateView};
use crate::world::{DebugError, World};

/// A scriptable debugger command interpreter.
#[derive(Debug, Default)]
pub struct DebugCli {
    /// The most recently reported stop, so `bt`/`print` can default to it.
    focus: Option<(u32, u64)>,
    /// Watch trips already reported by `wait`, so each trip prints once.
    reported_trips: Vec<u64>,
}

impl DebugCli {
    /// Creates a fresh interpreter.
    pub fn new() -> DebugCli {
        DebugCli::default()
    }

    /// The process the CLI is focused on (set by stops and `focus`).
    pub fn focus(&self) -> Option<(u32, u64)> {
        self.focus
    }

    /// Executes every non-empty, non-comment line of `script`, returning
    /// the combined transcript (command echoes included).
    pub fn exec_script(&mut self, world: &mut World, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push_str(&format!("pilgrim> {line}\n"));
            out.push_str(&self.exec(world, line));
            out.push('\n');
        }
        out
    }

    /// Executes one command line and returns its output.
    pub fn exec(&mut self, world: &mut World, line: &str) -> String {
        match self.dispatch(world, line) {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        }
    }

    fn dispatch(&mut self, world: &mut World, line: &str) -> Result<String, DebugError> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => Ok(HELP.trim().to_string()),
            "connect" | "connect!" => {
                let nodes: Vec<u32> = if args.is_empty() {
                    (0..world.user_nodes()).collect()
                } else {
                    args.iter().filter_map(|a| a.parse().ok()).collect()
                };
                let session = world.debug_connect(&nodes, cmd == "connect!")?;
                Ok(format!("connected {session} to nodes {nodes:?}"))
            }
            "disconnect" => {
                world.debug_disconnect()?;
                Ok("disconnected; the program continues".into())
            }
            "break" => {
                // break <node>:<line>  or  break <node> <proc>
                if let Some(spec) = args.first() {
                    if let Some((n, l)) = spec.split_once(':') {
                        let node: u32 = parse(n, "node")?;
                        let line: u32 = parse(l, "line")?;
                        let bp = world.break_at_line(node, line)?;
                        return Ok(format!("breakpoint #{bp} at node{node} line {line}"));
                    }
                    if let Some(proc) = args.get(1) {
                        let node: u32 = parse(spec, "node")?;
                        let bp = world.break_at_proc(node, proc)?;
                        return Ok(format!("breakpoint #{bp} at node{node} proc {proc}"));
                    }
                }
                Err(usage("break <node>:<line> | break <node> <proc>"))
            }
            "clear" => {
                let node: u32 = parse(args.first().copied().unwrap_or(""), "node")?;
                let bp: u16 = parse(args.get(1).copied().unwrap_or(""), "breakpoint")?;
                world.clear_breakpoint(node, bp)?;
                Ok(format!("breakpoint #{bp} cleared"))
            }
            "breakpoints" => {
                let d = world.debugger().ok_or(DebugError::NoDebugger)?;
                let mut out = String::new();
                for b in d.breakpoints() {
                    out.push_str(&format!(
                        "#{} on {} at {}{}\n",
                        b.bp,
                        b.node,
                        b.addr,
                        b.line.map(|l| format!(" (line {l})")).unwrap_or_default()
                    ));
                }
                if out.is_empty() {
                    out = "no breakpoints".into();
                }
                Ok(out.trim_end().to_string())
            }
            "run" => {
                let node: u32 = parse(args.first().copied().unwrap_or(""), "node")?;
                let proc = args
                    .get(1)
                    .copied()
                    .ok_or_else(|| usage("run <node> <proc> [args]"))?;
                let values = args[2..].iter().map(|a| parse_value(a)).collect();
                let pid = world
                    .try_spawn(node, proc, values)
                    .map_err(DebugError::Source)?;
                Ok(format!("started p{} on node{node}", pid.0))
            }
            "wait" => {
                let ms: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(1_000);
                world.run_for(SimDuration::from_millis(ms));
                let mut out = format!("ran {ms}ms (now {})", world.now());
                for (id, expr, trip) in world.watch_trips() {
                    if self.reported_trips.contains(&id) {
                        continue;
                    }
                    self.reported_trips.push(id);
                    out.push_str(&format!(
                        "\nwatch #{id} tripped: {expr} (observed {}) at {}{}",
                        trip.value,
                        trip.at,
                        match trip.span {
                            Some(s) => format!(", span {s}"),
                            None => String::new(),
                        }
                    ));
                }
                Ok(out)
            }
            "wait-stop" => {
                let ms: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(5_000);
                let ev = world.wait_for_stop(SimDuration::from_millis(ms))?;
                Ok(self.render_event(ev))
            }
            "events" => {
                let evs = world.debug_events();
                if evs.is_empty() {
                    return Ok("no events".into());
                }
                Ok(evs
                    .into_iter()
                    .map(|e| self.render_event(e))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "halt" => {
                let node: u32 = parse(args.first().copied().unwrap_or("0"), "node")?;
                let n = world.debug_halt_all(node)?;
                Ok(format!("halted via node{node} ({n} processes there)"))
            }
            "resume" => {
                world.debug_resume_all()?;
                Ok("cohort resumed; logical clocks adjusted".into())
            }
            "cont" => {
                let (node, pid) = self.target(&args)?;
                world.continue_process(node, pid)?;
                world.debug_resume_all()?;
                Ok(format!("p{pid} continued, cohort resumed"))
            }
            "step" => {
                let (node, pid) = self.target(&args)?;
                world.step_over(node, pid)?;
                let bt = world.backtrace(node, pid)?;
                let top = bt
                    .iter()
                    .rev()
                    .find(|f| f.well_formed && f.kind == "normal" || f.kind == "server-root");
                Ok(match top {
                    Some(f) => format!("stepped: now at {f}"),
                    None => "stepped".into(),
                })
            }
            "ps" => {
                let node: u32 = parse(args.first().copied().unwrap_or("0"), "node")?;
                let procs = world.debug_processes(node)?;
                let mut out = String::new();
                for p in procs {
                    out.push_str(&format!(
                        "p{:<4} {:<18} {}{}{}\n",
                        p.pid,
                        p.name,
                        render_state(&p.state),
                        if p.halted { " [halted]" } else { "" },
                        if p.no_halt { " [no-halt]" } else { "" },
                    ));
                }
                Ok(out.trim_end().to_string())
            }
            "bt" | "btd" => {
                let (node, pid) = self.target(&args)?;
                let frames = if cmd == "btd" {
                    world.distributed_backtrace(node, pid)?
                } else {
                    world.backtrace(node, pid)?
                };
                Ok(frames
                    .iter()
                    .map(|f| format!("  {f}"))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "print" => {
                let (node, pid, var) = self.target_var(&args)?;
                let rendered = world.inspect(node, pid, &var)?;
                Ok(format!("{var} = {rendered}"))
            }
            "set" => {
                let (node, pid, var) = self.target_var(&args[..args.len().saturating_sub(1)])?;
                let raw = args
                    .last()
                    .ok_or_else(|| usage("set [node pid] <var> <value>"))?;
                world.set_variable(node, pid, &var, parse_wire(raw))?;
                Ok(format!("{var} := {raw}"))
            }
            "rpc" => {
                let (node, pid) = self.target(&args)?;
                match world.rpc_status(node, pid)? {
                    Some(c) => Ok(format!(
                        "call#{} {} -> {} [{}] state={} retries={}",
                        c.call_id, c.proc, c.dst, c.protocol, c.state, c.retries
                    )),
                    None => Ok(format!("p{pid} is not in a remote call")),
                }
            }
            "recent" => {
                let node: u32 = parse(args.first().copied().unwrap_or("0"), "node")?;
                let recent = world.recent_calls(node)?;
                if recent.is_empty() {
                    return Ok("no recent calls".into());
                }
                Ok(recent
                    .iter()
                    .map(|(id, ok)| {
                        format!("call#{id}: {}", if *ok { "succeeded" } else { "FAILED" })
                    })
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "diagnose" => {
                let node: u32 = parse(args.first().copied().unwrap_or(""), "server node")?;
                let call_id: u64 = parse(args.get(1).copied().unwrap_or(""), "call id")?;
                let d = world.diagnose_maybe_failure(node, call_id)?;
                Ok(format!("call#{call_id}: {d:?}"))
            }
            "time" => {
                let node: u32 = parse(args.first().copied().unwrap_or("0"), "node")?;
                let n = world.node(node);
                Ok(format!(
                    "node{node}: real {} | logical {} | delta {}",
                    n.clock(),
                    n.logical_now(),
                    n.delta()
                ))
            }
            "console" => {
                let node: u32 = parse(args.first().copied().unwrap_or("0"), "node")?;
                let out = world.console(node);
                if out.is_empty() {
                    return Ok("(empty)".into());
                }
                Ok(out.join("\n"))
            }
            "invoke" => {
                let node: u32 = parse(args.first().copied().unwrap_or(""), "node")?;
                let proc = args
                    .get(1)
                    .copied()
                    .ok_or_else(|| usage("invoke <node> <proc> [args]"))?;
                let values: Vec<WireValue> = args[2..].iter().map(|a| parse_wire(a)).collect();
                match world.debug_request(
                    node,
                    AgentRequest::Invoke(Box::new(Invocation {
                        proc: proc.to_string(),
                        args: values,
                    })),
                )? {
                    AgentReply::Invoked { results, output } => {
                        let rendered: Vec<String> =
                            results.iter().map(crate::world::render_wire).collect();
                        let mut s = format!("returned ({})", rendered.join(", "));
                        if !output.is_empty() {
                            s.push_str(&format!("\noutput: {output}"));
                        }
                        Ok(s)
                    }
                    other => Err(DebugError::Protocol(format!("unexpected reply {other:?}"))),
                }
            }
            "stats" => Ok(world.observability_report().trim_end().to_string()),
            "profile" => {
                // profile          caller->callee edge table + time ledgers
                // profile fold     folded-stack lines (flamegraph input)
                if args.first() == Some(&"fold") {
                    let folded = world.folded_stacks();
                    if folded.is_empty() {
                        return Ok("no profile data (build the world with profile_vm on)".into());
                    }
                    return Ok(folded.trim_end().to_string());
                }
                let mut out = String::new();
                for i in 0..world.user_nodes() {
                    let n = world.node(i);
                    for (caller, callee, instr, cost) in n.call_edges() {
                        let caller = caller.unwrap_or_else(|| "(root)".to_string());
                        out.push_str(&format!(
                            "node{i} {caller}->{callee}: {instr} instr {cost}us\n"
                        ));
                    }
                    for (pid, name, _span, ledger) in n.time_ledgers() {
                        out.push_str(&format!("node{i} {pid} {name}: {}\n", ledger.render()));
                    }
                }
                if out.is_empty() {
                    return Ok("no profile data (build the world with profile_vm on)".into());
                }
                Ok(out.trim_end().to_string())
            }
            "watch" => {
                if args.is_empty() {
                    let watches = world.watches();
                    if watches.is_empty() {
                        return Ok("no watchpoints".into());
                    }
                    return Ok(watches
                        .iter()
                        .map(|(id, expr, trip)| match trip {
                            Some(t) => {
                                format!("#{id} {expr} — TRIPPED at {} (observed {})", t.at, t.value)
                            }
                            None => format!("#{id} {expr} — armed"),
                        })
                        .collect::<Vec<_>>()
                        .join("\n"));
                }
                let expr = args.join(" ");
                let id = world.arm_watch(&expr).map_err(DebugError::Source)?;
                Ok(format!("watch #{id} armed: {expr}"))
            }
            "unwatch" => {
                let id: u64 = parse(args.first().copied().unwrap_or(""), "watch id")?;
                if world.clear_watch(id) {
                    Ok(format!("watch #{id} cleared"))
                } else {
                    Ok(format!("no watch #{id}"))
                }
            }
            "trace" => {
                // trace [k] | trace span <id> | trace call <id>
                match args.first().copied() {
                    Some("span") => {
                        let id: u64 = parse(args.get(1).copied().unwrap_or(""), "span id")?;
                        // Span 0 is never issued: it has no events.
                        let evs = SpanId::from_wire(id)
                            .map_or_else(Vec::new, |s| world.tracer().events_for_span(s));
                        if evs.is_empty() {
                            return Ok(format!("no events for span s{id}"));
                        }
                        Ok(evs
                            .iter()
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                            .join("\n"))
                    }
                    Some("call") => {
                        let id: u64 = parse(args.get(1).copied().unwrap_or(""), "call id")?;
                        let Some(span) = world.span_of_call(id) else {
                            return Ok(format!("no trace for call {id}"));
                        };
                        Ok(world
                            .tracer()
                            .events_for_span(span)
                            .iter()
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                            .join("\n"))
                    }
                    other => {
                        let k: usize = other.and_then(|a| a.parse().ok()).unwrap_or(10);
                        // Walk the ring in place and format only the tail:
                        // the ring may hold a million events to show ten of.
                        let tracer = world.tracer();
                        let skip = tracer.len().saturating_sub(k);
                        let (mut out, mut seen) = (String::new(), 0);
                        tracer.for_each(|e| {
                            if seen >= skip {
                                let sep = if seen > skip { "\n" } else { "" };
                                let _ = write!(out, "{sep}{e}");
                            }
                            seen += 1;
                        });
                        if out.is_empty() {
                            return Ok("trace is empty".into());
                        }
                        Ok(out)
                    }
                }
            }
            "record" => {
                let path = args
                    .first()
                    .copied()
                    .ok_or_else(|| usage("record <path>"))?;
                let artifact = world.record();
                let stimuli = artifact.stimuli.len();
                let events = world.tracer().len();
                std::fs::write(path, artifact.render())
                    .map_err(|e| DebugError::Source(format!("cannot write {path}: {e}")))?;
                Ok(format!(
                    "recorded {stimuli} stimuli and {events} trace events to {path}"
                ))
            }
            "replay" => {
                let path = args
                    .first()
                    .copied()
                    .ok_or_else(|| usage("replay <path>"))?;
                let artifact = crate::saved::open(path)
                    .and_then(|saved| saved.recording().map_err(|e| format!("{path}: {e}")))
                    .map_err(DebugError::Source)?;
                let report = crate::replay::replay(&artifact)
                    .map_err(|e| DebugError::Source(e.to_string()))?;
                Ok(match report.divergence {
                    None => format!(
                        "replayed {} events from {path}: traces identical{}",
                        report.recorded_events,
                        if report.byte_identical {
                            " (byte-for-byte)"
                        } else {
                            ""
                        }
                    ),
                    Some(d) => format!("DIVERGENCE replaying {path}:\n{}", d.report()),
                })
            }
            "tsdb" => {
                // tsdb                 series inventory
                // tsdb <metric> [w]    windowed history, w samples/window
                let Some(metric) = args.first().copied() else {
                    return Ok(world.tsdb_summary().trim_end().to_string());
                };
                let window: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(1);
                Ok(world.tsdb_report(metric, window).trim_end().to_string())
            }
            "path" => {
                let span: u64 = parse(args.first().copied().unwrap_or(""), "span id")?;
                Ok(world.span_path_report(span).trim_end().to_string())
            }
            "slow" => {
                let k: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(5);
                Ok(world.slowest_report(k).trim_end().to_string())
            }
            "critical" => Ok(world.critical_path_report().trim_end().to_string()),
            "blackbox" => {
                // blackbox             flight-recorder status + last auto dump
                // blackbox dump [path] freeze a snapshot now (print or save)
                if args.first() == Some(&"dump") {
                    let snap = world.blackbox_snapshot("manual");
                    let events = snap.decode_events().map(|e| e.len()).unwrap_or(0);
                    return Ok(match args.get(1) {
                        Some(path) => {
                            std::fs::write(path, snap.render()).map_err(|e| {
                                DebugError::Source(format!("cannot write {path}: {e}"))
                            })?;
                            format!("blackbox: {events} ring events dumped to {path}")
                        }
                        None => snap.render().trim_end().to_string(),
                    });
                }
                let t = world.tracer();
                let mut out = format!(
                    "flight recorder: {} events in ring (budget {}), {} evicted; \
                     trace: {} events, {} evicted",
                    t.blackbox_len(),
                    t.blackbox_capacity(),
                    t.blackbox_evicted(),
                    t.len(),
                    t.evicted(),
                );
                match world.blackbox_last() {
                    Some(last) => {
                        let snap = crate::blackbox::BlackboxSnapshot::parse(last)
                            .map_err(DebugError::Source)?;
                        out.push_str(&format!(
                            "\nlast dump: {} at {} (sync point {})",
                            snap.reason, snap.at, snap.sync_index
                        ));
                    }
                    None => out.push_str("\nno automatic dump yet"),
                }
                Ok(out)
            }
            "focus" => {
                let node: u32 = parse(args.first().copied().unwrap_or(""), "node")?;
                let pid: u64 = parse(args.get(1).copied().unwrap_or(""), "pid")?;
                self.focus = Some((node, pid));
                Ok(format!("focused on node{node} p{pid}"))
            }
            other => Err(usage(&format!("unknown command `{other}` (try `help`)"))),
        }
    }

    fn render_event(&mut self, ev: DebugEvent) -> String {
        match ev {
            DebugEvent::BreakpointHit {
                node,
                pid,
                bp,
                line,
                proc,
                at,
            } => {
                self.focus = Some((node.0, pid));
                format!(
                    "breakpoint #{bp} hit on {node} p{pid} in {proc}{} (t = {at})",
                    line.map(|l| format!(" at line {l}")).unwrap_or_default()
                )
            }
            DebugEvent::ProcessFaulted {
                node,
                pid,
                message,
                at,
            } => {
                self.focus = Some((node.0, pid));
                format!("FAULT on {node} p{pid}: {message} (t = {at})")
            }
        }
    }

    /// `<node> <pid>` from args, or the current focus.
    fn target(&self, args: &[&str]) -> Result<(u32, u64), DebugError> {
        if args.len() >= 2 {
            if let (Ok(n), Ok(p)) = (args[0].parse(), args[1].parse()) {
                return Ok((n, p));
            }
        }
        self.focus
            .ok_or_else(|| usage("no focused process; pass <node> <pid> or hit a breakpoint"))
    }

    /// `[node pid] <var>` from args, defaulting to the focus.
    fn target_var(&self, args: &[&str]) -> Result<(u32, u64, String), DebugError> {
        match args.len() {
            0 => Err(usage("missing variable name")),
            1 => {
                let (n, p) = self
                    .focus
                    .ok_or_else(|| usage("no focused process; pass <node> <pid> <var>"))?;
                Ok((n, p, args[0].to_string()))
            }
            _ => {
                let n: u32 = parse(args[0], "node")?;
                let p: u64 = parse(args[1], "pid")?;
                let var = args
                    .get(2)
                    .copied()
                    .ok_or_else(|| usage("missing variable name"))?;
                Ok((n, p, var.to_string()))
            }
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, DebugError> {
    s.parse()
        .map_err(|_| DebugError::Source(format!("cannot parse `{s}` as {what}")))
}

fn usage(msg: &str) -> DebugError {
    DebugError::Source(msg.to_string())
}

fn parse_value(s: &str) -> pilgrim_cclu::Value {
    if let Ok(i) = s.parse::<i64>() {
        return pilgrim_cclu::Value::Int(i);
    }
    match s {
        "true" => pilgrim_cclu::Value::Bool(true),
        "false" => pilgrim_cclu::Value::Bool(false),
        other => pilgrim_cclu::Value::Str(other.trim_matches('"').into()),
    }
}

fn parse_wire(s: &str) -> WireValue {
    if let Ok(i) = s.parse::<i64>() {
        return WireValue::Int(i);
    }
    match s {
        "true" => WireValue::Bool(true),
        "false" => WireValue::Bool(false),
        other => WireValue::Str(other.trim_matches('"').into()),
    }
}

fn render_state(s: &StateView) -> String {
    match s {
        StateView::Runnable => "runnable".into(),
        StateView::Sleeping { remaining_ms } => format!("sleeping ({remaining_ms}ms left)"),
        StateView::SemWait { sem, remaining_ms } => match remaining_ms {
            Some(ms) => format!("waiting on sem#{sem} ({ms}ms left)"),
            None => format!("waiting on sem#{sem}"),
        },
        StateView::MutexWait { mutex } => format!("waiting on mutex#{mutex}"),
        StateView::RpcWait => "blocked in a remote call".into(),
        StateView::Trapped { bp } => format!("stopped at breakpoint #{bp}"),
        StateView::TraceStopped => "stopped after step".into(),
        StateView::Faulted { message } => format!("FAULTED: {message}"),
        StateView::Exited => "exited".into(),
    }
}

const HELP: &str = "
commands:
  connect [nodes..]      connect the debugger (connect! = forcible, §3)
  disconnect             end the session (clears breakpoints, resets clocks)
  break <n>:<line>       plant a breakpoint at a source line
  break <n> <proc>       plant a breakpoint at a procedure entry
  clear <n> <bp>         remove a breakpoint
  breakpoints            list planted breakpoints
  run <n> <proc> [args]  start a process
  wait [ms]              let the program run
  wait-stop [ms]         run until a breakpoint/fault fires
  events                 drain pending stop events
  halt [n]               halt the whole cohort via node n's agent (§5.2)
  resume                 resume the cohort (folds halt time into the deltas)
  cont [n pid]           step the focused process over its trap and resume
  step [n pid]           single-step over the breakpoint (§5.5)
  ps [n]                 list processes with supervisor states (§5.4)
  bt [n pid]             backtrace
  btd [n pid]            distributed backtrace across nodes (Figure 1)
  print [n pid] <var>    render a variable via its print operation (§3)
  set [n pid] <var> <v>  modify a variable (type-checked in the debugger)
  rpc [n pid]            the in-progress call's information block (§4.3)
  recent [n]             the ten-slot cyclic buffer of recent calls
  diagnose <n> <call>    lost call vs lost reply (§4.1)
  time [n]               real/logical clocks and the delta (§5.2)
  console [n]            program output so far
  invoke <n> <proc> ..   run a procedure in the user program (§3)
  stats                  metrics registry + scheduler snapshot
  profile                caller->callee edges + per-process time ledgers
  profile fold           folded-stack profile (flamegraph input format)
  watch [expr]           arm a metric watchpoint (e.g. `watch rpc.failed > 0`);
                         no args lists watches. The world halts when one trips
  unwatch <id>           disarm a watchpoint
  trace [k]              last k trace events (default 10)
  trace span <id>        causal timeline of one span across nodes
  trace call <id>        span timeline of an RPC call, by call id
  tsdb [metric] [w]      windowed time-series history of a metric; no args
                         lists the retained series
  path <span>            causal path to a span with per-segment attribution
  critical               the causal critical path of the whole trace
  slow [k]               the k slowest spans by attributed time (default 5)
  blackbox               flight-recorder status and the last automatic dump
  blackbox dump [path]   freeze the flight recorder into an artifact now
  record <path>          save the session's replay artifact (recipe+stimuli+trace)
  replay <path>          re-run a recorded artifact and diff the traces
  focus <n> <pid>        set the default process
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use pilgrim_sim::TraceCategory;

    const PROGRAM: &str = "\
bump = proc (a: int, b: int) returns (int)
 c: int := a + b
 return (c)
end
main = proc ()
 total: int := 0
 for i: int := 1 to 3 do
  total := bump(total, i)
 end
 print(total)
end";

    fn world() -> World {
        World::builder().nodes(1).program(PROGRAM).build().unwrap()
    }

    #[test]
    fn scripted_session_end_to_end() {
        let mut w = world();
        let mut cli = DebugCli::new();
        let transcript = cli.exec_script(
            &mut w,
            "# a complete session
connect
break 0:3
run 0 main
wait-stop
print c
set c 50
breakpoints
clear 0 0
cont
wait 2000
console 0",
        );
        assert!(transcript.contains("connected session#"), "{transcript}");
        assert!(
            transcript.contains("breakpoint #0 at node0 line 3"),
            "{transcript}"
        );
        assert!(transcript.contains("breakpoint #0 hit"), "{transcript}");
        assert!(transcript.contains("c = 1"), "{transcript}");
        assert!(transcript.contains("c := 50"), "{transcript}");
        // 50 + 2 + 3
        assert!(transcript.ends_with("55\n"), "{transcript}");
    }

    #[test]
    fn ps_and_time_render() {
        let mut w = world();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "connect");
        cli.exec(&mut w, "run 0 main");
        let ps = cli.exec(&mut w, "ps 0");
        assert!(ps.contains("main"), "{ps}");
        let time = cli.exec(&mut w, "time 0");
        assert!(time.contains("delta"), "{time}");
    }

    #[test]
    fn errors_are_rendered_not_panicked() {
        let mut w = world();
        let mut cli = DebugCli::new();
        assert!(cli.exec(&mut w, "florble").starts_with("error:"));
        assert!(cli.exec(&mut w, "break nonsense").starts_with("error:"));
        assert!(
            cli.exec(&mut w, "print x").starts_with("error:"),
            "no focus yet"
        );
        // A spawn that cannot happen is an error, not a panic, and leaves
        // no journal entry behind to poison replay.
        let err = cli.exec(&mut w, "run 7 main");
        assert!(
            err.starts_with("error:") && err.contains("no node 7"),
            "{err}"
        );
        assert!(cli
            .exec(&mut w, "run 0 nosuch")
            .contains("no procedure named `nosuch`"));
        assert!(w.journal().is_empty(), "{:?}", w.journal());
        cli.exec(&mut w, "connect");
        assert!(cli.exec(&mut w, "break 0:999").contains("no code at line"));
    }

    #[test]
    fn help_lists_every_command() {
        let mut w = world();
        let mut cli = DebugCli::new();
        let help = cli.exec(&mut w, "help");
        for c in [
            "connect", "break", "btd", "diagnose", "invoke", "resume", "stats", "trace", "tsdb",
            "path", "critical", "slow", "blackbox",
        ] {
            assert!(help.contains(c), "help missing {c}");
        }
    }

    #[test]
    fn tsdb_and_causal_commands_render() {
        let mut w = World::builder()
            .nodes(1)
            .program(PROGRAM)
            .coarse_window(1, 4096)
            .build()
            .unwrap();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        let summary = cli.exec(&mut w, "tsdb");
        assert!(summary.contains("samples retained"), "{summary}");
        let series = cli.exec(&mut w, "tsdb net.sent 4");
        assert!(series.contains("tsdb counter net.sent"), "{series}");
        assert!(cli
            .exec(&mut w, "tsdb no.such.metric")
            .contains("no series named"));
        assert!(cli.exec(&mut w, "path 999999").contains("no span 999999"));
        // A single-node run makes no RPCs, so the span DAG is empty.
        assert!(cli.exec(&mut w, "slow").contains("no spans in trace"));
        assert!(cli.exec(&mut w, "critical").contains("critical path"));
    }

    #[test]
    fn blackbox_command_reports_and_dumps() {
        let mut w = world();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        let status = cli.exec(&mut w, "blackbox");
        assert!(status.contains("flight recorder:"), "{status}");
        assert!(status.contains("no automatic dump yet"), "{status}");
        let dumped = cli.exec(&mut w, "blackbox dump");
        assert!(
            dumped.contains("\"format\": \"pilgrim-blackbox\""),
            "{dumped}"
        );
        let path = std::env::temp_dir().join("pilgrim-cli-blackbox-test.json");
        let path = path.to_str().unwrap().to_string();
        let saved = cli.exec(&mut w, &format!("blackbox dump {path}"));
        assert!(saved.contains("dumped to"), "{saved}");
        assert!(crate::saved::open(&path).and_then(|s| s.dump()).is_ok());
        let _ = std::fs::remove_file(&path);

        // A budget of 0 is held as 1, and the status line says so.
        let mut w = World::builder()
            .nodes(1)
            .program(PROGRAM)
            .blackbox_capacity(0)
            .build()
            .unwrap();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        let status = cli.exec(&mut w, "blackbox");
        assert!(status.contains("1 events in ring (budget 1)"), "{status}");
        // Every event the flight recorder took but the newest was evicted,
        // and the main trace, far from its budget, dropped none.
        let t = w.tracer();
        let boxed = t
            .events()
            .iter()
            .filter(|e| e.category != TraceCategory::Vm)
            .count();
        assert!(boxed > 1, "the one-slot ring overflowed");
        let line = format!(
            "flight recorder: 1 events in ring (budget 1), {} evicted; trace: {} events, 0 evicted",
            boxed - 1,
            t.len()
        );
        assert_eq!(status.lines().next(), Some(line.as_str()));
    }

    #[test]
    fn stats_and_trace_render_observability() {
        let mut w = world();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        let stats = cli.exec(&mut w, "stats");
        assert!(stats.contains("counter net.sent"), "{stats}");
        assert!(stats.contains("gauge sched.node0.steps"), "{stats}");
        let trace = cli.exec(&mut w, "trace 3");
        let events = w.tracer().events();
        let tail: Vec<String> = events[events.len() - 3..]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(trace, tail.join("\n"));
        assert_eq!(cli.exec(&mut w, "trace 0"), "trace is empty");
        assert!(cli
            .exec(&mut w, "trace span 999999")
            .contains("no events for span"),);
    }

    #[test]
    fn record_and_replay_round_trip_from_the_cli() {
        let path = std::env::temp_dir().join("pilgrim-cli-replay-test.json");
        let path = path.to_str().unwrap().to_string();
        let mut w = world();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        let rec = cli.exec(&mut w, &format!("record {path}"));
        assert!(rec.contains("recorded"), "{rec}");
        let rep = cli.exec(&mut w, &format!("replay {path}"));
        assert!(rep.contains("traces identical (byte-for-byte)"), "{rep}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_and_watch_commands() {
        let mut w = World::builder()
            .nodes(1)
            .program(PROGRAM)
            .node_config(pilgrim_mayflower::NodeConfig {
                profile_vm: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        let fold = cli.exec(&mut w, "profile fold");
        assert!(fold.contains("node0;main"), "{fold}");
        let prof = cli.exec(&mut w, "profile");
        assert!(prof.contains("main->bump:"), "{prof}");
        assert!(prof.contains("exec "), "{prof}");
        let armed = cli.exec(&mut w, "watch rpc.failed > 0");
        assert!(armed.contains("watch #1 armed: rpc.failed > 0"), "{armed}");
        let listed = cli.exec(&mut w, "watch");
        assert!(listed.contains("#1 rpc.failed > 0 — armed"), "{listed}");
        assert!(cli.exec(&mut w, "unwatch 1").contains("cleared"));
        assert!(cli.exec(&mut w, "unwatch 9").contains("no watch #9"));
        assert!(cli.exec(&mut w, "watch bogus").starts_with("error:"));
    }

    #[test]
    fn profile_without_profiling_explains_itself() {
        let mut w = world();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "run 0 main");
        cli.exec(&mut w, "wait 2000");
        assert!(cli.exec(&mut w, "profile").contains("no profile data"));
        assert!(cli.exec(&mut w, "profile fold").contains("no profile data"));
    }

    #[test]
    fn invoke_runs_in_the_user_program() {
        let mut w = world();
        let mut cli = DebugCli::new();
        cli.exec(&mut w, "connect");
        let out = cli.exec(&mut w, "invoke 0 bump 20 22");
        assert!(out.contains("returned (42)"), "{out}");
    }
}
