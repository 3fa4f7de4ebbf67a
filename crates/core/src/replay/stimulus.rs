//! The stimulus journal: one entry per public driving call, and its JSON.

use std::sync::Arc;

use pilgrim_cclu::Value;
use pilgrim_rpc::WireValue;
use pilgrim_sim::json::Fields;
use pilgrim_sim::Json;

use crate::proto::AgentRequest;
#[cfg(doc)]
use crate::World;

/// One recorded call into the world's public driving API, with concrete
/// arguments. Determinism makes the journal self-sufficient: replaying
/// the same stimuli against the same recipe reproduces every pid, call
/// id, and packet of the original run.
///
/// A world journals one per public driving call for as long as it lives, so a
/// stimulus is 40 bytes: what varies in length is boxed, and a spawn's
/// entry shares the name the node's program interns.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// [`World::spawn`] / [`World::try_spawn`].
    Spawn {
        /// Target node.
        node: u32,
        /// Entry procedure.
        entry: Arc<str>,
        /// Arguments.
        args: Box<[Value]>,
    },
    /// [`World::run_until`].
    RunUntil {
        /// Absolute limit, µs.
        until_us: u64,
    },
    /// [`World::run_for`].
    RunFor {
        /// Duration, µs.
        dur_us: u64,
    },
    /// [`World::run_until_idle`].
    RunUntilIdle {
        /// Absolute limit, µs.
        limit_us: u64,
    },
    /// [`World::debug_connect`].
    Connect {
        /// Session cohort.
        nodes: Box<[u32]>,
        /// Forcible connection.
        force: bool,
    },
    /// [`World::debug_disconnect`].
    Disconnect,
    /// [`World::debug_abandon`].
    Abandon,
    /// [`World::debug_request`] — also the funnel for every composite
    /// query method (backtrace, inspect, …), which records one `Request`
    /// per wire round trip it makes.
    Request {
        /// Target node.
        node: u32,
        /// The request body.
        req: AgentRequest,
    },
    /// [`World::debug_events`].
    DrainEvents,
    /// [`World::wait_for_stop`].
    WaitForStop {
        /// Timeout, µs.
        timeout_us: u64,
    },
    /// [`World::break_at_line`].
    BreakAtLine {
        /// Target node.
        node: u32,
        /// Source line.
        line: u32,
    },
    /// [`World::break_at_proc`].
    BreakAtProc {
        /// Target node.
        node: u32,
        /// Procedure name.
        name: Arc<str>,
    },
    /// [`World::clear_breakpoint`].
    ClearBreakpoint {
        /// Target node.
        node: u32,
        /// Agent breakpoint slot.
        bp: u16,
    },
    /// [`World::debug_halt_all`].
    HaltAll {
        /// Node whose agent initiates the halt.
        origin: u32,
    },
    /// [`World::debug_resume_all`].
    ResumeAll,
    /// [`World::diagnose_maybe_failure`].
    Diagnose {
        /// Server node.
        node: u32,
        /// The failed call.
        call_id: u64,
    },
    /// [`World::inject_drop`].
    DropNext {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Packets to drop.
        count: u32,
    },
    /// [`World::set_node_up`].
    SetNodeUp {
        /// Target station.
        node: u32,
        /// New interface state.
        up: bool,
    },
    /// [`World::set_link_up`].
    SetLinkUp {
        /// One end of the bridge link (a segment id).
        a: u32,
        /// The other end.
        b: u32,
        /// New link state.
        up: bool,
    },
    /// [`World::arm_watch`]. The expression is journalled in canonical
    /// form, so replay re-parses exactly what the original run armed.
    ArmWatch {
        /// Watch expression, e.g. `rpc.failed > 0`.
        expr: String,
    },
    /// [`World::clear_watch`].
    ClearWatch {
        /// Watch id returned by `arm_watch`.
        id: u64,
    },
}

/// A spawn argument as the journal writes it: a scalar as the
/// [`WireValue`] it marshals to. Handles and heap references are
/// node-local run-time state, written as `opaque`; a journal holding one
/// cannot be replayed and says so on load.
fn arg_to_json(v: &Value) -> Json {
    let wire = match v {
        Value::Null => WireValue::Null,
        Value::Int(i) => WireValue::Int(*i),
        Value::Bool(b) => WireValue::Bool(*b),
        Value::Str(s) => WireValue::Str(s.clone()),
        Value::Sem(_) | Value::Mutex(_) | Value::Ref(_) => {
            return Json::obj(vec![("kind", Json::Str("opaque".into()))])
        }
    };
    wire.to_json()
}

fn arg_from_json(v: &Json) -> Result<Value, String> {
    let f = Fields::new(v, &"value");
    if f.str("kind")? == "opaque" {
        return Err(
            "value: a spawn argument was a node-local handle (semaphore, mutex, or heap \
             reference); such journals cannot be replayed"
                .to_string(),
        );
    }
    match WireValue::from_json(v)? {
        WireValue::Null => Ok(Value::Null),
        WireValue::Int(i) => Ok(Value::Int(i)),
        WireValue::Bool(b) => Ok(Value::Bool(b)),
        WireValue::Str(s) => Ok(Value::Str(s)),
        WireValue::Record { .. } | WireValue::Array(_) => Err(f.out_of_range("kind")),
    }
}

impl Stimulus {
    /// The station ids the driver call hands to the network, which
    /// indexes and asserts on them. `DropNext` is absent: its pair only
    /// keys a map, and the live call accepts any, so a recording may
    /// hold one the world does not have.
    pub(super) fn stations(&self) -> &[u32] {
        match self {
            Stimulus::Connect { nodes, .. } => nodes,
            Stimulus::Spawn { node, .. }
            | Stimulus::Request { node, .. }
            | Stimulus::BreakAtLine { node, .. }
            | Stimulus::BreakAtProc { node, .. }
            | Stimulus::ClearBreakpoint { node, .. }
            | Stimulus::HaltAll { origin: node }
            | Stimulus::Diagnose { node, .. }
            | Stimulus::SetNodeUp { node, .. } => std::slice::from_ref(node),
            _ => &[],
        }
    }

    /// The stimulus as a tagged JSON object.
    pub fn to_json(&self) -> Json {
        let op = |name: &str| ("op", Json::Str(name.to_string()));
        let u = |v: u64| Json::Int(v as i128);
        match self {
            Stimulus::Spawn { node, entry, args } => Json::obj(vec![
                op("spawn"),
                ("node", u(*node as u64)),
                ("entry", Json::Str(entry.to_string())),
                ("args", Json::Array(args.iter().map(arg_to_json).collect())),
            ]),
            Stimulus::RunUntil { until_us } => {
                Json::obj(vec![op("run_until"), ("until_us", u(*until_us))])
            }
            Stimulus::RunFor { dur_us } => Json::obj(vec![op("run_for"), ("dur_us", u(*dur_us))]),
            Stimulus::RunUntilIdle { limit_us } => {
                Json::obj(vec![op("run_until_idle"), ("limit_us", u(*limit_us))])
            }
            Stimulus::Connect { nodes, force } => Json::obj(vec![
                op("connect"),
                (
                    "nodes",
                    Json::Array(nodes.iter().map(|n| u(*n as u64)).collect()),
                ),
                ("force", Json::Bool(*force)),
            ]),
            Stimulus::Disconnect => Json::obj(vec![op("disconnect")]),
            Stimulus::Abandon => Json::obj(vec![op("abandon")]),
            Stimulus::Request { node, req } => Json::obj(vec![
                op("request"),
                ("node", u(*node as u64)),
                ("req", req.to_json()),
            ]),
            Stimulus::DrainEvents => Json::obj(vec![op("drain_events")]),
            Stimulus::WaitForStop { timeout_us } => {
                Json::obj(vec![op("wait_for_stop"), ("timeout_us", u(*timeout_us))])
            }
            Stimulus::BreakAtLine { node, line } => Json::obj(vec![
                op("break_at_line"),
                ("node", u(*node as u64)),
                ("line", u(*line as u64)),
            ]),
            Stimulus::BreakAtProc { node, name } => Json::obj(vec![
                op("break_at_proc"),
                ("node", u(*node as u64)),
                ("name", Json::Str(name.to_string())),
            ]),
            Stimulus::ClearBreakpoint { node, bp } => Json::obj(vec![
                op("clear_breakpoint"),
                ("node", u(*node as u64)),
                ("bp", u(*bp as u64)),
            ]),
            Stimulus::HaltAll { origin } => {
                Json::obj(vec![op("halt_all"), ("origin", u(*origin as u64))])
            }
            Stimulus::ResumeAll => Json::obj(vec![op("resume_all")]),
            Stimulus::Diagnose { node, call_id } => Json::obj(vec![
                op("diagnose"),
                ("node", u(*node as u64)),
                ("call_id", u(*call_id)),
            ]),
            Stimulus::DropNext { src, dst, count } => Json::obj(vec![
                op("drop_next"),
                ("src", u(*src as u64)),
                ("dst", u(*dst as u64)),
                ("count", u(*count as u64)),
            ]),
            Stimulus::SetNodeUp { node, up } => Json::obj(vec![
                op("set_node_up"),
                ("node", u(*node as u64)),
                ("up", Json::Bool(*up)),
            ]),
            Stimulus::SetLinkUp { a, b, up } => Json::obj(vec![
                op("set_link_up"),
                ("a", u(*a as u64)),
                ("b", u(*b as u64)),
                ("up", Json::Bool(*up)),
            ]),
            Stimulus::ArmWatch { expr } => {
                Json::obj(vec![op("arm_watch"), ("expr", Json::Str(expr.clone()))])
            }
            Stimulus::ClearWatch { id } => Json::obj(vec![op("clear_watch"), ("id", u(*id))]),
        }
    }

    /// Rebuilds a stimulus from [`to_json`](Stimulus::to_json) output.
    ///
    /// # Errors
    ///
    /// Unknown ops and missing, mistyped or out-of-range fields.
    pub fn from_json(v: &Json) -> Result<Stimulus, String> {
        let op = Fields::new(v, &"stimulus").str("op")?;
        let what = format_args!("stimulus {op}");
        let f = Fields::new(v, &what);
        // Read above under the name it gives `what`; noted here for `finish`.
        f.get("op")?;
        let stimulus = match op {
            "spawn" => Stimulus::Spawn {
                node: f.uint("node")?,
                entry: f.str("entry")?.into(),
                args: f.list("args", arg_from_json)?,
            },
            "run_until" => Stimulus::RunUntil {
                until_us: f.uint("until_us")?,
            },
            "run_for" => Stimulus::RunFor {
                dur_us: f.uint("dur_us")?,
            },
            "run_until_idle" => Stimulus::RunUntilIdle {
                limit_us: f.uint("limit_us")?,
            },
            "connect" => Stimulus::Connect {
                nodes: f.list("nodes", |n| {
                    n.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| f.out_of_range("nodes"))
                })?,
                force: f.bool("force")?,
            },
            "disconnect" => Stimulus::Disconnect,
            "abandon" => Stimulus::Abandon,
            "request" => Stimulus::Request {
                node: f.uint("node")?,
                req: AgentRequest::from_json(f.object("req")?)?,
            },
            "drain_events" => Stimulus::DrainEvents,
            "wait_for_stop" => Stimulus::WaitForStop {
                timeout_us: f.uint("timeout_us")?,
            },
            "break_at_line" => Stimulus::BreakAtLine {
                node: f.uint("node")?,
                line: f.uint("line")?,
            },
            "break_at_proc" => Stimulus::BreakAtProc {
                node: f.uint("node")?,
                name: f.str("name")?.into(),
            },
            "clear_breakpoint" => Stimulus::ClearBreakpoint {
                node: f.uint("node")?,
                bp: f.uint("bp")?,
            },
            "halt_all" => Stimulus::HaltAll {
                origin: f.uint("origin")?,
            },
            "resume_all" => Stimulus::ResumeAll,
            "diagnose" => Stimulus::Diagnose {
                node: f.uint("node")?,
                call_id: f.uint("call_id")?,
            },
            "drop_next" => Stimulus::DropNext {
                src: f.uint("src")?,
                dst: f.uint("dst")?,
                count: f.uint("count")?,
            },
            "set_node_up" => Stimulus::SetNodeUp {
                node: f.uint("node")?,
                up: f.bool("up")?,
            },
            "set_link_up" => Stimulus::SetLinkUp {
                a: f.uint("a")?,
                b: f.uint("b")?,
                up: f.bool("up")?,
            },
            "arm_watch" => Stimulus::ArmWatch {
                expr: f.str("expr")?.to_string(),
            },
            "clear_watch" => Stimulus::ClearWatch { id: f.uint("id")? },
            other => return Err(format!("stimulus: unknown op `{other}`")),
        };
        f.finish()?;
        Ok(stimulus)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proto::tests::every_agent_request;

    /// A world keeps one stimulus per public driving call for its whole life, so
    /// the entry is pinned: boxed arguments, a shared entry name, and a
    /// request whose value-carrying variants box their payload.
    #[test]
    fn a_journal_entry_fits_in_40_bytes() {
        assert!(std::mem::size_of::<Stimulus>() <= 40);
        assert!(std::mem::size_of::<AgentRequest>() <= 24);
    }

    /// One stimulus of each op, every integer at its field's width except
    /// station ids, which stay inside a world of three stations so the
    /// list can ride a real recording's journal.
    pub(crate) fn every_stimulus() -> Vec<Stimulus> {
        vec![
            Stimulus::Spawn {
                node: 1,
                entry: "main".into(),
                args: vec![
                    Value::Null,
                    Value::Int(i64::MIN),
                    Value::Bool(true),
                    Value::Str("hi \"there\"\n".into()),
                ]
                .into(),
            },
            Stimulus::RunUntil { until_us: u64::MAX },
            Stimulus::RunFor { dur_us: u64::MAX },
            Stimulus::RunUntilIdle { limit_us: u64::MAX },
            Stimulus::Connect {
                nodes: vec![0, 1, 2].into(),
                force: true,
            },
            Stimulus::Disconnect,
            Stimulus::Abandon,
            Stimulus::Request {
                node: 0,
                req: AgentRequest::WriteVar {
                    pid: u64::MAX,
                    frame: u32::MAX,
                    slot: u16::MAX,
                    value: Box::new(WireValue::Record {
                        type_name: "pt".into(),
                        fields: vec![WireValue::Int(i64::MAX), WireValue::Array(vec![])],
                    }),
                },
            },
            Stimulus::DrainEvents,
            Stimulus::WaitForStop {
                timeout_us: u64::MAX,
            },
            Stimulus::BreakAtLine {
                node: 0,
                line: u32::MAX,
            },
            Stimulus::BreakAtProc {
                node: 1,
                name: "ping".into(),
            },
            Stimulus::ClearBreakpoint {
                node: 1,
                bp: u16::MAX,
            },
            Stimulus::HaltAll { origin: 2 },
            Stimulus::ResumeAll,
            Stimulus::Diagnose {
                node: 1,
                call_id: u64::MAX,
            },
            Stimulus::DropNext {
                src: u32::MAX,
                dst: u32::MAX,
                count: u32::MAX,
            },
            Stimulus::SetNodeUp { node: 2, up: false },
            Stimulus::SetLinkUp {
                a: u32::MAX,
                b: u32::MAX,
                up: false,
            },
            Stimulus::ArmWatch {
                expr: "rpc.failed > 0".into(),
            },
            Stimulus::ClearWatch { id: u64::MAX },
        ]
    }

    #[test]
    fn stimuli_round_trip_through_json() {
        let requests = every_agent_request()
            .into_iter()
            .map(|req| Stimulus::Request { node: 1, req });
        for s in &every_stimulus()
            .into_iter()
            .chain(requests)
            .collect::<Vec<_>>()
        {
            let mut rendered = String::new();
            s.to_json().write(&mut rendered);
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let back = Stimulus::from_json(&parsed).expect("decodes");
            let mut rendered2 = String::new();
            back.to_json().write(&mut rendered2);
            assert_eq!(rendered, rendered2, "stimulus did not round-trip: {s:?}");
        }
    }

    #[test]
    fn opaque_spawn_args_fail_replay_loudly() {
        let rendered = {
            let mut out = String::new();
            arg_to_json(&Value::Sem(3)).write(&mut out);
            out
        };
        let parsed = Json::parse(&rendered).unwrap();
        let err = arg_from_json(&parsed).unwrap_err();
        assert!(err.contains("node-local"), "{err}");
    }
}
