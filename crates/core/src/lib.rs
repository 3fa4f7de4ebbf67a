//! **Pilgrim** — a source-level debugger for distributed Concurrent CLU
//! programs, reproduced from Robert Cooper, *"Pilgrim: A Debugger for
//! Distributed Systems"* (ICDCS 1987, Cambridge University Computer
//! Laboratory).
//!
//! Pilgrim debugs programs **in the target environment under conditions of
//! actual use** (§1): no recompilation, no "debug mode", near-zero cost
//! when dormant, and careful preservation of *time consistency* so the
//! program under the debugger still performs a "typical computation".
//!
//! # Architecture (paper §3)
//!
//! Pilgrim is itself a distributed program:
//!
//! * an [`Agent`] is linked into every node of the user program. It stays
//!   dormant until a debugger connects, then provides the primitives that
//!   must live on the node: trap handling, breakpoint set/clear/step,
//!   memory access, procedure invocation with redirected output (how
//!   user-defined print operations are run), halting with the supervisor
//!   primitive, the halt broadcast, and the `get_debuggee_status` support
//!   procedure for shared servers;
//! * the [`Debugger`] proper runs on its own node and owns everything
//!   else: the user interface, type checking, source-to-object mapping
//!   tables, the breakpoint log and `convert_debuggee_time` (§6.1);
//! * a [`World`] composes the user nodes, the Cambridge Ring, the RPC
//!   runtimes, the agents and the debugger into one deterministic
//!   simulation, and plays the role of the programmer at the terminal.
//!
//! # Quick start
//!
//! ```
//! use pilgrim::{World, SimTime};
//!
//! let mut world = World::builder()
//!     .nodes(1)
//!     .program(
//!         "main = proc ()\n\
//!          x: int := 6\n\
//!          x := x * 7\n\
//!          print(x)\n\
//!          end",
//!     )
//!     .build()?;
//! world.debug_connect(&[0], false)?;
//! world.break_at_line(0, 3)?;
//! let pid = world.spawn(0, "main", vec![]).0;
//! let hit = world.wait_for_stop(pilgrim::SimDuration::from_secs(2))?;
//! match hit {
//!     pilgrim::DebugEvent::BreakpointHit { line, .. } => assert_eq!(line, Some(3)),
//!     other => panic!("unexpected stop: {other:?}"),
//! }
//! assert_eq!(world.inspect(0, pid, "x")?, "6");
//! world.continue_process(0, pid)?;
//! world.debug_resume_all()?;
//! world.run_until(SimTime::from_secs(1));
//! assert_eq!(world.console(0), vec!["42"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod agent;
pub mod blackbox;
mod cli;
mod debugger;
pub mod proto;
pub mod replay;
pub mod saved;
mod timebase;
pub mod twin;
mod world;

pub use agent::{Agent, AgentConfig, AgentShared, AgentStats, DebugNet, NOT_DEBUGGED};
pub use blackbox::BlackboxSnapshot;
pub use cli::DebugCli;
pub use debugger::{BreakpointInfo, DebugEvent, Debugger};
pub use proto::{
    AgentEvent, AgentReply, AgentRequest, ConvertedTime, DebugMsg, FrameSummary, Invocation,
    ProcView, RpcFrameView, SessionId, StateView,
};
pub use replay::{
    replay_with, rerun, Artifact, Recipe, ReplayError, ReplayReport, SetupInstaller, Stimulus,
};
pub use saved::{open, Saved};
pub use timebase::{BreakpointLog, HaltRecord};
pub use twin::{capture, twin_run, TwinArtifacts};
pub use world::{
    render_wire, BacktraceFrame, BuildError, DebugError, MaybeDiagnosis, Setup, WatchTrip, Wire,
    World, WorldBuilder,
};

// Re-export the pieces users need to drive a world without naming every
// subcrate.
pub use pilgrim_cclu::{compile, CompileError, Program, RpcCallState, Value};
pub use pilgrim_mayflower::{NodeConfig, Pid, RunState, SpawnOpts};
pub use pilgrim_ring::{LinkModel, Medium, NetworkConfig, NodeId, PartitionWindow, Topology};
pub use pilgrim_rpc::{CallDebug, RpcConfig, ServerKnowledge, WireValue};
pub use pilgrim_sim::{
    CausalGraph, Chunked, Counter, EventKind, Gauge, Histogram, Json, Metrics, SeriesStore,
    SimDuration, SimTime, SpanId, SpanProfile, TraceCategory, TraceEvent, Tracer,
};
