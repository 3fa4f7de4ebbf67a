//! A Concurrent CLU-flavoured mini language: compiler, debug tables, and
//! bytecode VM.
//!
//! Pilgrim (Cooper, ICDCS 1987) is a *source-level* debugger for Concurrent
//! CLU — CLU extended at Cambridge with light-weight processes and RPC. A
//! source-level debugger needs a source language, so this crate provides
//! one: a small, statically typed CLU dialect with
//!
//! * typed variables, named record types, arrays, and strings;
//! * user-defined print operations (`print_<type>` procedures), which both
//!   the `print` builtin and the debugger use to display values;
//! * processes (`fork`), semaphores with timeouts, and monitor locks;
//! * remote procedure calls with the Mayflower RPC's two protocols:
//!   `call f(x) at node` (exactly-once) and `maybecall f(x) at node`;
//! * node-global `own` variables (shared memory between processes — the
//!   raw material for the unsafe interactions §5.1 worries about);
//! * CLU signals: `signals (...)` clauses, `signal name`, and statement
//!   handlers `except when a, b: ... end` — the exception style the
//!   paper's Figure 3/4 pseudocode is written in.
//!
//! The compiler emits bytecode *plus the debug tables the paper's modified
//! compiler emitted* (§5.5): line tables, variable-location tables with
//! live ranges, and entry-sequence boundaries for top-of-stack
//! interpretation. The VM executes one instruction per [`step`] call, or a
//! burst of plain instructions under a simulated-time budget per [`run`]
//! call; it supports trap opcodes planted over real instructions
//! (breakpoints) and a trace-mode flag (single step), and reports
//! simulated costs so the supervisor can keep time.
//!
//! # Examples
//!
//! ```
//! use pilgrim_cclu::compile;
//!
//! let program = compile(
//!     "fib = proc (n: int) returns (int)\n\
//!      if n < 2 then\n return (n)\n end\n\
//!      return (fib(n - 1) + fib(n - 2))\n\
//!      end",
//! )?;
//! let fib = program.proc_by_name("fib").unwrap();
//! assert_eq!(&*program.proc(fib).debug.name, "fib");
//! # Ok::<(), pilgrim_cclu::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
mod codegen;
mod parser;
mod token;
pub mod types;
pub mod value;
mod verify;
pub mod vm;

use std::fmt;

pub use ast::RpcProtocol;
pub use bytecode::{
    op_cost, CodeAddr, GlobalDebug, GlobalInit, Op, OpCost, ProcCode, ProcDebug, ProcId, Program,
    VarDebug,
};
pub use codegen::compile;
pub use types::{RecordType, Signature, Type};
pub use value::{
    deep_copy, format_value, value_matches_type, wire_size, Heap, HeapObject, HeapRef, Value,
};
pub use verify::{verify, VerifyError};
pub use vm::{
    run, step, Burst, CellWord, ExecEnv, Fault, FaultKind, Frame, FrameKind, RpcCallState,
    RpcInfoBlock, RpcRequest, StepOutcome, SyncCell, SysReply, Syscalls, VmProcess, MAX_FRAMES,
};

/// A compile-time error (lexical, syntactic, or type error) with the source
/// line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    line: Option<u32>,
    message: String,
}

impl CompileError {
    /// An error at a specific 1-based source line.
    pub fn at(line: u32, message: impl Into<String>) -> CompileError {
        CompileError {
            line: Some(line),
            message: message.into(),
        }
    }

    /// An error with no useful position.
    pub fn msg(message: impl Into<String>) -> CompileError {
        CompileError {
            line: None,
            message: message.into(),
        }
    }

    /// The source line, when known.
    pub fn line(&self) -> Option<u32> {
        self.line
    }

    /// The error description without position information.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_with_and_without_line() {
        assert_eq!(CompileError::at(3, "bad").to_string(), "line 3: bad");
        assert_eq!(CompileError::msg("bad").to_string(), "bad");
        assert_eq!(CompileError::at(3, "bad").line(), Some(3));
        assert_eq!(CompileError::at(3, "bad").message(), "bad");
    }

    #[test]
    fn compile_error_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CompileError>();
    }
}
