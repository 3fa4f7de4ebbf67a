//! Bytecode, compiled programs, and the debug tables the compiler emits.
//!
//! The paper's compiler and assembler were modified to emit tables mapping
//! program-counter values to source lines, variable locations, and
//! "top-of-stack interpretation" information (§5.5). This module defines the
//! reproduction's equivalents. Breakpoints work exactly as on the 68000: the
//! agent overwrites the instruction at an address with a trap opcode
//! ([`Op::Trap`]) and keeps the original aside.

use std::fmt;
use std::sync::Arc;

use crate::ast::RpcProtocol;
use crate::types::{RecordType, Signature, Type};
use crate::value::Value;

/// Index of a procedure within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u16);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// An object-code address: procedure plus program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeAddr {
    /// The procedure.
    pub proc: ProcId,
    /// Offset of the instruction within the procedure.
    pub pc: u32,
}

impl fmt::Display for CodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.proc, self.pc)
    }
}

/// A bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push an integer literal.
    PushInt(i64),
    /// Push a boolean literal.
    PushBool(bool),
    /// Push a string literal.
    PushStr(Arc<str>),
    /// Push `nil`.
    PushNull,
    /// Discard the top `n` stack values.
    Pop(u8),
    /// Push local variable `slot`.
    LoadLocal(u16),
    /// Pop into local variable `slot`.
    StoreLocal(u16),
    /// Push node-global `slot`.
    LoadGlobal(u16),
    /// Pop into node-global `slot`.
    StoreGlobal(u16),
    /// Pop a record ref; push its field `index`.
    LoadField(u16),
    /// Pop value then record ref; store into field `index`.
    StoreField(u16),
    /// Pop index then array ref; push element.
    LoadIndex,
    /// Pop value, index, array ref; store element.
    StoreIndex,
    /// Allocate a record of named type `type_id` from the top `nfields`
    /// stack values. Runs inside the heap-allocator critical region.
    NewRecord {
        /// Index into [`Program::records`].
        type_id: u16,
        /// Number of field initializers on the stack.
        nfields: u16,
    },
    /// Allocate an empty array. Runs inside the allocator critical region.
    NewArray,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (faults on division by zero).
    Div,
    /// Integer modulo (faults on division by zero).
    Mod,
    /// Integer negation.
    Neg,
    /// String concatenation (allocator critical region).
    Concat,
    /// Comparison `<` on ints.
    Lt,
    /// Comparison `<=` on ints.
    Le,
    /// Comparison `>` on ints.
    Gt,
    /// Comparison `>=` on ints.
    Ge,
    /// Equality on ints, bools, strings.
    CmpEq,
    /// Inequality on ints, bools, strings.
    CmpNe,
    /// Boolean negation.
    Not,
    /// Unconditional jump to pc.
    Jump(u32),
    /// Pop a bool; jump when false.
    JumpIfFalse(u32),
    /// Pop a bool; jump when true.
    JumpIfTrue(u32),
    /// Call a local procedure: pops `nargs` arguments.
    Call {
        /// Callee.
        proc: ProcId,
        /// Number of arguments on the stack.
        nargs: u8,
    },
    /// Frame-setup instruction; always the first instruction of a procedure.
    /// Until it executes the new frame is not "well formed" (§5.5).
    Enter {
        /// Total local slots (params included).
        nlocals: u16,
    },
    /// Return from the current procedure with `nvals` results.
    Ret {
        /// Number of result values on the stack.
        nvals: u8,
    },
    /// Create a new process running `proc`; pushes the new process id (int).
    Fork {
        /// Entry procedure of the new process.
        proc: ProcId,
        /// Number of arguments on the stack.
        nargs: u8,
    },
    /// Remote procedure call. Pops the node id, then `nargs` arguments.
    /// Blocks until the RPC runtime resumes the process with results
    /// (plus a leading success flag for the maybe protocol).
    Rpc {
        /// Index into [`Program::rpc_names`].
        name_idx: u16,
        /// Number of arguments.
        nargs: u8,
        /// Number of declared return values (excluding the maybe flag).
        nrets: u8,
        /// Which protocol to use.
        protocol: RpcProtocol,
    },
    /// `sem$create(n)`.
    SemCreate,
    /// `sem$wait(s, timeout_ms)`; pushes a bool (false = timed out).
    SemWait,
    /// `sem$signal(s)`.
    SemSignal,
    /// `mutex$create()`.
    MutexCreate,
    /// `mutex$lock(m)`.
    MutexLock,
    /// `mutex$unlock(m)`.
    MutexUnlock,
    /// `sleep(ms)`.
    Sleep,
    /// `now()` — the node's *logical* time in milliseconds (§5.2).
    Now,
    /// `pid()`.
    Pid,
    /// `my_node()`.
    MyNode,
    /// `random(n)` — deterministic per-node pseudo-random int in `[0, n)`.
    Random,
    /// Pop a value and print it on the node console (or the debugger's
    /// redirected output stream).
    Print,
    /// `int$unparse(i)` — int to string (allocator critical region).
    Unparse,
    /// `len(a)`.
    Len,
    /// `append(a, v)`.
    Append,
    /// `fail(msg)` — deliberate user program failure.
    Fail,
    /// Raise a CLU signal ([`Program::signal_names`] index). Control
    /// unwinds to the innermost matching handler region, popping frames as
    /// needed; an uncaught signal faults the process.
    Signal(u16),
    /// A planted breakpoint. The operand names the agent's breakpoint slot;
    /// the displaced original instruction is stored by the agent.
    Trap(u16),
    /// Do nothing.
    Nop,
}

/// Per-variable debug record: where a source variable lives and when it is
/// in scope.
#[derive(Debug, Clone)]
pub struct VarDebug {
    /// Source name.
    pub name: Arc<str>,
    /// Declared type.
    pub ty: Type,
    /// Local slot.
    pub slot: u16,
    /// First pc at which the variable is live.
    pub from_pc: u32,
    /// One past the last pc at which the variable is live.
    pub to_pc: u32,
}

/// A signal-handler region: while the pc is in `[from_pc, to_pc)`, signals
/// named in `signals` divert control to `handler_pc` (CLU `except when`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerEntry {
    /// First protected pc.
    pub from_pc: u32,
    /// One past the last protected pc.
    pub to_pc: u32,
    /// Indices into [`Program::signal_names`].
    pub signals: Vec<u16>,
    /// Where the handler body starts.
    pub handler_pc: u32,
}

/// Compiler-emitted debug tables for one procedure (§5.5).
#[derive(Debug, Clone)]
pub struct ProcDebug {
    /// Procedure name.
    pub name: Arc<str>,
    /// Declared signature.
    pub sig: Signature,
    /// Source line of the header.
    pub line: u32,
    /// Number of parameters (stored in slots `0..params`).
    pub params: u16,
    /// Variable table.
    pub vars: Vec<VarDebug>,
    /// Line table: `(pc, line)` pairs sorted by pc; the line for a pc is the
    /// entry with the greatest pc ≤ it.
    pub lines: Vec<(u32, u32)>,
    /// Pcs strictly below this are the procedure's entry sequence, where the
    /// frame is not yet well formed (the §5.5 "top of stack" problem).
    pub entry_end: u32,
}

impl ProcDebug {
    /// Source line for `pc`, if any code was emitted.
    pub fn line_for_pc(&self, pc: u32) -> Option<u32> {
        let idx = self.lines.partition_point(|(p, _)| *p <= pc);
        idx.checked_sub(1).map(|i| self.lines[i].1)
    }

    /// First pc at or after the start whose line is exactly `line`.
    pub fn pc_for_line(&self, line: u32) -> Option<u32> {
        self.lines.iter().find(|(_, l)| *l == line).map(|(p, _)| *p)
    }

    /// Variables in scope at `pc`.
    pub fn vars_at(&self, pc: u32) -> Vec<&VarDebug> {
        self.vars
            .iter()
            .filter(|v| v.from_pc <= pc && pc < v.to_pc)
            .collect()
    }

    /// Looks up an in-scope variable by name at `pc`.
    pub fn var_at(&self, name: &str, pc: u32) -> Option<&VarDebug> {
        // Later declarations shadow earlier ones; search from the back.
        self.vars
            .iter()
            .rev()
            .find(|v| &*v.name == name && v.from_pc <= pc && pc < v.to_pc)
    }
}

/// Per-instruction execution metadata, precomputed at load so the VM's
/// dispatch loop reads one table entry instead of matching on the op twice
/// (once for its simulated cost, once for the two-phase-allocation check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Baseline simulated cost of the instruction, microseconds.
    pub cost: u32,
    /// Whether the instruction allocates (and therefore runs the VM's
    /// two-phase allocator critical region).
    pub allocates: bool,
}

/// Baseline instruction costs in simulated microseconds, calibrated so that
/// bytecode executes at roughly the speed of compiled CLU on the paper's
/// 8 MHz MC68000 (a few microseconds per source-level operation).
pub fn op_cost(op: &Op) -> OpCost {
    let cost: u32 = match op {
        Op::PushInt(_) | Op::PushBool(_) | Op::PushStr(_) | Op::PushNull | Op::Pop(_) => 2,
        Op::LoadLocal(_) | Op::StoreLocal(_) | Op::LoadGlobal(_) | Op::StoreGlobal(_) => 2,
        Op::LoadField(_) | Op::StoreField(_) | Op::LoadIndex | Op::StoreIndex | Op::Len => 3,
        Op::Add | Op::Sub | Op::Neg | Op::Not => 2,
        Op::Mul => 5,
        Op::Div | Op::Mod => 8,
        Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::CmpEq | Op::CmpNe => 2,
        Op::Concat | Op::Unparse => 12,
        Op::NewRecord { .. } | Op::NewArray | Op::Append => 10,
        Op::Jump(_) | Op::JumpIfFalse(_) | Op::JumpIfTrue(_) | Op::Nop => 2,
        Op::Call { .. } => 12,
        Op::Enter { .. } => 6,
        Op::Ret { .. } => 10,
        Op::Fork { .. } => 60,
        Op::Rpc { .. } => 25,
        Op::SemCreate | Op::SemWait | Op::SemSignal => 8,
        Op::MutexCreate | Op::MutexLock | Op::MutexUnlock => 8,
        Op::Sleep => 8,
        Op::Now | Op::Pid | Op::MyNode | Op::Random => 4,
        Op::Print => 40,
        Op::Fail => 5,
        Op::Signal(_) => 10,
        Op::Trap(_) => 0,
    };
    let allocates = matches!(
        op,
        Op::NewRecord { .. } | Op::NewArray | Op::Append | Op::Concat | Op::Unparse
    );
    OpCost { cost, allocates }
}

/// A compiled procedure: code plus debug tables.
#[derive(Debug, Clone)]
pub struct ProcCode {
    /// The instructions. Mutable at run time only through breakpoint
    /// planting ([`Program::replace_op`]).
    pub code: Vec<Op>,
    /// Per-instruction cost metadata; always the same length as `code`,
    /// with `costs[pc] == op_cost(&code[pc])`. Build through
    /// [`ProcCode::new`] and mutate code only through
    /// [`Program::replace_op`] to keep the tables in sync.
    pub costs: Vec<OpCost>,
    /// The deepest operand stack any path through the code reaches, from
    /// the verifier's stack-discipline walk, which the compiler runs once
    /// per procedure. [`Op::Enter`] reserves the frame's locals plus this
    /// many values. A hint, never a limit: [`ProcCode::new`] sets it to 0,
    /// and a frame that outgrows it grows its stack as any push does.
    pub peak_operands: u32,
    /// Signal-handler regions, innermost regions having larger `from_pc`.
    pub handlers: Vec<HandlerEntry>,
    /// Debug tables.
    pub debug: ProcDebug,
}

impl ProcCode {
    /// Builds a procedure, deriving the per-instruction cost table.
    pub fn new(code: Vec<Op>, handlers: Vec<HandlerEntry>, debug: ProcDebug) -> ProcCode {
        let costs = code.iter().map(op_cost).collect();
        ProcCode {
            code,
            costs,
            peak_operands: 0,
            handlers,
            debug,
        }
    }
}

/// How a node-global variable starts life.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// A literal value.
    Literal(Value),
    /// A fresh empty array, allocated when the node boots
    /// (`own xs: array[T] := array$new()`).
    EmptyArray,
    /// A fresh semaphore with the given initial count, created when the
    /// node boots (`own gate: sem := sem$create(0)`).
    Semaphore(i64),
}

/// A node-global variable's metadata.
#[derive(Debug, Clone)]
pub struct GlobalDebug {
    /// Source name.
    pub name: Arc<str>,
    /// Declared type.
    pub ty: Type,
    /// Initial value.
    pub init: GlobalInit,
}

/// A complete compiled program, shared by every process on a node.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Original source text (retained for source-level listings).
    pub source: Arc<str>,
    /// Compiled procedures.
    pub procs: Vec<ProcCode>,
    /// Node-global variables.
    pub globals: Vec<GlobalDebug>,
    /// Named record types, indexed by the `type_id` in [`Op::NewRecord`].
    pub records: Vec<Arc<RecordType>>,
    /// Remote-procedure names referenced by [`Op::Rpc`].
    pub rpc_names: Vec<Arc<str>>,
    /// Extern (native-service) signatures declared by the program.
    pub externs: Vec<(Arc<str>, Signature)>,
    /// Interned signal names referenced by [`Op::Signal`] and
    /// [`HandlerEntry::signals`].
    pub signal_names: Vec<Arc<str>>,
}

impl Program {
    /// Finds a procedure by source name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcId> {
        self.procs
            .iter()
            .position(|p| &*p.debug.name == name)
            .map(|i| ProcId(i as u16))
    }

    /// The code of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn proc(&self, id: ProcId) -> &ProcCode {
        &self.procs[id.0 as usize]
    }

    /// The signature a caller (local or remote) must satisfy for `name`,
    /// looking at both defined procedures and extern declarations.
    pub fn signature_of(&self, name: &str) -> Option<&Signature> {
        if let Some(id) = self.proc_by_name(name) {
            return Some(&self.proc(id).debug.sig);
        }
        self.externs
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, s)| s)
    }

    /// Resolves a source line to the first executable address on it.
    pub fn addr_for_line(&self, line: u32) -> Option<CodeAddr> {
        let mut best: Option<CodeAddr> = None;
        for (i, p) in self.procs.iter().enumerate() {
            if let Some(pc) = p.debug.pc_for_line(line) {
                let addr = CodeAddr {
                    proc: ProcId(i as u16),
                    pc,
                };
                // Prefer the earliest pc on the line within any proc; procs
                // don't share lines, so the first hit wins.
                if best.is_none() {
                    best = Some(addr);
                }
            }
        }
        best
    }

    /// Reads the instruction at `addr`.
    pub fn op_at(&self, addr: CodeAddr) -> Option<&Op> {
        self.procs
            .get(addr.proc.0 as usize)
            .and_then(|p| p.code.get(addr.pc as usize))
    }

    /// Overwrites the instruction at `addr`, returning the displaced one.
    /// This is the breakpoint-planting primitive (paper §5.5): the caller —
    /// the agent — is responsible for keeping the original instruction and
    /// restoring it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn replace_op(&mut self, addr: CodeAddr, op: Op) -> Op {
        let proc = &mut self.procs[addr.proc.0 as usize];
        proc.costs[addr.pc as usize] = op_cost(&op);
        let slot = &mut proc.code[addr.pc as usize];
        std::mem::replace(slot, op)
    }

    /// True while `addr` is within its procedure's entry sequence, i.e. the
    /// newest frame is not yet well formed (§5.5).
    pub fn in_entry_sequence(&self, addr: CodeAddr) -> bool {
        self.procs
            .get(addr.proc.0 as usize)
            .map(|p| addr.pc < p.debug.entry_end)
            .unwrap_or(false)
    }

    /// Does the program define a user print operation for record type
    /// `type_name`? Returns the printing procedure when its signature is the
    /// conventional `print_<type> = proc (v: <type>) returns (string)`.
    pub fn print_op_for(&self, type_name: &str) -> Option<ProcId> {
        let id = self.proc_by_name(&format!("print_{type_name}"))?;
        let sig = &self.proc(id).debug.sig;
        let takes_type = matches!(
            sig.params.as_slice(),
            [Type::Record(r)] if *r.name == *type_name
        );
        if takes_type && sig.returns == vec![Type::Str] {
            Some(id)
        } else {
            None
        }
    }

    /// Total instruction count across procedures (for size reporting).
    pub fn code_len(&self) -> usize {
        self.procs.iter().map(|p| p.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debug(lines: &[(u32, u32)]) -> ProcDebug {
        ProcDebug {
            name: "t".into(),
            sig: Signature::default(),
            line: 1,
            params: 0,
            vars: vec![VarDebug {
                name: "x".into(),
                ty: Type::Int,
                slot: 0,
                from_pc: 2,
                to_pc: 10,
            }],
            lines: lines.to_vec(),
            entry_end: 1,
        }
    }

    #[test]
    fn line_table_lookup() {
        let d = debug(&[(0, 5), (3, 6), (7, 9)]);
        assert_eq!(d.line_for_pc(0), Some(5));
        assert_eq!(d.line_for_pc(2), Some(5));
        assert_eq!(d.line_for_pc(3), Some(6));
        assert_eq!(d.line_for_pc(100), Some(9));
        assert_eq!(d.pc_for_line(6), Some(3));
        assert_eq!(d.pc_for_line(8), None);
    }

    #[test]
    fn var_scoping() {
        let d = debug(&[(0, 1)]);
        assert!(d.var_at("x", 1).is_none());
        assert!(d.var_at("x", 2).is_some());
        assert!(d.var_at("x", 9).is_some());
        assert!(d.var_at("x", 10).is_none());
        assert_eq!(d.vars_at(5).len(), 1);
    }

    #[test]
    fn replace_op_roundtrip() {
        let mut prog = Program::default();
        prog.procs.push(ProcCode::new(
            vec![
                Op::Enter { nlocals: 0 },
                Op::PushInt(1),
                Op::Ret { nvals: 0 },
            ],
            Vec::new(),
            debug(&[(0, 1)]),
        ));
        let addr = CodeAddr {
            proc: ProcId(0),
            pc: 1,
        };
        let old = prog.replace_op(addr, Op::Trap(0));
        assert_eq!(old, Op::PushInt(1));
        assert_eq!(prog.op_at(addr), Some(&Op::Trap(0)));
        assert_eq!(prog.procs[0].costs[1], op_cost(&Op::Trap(0)));
        let trap = prog.replace_op(addr, old);
        assert_eq!(trap, Op::Trap(0));
        assert_eq!(prog.procs[0].costs[1], op_cost(&Op::PushInt(1)));
    }

    #[test]
    fn cost_table_matches_code() {
        let p = ProcCode::new(
            vec![Op::Enter { nlocals: 1 }, Op::Concat, Op::Ret { nvals: 1 }],
            Vec::new(),
            debug(&[(0, 1)]),
        );
        assert_eq!(p.costs.len(), p.code.len());
        assert_eq!(
            p.costs[0],
            OpCost {
                cost: 6,
                allocates: false
            }
        );
        assert_eq!(
            p.costs[1],
            OpCost {
                cost: 12,
                allocates: true
            }
        );
        assert_eq!(
            p.costs[2],
            OpCost {
                cost: 10,
                allocates: false
            }
        );
    }

    #[test]
    fn entry_sequence_detection() {
        let mut prog = Program::default();
        prog.procs.push(ProcCode::new(
            vec![Op::Enter { nlocals: 2 }, Op::Nop],
            Vec::new(),
            debug(&[(0, 1)]),
        ));
        assert!(prog.in_entry_sequence(CodeAddr {
            proc: ProcId(0),
            pc: 0
        }));
        assert!(!prog.in_entry_sequence(CodeAddr {
            proc: ProcId(0),
            pc: 1
        }));
    }
}
