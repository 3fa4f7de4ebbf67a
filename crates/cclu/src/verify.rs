//! A bytecode verifier: structural and stack-discipline invariants every
//! compiled [`Program`] must satisfy.
//!
//! The verifier is used by the property-based tests (any program the
//! compiler accepts must verify) and is cheap enough to run on untrusted
//! programs before execution. It checks:
//!
//! * every jump, call, record id, rpc name, signal name and handler pc is
//!   in range;
//! * the first instruction of every procedure is [`Op::Enter`] and its
//!   local count covers the parameters and every local slot referenced;
//! * operand-stack depth is consistent along all control-flow paths
//!   (abstract interpretation with a worklist), never underflows, and is
//!   zero at handler entries — the same walk gives the compiler each
//!   procedure's peak operand depth;
//! * line tables are sorted and variable live ranges lie within the code.

use crate::bytecode::{Op, ProcId, Program};

/// A verification failure, with the offending location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Procedure index.
    pub proc: u16,
    /// Program counter, when relevant.
    pub pc: Option<u32>,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "proc#{} pc {}: {}", self.proc, pc, self.message),
            None => write!(f, "proc#{}: {}", self.proc, self.message),
        }
    }
}
impl std::error::Error for VerifyError {}

/// Verifies every procedure of `program`.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify(program: &Program) -> Result<(), VerifyError> {
    for (i, _) in program.procs.iter().enumerate() {
        verify_proc(program, ProcId(i as u16))?;
    }
    Ok(())
}

/// Net operand-stack effect of `op`, or `None` for control transfers that
/// the walker handles specially.
#[allow(clippy::too_many_lines)]
fn stack_effect(program: &Program, op: &Op) -> Option<i32> {
    Some(match op {
        Op::PushInt(_) | Op::PushBool(_) | Op::PushStr(_) | Op::PushNull => 1,
        Op::Pop(n) => -i32::from(*n),
        Op::LoadLocal(_) | Op::LoadGlobal(_) => 1,
        Op::StoreLocal(_) | Op::StoreGlobal(_) => -1,
        Op::LoadField(_) => 0,
        Op::StoreField(_) => -2,
        Op::LoadIndex => -1,
        Op::StoreIndex => -3,
        Op::NewRecord { nfields, .. } => 1 - i32::from(*nfields),
        Op::NewArray => 1,
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod | Op::Concat => -1,
        Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::CmpEq | Op::CmpNe => -1,
        Op::Neg | Op::Not => 0,
        Op::Call { proc, nargs } => {
            let rets = program
                .procs
                .get(proc.0 as usize)
                .map(|p| p.debug.sig.returns.len() as i32)
                .unwrap_or(0);
            rets - i32::from(*nargs)
        }
        Op::Enter { .. } => 0,
        Op::Fork { nargs, .. } => 1 - i32::from(*nargs),
        Op::Rpc {
            nargs,
            nrets,
            protocol,
            ..
        } => {
            let extra = i32::from(*protocol == crate::ast::RpcProtocol::Maybe);
            i32::from(*nrets) + extra - i32::from(*nargs) - 1
        }
        Op::SemCreate => 0,
        Op::SemWait => -1,
        Op::SemSignal => -1,
        Op::MutexCreate => 1,
        Op::MutexLock | Op::MutexUnlock => -1,
        Op::Sleep | Op::Print => -1,
        Op::Now | Op::Pid | Op::MyNode => 1,
        Op::Random | Op::Unparse | Op::Len => 0,
        Op::Append => -2,
        Op::Nop => 0,
        // Control transfers handled by the walker.
        Op::Jump(_)
        | Op::JumpIfFalse(_)
        | Op::JumpIfTrue(_)
        | Op::Ret { .. }
        | Op::Fail
        | Op::Signal(_)
        | Op::Trap(_) => return None,
    })
}

fn verify_proc(program: &Program, id: ProcId) -> Result<(), VerifyError> {
    let code = &program.procs[id.0 as usize];
    let len = code.code.len() as u32;
    let err = |pc: Option<u32>, m: String| VerifyError {
        proc: id.0,
        pc,
        message: m,
    };

    if len == 0 {
        return Err(err(None, "empty procedure".into()));
    }
    let nlocals = match code.code.first() {
        Some(Op::Enter { nlocals }) => *nlocals,
        other => {
            return Err(err(
                Some(0),
                format!("first op must be Enter, found {other:?}"),
            ))
        }
    };
    if nlocals < code.debug.params {
        return Err(err(
            None,
            "Enter reserves fewer slots than there are parameters".into(),
        ));
    }

    // Structural checks per instruction.
    for (pc, op) in code.code.iter().enumerate() {
        let pc = pc as u32;
        match op {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) if *t >= len => {
                return Err(err(Some(pc), format!("jump target {t} out of range")));
            }
            Op::LoadLocal(s) | Op::StoreLocal(s) if *s >= nlocals => {
                return Err(err(
                    Some(pc),
                    format!("local slot {s} >= nlocals {nlocals}"),
                ));
            }
            Op::LoadGlobal(s) | Op::StoreGlobal(s) if usize::from(*s) >= program.globals.len() => {
                return Err(err(Some(pc), format!("global slot {s} out of range")));
            }
            Op::Call { proc, .. } | Op::Fork { proc, .. }
                if usize::from(proc.0) >= program.procs.len() =>
            {
                return Err(err(Some(pc), format!("callee {proc} out of range")));
            }
            Op::NewRecord { type_id, .. } if usize::from(*type_id) >= program.records.len() => {
                return Err(err(Some(pc), format!("record type {type_id} out of range")));
            }
            Op::Rpc { name_idx, .. } if usize::from(*name_idx) >= program.rpc_names.len() => {
                return Err(err(Some(pc), format!("rpc name {name_idx} out of range")));
            }
            Op::Signal(s) if usize::from(*s) >= program.signal_names.len() => {
                return Err(err(Some(pc), format!("signal name {s} out of range")));
            }
            Op::Enter { .. } if pc != 0 => {
                return Err(err(Some(pc), "Enter only allowed at pc 0".into()));
            }
            _ => {}
        }
    }

    // Debug-table checks.
    let mut prev_pc = 0;
    for (i, (pc, _line)) in code.debug.lines.iter().enumerate() {
        if i > 0 && *pc < prev_pc {
            return Err(err(Some(*pc), "line table not sorted by pc".into()));
        }
        if *pc > len {
            return Err(err(Some(*pc), "line table pc out of range".into()));
        }
        prev_pc = *pc;
    }
    for v in &code.debug.vars {
        if v.from_pc > v.to_pc || v.to_pc > len {
            return Err(err(
                None,
                format!("variable `{}` has a bad live range", v.name),
            ));
        }
        if v.slot >= nlocals {
            return Err(err(
                None,
                format!("variable `{}` slot out of range", v.name),
            ));
        }
    }
    for h in &code.handlers {
        if h.from_pc >= h.to_pc || h.to_pc > len || h.handler_pc >= len {
            return Err(err(Some(h.from_pc), "malformed handler region".into()));
        }
        for s in &h.signals {
            if usize::from(*s) >= program.signal_names.len() {
                return Err(err(
                    Some(h.from_pc),
                    "handler names an unknown signal".into(),
                ));
            }
        }
    }

    operand_peak(program, id).map(|_| ())
}

/// The stack-discipline walk: abstract interpretation of `id`'s operand
/// depth along every control-flow path, from pc 0 and from every handler
/// entry, each at depth 0. Returns the deepest operand stack any path
/// reaches (pops happen before pushes, so no instruction goes deeper than
/// the depth it leaves), which the compiler keeps as
/// [`ProcCode::peak_operands`](crate::ProcCode::peak_operands). Expects
/// [`verify`]'s structural checks to hold: jump and handler targets in
/// range.
pub(crate) fn operand_peak(program: &Program, id: ProcId) -> Result<u32, VerifyError> {
    let code = &program.procs[id.0 as usize];
    let len = code.code.len() as u32;
    let err = |pc: Option<u32>, m: String| VerifyError {
        proc: id.0,
        pc,
        message: m,
    };
    let mut depth_at: Vec<Option<i32>> = vec![None; len as usize];
    let mut work: Vec<(u32, i32)> = vec![(0, 0)];
    for h in &code.handlers {
        work.push((h.handler_pc, 0));
    }
    let merge = |pc: u32,
                 depth: i32,
                 depth_at: &mut Vec<Option<i32>>,
                 work: &mut Vec<(u32, i32)>|
     -> Result<(), VerifyError> {
        if pc >= len {
            return Err(err(
                Some(pc),
                "control flows past the end of the code".into(),
            ));
        }
        match depth_at[pc as usize] {
            Some(d) if d != depth => Err(err(
                Some(pc),
                format!("inconsistent stack depth at join: {d} vs {depth}"),
            )),
            Some(_) => Ok(()),
            None => {
                depth_at[pc as usize] = Some(depth);
                work.push((pc, depth));
                Ok(())
            }
        }
    };

    // Seed entries.
    depth_at[0] = Some(0);
    for h in &code.handlers {
        depth_at[h.handler_pc as usize] = Some(0);
    }
    let mut peak = 0;
    while let Some((pc, depth)) = work.pop() {
        peak = peak.max(depth);
        let op = &code.code[pc as usize];
        match op {
            Op::Jump(t) => merge(*t, depth, &mut depth_at, &mut work)?,
            Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                let d = depth - 1;
                if d < 0 {
                    return Err(err(Some(pc), "stack underflow at branch".into()));
                }
                merge(*t, d, &mut depth_at, &mut work)?;
                merge(pc + 1, d, &mut depth_at, &mut work)?;
            }
            Op::Ret { nvals } => {
                if depth - i32::from(*nvals) < 0 {
                    return Err(err(Some(pc), "stack underflow at return".into()));
                }
            }
            Op::Fail => {
                if depth < 1 {
                    return Err(err(Some(pc), "stack underflow at fail".into()));
                }
            }
            Op::Signal(_) => {} // terminal at this pc (control resumes at a handler)
            Op::Trap(_) => {
                return Err(err(Some(pc), "trap opcode in freshly compiled code".into()))
            }
            other => {
                let eff =
                    stack_effect(program, other).expect("non-control ops have a static effect");
                let d = depth + eff;
                // Compute the transient minimum: pops happen before pushes.
                if d < 0 || depth + eff.min(0) < 0 {
                    return Err(err(Some(pc), format!("stack underflow ({depth} {eff:+})")));
                }
                merge(pc + 1, d, &mut depth_at, &mut work)?;
            }
        }
    }
    Ok(peak as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;

    fn ok(src: &str) {
        let p = compile(src).expect("compiles");
        verify(&p).unwrap_or_else(|e| panic!("verify failed: {e}\n{src}"));
    }

    #[test]
    fn verifies_representative_programs() {
        ok("main = proc ()\n print(\"hi\")\nend");
        ok(
            "fib = proc (n: int) returns (int)\n if n < 2 then\n return (n)\n end\n \
            return (fib(n - 1) + fib(n - 2))\nend",
        );
        ok("point = record[x: int, y: int]\n\
            main = proc ()\n p: point := point${x: 1, y: 2}\n p.x := p.x + p.y\n print(p)\nend");
        ok("own xs: array[int] := array$new()\n\
            main = proc ()\n append(xs, 1)\n xs[0] := xs[0] * 2\n print(len(xs))\nend");
        ok(
            "w = proc (s: sem, d: sem)\n ok: bool := sem$wait(s, 100)\n sem$signal(d)\nend\n\
            main = proc ()\n s: sem := sem$create(0)\n d: sem := sem$create(0)\n\
            fork w(s, d)\n sem$signal(s)\n ok: bool := sem$wait(d, 0 - 1)\nend",
        );
        ok("f = proc (n: int) returns (int) signals (neg)\n\
            if n < 0 then\n signal neg\n end\n return (n)\nend\n\
            main = proc ()\n x: int := f(3)\n except when neg:\n x := 0\n end\n print(x)\nend");
        ok("sq = proc (n: int) returns (int)\n return (n * n)\nend\n\
            main = proc ()\n r: int := call sq(4) at 1\n ok: bool := true\n y: int := 0\n\
            ok, y := maybecall sq(5) at 2\n print(r + y)\nend");
    }

    #[test]
    fn rejects_corrupted_code() {
        let mut p = compile("main = proc ()\n x: int := 1\n print(x)\nend").unwrap();
        // Corrupt a jump target.
        let addr = crate::bytecode::CodeAddr {
            proc: ProcId(0),
            pc: 1,
        };
        p.replace_op(addr, Op::Jump(9999));
        let e = verify(&p).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_stack_underflow() {
        let mut p = compile("main = proc ()\n x: int := 1\n print(x)\nend").unwrap();
        let addr = crate::bytecode::CodeAddr {
            proc: ProcId(0),
            pc: 1,
        };
        p.replace_op(addr, Op::Pop(3));
        let e = verify(&p).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn rejects_planted_traps() {
        let mut p = compile("main = proc ()\n x: int := 1\n print(x)\nend").unwrap();
        let addr = crate::bytecode::CodeAddr {
            proc: ProcId(0),
            pc: 2,
        };
        p.replace_op(addr, Op::Trap(0));
        assert!(verify(&p).is_err());
    }

    #[test]
    fn rejects_bad_local_slot() {
        let mut p = compile("main = proc ()\n x: int := 1\n print(x)\nend").unwrap();
        let addr = crate::bytecode::CodeAddr {
            proc: ProcId(0),
            pc: 2,
        };
        p.replace_op(addr, Op::LoadLocal(999));
        let e = verify(&p).unwrap_err();
        assert!(e.message.contains("slot"), "{e}");
    }
}
