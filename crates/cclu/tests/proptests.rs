//! Property tests for the compiler pipeline: every program the generator
//! produces is well-typed by construction, so the compiler must accept it
//! and the resulting bytecode must pass the verifier. The raw-bytes fuzz
//! tests additionally pin down "never panic" for arbitrary input.

use pilgrim_cclu::{compile, verify, Value};
use pilgrim_sim::check::{byte, check_n, ensure, ensure_eq, vecs};

/// A deterministic, byte-driven generator of well-typed programs.
///
/// The driver bytes choose among statement and expression templates; an
/// environment tracks which variables are in scope so every reference is
/// valid. Exhausting the bytes falls back to the simplest choice, so any
/// byte string produces a program.
struct Gen<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Gen<'a> {
    fn new(data: &'a [u8]) -> Gen<'a> {
        Gen { data, at: 0 }
    }

    fn byte(&mut self) -> u8 {
        let b = self.data.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        b
    }

    fn pick(&mut self, n: u8) -> u8 {
        self.byte() % n
    }

    fn program(&mut self) -> String {
        let nprocs = 1 + self.pick(3);
        let mut out = String::new();
        for i in 0..nprocs {
            let has_signal = self.pick(2) == 0;
            let sig_clause = if has_signal { " signals (oops)" } else { "" };
            out.push_str(&format!(
                "p{i} = proc (a: int, b: int) returns (int){sig_clause}\n"
            ));
            let mut vars = vec!["a".to_string(), "b".to_string()];
            let body = self.stmts(&mut vars, nprocs, has_signal, 2, 4);
            out.push_str(&body);
            out.push_str(&format!(" return ({})\nend\n", self.expr(&vars, 2)));
        }
        out
    }

    fn stmts(
        &mut self,
        vars: &mut Vec<String>,
        nprocs: u8,
        can_signal: bool,
        depth: u8,
        count: u8,
    ) -> String {
        let mut out = String::new();
        let n = 1 + self.pick(count);
        for _ in 0..n {
            out.push_str(&self.stmt(vars, nprocs, can_signal, depth));
        }
        out
    }

    fn stmt(&mut self, vars: &mut Vec<String>, nprocs: u8, can_signal: bool, depth: u8) -> String {
        match self.pick(if depth == 0 { 4 } else { 7 }) {
            0 => {
                let name = format!("v{}", vars.len());
                let e = self.expr(vars, 2);
                vars.push(name.clone());
                format!(" {name}: int := {e}\n")
            }
            1 => {
                let v = self.var(vars);
                let e = self.expr(vars, 2);
                format!(" {v} := {e}\n")
            }
            2 => format!(" print({})\n", self.expr(vars, 1)),
            3 => {
                let callee = self.pick(nprocs);
                let a = self.expr(vars, 1);
                let b = self.expr(vars, 1);
                let v = self.var(vars);
                format!(" {v} := p{callee}({a}, {b})\n")
            }
            4 => {
                // if/else with inner scopes.
                let cond = self.cond(vars);
                let mut inner1 = vars.clone();
                let t = self.stmts(&mut inner1, nprocs, can_signal, depth - 1, 2);
                let mut inner2 = vars.clone();
                let f = self.stmts(&mut inner2, nprocs, can_signal, depth - 1, 2);
                format!(" if {cond} then\n{t} else\n{f} end\n")
            }
            5 => {
                // bounded for loop.
                let body_vars = &mut vars.clone();
                let body = self.stmts(body_vars, nprocs, can_signal, depth - 1, 2);
                let lo = self.pick(4);
                let hi = lo + self.pick(4);
                format!(" for it{depth}: int := {lo} to {hi} do\n{body} end\n")
            }
            _ => {
                if can_signal && self.pick(3) == 0 {
                    " signal oops\n".to_string()
                } else {
                    // protected call with a handler.
                    let callee = self.pick(nprocs);
                    let v = self.var(vars);
                    let a = self.expr(vars, 1);
                    let mut hv = vars.clone();
                    let handler = self.stmts(&mut hv, nprocs, can_signal, depth - 1, 1);
                    format!(" {v} := p{callee}({a}, 1)\n except when oops:\n{handler} end\n")
                }
            }
        }
    }

    fn var(&mut self, vars: &[String]) -> String {
        vars[self.pick(vars.len() as u8) as usize].clone()
    }

    fn expr(&mut self, vars: &[String], depth: u8) -> String {
        if depth == 0 {
            return match self.pick(2) {
                0 => i64::from(self.byte()).to_string(),
                _ => self.var(vars),
            };
        }
        match self.pick(6) {
            0 => i64::from(self.byte()).to_string(),
            1 => self.var(vars),
            2 => format!(
                "({} + {})",
                self.expr(vars, depth - 1),
                self.expr(vars, depth - 1)
            ),
            3 => format!(
                "({} * {})",
                self.expr(vars, depth - 1),
                self.expr(vars, depth - 1)
            ),
            4 => format!(
                "({} - {})",
                self.expr(vars, depth - 1),
                self.expr(vars, depth - 1)
            ),
            // Non-zero divisor keeps generated programs runnable, too.
            _ => format!("({} / {})", self.expr(vars, depth - 1), 1 + self.pick(9)),
        }
    }

    fn cond(&mut self, vars: &[String]) -> String {
        let a = self.expr(vars, 1);
        let b = self.expr(vars, 1);
        let op = ["<", "<=", ">", ">=", "=", "~="][self.pick(6) as usize];
        format!("{a} {op} {b}")
    }
}

/// Byte driver shared by every property: up to 256 arbitrary bytes.
fn driver(max: usize) -> pilgrim_sim::check::Vecs<pilgrim_sim::check::Bytes> {
    vecs(byte(), max)
}

const CASES: u32 = 192;

/// Every generated program compiles and the bytecode verifies.
#[test]
fn generated_programs_compile_and_verify() {
    check_n(
        "generated_programs_compile_and_verify",
        CASES,
        &driver(256),
        |data| {
            let src = Gen::new(data).program();
            let program = compile(&src)
                .map_err(|e| format!("generator produced a rejected program: {e}\n{src}"))?;
            verify(&program).map_err(|e| format!("verifier rejected output: {e}\n{src}"))
        },
    );
}

/// Compilation is deterministic: identical source, identical code.
#[test]
fn compilation_is_deterministic() {
    check_n(
        "compilation_is_deterministic",
        CASES,
        &driver(128),
        |data| {
            let src = Gen::new(data).program();
            let a = compile(&src).unwrap();
            let b = compile(&src).unwrap();
            ensure_eq(a.code_len(), b.code_len())?;
            for (pa, pb) in a.procs.iter().zip(b.procs.iter()) {
                ensure_eq(&pa.code, &pb.code)?;
                ensure_eq(&pa.debug.lines, &pb.debug.lines)?;
            }
            Ok(())
        },
    );
}

/// The lexer/parser never panic on arbitrary bytes-as-text.
#[test]
fn compile_never_panics_on_noise() {
    check_n(
        "compile_never_panics_on_noise",
        CASES,
        &driver(512),
        |data| {
            let src = String::from_utf8_lossy(data);
            let _ = compile(&src);
            Ok(())
        },
    );
}

/// A supervisor for one process: nothing blocks, a timed wait times out
/// at once, and a generated program's rare remote call gets zeroes.
struct Sys;
impl pilgrim_cclu::Syscalls for Sys {
    fn now_ms(&mut self) -> i64 {
        0
    }
    fn pid(&mut self) -> i64 {
        1
    }
    fn node_id(&mut self) -> i64 {
        0
    }
    fn random(&mut self, bound: i64) -> i64 {
        bound - 1
    }
    fn print(&mut self, _text: &str) {}
    fn sem_create(&mut self, _count: i64) -> u32 {
        0
    }
    fn sem_wait(&mut self, _s: u32, _t: i64) -> pilgrim_cclu::SysReply {
        pilgrim_cclu::SysReply::Val(vec![Value::Bool(false)])
    }
    fn sem_signal(&mut self, _s: u32) {}
    fn mutex_create(&mut self) -> u32 {
        0
    }
    fn mutex_lock(&mut self, _m: u32) -> pilgrim_cclu::SysReply {
        pilgrim_cclu::SysReply::Val(vec![])
    }
    fn mutex_unlock(&mut self, _m: u32) {}
    fn fork(&mut self, _p: pilgrim_cclu::ProcId, _a: Vec<Value>) -> i64 {
        2
    }
    fn sleep(&mut self, _ms: i64) -> pilgrim_cclu::SysReply {
        pilgrim_cclu::SysReply::Val(vec![])
    }
    fn rpc(&mut self, req: pilgrim_cclu::RpcRequest) -> pilgrim_cclu::SysReply {
        // Generated programs only issue local calls; be safe anyway.
        let n = usize::from(req.nrets);
        pilgrim_cclu::SysReply::Val(vec![Value::Int(0); n])
    }
}

/// Compiles a generated program and single-steps `p0(3, 4)` to its end or
/// its two-millionth step, calling `each` after every step; whether it
/// ended.
fn run_generated(
    src: &str,
    mut each: impl FnMut(&pilgrim_cclu::Program, &pilgrim_cclu::VmProcess) -> Result<(), String>,
) -> Result<bool, String> {
    use pilgrim_cclu::{ExecEnv, Heap, HeapObject, StepOutcome, VmProcess};

    let program = compile(src).unwrap();
    let entry = program.proc_by_name("p0").unwrap();
    let mut heap = Heap::new();
    let mut globals: Vec<Value> = program
        .globals
        .iter()
        .map(|g| match &g.init {
            pilgrim_cclu::GlobalInit::Literal(v) => v.clone(),
            pilgrim_cclu::GlobalInit::EmptyArray => {
                Value::Ref(heap.alloc(HeapObject::Array(Vec::new())))
            }
            pilgrim_cclu::GlobalInit::Semaphore(_) => Value::Sem(0),
        })
        .collect();
    let mut sys = Sys;
    let mut proc = VmProcess::spawn(entry, vec![Value::Int(3), Value::Int(4)]);
    for _ in 0..2_000_000u32 {
        let mut env = ExecEnv {
            heap: &mut heap,
            program: &program,
            globals: &mut globals,
            sys: &mut sys,
        };
        let outcome = pilgrim_cclu::step(&mut proc, &mut env);
        each(&program, &proc)?;
        match outcome {
            StepOutcome::Exited { .. } | StepOutcome::Faulted { .. } => return Ok(true),
            StepOutcome::Trapped { .. } => panic!("no traps planted"),
            _ => {}
        }
    }
    Ok(false)
}

/// Generated programs execute to completion or fault cleanly — the VM
/// never panics or wedges on any well-typed program. (Unbounded
/// recursion is possible and must surface as a StackOverflow fault.)
#[test]
fn generated_programs_run_without_vm_panics() {
    check_n(
        "generated_programs_run_without_vm_panics",
        CASES,
        &driver(160),
        |data| {
            let src = Gen::new(data).program();
            let done = run_generated(&src, |_, _| Ok(()))?;
            ensure(done, format!("program wedged:\n{src}"))
        },
    );
}

/// The compiler's peak operand depth is exact enough to size a stack
/// by: after every step of every generated program, the running frame
/// holds no more operands above its locals than its procedure's
/// `peak_operands`. A frame below it holds what it held when it made
/// the call, less the arguments, so no frame ever outgrows its peak.
#[test]
fn no_frame_outgrows_its_procedures_peak() {
    check_n(
        "no_frame_outgrows_its_procedures_peak",
        CASES,
        &driver(160),
        |data| {
            let src = Gen::new(data).program();
            run_generated(&src, |program, p| {
                let Some(top) = p.top() else {
                    return Ok(());
                };
                let operands = p.exit_values.len() - (top.base + top.nlocals) as usize;
                let peak = program.proc(top.proc).peak_operands as usize;
                ensure(
                    operands <= peak,
                    format!("{operands} operands in a frame of peak {peak}:\n{src}"),
                )
            })
            .map(drop)
        },
    );
}

/// Line tables of generated programs resolve every executable line to
/// an address that maps back to the same line.
#[test]
fn line_table_roundtrips() {
    check_n("line_table_roundtrips", CASES, &driver(128), |data| {
        let src = Gen::new(data).program();
        let program = compile(&src).unwrap();
        for code in &program.procs {
            for (pc, line) in &code.debug.lines {
                ensure_eq(code.debug.line_for_pc(*pc), Some(*line))?;
            }
        }
        Ok(())
    });
}
