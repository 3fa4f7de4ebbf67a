//! Type checking and bytecode generation.
//!
//! A single pass over the AST both enforces the language's (CLU-style,
//! fully static) typing rules and emits bytecode plus the debug tables the
//! debugger consumes: line tables, variable live ranges, and entry-sequence
//! boundaries.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{self, BinOp, Expr, LValue, Module, Stmt, TypeExpr, UnOp};
use crate::bytecode::{
    GlobalDebug, GlobalInit, HandlerEntry, Op, ProcCode, ProcDebug, ProcId, Program, VarDebug,
};
use crate::parser::parse;
use crate::types::{RecordType, Signature, Type};
use crate::value::Value;
use crate::CompileError;

/// Compiles `source` into an executable [`Program`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or type error with its source line.
///
/// # Examples
///
/// ```
/// let program = pilgrim_cclu::compile(
///     "main = proc ()\n x: int := 6 * 7\n print(x)\nend",
/// )?;
/// assert!(program.proc_by_name("main").is_some());
/// # Ok::<(), pilgrim_cclu::CompileError>(())
/// ```
pub fn compile(source: &str) -> Result<Program, CompileError> {
    let module = parse(source)?;
    Compiler::new(source, &module)?.run(&module)
}

/// Result of compiling one expression: the static type it leaves on the
/// operand stack. `Types(vec)` with length ≠ 1 only arises for calls used in
/// multi-assignments or for-effect statements.
#[derive(Debug, Clone)]
struct ExprKind {
    types: Vec<Type>,
    /// True when this expression can never produce (a `fail` call).
    diverges: bool,
}

impl ExprKind {
    fn one(t: Type) -> ExprKind {
        ExprKind {
            types: vec![t],
            diverges: false,
        }
    }
    fn none() -> ExprKind {
        ExprKind {
            types: vec![],
            diverges: false,
        }
    }
    fn single(&self, line: u32, what: &str) -> Result<Type, CompileError> {
        if self.types.len() == 1 {
            Ok(self.types[0].clone())
        } else {
            Err(CompileError::at(
                line,
                format!(
                    "{what} produces {} values where one is required",
                    self.types.len()
                ),
            ))
        }
    }
}

#[derive(Debug, Clone)]
struct LocalVar {
    name: Arc<str>,
    ty: Type,
    slot: u16,
}

struct Compiler {
    typedefs: HashMap<Arc<str>, Type>,
    records: Vec<Arc<RecordType>>,
    record_ids: HashMap<Arc<str>, u16>,
    proc_sigs: HashMap<Arc<str>, (ProcId, Signature)>,
    extern_sigs: HashMap<Arc<str>, Signature>,
    globals: Vec<GlobalDebug>,
    global_ids: HashMap<Arc<str>, u16>,
    rpc_names: Vec<Arc<str>>,
    signal_names: Vec<Arc<str>>,
    source: Arc<str>,
}

/// Per-procedure emission state.
struct Emit {
    code: Vec<Op>,
    scopes: Vec<Vec<LocalVar>>,
    next_slot: u16,
    vars: Vec<VarDebug>,
    lines: Vec<(u32, u32)>,
    returns: Vec<Type>,
    /// Signals the enclosing procedure declares (`signals (...)`).
    declared_signals: Vec<Arc<str>>,
    /// Handler regions emitted so far.
    handlers: Vec<HandlerEntry>,
}

impl Emit {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn emit(&mut self, op: Op) -> u32 {
        let pc = self.pc();
        self.code.push(op);
        pc
    }

    fn note_line(&mut self, line: u32) {
        let pc = self.pc();
        match self.lines.last() {
            Some(&(p, l)) if l == line && p <= pc => {}
            Some(&(p, _)) if p == pc => {
                self.lines.last_mut().unwrap().1 = line;
            }
            _ => self.lines.push((pc, line)),
        }
    }

    fn patch_jump(&mut self, at: u32, target: u32) {
        match &mut self.code[at as usize] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => *t = target,
            other => panic!("patch_jump on non-jump {other:?}"),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        let pc = self.pc();
        for var in self.scopes.pop().expect("scope underflow") {
            if let Some(v) = self
                .vars
                .iter_mut()
                .rev()
                .find(|v| v.slot == var.slot && v.to_pc == u32::MAX)
            {
                v.to_pc = pc;
            }
        }
    }

    fn declare(&mut self, name: Arc<str>, ty: Type, line: u32) -> Result<u16, CompileError> {
        let scope = self.scopes.last_mut().expect("no scope");
        if scope.iter().any(|v| v.name == name) {
            return Err(CompileError::at(
                line,
                format!("variable `{name}` already declared in this scope"),
            ));
        }
        let slot = self.next_slot;
        if slot == u16::MAX {
            return Err(CompileError::at(line, "too many local variables"));
        }
        self.next_slot += 1;
        scope.push(LocalVar {
            name: name.clone(),
            ty: ty.clone(),
            slot,
        });
        self.vars.push(VarDebug {
            name,
            ty,
            slot,
            from_pc: self.pc(),
            to_pc: u32::MAX,
        });
        Ok(slot)
    }

    fn lookup(&self, name: &str) -> Option<&LocalVar> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|v| &*v.name == name))
    }
}

impl Compiler {
    fn new(source: &str, module: &Module) -> Result<Compiler, CompileError> {
        let mut c = Compiler {
            typedefs: HashMap::new(),
            records: Vec::new(),
            record_ids: HashMap::new(),
            proc_sigs: HashMap::new(),
            extern_sigs: HashMap::new(),
            globals: Vec::new(),
            global_ids: HashMap::new(),
            rpc_names: Vec::new(),
            signal_names: Vec::new(),
            source: Arc::from(source),
        };

        for td in &module.typedefs {
            if c.typedefs.contains_key(&td.name) {
                return Err(CompileError::at(
                    td.line,
                    format!("type `{}` defined twice", td.name),
                ));
            }
            let ty = match &td.body {
                TypeExpr::Record(fields) => {
                    let mut resolved = Vec::new();
                    for (fname, fty) in fields {
                        if resolved.iter().any(|(n, _): &(Arc<str>, Type)| n == fname) {
                            return Err(CompileError::at(
                                td.line,
                                format!("duplicate field `{fname}` in `{}`", td.name),
                            ));
                        }
                        resolved.push((fname.clone(), c.resolve(fty, td.line)?));
                    }
                    let rt = Arc::new(RecordType {
                        name: td.name.clone(),
                        fields: resolved,
                    });
                    let id = c.records.len() as u16;
                    c.records.push(rt.clone());
                    c.record_ids.insert(td.name.clone(), id);
                    Type::Record(rt)
                }
                other => c.resolve(other, td.line)?,
            };
            c.typedefs.insert(td.name.clone(), ty);
        }

        for (i, p) in module.procs.iter().enumerate() {
            if c.proc_sigs.contains_key(&p.name) || c.typedefs.contains_key(&p.name) {
                return Err(CompileError::at(
                    p.line,
                    format!("`{}` defined twice", p.name),
                ));
            }
            let sig = Signature {
                params: p
                    .params
                    .iter()
                    .map(|(_, t)| c.resolve(t, p.line))
                    .collect::<Result<_, _>>()?,
                returns: p
                    .returns
                    .iter()
                    .map(|t| c.resolve(t, p.line))
                    .collect::<Result<_, _>>()?,
            };
            c.proc_sigs.insert(p.name.clone(), (ProcId(i as u16), sig));
        }

        for e in &module.externs {
            if c.proc_sigs.contains_key(&e.name) || c.extern_sigs.contains_key(&e.name) {
                return Err(CompileError::at(
                    e.line,
                    format!("`{}` defined twice", e.name),
                ));
            }
            let sig = Signature {
                params: e
                    .params
                    .iter()
                    .map(|t| c.resolve(t, e.line))
                    .collect::<Result<_, _>>()?,
                returns: e
                    .returns
                    .iter()
                    .map(|t| c.resolve(t, e.line))
                    .collect::<Result<_, _>>()?,
            };
            c.check_transmissible(&sig, e.line)?;
            c.extern_sigs.insert(e.name.clone(), sig);
        }

        for g in &module.globals {
            if c.global_ids.contains_key(&g.name) {
                return Err(CompileError::at(
                    g.line,
                    format!("global `{}` defined twice", g.name),
                ));
            }
            let ty = c.resolve(&g.ty, g.line)?;
            let init = match (&g.init, &ty) {
                (Expr::Int(v, _), Type::Int) => GlobalInit::Literal(Value::Int(*v)),
                (Expr::Bool(v, _), Type::Bool) => GlobalInit::Literal(Value::Bool(*v)),
                (Expr::Str(s, _), Type::Str) => GlobalInit::Literal(Value::Str(s.clone())),
                (Expr::Nil(_), Type::Null) => GlobalInit::Literal(Value::Null),
                (Expr::ClusterOp(cl, op, args, _), Type::Array(_))
                    if &**cl == "array" && &**op == "new" && args.is_empty() =>
                {
                    GlobalInit::EmptyArray
                }
                (Expr::ClusterOp(cl, op, args, _), Type::Sem)
                    if &**cl == "sem" && &**op == "create" =>
                {
                    match args.as_slice() {
                        [Expr::Int(n, _)] => GlobalInit::Semaphore(*n),
                        _ => {
                            return Err(CompileError::at(
                                g.line,
                                "global sem$create takes a literal initial count",
                            ))
                        }
                    }
                }
                _ => {
                    return Err(CompileError::at(
                        g.line,
                        format!(
                            "global `{}` must be initialized with a literal of type {ty} \
                             (or array$new() / sem$create(n) for arrays and semaphores)",
                            g.name
                        ),
                    ))
                }
            };
            let id = c.globals.len() as u16;
            c.globals.push(GlobalDebug {
                name: g.name.clone(),
                ty,
                init,
            });
            c.global_ids.insert(g.name.clone(), id);
        }

        Ok(c)
    }

    fn resolve(&self, te: &TypeExpr, line: u32) -> Result<Type, CompileError> {
        Ok(match te {
            TypeExpr::Int => Type::Int,
            TypeExpr::Bool => Type::Bool,
            TypeExpr::String => Type::Str,
            TypeExpr::Null => Type::Null,
            TypeExpr::Sem => Type::Sem,
            TypeExpr::Mutex => Type::Mutex,
            TypeExpr::Array(inner) => Type::Array(Arc::new(self.resolve(inner, line)?)),
            TypeExpr::Record(_) => {
                return Err(CompileError::at(
                    line,
                    "anonymous record types must be given a name with a typedef",
                ))
            }
            TypeExpr::Named(name) => self
                .typedefs
                .get(name)
                .cloned()
                .ok_or_else(|| CompileError::at(line, format!("unknown type `{name}`")))?,
        })
    }

    /// RPC arguments/results must be transmissible: no semaphores, mutexes.
    fn check_transmissible(&self, sig: &Signature, line: u32) -> Result<(), CompileError> {
        fn ok(t: &Type) -> bool {
            match t {
                Type::Sem | Type::Mutex => false,
                Type::Array(e) => ok(e),
                Type::Record(r) => r.fields.iter().all(|(_, t)| ok(t)),
                _ => true,
            }
        }
        for t in sig.params.iter().chain(sig.returns.iter()) {
            if !ok(t) {
                return Err(CompileError::at(
                    line,
                    format!("type {t} cannot be transmitted in a remote call"),
                ));
            }
        }
        Ok(())
    }

    fn run(mut self, module: &Module) -> Result<Program, CompileError> {
        let mut procs = Vec::new();
        for (i, p) in module.procs.iter().enumerate() {
            procs.push(self.compile_proc(p, ProcId(i as u16))?);
        }
        let mut program = Program {
            source: self.source,
            procs,
            globals: self.globals,
            records: self.records,
            rpc_names: self.rpc_names,
            externs: self.extern_sigs.into_iter().collect(),
            signal_names: self.signal_names,
        };
        // The walk reads callees' signatures, so it runs once every
        // procedure is in place. Compiled code always passes it; were it
        // not to, a hint of 0 only means the stack grows on demand.
        for i in 0..program.procs.len() {
            let peak = crate::verify::operand_peak(&program, ProcId(i as u16)).unwrap_or(0);
            program.procs[i].peak_operands = peak;
        }
        Ok(program)
    }

    fn compile_proc(&mut self, p: &ast::ProcDef, _id: ProcId) -> Result<ProcCode, CompileError> {
        let sig = self.proc_sigs[&p.name].1.clone();
        let mut e = Emit {
            code: Vec::new(),
            scopes: Vec::new(),
            next_slot: 0,
            vars: Vec::new(),
            lines: Vec::new(),
            returns: sig.returns.clone(),
            declared_signals: p.signals.clone(),
            handlers: Vec::new(),
        };
        e.push_scope();
        e.note_line(p.line);
        // Reserve slot space; locals beyond params are added as declared.
        let enter_at = e.emit(Op::Enter { nlocals: 0 });
        for ((pname, _), pty) in p.params.iter().zip(sig.params.iter()) {
            e.declare(pname.clone(), pty.clone(), p.line)?;
        }
        // Parameters are live from procedure entry.
        for v in e.vars.iter_mut() {
            v.from_pc = 0;
        }
        self.block(&mut e, &p.body)?;
        // Implicit return (or fall-off fault when results are required).
        if sig.returns.is_empty() {
            e.emit(Op::Ret { nvals: 0 });
        } else {
            e.emit(Op::PushStr(
                format!("procedure `{}` ended without returning values", p.name).into(),
            ));
            e.emit(Op::Fail);
        }
        e.pop_scope();
        let nlocals = e.next_slot;
        e.code[enter_at as usize] = Op::Enter { nlocals };
        for v in e.vars.iter_mut() {
            if v.to_pc == u32::MAX {
                v.to_pc = e.code.len() as u32;
            }
        }
        Ok(ProcCode::new(
            e.code,
            e.handlers,
            ProcDebug {
                name: p.name.clone(),
                sig,
                line: p.line,
                params: p.params.len() as u16,
                vars: e.vars,
                lines: e.lines,
                entry_end: 1,
            },
        ))
    }

    fn block(&mut self, e: &mut Emit, stmts: &[Stmt]) -> Result<(), CompileError> {
        e.push_scope();
        for s in stmts {
            self.stmt(e, s)?;
        }
        e.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, e: &mut Emit, s: &Stmt) -> Result<(), CompileError> {
        e.note_line(s.line());
        match s {
            Stmt::Decl {
                name,
                ty,
                init,
                line,
            } => {
                let want = self.resolve(ty, *line)?;
                let got = self
                    .expr(e, init, Some(&want))?
                    .single(*line, "initializer")?;
                if got != want {
                    return Err(CompileError::at(
                        *line,
                        format!("`{name}` declared {want} but initialized with {got}"),
                    ));
                }
                let slot = e.declare(name.clone(), want, *line)?;
                e.emit(Op::StoreLocal(slot));
                Ok(())
            }
            Stmt::Assign {
                targets,
                value,
                line,
            } => self.assign(e, targets, value, *line),
            Stmt::If {
                arms,
                otherwise,
                line,
            } => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    let t = self
                        .expr(e, cond, Some(&Type::Bool))?
                        .single(*line, "condition")?;
                    if t != Type::Bool {
                        return Err(CompileError::at(
                            cond.line(),
                            format!("condition must be bool, found {t}"),
                        ));
                    }
                    let skip = e.emit(Op::JumpIfFalse(0));
                    self.block(e, body)?;
                    end_jumps.push(e.emit(Op::Jump(0)));
                    let here = e.pc();
                    e.patch_jump(skip, here);
                }
                self.block(e, otherwise)?;
                let end = e.pc();
                for j in end_jumps {
                    e.patch_jump(j, end);
                }
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                let top = e.pc();
                let t = self
                    .expr(e, cond, Some(&Type::Bool))?
                    .single(*line, "condition")?;
                if t != Type::Bool {
                    return Err(CompileError::at(
                        cond.line(),
                        format!("condition must be bool, found {t}"),
                    ));
                }
                let exit = e.emit(Op::JumpIfFalse(0));
                self.block(e, body)?;
                e.emit(Op::Jump(top));
                let here = e.pc();
                e.patch_jump(exit, here);
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                line,
            } => {
                e.push_scope();
                let t = self
                    .expr(e, from, Some(&Type::Int))?
                    .single(*line, "loop start")?;
                if t != Type::Int {
                    return Err(CompileError::at(*line, "for-loop bounds must be int"));
                }
                let ivar = e.declare(var.clone(), Type::Int, *line)?;
                e.emit(Op::StoreLocal(ivar));
                let t = self
                    .expr(e, to, Some(&Type::Int))?
                    .single(*line, "loop end")?;
                if t != Type::Int {
                    return Err(CompileError::at(*line, "for-loop bounds must be int"));
                }
                let limit = e.declare(format!("{var}%limit").into(), Type::Int, *line)?;
                e.emit(Op::StoreLocal(limit));
                let top = e.pc();
                e.emit(Op::LoadLocal(ivar));
                e.emit(Op::LoadLocal(limit));
                e.emit(Op::Le);
                let exit = e.emit(Op::JumpIfFalse(0));
                self.block(e, body)?;
                e.emit(Op::LoadLocal(ivar));
                e.emit(Op::PushInt(1));
                e.emit(Op::Add);
                e.emit(Op::StoreLocal(ivar));
                e.emit(Op::Jump(top));
                let here = e.pc();
                e.patch_jump(exit, here);
                e.pop_scope();
                Ok(())
            }
            Stmt::Return { values, line } => {
                let want = e.returns.clone();
                if values.len() != want.len() {
                    return Err(CompileError::at(
                        *line,
                        format!(
                            "return gives {} values but the procedure declares {}",
                            values.len(),
                            want.len()
                        ),
                    ));
                }
                for (v, w) in values.iter().zip(want.iter()) {
                    let got = self.expr(e, v, Some(w))?.single(*line, "return value")?;
                    if got != *w {
                        return Err(CompileError::at(
                            v.line(),
                            format!("return value has type {got}, expected {w}"),
                        ));
                    }
                }
                e.emit(Op::Ret {
                    nvals: values.len() as u8,
                });
                Ok(())
            }
            Stmt::Fork { proc, args, line } => {
                let (id, sig) = self.proc_sigs.get(proc).cloned().ok_or_else(|| {
                    CompileError::at(*line, format!("unknown procedure `{proc}`"))
                })?;
                if args.len() != sig.params.len() {
                    return Err(CompileError::at(
                        *line,
                        format!(
                            "`{proc}` takes {} arguments, {} given",
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (a, want) in args.iter().zip(sig.params.iter()) {
                    let got = self.expr(e, a, Some(want))?.single(*line, "argument")?;
                    if got != *want {
                        return Err(CompileError::at(
                            a.line(),
                            format!("argument has type {got}, expected {want}"),
                        ));
                    }
                }
                e.emit(Op::Fork {
                    proc: id,
                    nargs: args.len() as u8,
                });
                e.emit(Op::Pop(1)); // discard the pid
                Ok(())
            }
            Stmt::Signal { name, line } => {
                if !e.declared_signals.contains(name) {
                    return Err(CompileError::at(
                        *line,
                        format!(
                            "signal `{name}` is not declared in this procedure's \
                             `signals (...)` clause"
                        ),
                    ));
                }
                let idx = self.signal_idx(name);
                e.emit(Op::Signal(idx));
                Ok(())
            }
            Stmt::Except { body, arms, line } => {
                let from = e.pc();
                self.stmt(e, body)?;
                let to = e.pc();
                let mut end_jumps = vec![e.emit(Op::Jump(0))];
                let mut pending = Vec::new();
                for (names, arm_body) in arms {
                    let handler_pc = e.pc();
                    self.block(e, arm_body)?;
                    end_jumps.push(e.emit(Op::Jump(0)));
                    let idxs: Vec<u16> = names.iter().map(|n| self.signal_idx(n)).collect();
                    pending.push((idxs, handler_pc));
                }
                let end = e.pc();
                for j in end_jumps {
                    e.patch_jump(j, end);
                }
                if to == from {
                    return Err(CompileError::at(
                        *line,
                        "`except` cannot protect an empty statement",
                    ));
                }
                for (signals, handler_pc) in pending {
                    e.handlers.push(HandlerEntry {
                        from_pc: from,
                        to_pc: to,
                        signals,
                        handler_pc,
                    });
                }
                Ok(())
            }
            Stmt::Expr { expr, line } => {
                let kind = self.expr(e, expr, None)?;
                if kind.diverges {
                    return Ok(());
                }
                if !kind.types.is_empty() {
                    if kind.types.len() > u8::MAX as usize {
                        return Err(CompileError::at(*line, "too many values to discard"));
                    }
                    e.emit(Op::Pop(kind.types.len() as u8));
                }
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        e: &mut Emit,
        targets: &[LValue],
        value: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        if targets.len() > 1 {
            // Multi-assignment: RHS must be a call producing exactly that
            // many values; targets must be plain variables.
            let kind = self.expr(e, value, None)?;
            if kind.types.len() != targets.len() {
                return Err(CompileError::at(
                    line,
                    format!(
                        "right-hand side produces {} values but {} targets given",
                        kind.types.len(),
                        targets.len()
                    ),
                ));
            }
            for (t, ty) in targets.iter().zip(kind.types.iter()).rev() {
                match t {
                    LValue::Var(name, vline) => {
                        self.store_var(e, name, ty, *vline)?;
                    }
                    _ => {
                        return Err(CompileError::at(
                            line,
                            "multi-assignment targets must be simple variables",
                        ))
                    }
                }
            }
            return Ok(());
        }
        match &targets[0] {
            LValue::Var(name, vline) => {
                let want = self.var_type(e, name, *vline)?;
                let got = self
                    .expr(e, value, Some(&want))?
                    .single(line, "assigned value")?;
                if got != want {
                    return Err(CompileError::at(
                        line,
                        format!("cannot assign {got} to `{name}` of type {want}"),
                    ));
                }
                self.store_var(e, name, &want, *vline)
            }
            LValue::Field(base, field, fline) => {
                let bty = self.expr(e, base, None)?.single(*fline, "record")?;
                let rec = match &bty {
                    Type::Record(r) => r.clone(),
                    other => {
                        return Err(CompileError::at(
                            *fline,
                            format!("`.{field}` applied to non-record type {other}"),
                        ))
                    }
                };
                let idx = rec.field_index(field).ok_or_else(|| {
                    CompileError::at(
                        *fline,
                        format!("record `{}` has no field `{field}`", rec.name),
                    )
                })?;
                let want = rec.fields[idx].1.clone();
                let got = self
                    .expr(e, value, Some(&want))?
                    .single(line, "assigned value")?;
                if got != want {
                    return Err(CompileError::at(
                        line,
                        format!("cannot assign {got} to field of type {want}"),
                    ));
                }
                e.emit(Op::StoreField(idx as u16));
                Ok(())
            }
            LValue::Index(base, idx, iline) => {
                let bty = self.expr(e, base, None)?.single(*iline, "array")?;
                let elem = match &bty {
                    Type::Array(t) => (**t).clone(),
                    other => {
                        return Err(CompileError::at(
                            *iline,
                            format!("indexing applied to non-array type {other}"),
                        ))
                    }
                };
                let ity = self
                    .expr(e, idx, Some(&Type::Int))?
                    .single(*iline, "index")?;
                if ity != Type::Int {
                    return Err(CompileError::at(*iline, "array index must be int"));
                }
                let got = self
                    .expr(e, value, Some(&elem))?
                    .single(line, "assigned value")?;
                if got != elem {
                    return Err(CompileError::at(
                        line,
                        format!("cannot assign {got} to array of {elem}"),
                    ));
                }
                e.emit(Op::StoreIndex);
                Ok(())
            }
        }
    }

    fn var_type(&self, e: &Emit, name: &str, line: u32) -> Result<Type, CompileError> {
        if let Some(v) = e.lookup(name) {
            return Ok(v.ty.clone());
        }
        if let Some(&gid) = self.global_ids.get(name) {
            return Ok(self.globals[gid as usize].ty.clone());
        }
        Err(CompileError::at(line, format!("unknown variable `{name}`")))
    }

    fn store_var(
        &self,
        e: &mut Emit,
        name: &str,
        got: &Type,
        line: u32,
    ) -> Result<(), CompileError> {
        if let Some(v) = e.lookup(name) {
            if v.ty != *got {
                return Err(CompileError::at(
                    line,
                    format!("cannot assign {got} to `{name}` of type {}", v.ty),
                ));
            }
            let slot = v.slot;
            e.emit(Op::StoreLocal(slot));
            return Ok(());
        }
        if let Some(&gid) = self.global_ids.get(name) {
            let gty = &self.globals[gid as usize].ty;
            if gty != got {
                return Err(CompileError::at(
                    line,
                    format!("cannot assign {got} to `{name}` of type {gty}"),
                ));
            }
            e.emit(Op::StoreGlobal(gid));
            return Ok(());
        }
        Err(CompileError::at(line, format!("unknown variable `{name}`")))
    }

    fn expr(
        &mut self,
        e: &mut Emit,
        expr: &Expr,
        expected: Option<&Type>,
    ) -> Result<ExprKind, CompileError> {
        match expr {
            Expr::Int(v, _) => {
                e.emit(Op::PushInt(*v));
                Ok(ExprKind::one(Type::Int))
            }
            Expr::Bool(v, _) => {
                e.emit(Op::PushBool(*v));
                Ok(ExprKind::one(Type::Bool))
            }
            Expr::Str(s, _) => {
                e.emit(Op::PushStr(s.clone()));
                Ok(ExprKind::one(Type::Str))
            }
            Expr::Nil(_) => {
                e.emit(Op::PushNull);
                Ok(ExprKind::one(Type::Null))
            }
            Expr::Var(name, line) => {
                if let Some(v) = e.lookup(name) {
                    let (slot, ty) = (v.slot, v.ty.clone());
                    e.emit(Op::LoadLocal(slot));
                    return Ok(ExprKind::one(ty));
                }
                if let Some(&gid) = self.global_ids.get(name) {
                    let ty = self.globals[gid as usize].ty.clone();
                    e.emit(Op::LoadGlobal(gid));
                    return Ok(ExprKind::one(ty));
                }
                Err(CompileError::at(
                    *line,
                    format!("unknown variable `{name}`"),
                ))
            }
            Expr::Bin(op, lhs, rhs, line) => self.bin(e, *op, lhs, rhs, *line),
            Expr::Un(op, inner, line) => {
                let t = self.expr(e, inner, None)?.single(*line, "operand")?;
                match op {
                    UnOp::Neg if t == Type::Int => {
                        e.emit(Op::Neg);
                        Ok(ExprKind::one(Type::Int))
                    }
                    UnOp::Not if t == Type::Bool => {
                        e.emit(Op::Not);
                        Ok(ExprKind::one(Type::Bool))
                    }
                    UnOp::Neg => Err(CompileError::at(*line, format!("cannot negate {t}"))),
                    UnOp::Not => Err(CompileError::at(
                        *line,
                        format!("`~` needs bool, found {t}"),
                    )),
                }
            }
            Expr::Call(name, args, line) => self.call(e, name, args, *line),
            Expr::ClusterOp(cluster, op, args, line) => {
                self.cluster_op(e, cluster, op, args, *line, expected)
            }
            Expr::RecordCtor(name, fields, line) => {
                let ty = self
                    .typedefs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| CompileError::at(*line, format!("unknown type `{name}`")))?;
                let rec = match &ty {
                    Type::Record(r) => r.clone(),
                    other => {
                        return Err(CompileError::at(
                            *line,
                            format!("`{name}` is {other}, not a record type"),
                        ))
                    }
                };
                if fields.len() != rec.fields.len() {
                    return Err(CompileError::at(
                        *line,
                        format!(
                            "`{name}` has {} fields, {} given",
                            rec.fields.len(),
                            fields.len()
                        ),
                    ));
                }
                // Evaluate in declaration order regardless of written order.
                for (fname, fty) in &rec.fields {
                    let (_, fexpr) = fields.iter().find(|(n, _)| n == fname).ok_or_else(|| {
                        CompileError::at(
                            *line,
                            format!("missing field `{fname}` in `{name}` constructor"),
                        )
                    })?;
                    let got = self.expr(e, fexpr, Some(fty))?.single(*line, "field")?;
                    if got != *fty {
                        return Err(CompileError::at(
                            fexpr.line(),
                            format!("field `{fname}` has type {fty}, found {got}"),
                        ));
                    }
                }
                let type_id = self.record_ids[&rec.name];
                e.emit(Op::NewRecord {
                    type_id,
                    nfields: rec.fields.len() as u16,
                });
                Ok(ExprKind::one(ty))
            }
            Expr::Field(base, field, line) => {
                let bty = self.expr(e, base, None)?.single(*line, "record")?;
                let rec = match &bty {
                    Type::Record(r) => r.clone(),
                    other => {
                        return Err(CompileError::at(
                            *line,
                            format!("`.{field}` applied to non-record type {other}"),
                        ))
                    }
                };
                let idx = rec.field_index(field).ok_or_else(|| {
                    CompileError::at(
                        *line,
                        format!("record `{}` has no field `{field}`", rec.name),
                    )
                })?;
                e.emit(Op::LoadField(idx as u16));
                Ok(ExprKind::one(rec.fields[idx].1.clone()))
            }
            Expr::Index(base, idx, line) => {
                let bty = self.expr(e, base, None)?.single(*line, "array")?;
                let elem = match &bty {
                    Type::Array(t) => (**t).clone(),
                    other => {
                        return Err(CompileError::at(
                            *line,
                            format!("indexing applied to non-array type {other}"),
                        ))
                    }
                };
                let ity = self
                    .expr(e, idx, Some(&Type::Int))?
                    .single(*line, "index")?;
                if ity != Type::Int {
                    return Err(CompileError::at(*line, "array index must be int"));
                }
                e.emit(Op::LoadIndex);
                Ok(ExprKind::one(elem))
            }
            Expr::Rpc {
                proc,
                args,
                node,
                protocol,
                line,
            } => self.rpc(e, proc, args, node, *protocol, *line),
        }
    }

    fn bin(
        &mut self,
        e: &mut Emit,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<ExprKind, CompileError> {
        // Short-circuit boolean operators compile to jumps, as CLU's
        // `cand`/`cor` do.
        if op == BinOp::And || op == BinOp::Or {
            let lt = self
                .expr(e, lhs, Some(&Type::Bool))?
                .single(line, "operand")?;
            if lt != Type::Bool {
                return Err(CompileError::at(
                    line,
                    format!("boolean operand needed, found {lt}"),
                ));
            }
            let short = if op == BinOp::And {
                e.emit(Op::JumpIfFalse(0))
            } else {
                e.emit(Op::JumpIfTrue(0))
            };
            let rt = self
                .expr(e, rhs, Some(&Type::Bool))?
                .single(line, "operand")?;
            if rt != Type::Bool {
                return Err(CompileError::at(
                    line,
                    format!("boolean operand needed, found {rt}"),
                ));
            }
            let done = e.emit(Op::Jump(0));
            let here = e.pc();
            e.patch_jump(short, here);
            e.emit(Op::PushBool(op == BinOp::Or));
            let end = e.pc();
            e.patch_jump(done, end);
            return Ok(ExprKind::one(Type::Bool));
        }

        let lt = self.expr(e, lhs, None)?.single(line, "operand")?;
        let rt = self.expr(e, rhs, Some(&lt))?.single(line, "operand")?;
        let both = |want: &Type| lt == *want && rt == *want;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                if !both(&Type::Int) {
                    return Err(CompileError::at(
                        line,
                        format!("arithmetic needs int operands, found {lt} and {rt}"),
                    ));
                }
                e.emit(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    _ => Op::Mod,
                });
                Ok(ExprKind::one(Type::Int))
            }
            BinOp::Concat => {
                if !both(&Type::Str) {
                    return Err(CompileError::at(
                        line,
                        format!("`||` needs string operands, found {lt} and {rt}"),
                    ));
                }
                e.emit(Op::Concat);
                Ok(ExprKind::one(Type::Str))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !both(&Type::Int) {
                    return Err(CompileError::at(
                        line,
                        format!("ordering needs int operands, found {lt} and {rt}"),
                    ));
                }
                e.emit(match op {
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    _ => Op::Ge,
                });
                Ok(ExprKind::one(Type::Bool))
            }
            BinOp::Eq | BinOp::Ne => {
                let comparable = matches!(lt, Type::Int | Type::Bool | Type::Str);
                if !comparable || lt != rt {
                    return Err(CompileError::at(
                        line,
                        format!("`=` compares int, bool or string; found {lt} and {rt}"),
                    ));
                }
                e.emit(if op == BinOp::Eq {
                    Op::CmpEq
                } else {
                    Op::CmpNe
                });
                Ok(ExprKind::one(Type::Bool))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn check_args(
        &mut self,
        e: &mut Emit,
        what: &str,
        args: &[Expr],
        params: &[Type],
        line: u32,
    ) -> Result<(), CompileError> {
        if args.len() != params.len() {
            return Err(CompileError::at(
                line,
                format!(
                    "{what} takes {} arguments, {} given",
                    params.len(),
                    args.len()
                ),
            ));
        }
        for (a, want) in args.iter().zip(params.iter()) {
            let got = self.expr(e, a, Some(want))?.single(line, "argument")?;
            if got != *want {
                return Err(CompileError::at(
                    a.line(),
                    format!("argument has type {got}, expected {want}"),
                ));
            }
        }
        Ok(())
    }

    fn call(
        &mut self,
        e: &mut Emit,
        name: &Arc<str>,
        args: &[Expr],
        line: u32,
    ) -> Result<ExprKind, CompileError> {
        // Builtins first.
        match &**name {
            "print" => {
                if args.len() != 1 {
                    return Err(CompileError::at(line, "print takes one argument"));
                }
                let t = self.expr(e, &args[0], None)?.single(line, "argument")?;
                // Compile-time print-operation dispatch: a record type with a
                // user `print_<type>` procedure is rendered through it.
                if let Type::Record(r) = &t {
                    let printer = format!("print_{}", r.name);
                    if let Some((pid, sig)) = self.proc_sigs.get(printer.as_str()) {
                        let matches = matches!(
                            sig.params.as_slice(),
                            [Type::Record(pr)] if pr.name == r.name
                        ) && sig.returns == vec![Type::Str];
                        if matches {
                            let pid = *pid;
                            e.emit(Op::Call {
                                proc: pid,
                                nargs: 1,
                            });
                        }
                    }
                }
                e.emit(Op::Print);
                return Ok(ExprKind::none());
            }
            "sleep" => {
                self.check_args(e, "sleep", args, &[Type::Int], line)?;
                e.emit(Op::Sleep);
                return Ok(ExprKind::none());
            }
            "now" => {
                self.check_args(e, "now", args, &[], line)?;
                e.emit(Op::Now);
                return Ok(ExprKind::one(Type::Int));
            }
            "pid" => {
                self.check_args(e, "pid", args, &[], line)?;
                e.emit(Op::Pid);
                return Ok(ExprKind::one(Type::Int));
            }
            "my_node" => {
                self.check_args(e, "my_node", args, &[], line)?;
                e.emit(Op::MyNode);
                return Ok(ExprKind::one(Type::Int));
            }
            "random" => {
                self.check_args(e, "random", args, &[Type::Int], line)?;
                e.emit(Op::Random);
                return Ok(ExprKind::one(Type::Int));
            }
            "len" => {
                if args.len() != 1 {
                    return Err(CompileError::at(line, "len takes one argument"));
                }
                let t = self.expr(e, &args[0], None)?.single(line, "argument")?;
                if !matches!(t, Type::Array(_)) {
                    return Err(CompileError::at(
                        line,
                        format!("len needs an array, found {t}"),
                    ));
                }
                e.emit(Op::Len);
                return Ok(ExprKind::one(Type::Int));
            }
            "append" => {
                if args.len() != 2 {
                    return Err(CompileError::at(line, "append takes two arguments"));
                }
                let at = self.expr(e, &args[0], None)?.single(line, "array")?;
                let elem = match &at {
                    Type::Array(t) => (**t).clone(),
                    other => {
                        return Err(CompileError::at(
                            line,
                            format!("append needs an array, found {other}"),
                        ))
                    }
                };
                let vt = self
                    .expr(e, &args[1], Some(&elem))?
                    .single(line, "element")?;
                if vt != elem {
                    return Err(CompileError::at(
                        line,
                        format!("cannot append {vt} to array of {elem}"),
                    ));
                }
                e.emit(Op::Append);
                return Ok(ExprKind::none());
            }
            "fail" => {
                self.check_args(e, "fail", args, &[Type::Str], line)?;
                e.emit(Op::Fail);
                return Ok(ExprKind {
                    types: vec![],
                    diverges: true,
                });
            }
            _ => {}
        }

        let (id, sig) = self
            .proc_sigs
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::at(line, format!("unknown procedure `{name}`")))?;
        self.check_args(e, name, args, &sig.params, line)?;
        e.emit(Op::Call {
            proc: id,
            nargs: args.len() as u8,
        });
        Ok(ExprKind {
            types: sig.returns,
            diverges: false,
        })
    }

    fn cluster_op(
        &mut self,
        e: &mut Emit,
        cluster: &str,
        op: &str,
        args: &[Expr],
        line: u32,
        expected: Option<&Type>,
    ) -> Result<ExprKind, CompileError> {
        match (cluster, op) {
            ("sem", "create") => {
                self.check_args(e, "sem$create", args, &[Type::Int], line)?;
                e.emit(Op::SemCreate);
                Ok(ExprKind::one(Type::Sem))
            }
            ("sem", "wait") => {
                self.check_args(e, "sem$wait", args, &[Type::Sem, Type::Int], line)?;
                e.emit(Op::SemWait);
                Ok(ExprKind::one(Type::Bool))
            }
            ("sem", "signal") => {
                self.check_args(e, "sem$signal", args, &[Type::Sem], line)?;
                e.emit(Op::SemSignal);
                Ok(ExprKind::none())
            }
            ("mutex", "create") => {
                self.check_args(e, "mutex$create", args, &[], line)?;
                e.emit(Op::MutexCreate);
                Ok(ExprKind::one(Type::Mutex))
            }
            ("mutex", "lock") => {
                self.check_args(e, "mutex$lock", args, &[Type::Mutex], line)?;
                e.emit(Op::MutexLock);
                Ok(ExprKind::none())
            }
            ("mutex", "unlock") => {
                self.check_args(e, "mutex$unlock", args, &[Type::Mutex], line)?;
                e.emit(Op::MutexUnlock);
                Ok(ExprKind::none())
            }
            ("int", "unparse") => {
                self.check_args(e, "int$unparse", args, &[Type::Int], line)?;
                e.emit(Op::Unparse);
                Ok(ExprKind::one(Type::Str))
            }
            ("array", "new") => {
                self.check_args(e, "array$new", args, &[], line)?;
                let ty =
                    match expected {
                        Some(t @ Type::Array(_)) => t.clone(),
                        Some(other) => {
                            return Err(CompileError::at(
                                line,
                                format!("array$new used where {other} is expected"),
                            ))
                        }
                        None => return Err(CompileError::at(
                            line,
                            "cannot infer element type of array$new; declare the variable first",
                        )),
                    };
                e.emit(Op::NewArray);
                Ok(ExprKind::one(ty))
            }
            _ => Err(CompileError::at(
                line,
                format!("unknown cluster operation `{cluster}${op}`"),
            )),
        }
    }

    fn signal_idx(&mut self, name: &Arc<str>) -> u16 {
        match self.signal_names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.signal_names.push(name.clone());
                (self.signal_names.len() - 1) as u16
            }
        }
    }

    fn rpc(
        &mut self,
        e: &mut Emit,
        proc: &Arc<str>,
        args: &[Expr],
        node: &Expr,
        protocol: ast::RpcProtocol,
        line: u32,
    ) -> Result<ExprKind, CompileError> {
        let sig = if let Some((_, s)) = self.proc_sigs.get(proc) {
            s.clone()
        } else if let Some(s) = self.extern_sigs.get(proc) {
            s.clone()
        } else {
            return Err(CompileError::at(
                line,
                format!("unknown remote procedure `{proc}`"),
            ));
        };
        self.check_transmissible(&sig, line)?;
        self.check_args(e, proc, args, &sig.params, line)?;
        let nt = self
            .expr(e, node, Some(&Type::Int))?
            .single(line, "node id")?;
        if nt != Type::Int {
            return Err(CompileError::at(
                line,
                "`at` expression must be an int node id",
            ));
        }
        let name_idx = match self.rpc_names.iter().position(|n| n == proc) {
            Some(i) => i as u16,
            None => {
                self.rpc_names.push(proc.clone());
                (self.rpc_names.len() - 1) as u16
            }
        };
        e.emit(Op::Rpc {
            name_idx,
            nargs: args.len() as u8,
            nrets: sig.returns.len() as u8,
            protocol,
        });
        let mut types = sig.returns;
        if protocol == ast::RpcProtocol::Maybe {
            types.insert(0, Type::Bool);
        }
        Ok(ExprKind {
            types,
            diverges: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Program {
        match compile(src) {
            Ok(p) => p,
            Err(e) => panic!("compile failed: {e}\n{src}"),
        }
    }

    fn err(src: &str) -> CompileError {
        match compile(src) {
            Ok(_) => panic!("expected error:\n{src}"),
            Err(e) => e,
        }
    }

    #[test]
    fn compiles_hello() {
        let p = ok("main = proc ()\n print(\"hello\")\nend");
        let main = p.proc(p.proc_by_name("main").unwrap());
        assert!(matches!(main.code[0], Op::Enter { .. }));
        assert!(main.code.iter().any(|o| matches!(o, Op::Print)));
    }

    #[test]
    fn arithmetic_type_errors() {
        let e = err("main = proc ()\n x: int := true + 1\nend");
        assert!(e.to_string().contains("arithmetic"), "{e}");
        let e = err("main = proc ()\n x: bool := 1\nend");
        assert!(e.to_string().contains("declared bool"), "{e}");
    }

    #[test]
    fn unknown_names_are_errors() {
        assert!(err("main = proc ()\n y := 1\nend")
            .to_string()
            .contains("unknown variable"));
        assert!(err("main = proc ()\n foo()\nend")
            .to_string()
            .contains("unknown procedure"));
        assert!(err("main = proc ()\n x: wibble := 1\nend")
            .to_string()
            .contains("unknown type"));
    }

    #[test]
    fn line_table_is_emitted() {
        let p = ok("main = proc ()\n x: int := 1\n x := 2\n print(x)\nend");
        let main = p.proc(p.proc_by_name("main").unwrap());
        let lines: Vec<u32> = main.debug.lines.iter().map(|&(_, l)| l).collect();
        assert!(
            lines.contains(&2) && lines.contains(&3) && lines.contains(&4),
            "{lines:?}"
        );
        // Breakpoint planting uses addr_for_line.
        assert!(p.addr_for_line(3).is_some());
        assert!(p.addr_for_line(99).is_none());
    }

    #[test]
    fn variable_debug_info_has_types_and_scopes() {
        let p = ok(
            "main = proc ()\n x: int := 1\n if true then\n y: string := \"s\"\n end\n x := 2\nend",
        );
        let main = p.proc(p.proc_by_name("main").unwrap());
        let x = main.debug.vars.iter().find(|v| &*v.name == "x").unwrap();
        assert_eq!(x.ty, Type::Int);
        let y = main.debug.vars.iter().find(|v| &*v.name == "y").unwrap();
        assert_eq!(y.ty, Type::Str);
        assert!(
            y.to_pc < main.code.len() as u32,
            "y's scope ends before proc end"
        );
    }

    #[test]
    fn record_ctor_checks_fields() {
        let src = "point = record[x: int, y: int]\n";
        ok(&format!(
            "{src}main = proc ()\n p: point := point${{x: 1, y: 2}}\nend"
        ));
        assert!(err(&format!(
            "{src}main = proc ()\n p: point := point${{x: 1}}\nend"
        ))
        .to_string()
        .contains("2 fields"));
        assert!(err(&format!(
            "{src}main = proc ()\n p: point := point${{x: 1, z: 2}}\nend"
        ))
        .to_string()
        .contains("missing field `y`"));
        assert!(err(&format!(
            "{src}main = proc ()\n p: point := point${{x: 1, y: true}}\nend"
        ))
        .to_string()
        .contains("field `y`"));
    }

    #[test]
    fn field_access_and_update() {
        let p = ok("point = record[x: int, y: int]\n\
             main = proc ()\n p: point := point${x: 1, y: 2}\n p.y := p.x + 10\nend");
        let main = p.proc(p.proc_by_name("main").unwrap());
        assert!(main.code.iter().any(|o| matches!(o, Op::StoreField(1))));
        assert!(main.code.iter().any(|o| matches!(o, Op::LoadField(0))));
    }

    #[test]
    fn multi_assign_from_call() {
        let p = ok(
            "two = proc () returns (int, string)\n return (1, \"a\")\nend\n\
             main = proc ()\n a: int := 0\n b: string := \"\"\n a, b := two()\nend",
        );
        assert!(p.proc_by_name("two").is_some());
        assert!(err(
            "two = proc () returns (int, string)\n return (1, \"a\")\nend\n\
             main = proc ()\n a: int := 0\n a := two()\nend"
        )
        .to_string()
        .contains("one is required"));
    }

    #[test]
    fn return_arity_and_types_checked() {
        assert!(err("f = proc () returns (int)\n return\nend")
            .to_string()
            .contains("return gives 0 values"));
        assert!(err("f = proc () returns (int)\n return (true)\nend")
            .to_string()
            .contains("expected int"));
        // Falling off the end of a value-returning proc compiles to a fault.
        let p = ok("f = proc () returns (int)\n if false then\n return (1)\n end\nend");
        let f = p.proc(p.proc_by_name("f").unwrap());
        assert!(f.code.iter().any(|o| matches!(o, Op::Fail)));
    }

    #[test]
    fn rpc_compiles_with_protocols() {
        let p = ok(
            "sq = proc (n: int) returns (int)\n return (n * n)\nend\n\
             main = proc ()\n x: int := call sq(3) at 1\n ok: bool := true\n y: int := 0\n ok, y := maybecall sq(4) at 2\nend",
        );
        assert_eq!(p.rpc_names, vec![Arc::from("sq")]);
        let main = p.proc(p.proc_by_name("main").unwrap());
        let rpcs: Vec<_> = main
            .code
            .iter()
            .filter_map(|o| match o {
                Op::Rpc { protocol, .. } => Some(*protocol),
                _ => None,
            })
            .collect();
        assert_eq!(
            rpcs,
            vec![ast::RpcProtocol::ExactlyOnce, ast::RpcProtocol::Maybe]
        );
    }

    #[test]
    fn rpc_rejects_untransmissible_types() {
        let e = err("f = proc (s: sem)\nend\n\
             main = proc ()\n s: sem := sem$create(0)\n call f(s) at 1\nend");
        assert!(e.to_string().contains("cannot be transmitted"), "{e}");
    }

    #[test]
    fn externs_are_callable_remotely_only() {
        let p = ok("extern get_time = proc () returns (int)\n\
             main = proc ()\n t: int := call get_time() at 0\nend");
        assert!(p.signature_of("get_time").is_some());
        assert!(err("extern get_time = proc () returns (int)\n\
             main = proc ()\n t: int := get_time()\nend")
        .to_string()
        .contains("unknown procedure"));
    }

    #[test]
    fn globals_load_and_store() {
        let p = ok("own hits: int := 0\nmain = proc ()\n hits := hits + 1\nend");
        assert_eq!(p.globals.len(), 1);
        let main = p.proc(p.proc_by_name("main").unwrap());
        assert!(main.code.iter().any(|o| matches!(o, Op::LoadGlobal(0))));
        assert!(main.code.iter().any(|o| matches!(o, Op::StoreGlobal(0))));
        assert!(err("own x: int := true\nmain = proc ()\nend")
            .to_string()
            .contains("literal of type int"));
    }

    #[test]
    fn array_new_needs_expected_type() {
        ok("main = proc ()\n xs: array[int] := array$new()\n append(xs, 1)\nend");
        assert!(err("main = proc ()\n print(array$new())\nend")
            .to_string()
            .contains("cannot infer"));
    }

    #[test]
    fn print_dispatches_to_user_print_op() {
        let p = ok("point = record[x: int, y: int]\n\
             print_point = proc (p: point) returns (string)\n\
               return (\"(\" || int$unparse(p.x) || \",\" || int$unparse(p.y) || \")\")\n\
             end\n\
             main = proc ()\n p: point := point${x: 1, y: 2}\n print(p)\nend");
        let main = p.proc(p.proc_by_name("main").unwrap());
        let printer = p.proc_by_name("print_point").unwrap();
        assert!(main
            .code
            .iter()
            .any(|o| matches!(o, Op::Call { proc, .. } if *proc == printer)));
        assert_eq!(p.print_op_for("point"), Some(printer));
        assert_eq!(p.print_op_for("nosuch"), None);
    }

    #[test]
    fn short_circuit_ops_compile_to_jumps() {
        let p = ok("f = proc (a: bool, b: bool) returns (bool)\n return (a & b | a)\nend");
        let f = p.proc(p.proc_by_name("f").unwrap());
        assert!(f.code.iter().any(|o| matches!(o, Op::JumpIfFalse(_))));
        assert!(f.code.iter().any(|o| matches!(o, Op::JumpIfTrue(_))));
    }

    #[test]
    fn for_loop_hidden_limit() {
        let p =
            ok("main = proc ()\n t: int := 0\n for i: int := 1 to 10 do\n t := t + i\n end\nend");
        let main = p.proc(p.proc_by_name("main").unwrap());
        assert!(main.debug.vars.iter().any(|v| v.name.contains("%limit")));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        assert!(err("f = proc ()\nend\nf = proc ()\nend")
            .to_string()
            .contains("defined twice"));
        assert!(
            err("t = record[x: int]\nt = record[y: int]\nmain = proc ()\nend")
                .to_string()
                .contains("defined twice")
        );
        assert!(err("main = proc ()\n x: int := 1\n x: int := 2\nend")
            .to_string()
            .contains("already declared"));
    }

    #[test]
    fn shadowing_in_nested_scope_allowed() {
        ok("main = proc ()\n x: int := 1\n if true then\n x: string := \"s\"\n print(x)\n end\n print(x)\nend");
    }

    #[test]
    fn fork_checks_signature() {
        ok("w = proc (n: int)\nend\nmain = proc ()\n fork w(3)\nend");
        assert!(
            err("w = proc (n: int)\nend\nmain = proc ()\n fork w(true)\nend")
                .to_string()
                .contains("expected int")
        );
        assert!(err("main = proc ()\n fork nope()\nend")
            .to_string()
            .contains("unknown procedure"));
    }

    #[test]
    fn type_aliases_resolve() {
        ok("date = int\nmain = proc ()\n d: date := now()\n e: int := d + 1\n print(e)\nend");
    }

    #[test]
    fn fail_diverges() {
        ok("f = proc () returns (int)\n fail(\"boom\")\nend");
    }
}
