//! Recursive-descent parser for the mini Concurrent CLU language.

use std::sync::Arc;

use crate::ast::*;
use crate::token::{lex, Kw, SpannedTok, Tok};
use crate::CompileError;

/// Parses a complete module from source text.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, with its source line.
pub fn parse(source: &str) -> Result<Module, CompileError> {
    let toks = lex(source)?;
    Parser { toks, pos: 0 }.module()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == want {
            self.bump();
            true
        } else {
            false
        }
    }

    fn need(&mut self, want: &Tok) -> Result<(), CompileError> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{want}`, found `{}`", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), CompileError> {
        self.need(&Tok::Kw(kw))
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::at(self.line(), msg)
    }

    fn ident(&mut self) -> Result<Arc<str>, CompileError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    /// An identifier where reserved words are also acceptable — cluster
    /// operation names after `$` (e.g. `sem$signal`, `array$new`).
    fn op_ident(&mut self) -> Result<Arc<str>, CompileError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            Tok::Kw(k) => {
                self.bump();
                Ok(Arc::from(format!("{k:?}").to_lowercase().as_str()))
            }
            other => Err(self.err(format!("expected operation name, found `{other}`"))),
        }
    }

    fn skip_newlines(&mut self) {
        while self.eat(&Tok::Newline) {}
    }

    fn module(&mut self) -> Result<Module, CompileError> {
        let mut m = Module::default();
        loop {
            self.skip_newlines();
            match self.peek() {
                Tok::Eof => break,
                Tok::Kw(Kw::Own) => {
                    self.bump();
                    let line = self.line();
                    let name = self.ident()?;
                    self.need(&Tok::Colon)?;
                    let ty = self.type_expr()?;
                    self.need(&Tok::Assign)?;
                    let init = self.expr()?;
                    m.globals.push(GlobalDef {
                        name,
                        ty,
                        init,
                        line,
                    });
                }
                Tok::Kw(Kw::Extern) => {
                    self.bump();
                    let line = self.line();
                    let name = self.ident()?;
                    self.need(&Tok::Eq)?;
                    self.expect_kw(Kw::Proc)?;
                    let params = self.type_list_parens()?;
                    let returns = if self.eat(&Tok::Kw(Kw::Returns)) {
                        self.type_list_parens()?
                    } else {
                        Vec::new()
                    };
                    m.externs.push(ExternDef {
                        name,
                        params,
                        returns,
                        line,
                    });
                }
                Tok::Ident(_) => {
                    let line = self.line();
                    let name = self.ident()?;
                    self.need(&Tok::Eq)?;
                    if self.peek() == &Tok::Kw(Kw::Proc) {
                        m.procs.push(self.proc_def(name, line)?);
                    } else {
                        let body = self.type_expr()?;
                        m.typedefs.push(TypeDef { name, body, line });
                    }
                }
                other => {
                    return Err(self.err(format!(
                        "expected a definition at top level, found `{other}`"
                    )))
                }
            }
        }
        Ok(m)
    }

    fn type_list_parens(&mut self) -> Result<Vec<TypeExpr>, CompileError> {
        self.need(&Tok::LParen)?;
        let mut tys = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                // Allow an optional `name:` prefix, so extern declarations
                // can be written exactly like the paper's signatures.
                if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::Colon {
                    self.bump();
                    self.bump();
                }
                tys.push(self.type_expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.need(&Tok::RParen)?;
        Ok(tys)
    }

    fn proc_def(&mut self, name: Arc<str>, line: u32) -> Result<ProcDef, CompileError> {
        self.expect_kw(Kw::Proc)?;
        self.need(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let pname = self.ident()?;
                self.need(&Tok::Colon)?;
                let ty = self.type_expr()?;
                params.push((pname, ty));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.need(&Tok::RParen)?;
        let returns = if self.eat(&Tok::Kw(Kw::Returns)) {
            self.type_list_parens()?
        } else {
            Vec::new()
        };
        // Optional CLU signals clause: `signals (a, b)`.
        let mut signals = Vec::new();
        if self.eat(&Tok::Kw(Kw::Signals)) {
            self.need(&Tok::LParen)?;
            loop {
                signals.push(self.ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.need(&Tok::RParen)?;
        }
        let body = self.block(&[Kw::End])?;
        self.expect_kw(Kw::End)?;
        Ok(ProcDef {
            name,
            params,
            returns,
            signals,
            body,
            line,
        })
    }

    fn type_expr(&mut self) -> Result<TypeExpr, CompileError> {
        match self.peek().clone() {
            Tok::Kw(Kw::Int) => {
                self.bump();
                Ok(TypeExpr::Int)
            }
            Tok::Kw(Kw::Bool) => {
                self.bump();
                Ok(TypeExpr::Bool)
            }
            Tok::Kw(Kw::String) => {
                self.bump();
                Ok(TypeExpr::String)
            }
            Tok::Kw(Kw::Null) => {
                self.bump();
                Ok(TypeExpr::Null)
            }
            Tok::Kw(Kw::Sem) => {
                self.bump();
                Ok(TypeExpr::Sem)
            }
            Tok::Kw(Kw::Mutex) => {
                self.bump();
                Ok(TypeExpr::Mutex)
            }
            Tok::Kw(Kw::Array) => {
                self.bump();
                self.need(&Tok::LBracket)?;
                let inner = self.type_expr()?;
                self.need(&Tok::RBracket)?;
                Ok(TypeExpr::Array(Box::new(inner)))
            }
            Tok::Kw(Kw::Record) => {
                self.bump();
                self.need(&Tok::LBracket)?;
                let mut fields = Vec::new();
                loop {
                    let fname = self.ident()?;
                    self.need(&Tok::Colon)?;
                    let fty = self.type_expr()?;
                    fields.push((fname, fty));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.need(&Tok::RBracket)?;
                Ok(TypeExpr::Record(fields))
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(TypeExpr::Named(name))
            }
            other => Err(self.err(format!("expected a type, found `{other}`"))),
        }
    }

    /// Parses statements until one of `stops` (or `Eof`) is at the head.
    fn block(&mut self, stops: &[Kw]) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                Tok::Eof => break,
                Tok::Kw(k) if stops.contains(k) => break,
                _ => {
                    let mut s = self.stmt()?;
                    // CLU attaches handlers to a statement, possibly on the
                    // following line: `... except when timed_out: ... end`.
                    loop {
                        let save = self.pos;
                        self.skip_newlines();
                        if self.peek() == &Tok::Kw(Kw::Except) {
                            s = self.except_suffix(s)?;
                        } else {
                            self.pos = save;
                            break;
                        }
                    }
                    stmts.push(s);
                }
            }
        }
        Ok(stmts)
    }

    /// `except when a, b: body [when c: body]... end`
    fn except_suffix(&mut self, body: Stmt) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.expect_kw(Kw::Except)?;
        self.skip_newlines();
        let mut arms = Vec::new();
        while self.eat(&Tok::Kw(Kw::When)) {
            let mut names = vec![self.ident()?];
            while self.eat(&Tok::Comma) {
                names.push(self.ident()?);
            }
            self.need(&Tok::Colon)?;
            let arm = self.block(&[Kw::When, Kw::End])?;
            arms.push((names, arm));
        }
        if arms.is_empty() {
            return Err(self.err("`except` needs at least one `when` arm"));
        }
        self.expect_kw(Kw::End)?;
        Ok(Stmt::Except {
            body: Box::new(body),
            arms,
            line,
        })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Kw(Kw::If) => self.if_stmt(),
            Tok::Kw(Kw::While) => {
                self.bump();
                let cond = self.expr()?;
                self.expect_kw(Kw::Do)?;
                let body = self.block(&[Kw::End])?;
                self.expect_kw(Kw::End)?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                let var = self.ident()?;
                self.need(&Tok::Colon)?;
                self.expect_kw(Kw::Int)?;
                self.need(&Tok::Assign)?;
                let from = self.expr()?;
                self.expect_kw(Kw::To)?;
                let to = self.expr()?;
                self.expect_kw(Kw::Do)?;
                let body = self.block(&[Kw::End])?;
                self.expect_kw(Kw::End)?;
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                    line,
                })
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let mut values = Vec::new();
                if self.eat(&Tok::LParen) {
                    if self.peek() != &Tok::RParen {
                        loop {
                            values.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.need(&Tok::RParen)?;
                }
                Ok(Stmt::Return { values, line })
            }
            Tok::Kw(Kw::Signal) => {
                self.bump();
                let name = self.ident()?;
                Ok(Stmt::Signal { name, line })
            }
            Tok::Kw(Kw::Fork) => {
                self.bump();
                let proc = self.ident()?;
                self.need(&Tok::LParen)?;
                let args = self.expr_list(&Tok::RParen)?;
                self.need(&Tok::RParen)?;
                Ok(Stmt::Fork { proc, args, line })
            }
            Tok::Ident(name) => {
                // Could be: decl, assignment (single or multi), or a call.
                if self.peek2() == &Tok::Colon {
                    self.bump();
                    self.bump();
                    let ty = self.type_expr()?;
                    self.need(&Tok::Assign)?;
                    let init = self.expr()?;
                    return Ok(Stmt::Decl {
                        name,
                        ty,
                        init,
                        line,
                    });
                }
                let first = self.expr()?;
                match self.peek() {
                    Tok::Assign => {
                        self.bump();
                        let target = self.expr_to_lvalue(first)?;
                        let value = self.expr()?;
                        Ok(Stmt::Assign {
                            targets: vec![target],
                            value,
                            line,
                        })
                    }
                    Tok::Comma => {
                        let mut targets = vec![self.expr_to_lvalue(first)?];
                        while self.eat(&Tok::Comma) {
                            let e = self.expr()?;
                            targets.push(self.expr_to_lvalue(e)?);
                        }
                        self.need(&Tok::Assign)?;
                        let value = self.expr()?;
                        Ok(Stmt::Assign {
                            targets,
                            value,
                            line,
                        })
                    }
                    _ => Ok(Stmt::Expr { expr: first, line }),
                }
            }
            Tok::Kw(Kw::Call)
            | Tok::Kw(Kw::Maybecall)
            | Tok::Kw(Kw::Sem)
            | Tok::Kw(Kw::Mutex)
            | Tok::Kw(Kw::Int)
            | Tok::Kw(Kw::String)
            | Tok::Kw(Kw::Array) => {
                let expr = self.expr()?;
                Ok(Stmt::Expr { expr, line })
            }
            other => Err(self.err(format!("expected a statement, found `{other}`"))),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.expect_kw(Kw::If)?;
        let mut arms = Vec::new();
        let cond = self.expr()?;
        self.expect_kw(Kw::Then)?;
        let body = self.block(&[Kw::Elseif, Kw::Else, Kw::End])?;
        arms.push((cond, body));
        let mut otherwise = Vec::new();
        loop {
            match self.peek() {
                Tok::Kw(Kw::Elseif) => {
                    self.bump();
                    let c = self.expr()?;
                    self.expect_kw(Kw::Then)?;
                    let b = self.block(&[Kw::Elseif, Kw::Else, Kw::End])?;
                    arms.push((c, b));
                }
                Tok::Kw(Kw::Else) => {
                    self.bump();
                    otherwise = self.block(&[Kw::End])?;
                    self.expect_kw(Kw::End)?;
                    break;
                }
                Tok::Kw(Kw::End) => {
                    self.bump();
                    break;
                }
                other => return Err(self.err(format!("expected elseif/else/end, found `{other}`"))),
            }
        }
        Ok(Stmt::If {
            arms,
            otherwise,
            line,
        })
    }

    fn expr_to_lvalue(&self, e: Expr) -> Result<LValue, CompileError> {
        match e {
            Expr::Var(name, line) => Ok(LValue::Var(name, line)),
            Expr::Field(base, field, line) => Ok(LValue::Field(base, field, line)),
            Expr::Index(base, idx, line) => Ok(LValue::Index(base, idx, line)),
            other => Err(CompileError::at(
                other.line(),
                "left-hand side of `:=` is not assignable",
            )),
        }
    }

    fn expr_list(&mut self, terminator: &Tok) -> Result<Vec<Expr>, CompileError> {
        let mut args = Vec::new();
        if self.peek() != terminator {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::Bar {
            let line = self.line();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &Tok::Amp {
            let line = self.line();
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.concat_expr()?;
        let op = match self.peek() {
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.bump();
        let rhs = self.concat_expr()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs), line))
    }

    fn concat_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.add_expr()?;
        while self.peek() == &Tok::Concat {
            let line = self.line();
            self.bump();
            let rhs = self.add_expr()?;
            lhs = Expr::Bin(BinOp::Concat, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::SlashSlash => BinOp::Mod,
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        match self.peek() {
            Tok::Minus => {
                let line = self.line();
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::Un(UnOp::Neg, Box::new(e), line))
            }
            Tok::Tilde => {
                let line = self.line();
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::Un(UnOp::Not, Box::new(e), line))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    let line = self.line();
                    self.bump();
                    let field = self.ident()?;
                    e = Expr::Field(Box::new(e), field, line);
                }
                Tok::LBracket => {
                    let line = self.line();
                    self.bump();
                    let idx = self.expr()?;
                    self.need(&Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx), line);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn rpc_expr(&mut self, protocol: RpcProtocol) -> Result<Expr, CompileError> {
        let line = self.line();
        self.bump(); // call / maybecall
        let proc = self.ident()?;
        self.need(&Tok::LParen)?;
        let args = self.expr_list(&Tok::RParen)?;
        self.need(&Tok::RParen)?;
        self.expect_kw(Kw::At)?;
        let node = self.expr()?;
        Ok(Expr::Rpc {
            proc,
            args,
            node: Box::new(node),
            protocol,
            line,
        })
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, line))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, line))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(Expr::Bool(true, line))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(Expr::Bool(false, line))
            }
            Tok::Kw(Kw::Nil) => {
                self.bump();
                Ok(Expr::Nil(line))
            }
            Tok::Kw(Kw::Call) => self.rpc_expr(RpcProtocol::ExactlyOnce),
            Tok::Kw(Kw::Maybecall) => self.rpc_expr(RpcProtocol::Maybe),
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.need(&Tok::RParen)?;
                Ok(e)
            }
            // `int$unparse(...)`, `sem$create(...)` — keyword-named clusters.
            Tok::Kw(Kw::Int)
            | Tok::Kw(Kw::String)
            | Tok::Kw(Kw::Sem)
            | Tok::Kw(Kw::Mutex)
            | Tok::Kw(Kw::Array) => {
                let cluster: Arc<str> = match self.bump() {
                    Tok::Kw(Kw::Int) => "int".into(),
                    Tok::Kw(Kw::String) => "string".into(),
                    Tok::Kw(Kw::Sem) => "sem".into(),
                    Tok::Kw(Kw::Mutex) => "mutex".into(),
                    Tok::Kw(Kw::Array) => "array".into(),
                    _ => unreachable!(),
                };
                self.need(&Tok::Dollar)?;
                let op = self.op_ident()?;
                self.need(&Tok::LParen)?;
                let args = self.expr_list(&Tok::RParen)?;
                self.need(&Tok::RParen)?;
                Ok(Expr::ClusterOp(cluster, op, args, line))
            }
            Tok::Ident(name) => {
                self.bump();
                match self.peek() {
                    Tok::LParen => {
                        self.bump();
                        let args = self.expr_list(&Tok::RParen)?;
                        self.need(&Tok::RParen)?;
                        Ok(Expr::Call(name, args, line))
                    }
                    Tok::Dollar => {
                        self.bump();
                        if self.eat(&Tok::LBrace) {
                            // record constructor  T${f: e, ...}
                            let mut fields = Vec::new();
                            if self.peek() != &Tok::RBrace {
                                loop {
                                    let fname = self.ident()?;
                                    self.need(&Tok::Colon)?;
                                    let fexpr = self.expr()?;
                                    fields.push((fname, fexpr));
                                    if !self.eat(&Tok::Comma) {
                                        break;
                                    }
                                }
                            }
                            self.need(&Tok::RBrace)?;
                            Ok(Expr::RecordCtor(name, fields, line))
                        } else {
                            let op = self.op_ident()?;
                            self.need(&Tok::LParen)?;
                            let args = self.expr_list(&Tok::RParen)?;
                            self.need(&Tok::RParen)?;
                            Ok(Expr::ClusterOp(name, op, args, line))
                        }
                    }
                    _ => Ok(Expr::Var(name, line)),
                }
            }
            other => Err(self.err(format!("expected an expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Module {
        match parse(src) {
            Ok(m) => m,
            Err(e) => panic!("parse failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn parses_minimal_proc() {
        let m = parse_ok("main = proc ()\nend\n");
        assert_eq!(m.procs.len(), 1);
        assert_eq!(&*m.procs[0].name, "main");
        assert!(m.procs[0].body.is_empty());
    }

    #[test]
    fn parses_params_and_returns() {
        let m = parse_ok("f = proc (a: int, b: string) returns (int, bool)\nreturn (1, true)\nend");
        let p = &m.procs[0];
        assert_eq!(p.params.len(), 2);
        assert_eq!(p.returns.len(), 2);
        assert!(matches!(p.body[0], Stmt::Return { .. }));
    }

    #[test]
    fn parses_typedef_and_ctor() {
        let m = parse_ok(
            "point = record[x: int, y: int]\n\
             main = proc ()\n p: point := point${x: 1, y: 2}\n print(p.x)\nend",
        );
        assert_eq!(m.typedefs.len(), 1);
        match &m.procs[0].body[0] {
            Stmt::Decl {
                init: Expr::RecordCtor(name, fields, _),
                ..
            } => {
                assert_eq!(&**name, "point");
                assert_eq!(fields.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let m = parse_ok(
            "main = proc ()\n\
             i: int := 0\n\
             while i < 10 do\n i := i + 1\n end\n\
             if i = 10 then\n print(\"ten\")\n elseif i > 10 then\n print(\"big\")\n else\n print(\"huh\")\n end\n\
             for j: int := 1 to 3 do\n print(j)\n end\n\
             end",
        );
        assert_eq!(m.procs[0].body.len(), 4);
    }

    #[test]
    fn parses_fork_and_cluster_ops() {
        let m = parse_ok(
            "worker = proc (s: sem)\n sem$signal(s)\nend\n\
             main = proc ()\n s: sem := sem$create(0)\n fork worker(s)\n ok: bool := sem$wait(s, 1000)\nend",
        );
        assert_eq!(m.procs.len(), 2);
        assert!(matches!(m.procs[1].body[1], Stmt::Fork { .. }));
    }

    #[test]
    fn parses_rpc_calls() {
        let m = parse_ok(
            "main = proc ()\n\
             x: int := call square(4) at 2\n\
             ok, y := maybecall square(5) at 2\n\
             end\n\
             square = proc (n: int) returns (int)\n return (n * n)\nend",
        );
        match &m.procs[0].body[0] {
            Stmt::Decl {
                init: Expr::Rpc { protocol, .. },
                ..
            } => {
                assert_eq!(*protocol, RpcProtocol::ExactlyOnce)
            }
            other => panic!("unexpected {other:?}"),
        }
        match &m.procs[0].body[1] {
            Stmt::Assign {
                targets,
                value: Expr::Rpc { protocol, .. },
                ..
            } => {
                assert_eq!(targets.len(), 2);
                assert_eq!(*protocol, RpcProtocol::Maybe);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_extern_and_own() {
        let m = parse_ok(
            "extern get_debuggee_status = proc (c: int) returns (int, int)\n\
             own counter: int := 0\n\
             main = proc ()\n counter := counter + 1\nend",
        );
        assert_eq!(m.externs.len(), 1);
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.externs[0].returns.len(), 2);
    }

    #[test]
    fn parses_indexing_and_field_assignment() {
        let m = parse_ok(
            "pair = record[a: int, b: int]\n\
             main = proc ()\n\
             xs: array[int] := array$new()\n\
             append(xs, 7)\n\
             xs[0] := 8\n\
             p: pair := pair${a: 1, b: 2}\n\
             p.b := 3\n\
             end",
        );
        assert!(matches!(
            m.procs[0].body[2],
            Stmt::Assign { ref targets, .. } if matches!(targets[0], LValue::Index(..))
        ));
        assert!(matches!(
            m.procs[0].body[4],
            Stmt::Assign { ref targets, .. } if matches!(targets[0], LValue::Field(..))
        ));
    }

    #[test]
    fn operator_precedence() {
        let m = parse_ok("main = proc ()\n x: bool := 1 + 2 * 3 = 7 & true\nend");
        // (((1 + (2*3)) = 7) & true)
        match &m.procs[0].body[0] {
            Stmt::Decl {
                init: Expr::Bin(BinOp::And, lhs, _, _),
                ..
            } => {
                assert!(matches!(**lhs, Expr::Bin(BinOp::Eq, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_lvalue() {
        assert!(parse("main = proc ()\n 1 + 2 := 3\nend").is_err());
        let err = parse("main = proc ()\n f(x) := 3\nend").unwrap_err();
        assert!(err.to_string().contains("not assignable"), "{err}");
    }

    #[test]
    fn rejects_missing_end() {
        assert!(parse("main = proc ()\n x: int := 1\n").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse("main = proc ()\n x: int := \n end").unwrap_err();
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn keyword_cluster_ops_parse() {
        let m = parse_ok("main = proc ()\n s: string := int$unparse(42)\nend");
        match &m.procs[0].body[0] {
            Stmt::Decl {
                init: Expr::ClusterOp(cl, op, args, _),
                ..
            } => {
                assert_eq!(&**cl, "int");
                assert_eq!(&**op, "unparse");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
