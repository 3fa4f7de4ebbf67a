//! Abstract syntax for the mini Concurrent CLU language.

use std::sync::Arc;

/// A parsed source type expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `string`
    String,
    /// `null`
    Null,
    /// `sem`
    Sem,
    /// `mutex`
    Mutex,
    /// `array[T]`
    Array(Box<TypeExpr>),
    /// `record[f1: T1, ...]` (anonymous; only allowed inside a typedef)
    Record(Vec<(Arc<str>, TypeExpr)>),
    /// A named type introduced by a typedef.
    Named(Arc<str>),
}

/// A whole compilation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// `name = record[...]` type definitions.
    pub typedefs: Vec<TypeDef>,
    /// `own name: type := literal` node-global variables.
    pub globals: Vec<GlobalDef>,
    /// `extern name = proc (...) returns (...)` remote signatures.
    pub externs: Vec<ExternDef>,
    /// Procedure definitions.
    pub procs: Vec<ProcDef>,
}

/// A named type definition.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// Type name.
    pub name: Arc<str>,
    /// Definition body.
    pub body: TypeExpr,
    /// Source line.
    pub line: u32,
}

/// A node-global (`own`) variable.
#[derive(Debug, Clone)]
pub struct GlobalDef {
    /// Variable name.
    pub name: Arc<str>,
    /// Declared type.
    pub ty: TypeExpr,
    /// Initializer (must be a literal).
    pub init: Expr,
    /// Source line.
    pub line: u32,
}

/// An `extern` declaration of a remote (native-service) procedure signature.
#[derive(Debug, Clone)]
pub struct ExternDef {
    /// Remote procedure name.
    pub name: Arc<str>,
    /// Parameter types.
    pub params: Vec<TypeExpr>,
    /// Return types.
    pub returns: Vec<TypeExpr>,
    /// Source line.
    pub line: u32,
}

/// A procedure definition.
#[derive(Debug, Clone)]
pub struct ProcDef {
    /// Procedure name.
    pub name: Arc<str>,
    /// Parameters (name, type).
    pub params: Vec<(Arc<str>, TypeExpr)>,
    /// Return types.
    pub returns: Vec<TypeExpr>,
    /// Signals the procedure may raise (`signals (a, b)`).
    pub signals: Vec<Arc<str>>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line of the header.
    pub line: u32,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `name: type := expr`
    Decl {
        /// Variable name.
        name: Arc<str>,
        /// Declared type.
        ty: TypeExpr,
        /// Initializer.
        init: Expr,
        /// Source line.
        line: u32,
    },
    /// `lv1, lv2, ... := expr`
    Assign {
        /// Assignment targets.
        targets: Vec<LValue>,
        /// Right-hand side.
        value: Expr,
        /// Source line.
        line: u32,
    },
    /// `if c then ... elseif c2 then ... else ... end`
    If {
        /// `(condition, body)` arms, first is the `if`, rest are `elseif`s.
        arms: Vec<(Expr, Vec<Stmt>)>,
        /// Else body, possibly empty.
        otherwise: Vec<Stmt>,
        /// Source line.
        line: u32,
    },
    /// `while c do ... end`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source line.
        line: u32,
    },
    /// `for i: int := a to b do ... end`
    For {
        /// Loop variable name.
        var: Arc<str>,
        /// Start expression.
        from: Expr,
        /// Inclusive end expression.
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source line.
        line: u32,
    },
    /// `return` / `return (e1, ...)`
    Return {
        /// Returned values.
        values: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `fork p(args)`
    Fork {
        /// Procedure name.
        proc: Arc<str>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// An expression evaluated for effect (a call).
    Expr {
        /// The expression.
        expr: Expr,
        /// Source line.
        line: u32,
    },
    /// `signal name` — raise a CLU signal.
    Signal {
        /// Signal name.
        name: Arc<str>,
        /// Source line.
        line: u32,
    },
    /// `<stmt> except when a, b: body when c: body end` — a handler
    /// attached to one statement (the form the paper's Figures 3/4 use).
    Except {
        /// The protected statement.
        body: Box<Stmt>,
        /// Handler arms: signal names → handler body.
        arms: Vec<(Vec<Arc<str>>, Vec<Stmt>)>,
        /// Source line of the `except`.
        line: u32,
    },
}

impl Stmt {
    /// Source line the statement starts on.
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Decl { line, .. }
            | Stmt::Assign { line, .. }
            | Stmt::If { line, .. }
            | Stmt::While { line, .. }
            | Stmt::For { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::Fork { line, .. }
            | Stmt::Expr { line, .. }
            | Stmt::Signal { line, .. }
            | Stmt::Except { line, .. } => *line,
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone)]
pub enum LValue {
    /// A local or global variable.
    Var(Arc<str>, u32),
    /// `base.field`
    Field(Box<Expr>, Arc<str>, u32),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>, u32),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}

pub use pilgrim_sim::RpcProtocol;

/// An expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal.
    Int(i64, u32),
    /// Boolean literal.
    Bool(bool, u32),
    /// String literal.
    Str(Arc<str>, u32),
    /// `nil`
    Nil(u32),
    /// Variable reference.
    Var(Arc<str>, u32),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>, u32),
    /// Unary operation.
    Un(UnOp, Box<Expr>, u32),
    /// Local procedure or builtin call: `f(a, b)`.
    Call(Arc<str>, Vec<Expr>, u32),
    /// Cluster operation: `cluster$op(args)` e.g. `sem$wait(s, 100)`.
    ClusterOp(Arc<str>, Arc<str>, Vec<Expr>, u32),
    /// Record construction: `point${x: 1, y: 2}`.
    RecordCtor(Arc<str>, Vec<(Arc<str>, Expr)>, u32),
    /// Field selection.
    Field(Box<Expr>, Arc<str>, u32),
    /// Array indexing.
    Index(Box<Expr>, Box<Expr>, u32),
    /// Remote call: `call f(args) at node` or `maybecall f(args) at node`.
    Rpc {
        /// Remote procedure name.
        proc: Arc<str>,
        /// Arguments.
        args: Vec<Expr>,
        /// Node expression (an `int` node id).
        node: Box<Expr>,
        /// Protocol.
        protocol: RpcProtocol,
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// Source line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Int(_, l)
            | Expr::Bool(_, l)
            | Expr::Str(_, l)
            | Expr::Nil(l)
            | Expr::Var(_, l)
            | Expr::Bin(_, _, _, l)
            | Expr::Un(_, _, l)
            | Expr::Call(_, _, l)
            | Expr::ClusterOp(_, _, _, l)
            | Expr::RecordCtor(_, _, l)
            | Expr::Field(_, _, l)
            | Expr::Index(_, _, l)
            | Expr::Rpc { line: l, .. } => *l,
        }
    }
}
