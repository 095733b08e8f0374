//! Abstract syntax tree for the OpenCL C subset.

use std::fmt;

use crate::types::ScalarType;

/// A source position: 1-based line and column. A column of 0 means "column
/// unknown" (e.g. positions synthesised for generated code) and is omitted
/// from the rendered form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    pub line: usize,
    pub col: usize,
}

impl Span {
    /// Construct a span from a 1-based line and column.
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }

    /// A span carrying only a line (column unknown).
    pub fn line_only(line: usize) -> Span {
        Span { line, col: 0 }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col == 0 {
            write!(f, "{}", self.line)
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// OpenCL address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrSpace {
    /// `__global`: device memory visible to every work-item.
    Global,
    /// `__local`: per-work-group scratchpad.
    Local,
    /// `__constant`: host-writable, kernel-read-only memory.
    Constant,
    /// `__private`: per-work-item registers/stack (the default).
    Private,
}

impl AddrSpace {
    /// OpenCL C spelling.
    pub fn cl_name(self) -> &'static str {
        match self {
            AddrSpace::Global => "__global",
            AddrSpace::Local => "__local",
            AddrSpace::Constant => "__constant",
            AddrSpace::Private => "__private",
        }
    }
}

/// A (possibly pointer) type as written in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClType {
    Void,
    Scalar(ScalarType),
    /// One level of pointer indirection with an address space.
    Ptr(AddrSpace, ScalarType),
}

/// Binary operators (also used as the `op` of compound assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    LogAnd,
    LogOr,
}

impl BinOp {
    /// True for operators whose result is `bool`/`int` 0-or-1.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// True for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `+e` (no-op, kept for fidelity)
    Plus,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
    /// `*e`
    Deref,
    /// `&e`
    AddrOf,
}

/// Postfix `++` / `--`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOp {
    Inc,
    Dec,
}

/// Expressions. Assignments are expressions syntactically (as in C);
/// semantic analysis restricts them to statement-like positions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit {
        value: u64,
        unsigned: bool,
        long: bool,
    },
    FloatLit {
        value: f64,
        f32: bool,
    },
    Ident(String),
    Bin {
        op: BinOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    Un {
        op: UnOp,
        e: Box<Expr>,
    },
    Post {
        op: PostOp,
        e: Box<Expr>,
    },
    Assign {
        op: Option<BinOp>,
        target: Box<Expr>,
        value: Box<Expr>,
    },
    Ternary {
        cond: Box<Expr>,
        t: Box<Expr>,
        f: Box<Expr>,
    },
    Call {
        name: String,
        args: Vec<Expr>,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    Cast {
        ty: ClType,
        e: Box<Expr>,
    },
}

impl Expr {
    /// Pre-order walk: `visit` sees this expression, then its
    /// sub-expressions left to right, each with everything below it.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::IntLit { .. } | Expr::FloatLit { .. } | Expr::Ident(_) => {}
            Expr::Bin { l: a, r: b, .. }
            | Expr::Assign {
                target: a,
                value: b,
                ..
            }
            | Expr::Index { base: a, index: b } => {
                a.walk(visit);
                b.walk(visit);
            }
            Expr::Un { e, .. } | Expr::Post { e, .. } | Expr::Cast { e, .. } => e.walk(visit),
            Expr::Ternary { cond, t, f } => {
                cond.walk(visit);
                t.walk(visit);
                f.walk(visit);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| a.walk(visit)),
        }
    }
}

/// One variable declared by a declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    pub name: String,
    /// `Some(len_expr)` for `T name[len]` array declarators.
    pub array_len: Option<Expr>,
    /// Extra pointer level on the declarator (`T *name`).
    pub is_pointer: bool,
    pub init: Option<Expr>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `__local float s[N];`, `int i = 0, j;` ...
    Decl {
        space: AddrSpace,
        base: ScalarType,
        decls: Vec<Declarator>,
    },
    Expr(Expr),
    If {
        cond: Expr,
        then_blk: Vec<Stmt>,
        else_blk: Vec<Stmt>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    DoWhile {
        body: Vec<Stmt>,
        cond: Expr,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Vec<Stmt>),
    /// `;`
    Empty,
}

impl Stmt {
    /// Calls `visit` on each expression this statement holds itself, in
    /// source order: declarator lengths and initialisers, the expression
    /// of an expression statement, conditions, a `for` step, a return
    /// value. Nested statements, a `for` init included, are
    /// [`walk_stmts`]'s.
    pub fn for_each_expr<'a>(&'a self, mut visit: impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Decl { decls, .. } => {
                for d in decls {
                    d.array_len.iter().chain(&d.init).for_each(&mut visit);
                }
            }
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => visit(e),
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::DoWhile { cond, .. } => visit(cond),
            StmtKind::For { cond, step, .. } => cond.iter().chain(step).for_each(visit),
            StmtKind::Return(None)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Block(_)
            | StmtKind::Empty => {}
        }
    }
}

/// Pre-order walk over `body`: `visit` sees each statement, then the
/// statements nested in it (a `for` init before its body, an `if`'s
/// then-block before its else-block).
pub fn walk_stmts<'a>(body: &'a [Stmt], visit: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        visit(s);
        match &s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                walk_stmts(then_blk, visit);
                walk_stmts(else_blk, visit);
            }
            StmtKind::For { init, body, .. } => {
                if let Some(init) = init {
                    walk_stmts(std::slice::from_ref(&**init), visit);
                }
                walk_stmts(body, visit);
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::Block(body) => walk_stmts(body, visit),
            StmtKind::Decl { .. }
            | StmtKind::Expr(_)
            | StmtKind::Return(_)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Empty => {}
        }
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub ty: ClType,
    /// `const`-qualified (informational; `__constant` is what matters).
    pub is_const: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub name: String,
    pub is_kernel: bool,
    pub ret: ClType,
    pub params: Vec<Param>,
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    pub funcs: Vec<FuncDef>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogAnd.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn addr_space_names() {
        assert_eq!(AddrSpace::Global.cl_name(), "__global");
        assert_eq!(AddrSpace::Private.cl_name(), "__private");
    }

    #[test]
    fn span_rendering() {
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
        assert_eq!(Span::line_only(12).to_string(), "12");
    }
}
