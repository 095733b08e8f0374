//! Typed executable IR produced by semantic analysis.
//!
//! The IR is a structured statement tree (not a flat CFG): the SIMT
//! interpreter relies on structured control flow to manage divergence masks
//! and to re-converge lanes, exactly like real GPU hardware relies on
//! structured reconvergence points. Every expression node carries its
//! resolved [`ScalarType`], so the interpreter never inspects types at
//! runtime beyond matching on the opcode.

use std::collections::HashMap;

use crate::clc::ast::AddrSpace;
use crate::types::ScalarType;

/// Index of a variable slot within a function frame.
pub type SlotId = usize;
/// Index of a function within a [`Module`].
pub type FuncId = usize;

/// What a frame slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A per-lane scalar register.
    Scalar(ScalarType),
    /// A per-lane pointer register.
    Ptr { space: AddrSpace, elem: ScalarType },
}

/// A statically-sized array allocation (local scratchpad or private).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAlloc {
    pub elem: ScalarType,
    pub len: usize,
    /// Byte offset of the allocation within its arena (assigned by sema).
    pub byte_offset: usize,
}

impl ArrayAlloc {
    /// Size of one copy of the array in bytes.
    pub fn byte_len(&self) -> usize {
        self.elem.size() * self.len
    }
}

/// Binary arithmetic / bitwise opcodes. The operand type is carried by the
/// enclosing [`Ex::Bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Comparison opcodes; result is `Bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum COp {
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

/// Unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UOp {
    Neg,
    Not,
    BitNot,
}

/// Built-in functions known to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    // work-item identification; the dimension argument is an IR expression
    GetGlobalId,
    GetLocalId,
    GetGroupId,
    GetGlobalSize,
    GetLocalSize,
    GetNumGroups,
    GetWorkDim,
    // float math (operate at the type of the enclosing node)
    Sqrt,
    Rsqrt,
    Fabs,
    Exp,
    Log,
    Log2,
    Pow,
    Sin,
    Cos,
    Tan,
    Floor,
    Ceil,
    Trunc,
    Round,
    Fmod,
    Fmax,
    Fmin,
    Mad,
    Fma,
    // integer
    MaxI,
    MinI,
    AbsI,
    // atomics on 32-bit global/local integers; return the old value
    AtomicAdd,
    AtomicSub,
    AtomicInc,
    AtomicDec,
    AtomicXchg,
    AtomicMin,
    AtomicMax,
}

impl Builtin {
    /// True for the work-item geometry queries.
    pub fn is_geometry(self) -> bool {
        matches!(
            self,
            Builtin::GetGlobalId
                | Builtin::GetLocalId
                | Builtin::GetGroupId
                | Builtin::GetGlobalSize
                | Builtin::GetLocalSize
                | Builtin::GetNumGroups
                | Builtin::GetWorkDim
        )
    }

    /// True for atomics (side-effecting; never reordered or masked out).
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            Builtin::AtomicAdd
                | Builtin::AtomicSub
                | Builtin::AtomicInc
                | Builtin::AtomicDec
                | Builtin::AtomicXchg
                | Builtin::AtomicMin
                | Builtin::AtomicMax
        )
    }
}

/// Typed expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Ex {
    /// A literal; bits are the canonical register representation.
    Const { bits: u64, ty: ScalarType },
    /// Read a scalar or pointer slot.
    Slot { slot: SlotId, ty: ScalarType },
    /// Pointer value of a local-array allocation.
    LocalBase { alloc: usize, elem: ScalarType },
    /// Pointer value of a private-array allocation (per-lane copy).
    PrivBase { alloc: usize, elem: ScalarType },
    /// Pointer + element offset.
    PtrAdd {
        ptr: Box<Ex>,
        offset: Box<Ex>,
        elem_size: usize,
    },
    /// Load `elem` through a pointer.
    Load {
        addr: Box<Ex>,
        elem: ScalarType,
        space: AddrSpace,
    },
    /// Binary arithmetic at `ty`.
    Bin {
        op: BOp,
        ty: ScalarType,
        l: Box<Ex>,
        r: Box<Ex>,
    },
    /// Comparison of operands at `ty`; yields Bool.
    Cmp {
        op: COp,
        ty: ScalarType,
        l: Box<Ex>,
        r: Box<Ex>,
    },
    /// Short-circuit `&&` (RHS evaluated only for lanes where LHS holds).
    LogAnd { l: Box<Ex>, r: Box<Ex> },
    /// Short-circuit `||`.
    LogOr { l: Box<Ex>, r: Box<Ex> },
    /// Unary op at `ty`.
    Un { op: UOp, ty: ScalarType, e: Box<Ex> },
    /// Numeric conversion.
    Cast {
        from: ScalarType,
        to: ScalarType,
        e: Box<Ex>,
    },
    /// Built-in call. `ty` is the result type.
    CallBuiltin {
        b: Builtin,
        ty: ScalarType,
        args: Vec<Ex>,
    },
    /// User helper-function call.
    CallFunc {
        func: FuncId,
        ret: ScalarType,
        args: Vec<Ex>,
    },
    /// `cond ? t : f` evaluated with per-lane masking.
    Select {
        cond: Box<Ex>,
        t: Box<Ex>,
        f: Box<Ex>,
        ty: ScalarType,
    },
}

impl Ex {
    /// Result type of this expression.
    pub fn ty(&self) -> ScalarType {
        match self {
            Ex::Const { ty, .. }
            | Ex::Slot { ty, .. }
            | Ex::Bin { ty, .. }
            | Ex::Un { ty, .. }
            | Ex::CallBuiltin { ty, .. }
            | Ex::CallFunc { ret: ty, .. }
            | Ex::Select { ty, .. } => *ty,
            Ex::Load { elem, .. } => *elem,
            Ex::Cast { to, .. } => *to,
            Ex::Cmp { .. } | Ex::LogAnd { .. } | Ex::LogOr { .. } => ScalarType::Bool,
            // pointers evaluate to U64 pointer bits
            Ex::LocalBase { .. } | Ex::PrivBase { .. } | Ex::PtrAdd { .. } => ScalarType::U64,
        }
    }

    /// Calls `visit` on each operand of this node, in evaluation order.
    pub fn for_each_child<'a>(&'a self, mut visit: impl FnMut(&'a Ex)) {
        match self {
            Ex::Const { .. } | Ex::Slot { .. } | Ex::LocalBase { .. } | Ex::PrivBase { .. } => {}
            Ex::PtrAdd {
                ptr: l, offset: r, ..
            }
            | Ex::Bin { l, r, .. }
            | Ex::Cmp { l, r, .. }
            | Ex::LogAnd { l, r }
            | Ex::LogOr { l, r } => {
                visit(l);
                visit(r);
            }
            Ex::Load { addr: e, .. } | Ex::Un { e, .. } | Ex::Cast { e, .. } => visit(e),
            Ex::CallBuiltin { args, .. } | Ex::CallFunc { args, .. } => args.iter().for_each(visit),
            Ex::Select { cond, t, f, .. } => {
                visit(cond);
                visit(t);
                visit(f);
            }
        }
    }

    /// [`Ex::for_each_child`] handing out the operands mutably.
    pub fn for_each_child_mut(&mut self, mut visit: impl FnMut(&mut Ex)) {
        match self {
            Ex::Const { .. } | Ex::Slot { .. } | Ex::LocalBase { .. } | Ex::PrivBase { .. } => {}
            Ex::PtrAdd {
                ptr: l, offset: r, ..
            }
            | Ex::Bin { l, r, .. }
            | Ex::Cmp { l, r, .. }
            | Ex::LogAnd { l, r }
            | Ex::LogOr { l, r } => {
                visit(l);
                visit(r);
            }
            Ex::Load { addr: e, .. } | Ex::Un { e, .. } | Ex::Cast { e, .. } => visit(e),
            Ex::CallBuiltin { args, .. } | Ex::CallFunc { args, .. } => {
                args.iter_mut().for_each(visit)
            }
            Ex::Select { cond, t, f, .. } => {
                visit(cond);
                visit(t);
                visit(f);
            }
        }
    }

    /// Pre-order walk: `visit` sees this node, then every node below it.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Ex)) {
        visit(self);
        self.for_each_child(|c| c.walk(visit));
    }

    /// Pre-order walk that may rewrite each node in place. The walk goes
    /// on into the operands of whatever node `visit` leaves behind, so a
    /// node replaced by a leaf is not searched further.
    pub fn walk_mut(&mut self, visit: &mut impl FnMut(&mut Ex)) {
        visit(self);
        self.for_each_child_mut(|c| c.walk_mut(visit));
    }
}

/// A typed statement plus the source line it was lowered from.
///
/// The span survives all the way from the `clc` parser into the
/// interpreter, where it attributes per-line hardware counters back to
/// the OpenCL C source (and, through HPL's line map, to the DSL
/// recording site that generated that source).
#[derive(Debug, Clone, PartialEq)]
pub struct St {
    pub kind: StKind,
    /// 1-based source line/column of the statement; line 0 = unknown
    /// (synthetic statements built by tests or desugaring helpers).
    pub span: crate::clc::ast::Span,
}

impl St {
    /// A statement carrying its source span.
    pub fn new(kind: StKind, span: crate::clc::ast::Span) -> St {
        St { kind, span }
    }

    /// Calls `visit` on each expression this statement evaluates itself,
    /// in evaluation order. Nested blocks are not entered: their
    /// statements are visited by [`for_each_stmt`].
    pub fn for_each_expr<'a>(&'a self, mut visit: impl FnMut(&'a Ex)) {
        match &self.kind {
            StKind::SetSlot { value, .. } => visit(value),
            StKind::Store { addr, value, .. } => {
                visit(addr);
                visit(value);
            }
            StKind::If { cond, .. } | StKind::Loop { cond, .. } => visit(cond),
            StKind::Return(Some(e)) | StKind::ExprSt(e) => visit(e),
            StKind::Return(None) | StKind::Break | StKind::Continue | StKind::Barrier { .. } => {}
        }
    }

    /// [`St::for_each_expr`] handing out the expressions mutably.
    pub fn for_each_expr_mut(&mut self, mut visit: impl FnMut(&mut Ex)) {
        match &mut self.kind {
            StKind::SetSlot { value, .. } => visit(value),
            StKind::Store { addr, value, .. } => {
                visit(addr);
                visit(value);
            }
            StKind::If { cond, .. } | StKind::Loop { cond, .. } => visit(cond),
            StKind::Return(Some(e)) | StKind::ExprSt(e) => visit(e),
            StKind::Return(None) | StKind::Break | StKind::Continue | StKind::Barrier { .. } => {}
        }
    }
}

/// Walk a statement tree in the canonical pre-order, handing each
/// statement its sequential id (`sid`): a statement comes before the
/// statements of its blocks, an `If`'s then-block before its else-block,
/// a `Loop`'s body before its step. `dataflow::Cfg::build` numbers its
/// steps the same way, which is what lets the rewriting passes in
/// `clc::opt` apply per-`sid` CFG facts back onto the tree.
pub fn for_each_stmt<'a>(body: &'a [St], visit: &mut impl FnMut(usize, &'a St)) {
    fn go<'a>(body: &'a [St], next: &mut usize, visit: &mut impl FnMut(usize, &'a St)) {
        for st in body {
            let sid = *next;
            *next += 1;
            visit(sid, st);
            match &st.kind {
                StKind::If {
                    then_blk: a,
                    else_blk: b,
                    ..
                }
                | StKind::Loop {
                    body: a, step: b, ..
                } => {
                    go(a, next, visit);
                    go(b, next, visit);
                }
                _ => {}
            }
        }
    }
    go(body, &mut 0, visit)
}

/// [`for_each_stmt`] handing out the statements mutably. `visit` sees a
/// statement before its blocks, so the blocks it leaves behind are the
/// ones walked.
pub fn for_each_stmt_mut(body: &mut [St], visit: &mut impl FnMut(usize, &mut St)) {
    fn go(body: &mut [St], next: &mut usize, visit: &mut impl FnMut(usize, &mut St)) {
        for st in body {
            let sid = *next;
            *next += 1;
            visit(sid, st);
            match &mut st.kind {
                StKind::If {
                    then_blk: a,
                    else_blk: b,
                    ..
                }
                | StKind::Loop {
                    body: a, step: b, ..
                } => {
                    go(a, next, visit);
                    go(b, next, visit);
                }
                _ => {}
            }
        }
    }
    go(body, &mut 0, visit)
}

impl From<StKind> for St {
    /// A synthetic statement with no source location.
    fn from(kind: StKind) -> St {
        St {
            kind,
            span: crate::clc::ast::Span { line: 0, col: 0 },
        }
    }
}

/// Typed statements.
#[derive(Debug, Clone, PartialEq)]
pub enum StKind {
    /// Write a slot.
    SetSlot {
        slot: SlotId,
        value: Ex,
    },
    /// Store through a pointer.
    Store {
        addr: Ex,
        elem: ScalarType,
        space: AddrSpace,
        value: Ex,
    },
    If {
        cond: Ex,
        then_blk: Vec<St>,
        else_blk: Vec<St>,
    },
    /// Unified loop: `while` / `for` (`check_first = true`) and `do..while`
    /// (`check_first = false`). `step` runs after the body each iteration,
    /// including on `continue`.
    Loop {
        cond: Ex,
        body: Vec<St>,
        step: Vec<St>,
        check_first: bool,
    },
    Return(Option<Ex>),
    Break,
    Continue,
    /// Work-group barrier with memory-fence flags.
    Barrier {
        local_fence: bool,
        global_fence: bool,
    },
    /// Expression evaluated for side effects (atomics, void helper calls).
    ExprSt(Ex),
}

/// How a kernel parameter is bound at launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// `__global T*`
    GlobalPtr { elem: ScalarType },
    /// `__constant T*`
    ConstantPtr { elem: ScalarType },
    /// `__local T*` (size provided at launch; not yet supported by the
    /// public API, kept for IR completeness)
    LocalPtr { elem: ScalarType },
    /// Scalar passed by value.
    Scalar(ScalarType),
}

/// A kernel/helper parameter with access summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamInfo {
    pub name: String,
    pub kind: ParamKind,
    /// Whether the function (transitively) reads through this parameter.
    pub reads: bool,
    /// Whether the function (transitively) writes through this parameter.
    pub writes: bool,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncIr {
    pub name: String,
    pub is_kernel: bool,
    pub ret: Option<ScalarType>,
    pub params: Vec<ParamInfo>,
    /// Slot table; slots `0..params.len()` hold the parameters.
    pub slots: Vec<SlotKind>,
    /// Work-group scratchpad allocations (kernels only).
    pub local_allocs: Vec<ArrayAlloc>,
    /// Per-lane private array allocations.
    pub priv_allocs: Vec<ArrayAlloc>,
    pub body: Vec<St>,
    /// True if any instruction operates on `double` (fp64 capability gate).
    pub uses_fp64: bool,
    /// Whether the function contains a barrier (directly or transitively).
    pub has_barrier: bool,
}

impl FuncIr {
    /// Total scratchpad bytes needed per work-group.
    pub fn local_bytes(&self) -> usize {
        self.local_allocs.iter().map(|a| a.byte_len()).sum()
    }

    /// Private arena bytes needed per lane.
    pub fn priv_bytes_per_lane(&self) -> usize {
        self.priv_allocs.iter().map(|a| a.byte_len()).sum()
    }
}

/// A compiled translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    pub funcs: Vec<FuncIr>,
    /// Kernel name → function index.
    pub kernels: HashMap<String, FuncId>,
    /// Lazily computed wg-backend execution plan (identity state: clones
    /// start empty and every instance compares equal, so the derives above
    /// keep their value semantics).
    pub wg_plans: crate::exec::wg::PlanCache,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_types() {
        let c = Ex::Const {
            bits: 1,
            ty: ScalarType::I32,
        };
        assert_eq!(c.ty(), ScalarType::I32);
        let cmp = Ex::Cmp {
            op: COp::Lt,
            ty: ScalarType::I32,
            l: Box::new(c.clone()),
            r: Box::new(c.clone()),
        };
        assert_eq!(cmp.ty(), ScalarType::Bool);
        let p = Ex::PtrAdd {
            ptr: Box::new(Ex::Slot {
                slot: 0,
                ty: ScalarType::U64,
            }),
            offset: Box::new(c),
            elem_size: 4,
        };
        assert_eq!(p.ty(), ScalarType::U64);
    }

    #[test]
    fn alloc_sizes() {
        let a = ArrayAlloc {
            elem: ScalarType::F64,
            len: 10,
            byte_offset: 0,
        };
        assert_eq!(a.byte_len(), 80);
    }

    #[test]
    fn builtin_classification() {
        assert!(Builtin::GetGlobalId.is_geometry());
        assert!(!Builtin::Sqrt.is_geometry());
        assert!(Builtin::AtomicAdd.is_atomic());
        assert!(!Builtin::Fmax.is_atomic());
    }
}
