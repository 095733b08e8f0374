//! Dataflow analysis framework over the executable IR.
//!
//! The IR ([`crate::exec::ir`]) is a structured statement tree; this module
//! builds an explicit control-flow graph view over it — basic blocks of
//! [`Step`]s with predecessor/successor edges — and runs a
//! generic worklist fixpoint solver parameterized by an [`Analysis`]
//! implementation. Four concrete analyses are provided:
//!
//! - [`ConstProp`]: constant/copy propagation (which slot holds a known
//!   constant or is a copy of another slot at each point),
//! - [`Intervals`]: integer value ranges with widening, seeded from the
//!   non-negativity of the work-item geometry builtins,
//! - [`Liveness`]: backward slot liveness (the substrate for dead-code
//!   elimination),
//! - [`Uniformity`]: which slots provably hold the same value on every
//!   work-item (launch-uniform) or every work-item of a group
//!   (group-uniform), refined beyond the sanitizer's syntactic AST version
//!   by running to a fixpoint through loops and by tracking the uniformity
//!   of the enclosing branch conditions.
//!
//! Every [`Step`] carries the `sid` (sequential pre-order statement id,
//! see [`for_each_stmt`]) and span of the tree statement it came
//! from, so the optimizer ([`super::opt`]) and the sanitizer refinement
//! ([`super::analysis`]) can map CFG-level facts back onto the tree and
//! onto source lines. All iteration orders are deterministic: facts and
//! worklists are index- or BTree-based, never hash-ordered.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::clc::ast::{AddrSpace, Span};
use crate::exec::ir::{for_each_stmt, BOp, Builtin, COp, Ex, FuncIr, SlotKind, St, StKind, UOp};
use crate::exec::ops;
use crate::telemetry::{Counter, Metrics};
use crate::types::ScalarType;

// ---- CFG --------------------------------------------------------------------

/// Index of a basic block within its [`Cfg`].
pub type BlockId = usize;

/// One executable step of a basic block. References point into the
/// function's statement tree; `sid` identifies the owning tree statement.
pub struct Step<'a> {
    /// Pre-order statement id (see [`for_each_stmt`]).
    pub sid: usize,
    /// Source span of the owning statement.
    pub span: Span,
    pub op: StepOp<'a>,
}

impl<'a> Step<'a> {
    /// The expressions the step evaluates, in evaluation order.
    pub fn exprs(&self) -> impl Iterator<Item = &'a Ex> {
        let (first, second) = match self.op {
            StepOp::Set { value: e, .. } | StepOp::Eval(e) | StepOp::Cond(e) => (Some(e), None),
            StepOp::Store { addr, value, .. } => (Some(addr), Some(value)),
            StepOp::Barrier => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// What a [`Step`] does.
pub enum StepOp<'a> {
    /// `SetSlot`: evaluate `value`, write it to `slot`.
    Set { slot: usize, value: &'a Ex },
    /// `Store`: evaluate address and value, write through the pointer.
    Store {
        addr: &'a Ex,
        value: &'a Ex,
        space: AddrSpace,
        elem: ScalarType,
    },
    /// Expression evaluated for effect (`ExprSt`, `Return` values).
    Eval(&'a Ex),
    /// Branch condition of an `If` or `Loop` (the step ends its block).
    Cond(&'a Ex),
    /// Work-group barrier.
    Barrier,
}

/// A basic block: straight-line steps plus explicit edges.
pub struct Block<'a> {
    pub steps: Vec<Step<'a>>,
    pub preds: Vec<BlockId>,
    pub succs: Vec<BlockId>,
    /// Statement ids of the enclosing `If`/`Loop` conditions (innermost
    /// last) — the structural control context of every step in the block.
    /// Exact for this IR because control flow is fully structured.
    pub ctrl: Vec<usize>,
}

/// Control-flow graph of one function.
pub struct Cfg<'a> {
    pub blocks: Vec<Block<'a>>,
    pub entry: BlockId,
    pub exit: BlockId,
    /// Total statements numbered (tree statements, not steps).
    pub n_statements: usize,
}

struct CfgBuilder<'a> {
    blocks: Vec<Block<'a>>,
    cur: BlockId,
    exit: BlockId,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
    ctrl: Vec<usize>,
    next_sid: usize,
}

impl<'a> CfgBuilder<'a> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            steps: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            ctrl: self.ctrl.clone(),
        });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        self.blocks[from].succs.push(to);
        self.blocks[to].preds.push(from);
    }

    fn push(&mut self, sid: usize, span: Span, op: StepOp<'a>) {
        let cur = self.cur;
        self.blocks[cur].steps.push(Step { sid, span, op });
    }

    fn lower(&mut self, body: &'a [St]) {
        for st in body {
            let sid = self.next_sid;
            self.next_sid += 1;
            match &st.kind {
                StKind::SetSlot { slot, value } => {
                    self.push(sid, st.span, StepOp::Set { slot: *slot, value });
                }
                StKind::Store {
                    addr,
                    elem,
                    space,
                    value,
                } => {
                    self.push(
                        sid,
                        st.span,
                        StepOp::Store {
                            addr,
                            value,
                            space: *space,
                            elem: *elem,
                        },
                    );
                }
                StKind::ExprSt(e) => self.push(sid, st.span, StepOp::Eval(e)),
                StKind::Barrier { .. } => self.push(sid, st.span, StepOp::Barrier),
                StKind::Return(val) => {
                    if let Some(v) = val {
                        self.push(sid, st.span, StepOp::Eval(v));
                    }
                    let cur = self.cur;
                    self.edge(cur, self.exit);
                    // statements after an unconditional return are
                    // unreachable; they land in a fresh block with no preds
                    self.cur = self.new_block();
                }
                StKind::Break => {
                    let (_, brk) = *self
                        .loop_stack
                        .last()
                        .expect("sema guarantees break is inside a loop");
                    let cur = self.cur;
                    self.edge(cur, brk);
                    self.cur = self.new_block();
                }
                StKind::Continue => {
                    let (cont, _) = *self
                        .loop_stack
                        .last()
                        .expect("sema guarantees continue is inside a loop");
                    let cur = self.cur;
                    self.edge(cur, cont);
                    self.cur = self.new_block();
                }
                StKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.push(sid, st.span, StepOp::Cond(cond));
                    let branch = self.cur;
                    self.ctrl.push(sid);
                    let then_entry = self.new_block();
                    let else_entry = self.new_block();
                    self.edge(branch, then_entry);
                    self.edge(branch, else_entry);
                    self.cur = then_entry;
                    self.lower(then_blk);
                    let then_end = self.cur;
                    self.cur = else_entry;
                    self.lower(else_blk);
                    let else_end = self.cur;
                    self.ctrl.pop();
                    let join = self.new_block();
                    self.edge(then_end, join);
                    self.edge(else_end, join);
                    self.cur = join;
                }
                StKind::Loop {
                    cond,
                    body,
                    step,
                    check_first,
                } => {
                    self.ctrl.push(sid);
                    // the header holds the condition; body → step → header
                    // is the back edge; header → exit leaves the loop
                    let header = self.new_block();
                    self.blocks[header].steps.push(Step {
                        sid,
                        span: st.span,
                        op: StepOp::Cond(cond),
                    });
                    let body_entry = self.new_block();
                    let step_entry = self.new_block();
                    self.ctrl.pop();
                    let exit = self.new_block();
                    self.ctrl.push(sid);
                    let pre = self.cur;
                    if *check_first {
                        self.edge(pre, header);
                    } else {
                        // do..while: the body runs once before the first test
                        self.edge(pre, body_entry);
                    }
                    self.edge(header, body_entry);
                    self.edge(header, exit);
                    self.loop_stack.push((step_entry, exit));
                    self.cur = body_entry;
                    self.lower(body);
                    let body_end = self.cur;
                    self.edge(body_end, step_entry);
                    self.cur = step_entry;
                    self.lower(step);
                    let step_end = self.cur;
                    self.edge(step_end, header);
                    self.loop_stack.pop();
                    self.ctrl.pop();
                    self.cur = exit;
                }
            }
        }
    }
}

impl<'a> Cfg<'a> {
    /// Build the CFG view of a function body.
    pub fn build(f: &'a FuncIr) -> Cfg<'a> {
        crate::telemetry::metrics().cfg_builds.inc();
        let mut b = CfgBuilder {
            blocks: Vec::new(),
            cur: 0,
            exit: 0,
            loop_stack: Vec::new(),
            ctrl: Vec::new(),
            next_sid: 0,
        };
        let entry = b.new_block();
        let exit = b.new_block();
        b.cur = entry;
        b.exit = exit;
        b.lower(&f.body);
        // falling off the end of the body returns
        let last = b.cur;
        b.edge(last, exit);
        Cfg {
            blocks: b.blocks,
            entry,
            exit,
            n_statements: b.next_sid,
        }
    }
}

// ---- generic worklist solver ------------------------------------------------

/// Analysis direction. For [`Direction::Backward`] the solver walks edges
/// reversed and each block's steps in reverse order; "flow-in" then means
/// the fact at the block's *end* in execution order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    Forward,
    Backward,
}

/// A dataflow problem: a join-semilattice of facts plus a transfer
/// function over [`Step`]s. `transfer` takes `&mut self` so analyses can
/// accumulate global state (e.g. [`Uniformity`] caches branch-condition
/// facts); the solver re-runs to a fixpoint of that state too (see
/// [`Analysis::reset_changed`]).
pub trait Analysis<'a> {
    type Fact: Clone + PartialEq;

    /// This analysis's `oclsim_clc_dataflow_solves_total` counter.
    const SOLVES: fn(&Metrics) -> &Counter;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    /// Fact at the boundary block (entry for forward, exit for backward).
    fn boundary(&self, cfg: &Cfg<'a>) -> Self::Fact;

    /// Join `other` into `into`, returning whether `into` changed.
    /// `visits` counts how often the target block's flow-in has changed —
    /// interval analyses widen once it exceeds a threshold to force
    /// termination.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact, visits: u32) -> bool;

    /// Apply one step. `ctrl` is the owning block's structural control
    /// context (sids of enclosing branch conditions).
    fn transfer(&mut self, step: &Step<'a>, ctrl: &[usize], fact: &mut Self::Fact);

    /// Whether analysis-internal state changed since the last call (the
    /// solver then reruns the worklist until it reports false).
    fn reset_changed(&mut self) -> bool {
        false
    }
}

/// Fixpoint result: per-block facts in the analysis direction.
pub struct Solution<F> {
    /// Fact entering each block (at its start for forward analyses, at its
    /// end for backward ones). `None` = never reached.
    pub flow_in: Vec<Option<F>>,
    /// Fact after all of the block's steps, in the analysis direction.
    pub flow_out: Vec<Option<F>>,
}

/// Run `a` over `cfg` to a fixpoint with a deterministic FIFO worklist.
/// Visits reuse one working fact (`clone_from`) and joins work in place.
pub fn solve<'a, A: Analysis<'a>>(cfg: &Cfg<'a>, a: &mut A) -> Solution<A::Fact> {
    (A::SOLVES)(crate::telemetry::metrics()).inc();
    let n = cfg.blocks.len();
    let backward = a.direction() == Direction::Backward;
    let boundary_block = if backward { cfg.exit } else { cfg.entry };
    let mut flow_in: Vec<Option<A::Fact>> = vec![None; n];
    let mut flow_out: Vec<Option<A::Fact>> = vec![None; n];
    let mut visits = vec![0u32; n];
    let mut queue: VecDeque<BlockId> = VecDeque::new();
    let mut queued = vec![false; n];
    let mut fact = None;
    loop {
        if flow_in[boundary_block].is_none() {
            flow_in[boundary_block] = Some(a.boundary(cfg));
        }
        // re-seed every block already reached so analysis-internal state
        // changes (see reset_changed) propagate everywhere
        for b in 0..n {
            if flow_in[b].is_some() {
                queue.push_back(b);
                queued[b] = true;
            }
        }
        while let Some(b) = queue.pop_front() {
            queued[b] = false;
            let start = flow_in[b].as_ref().expect("queued blocks are reached");
            let f = copy_into(&mut fact, start);
            let block = &cfg.blocks[b];
            transfer_block(a, block, backward, f, |_, _| {});
            if flow_out[b].as_ref() == Some(&*f) {
                continue;
            }
            // the old flow-out becomes the next visit's working buffer
            fact = std::mem::replace(&mut flow_out[b], fact.take());
            let out = flow_out[b].as_ref().expect("just set");
            let nexts = if backward { &block.preds } else { &block.succs };
            for &s in nexts {
                let update = match &mut flow_in[s] {
                    slot @ None => {
                        *slot = Some(out.clone());
                        true
                    }
                    Some(cur) => {
                        let changed = a.join(cur, out, visits[s]);
                        visits[s] += changed as u32;
                        changed
                    }
                };
                if update && !queued[s] {
                    queue.push_back(s);
                    queued[s] = true;
                }
            }
        }
        if !a.reset_changed() {
            break;
        }
    }
    Solution { flow_in, flow_out }
}

/// Make `buf` a copy of `src`, reusing its allocation when it has one.
fn copy_into<'b, F: Clone>(buf: &'b mut Option<F>, src: &F) -> &'b mut F {
    match buf {
        Some(b) => {
            b.clone_from(src);
            b
        }
        None => buf.insert(src.clone()),
    }
}

/// Replay the solved facts through every reached block, calling `visit`
/// with the fact *before* each step's transfer (in the analysis direction:
/// for a backward analysis that is the fact *after* the step in execution
/// order — e.g. liveness-out, exactly what dead-code elimination wants).
pub fn fact_at_each_step<'a, A: Analysis<'a>>(
    cfg: &Cfg<'a>,
    a: &mut A,
    sol: &Solution<A::Fact>,
    mut visit: impl FnMut(&Step<'a>, &A::Fact),
) {
    let backward = a.direction() == Direction::Backward;
    let mut buf = None;
    for (block, start) in cfg.blocks.iter().zip(&sol.flow_in) {
        if let Some(start) = start {
            transfer_block(a, block, backward, copy_into(&mut buf, start), &mut visit);
        }
    }
}

/// Apply `a` to every step of `block` in the analysis direction, showing
/// `visit` the fact before each step.
fn transfer_block<'a, A: Analysis<'a>>(
    a: &mut A,
    block: &Block<'a>,
    backward: bool,
    fact: &mut A::Fact,
    mut visit: impl FnMut(&Step<'a>, &A::Fact),
) {
    let mut step = |step: &Step<'a>| {
        visit(step, fact);
        a.transfer(step, &block.ctrl, fact);
    };
    if backward {
        block.steps.iter().rev().for_each(&mut step);
    } else {
        block.steps.iter().for_each(&mut step);
    }
}

// ---- purity / trap classification -------------------------------------------

/// True when evaluating `e` has no side effects and can never trap, for
/// any lane values. This is the speculation gate used by DCE, CSE and
/// LICM: loads can fault, integer `Div`/`Rem` traps on a zero divisor
/// (unless the divisor is a provably nonzero constant), atomics and
/// helper calls are side-effecting.
pub fn pure_nontrapping(e: &Ex) -> bool {
    match e {
        Ex::Const { .. } | Ex::Slot { .. } | Ex::LocalBase { .. } | Ex::PrivBase { .. } => true,
        Ex::PtrAdd { ptr, offset, .. } => pure_nontrapping(ptr) && pure_nontrapping(offset),
        Ex::Load { .. } => false,
        Ex::Bin { op, ty, l, r } => {
            let div_ok = !matches!(op, BOp::Div | BOp::Rem)
                || ty.is_float() // float division does not trap
                || matches!(**r, Ex::Const { bits, .. } if bits != 0);
            div_ok && pure_nontrapping(l) && pure_nontrapping(r)
        }
        Ex::Cmp { l, r, .. } => pure_nontrapping(l) && pure_nontrapping(r),
        Ex::LogAnd { l, r } | Ex::LogOr { l, r } => pure_nontrapping(l) && pure_nontrapping(r),
        Ex::Un { e, .. } => pure_nontrapping(e),
        Ex::Cast { e, .. } => pure_nontrapping(e),
        Ex::CallBuiltin { b, args, .. } => !b.is_atomic() && args.iter().all(pure_nontrapping),
        Ex::CallFunc { .. } => false,
        Ex::Select { cond, t, f, .. } => {
            pure_nontrapping(cond) && pure_nontrapping(t) && pure_nontrapping(f)
        }
    }
}

// ---- constant / copy propagation --------------------------------------------

/// Lattice value of one slot for [`ConstProp`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SlotVal {
    /// No information (lattice top).
    Unknown,
    /// The slot provably holds this constant on every lane.
    Const { bits: u64, ty: ScalarType },
    /// The slot provably holds the same value as another slot.
    Copy(usize),
}

/// Forward constant/copy propagation over slots.
pub struct ConstProp {
    nparams: usize,
    slots: Vec<SlotKind>,
    /// Whether `f` has an `x = y` statement, the only source of
    /// [`SlotVal::Copy`] facts (and so of stale copies to sweep).
    copies: bool,
}

impl ConstProp {
    pub fn new(f: &FuncIr) -> ConstProp {
        let mut copies = false;
        for_each_stmt(&f.body, &mut |_, st| {
            if let StKind::SetSlot { value, .. } = &st.kind {
                copies |= matches!(value, Ex::Slot { .. });
            }
        });
        ConstProp {
            nparams: f.params.len(),
            slots: f.slots.clone(),
            copies,
        }
    }
}

/// Constant-evaluate `e` under per-slot facts, using the *same* arithmetic
/// as the interpreter ([`crate::exec::ops`]) so folding never diverges from
/// execution. Trapping operations (`Div`/`Rem` with a zero divisor) and
/// loads/calls are never folded. `facts` may be empty for pure
/// context-free folding.
pub fn eval_const(e: &Ex, facts: &[SlotVal]) -> Option<(u64, ScalarType)> {
    match e {
        Ex::Const { bits, ty } => Some((*bits, *ty)),
        Ex::Slot { slot, .. } => match facts.get(*slot)? {
            SlotVal::Const { bits, ty } => Some((*bits, *ty)),
            _ => None,
        },
        Ex::Bin { op, ty, l, r } => {
            let (a, _) = eval_const(l, facts)?;
            let (b, _) = eval_const(r, facts)?;
            ops::bin_op(*op, *ty, a, b).ok().map(|v| (v, *ty))
        }
        Ex::Cmp { op, ty, l, r } => {
            let (a, _) = eval_const(l, facts)?;
            let (b, _) = eval_const(r, facts)?;
            Some((ops::cmp_op(*op, *ty, a, b), ScalarType::Bool))
        }
        Ex::LogAnd { l, r } => {
            let (a, _) = eval_const(l, facts)?;
            if a == 0 {
                return Some((0, ScalarType::Bool)); // short-circuit
            }
            let (b, _) = eval_const(r, facts)?;
            Some(((b != 0) as u64, ScalarType::Bool))
        }
        Ex::LogOr { l, r } => {
            let (a, _) = eval_const(l, facts)?;
            if a != 0 {
                return Some((1, ScalarType::Bool));
            }
            let (b, _) = eval_const(r, facts)?;
            Some(((b != 0) as u64, ScalarType::Bool))
        }
        Ex::Un { op, ty, e } => {
            let (a, _) = eval_const(e, facts)?;
            Some((ops::un_op(*op, *ty, a), *ty))
        }
        Ex::Cast { from, to, e } => {
            let (a, _) = eval_const(e, facts)?;
            Some((ops::cast_bits(a, *from, *to), *to))
        }
        Ex::Select { cond, t, f, ty } => {
            let (c, _) = eval_const(cond, facts)?;
            // only the chosen branch is ever evaluated at run time, so
            // folding it away needs no purity check on the other branch
            let (v, _) = eval_const(if c != 0 { t } else { f }, facts)?;
            Some((v, *ty))
        }
        // builtins, loads, calls and pointer values are never folded
        _ => None,
    }
}

impl<'a> Analysis<'a> for ConstProp {
    type Fact = Vec<SlotVal>;
    const SOLVES: fn(&Metrics) -> &Counter = |m| &m.solves_const_prop;

    fn boundary(&self, _cfg: &Cfg<'a>) -> Self::Fact {
        // parameters hold launch arguments (unknown); every other slot is
        // zero-initialized by the interpreter, which the lattice may use
        self.slots
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                if i < self.nparams {
                    SlotVal::Unknown
                } else {
                    match kind {
                        SlotKind::Scalar(ty) => SlotVal::Const { bits: 0, ty: *ty },
                        SlotKind::Ptr { .. } => SlotVal::Unknown,
                    }
                }
            })
            .collect()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact, _visits: u32) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(other) {
            if a != b && *a != SlotVal::Unknown {
                *a = SlotVal::Unknown;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&mut self, step: &Step<'a>, _ctrl: &[usize], fact: &mut Self::Fact) {
        if let StepOp::Set { slot, value } = &step.op {
            let new = if let Some((bits, ty)) = eval_const(value, fact) {
                SlotVal::Const { bits, ty }
            } else if let Ex::Slot { slot: src, .. } = value {
                if src == slot {
                    return; // x = x: no change
                }
                match fact[*src] {
                    // collapse copy chains so a later invalidation of the
                    // middle slot cannot orphan the fact
                    SlotVal::Copy(root) => SlotVal::Copy(root),
                    _ => SlotVal::Copy(*src),
                }
            } else {
                SlotVal::Unknown
            };
            if matches!(new, SlotVal::Copy(root) if root == *slot) {
                // x = y where y already holds x's value: x is unchanged
                return;
            }
            // copies of the overwritten slot go stale
            if self.copies {
                for v in fact.iter_mut() {
                    if matches!(v, SlotVal::Copy(s) if s == slot) {
                        *v = SlotVal::Unknown;
                    }
                }
            }
            fact[*slot] = new;
        }
    }
}

// ---- integer value-range (interval) analysis --------------------------------

/// A closed integer interval, `i128`-saturating. `TOP` = unbounded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    pub lo: i128,
    pub hi: i128,
}

impl Interval {
    pub const TOP: Interval = Interval {
        lo: i128::MIN,
        hi: i128::MAX,
    };

    pub fn exact(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    pub fn new(lo: i128, hi: i128) -> Interval {
        Interval { lo, hi }
    }

    fn union(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    fn intersect(self, o: Interval) -> Interval {
        // an empty intersection can only arise on unreachable paths; keep
        // a well-formed (collapsed) interval
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        if lo > hi {
            Interval { lo, hi: lo }
        } else {
            Interval { lo, hi }
        }
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(o.hi),
            hi: self.hi.saturating_sub(o.lo),
        }
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval {
            lo: *c.iter().min().expect("non-empty"),
            hi: *c.iter().max().expect("non-empty"),
        }
    }
}

/// Value range of an integer [`ScalarType`] (canonical register values).
pub fn type_range(ty: ScalarType) -> Interval {
    match ty {
        ScalarType::Bool => Interval::new(0, 1),
        ScalarType::I8 => Interval::new(i8::MIN as i128, i8::MAX as i128),
        ScalarType::U8 => Interval::new(0, u8::MAX as i128),
        ScalarType::I16 => Interval::new(i16::MIN as i128, i16::MAX as i128),
        ScalarType::U16 => Interval::new(0, u16::MAX as i128),
        ScalarType::I32 => Interval::new(i32::MIN as i128, i32::MAX as i128),
        ScalarType::U32 => Interval::new(0, u32::MAX as i128),
        ScalarType::I64 => Interval::new(i64::MIN as i128, i64::MAX as i128),
        ScalarType::U64 => Interval::new(0, u64::MAX as i128),
        ScalarType::F32 | ScalarType::F64 => Interval::TOP,
    }
}

/// Work-item geometry values are non-negative and fit in the positive
/// `i64` range (global sizes are `usize` counts).
const GEOM_RANGE: Interval = Interval {
    lo: 0,
    hi: i64::MAX as i128,
};

/// How many flow-in changes a block tolerates before joins start widening.
const WIDEN_AFTER: u32 = 4;

/// Forward integer interval analysis over slots.
pub struct Intervals {
    slots: Vec<SlotKind>,
    nparams: usize,
}

impl Intervals {
    pub fn new(f: &FuncIr) -> Intervals {
        Intervals {
            slots: f.slots.clone(),
            nparams: f.params.len(),
        }
    }

    fn slot_range(&self, slot: usize, fact: &[Interval]) -> Interval {
        match self.slots.get(slot) {
            Some(SlotKind::Scalar(ty)) if ty.is_integer() => fact[slot].intersect(type_range(*ty)),
            _ => Interval::TOP,
        }
    }

    /// Range of `e` under the current per-slot ranges. Always intersected
    /// with the static range of the expression's type — canonical register
    /// values never leave it.
    pub fn eval_range(&self, e: &Ex, fact: &[Interval]) -> Interval {
        let raw = self.eval_range_inner(e, fact);
        let ty = e.ty();
        if ty.is_integer() {
            raw.intersect(type_range(ty))
        } else {
            raw
        }
    }

    fn eval_range_inner(&self, e: &Ex, fact: &[Interval]) -> Interval {
        match e {
            Ex::Const { bits, ty } => {
                if ty.is_float() {
                    Interval::TOP
                } else if ty.is_signed() {
                    Interval::exact(*bits as i64 as i128)
                } else {
                    Interval::exact(*bits as i128)
                }
            }
            Ex::Slot { slot, .. } => self.slot_range(*slot, fact),
            Ex::Bin { op, ty, l, r } if ty.is_integer() => {
                let a = self.eval_range(l, fact);
                let b = self.eval_range(r, fact);
                match op {
                    BOp::Add => a.add(b),
                    BOp::Sub => a.sub(b),
                    BOp::Mul => a.mul(b),
                    BOp::Div => {
                        // monotone for a positive constant divisor
                        match (b.lo, b.hi) {
                            (n, m) if n == m && n > 0 => Interval::new(a.lo / n, a.hi / n),
                            _ => Interval::TOP,
                        }
                    }
                    BOp::Rem => match (b.lo, b.hi) {
                        (n, m) if n == m && n != 0 => {
                            let n = n.abs();
                            if a.lo >= 0 {
                                Interval::new(0, n - 1)
                            } else {
                                // sign follows the dividend
                                Interval::new(-(n - 1), n - 1)
                            }
                        }
                        _ => Interval::TOP,
                    },
                    BOp::And => {
                        // a non-negative mask clears the sign bits: the
                        // result uses only the mask's bits
                        match (b.lo, b.hi) {
                            (n, m) if n == m && n >= 0 => Interval::new(0, n),
                            _ => Interval::TOP,
                        }
                    }
                    _ => Interval::TOP,
                }
            }
            Ex::Cmp { .. } | Ex::LogAnd { .. } | Ex::LogOr { .. } => Interval::new(0, 1),
            Ex::Un { op, ty, e } if ty.is_integer() => match op {
                UOp::Neg => {
                    let a = self.eval_range(e, fact);
                    Interval::new(a.hi.saturating_neg(), a.lo.saturating_neg())
                }
                UOp::Not => Interval::new(0, 1),
                UOp::BitNot => Interval::TOP,
            },
            Ex::Cast { from, to, e } if from.is_integer() && to.is_integer() => {
                let a = self.eval_range(e, fact);
                let target = type_range(*to);
                // a representable value converts losslessly; anything else
                // wraps, so fall back to the target type's full range
                if a.lo >= target.lo && a.hi <= target.hi {
                    a
                } else {
                    target
                }
            }
            Ex::CallBuiltin { b, ty, args } => match b {
                _ if b.is_geometry() => GEOM_RANGE,
                Builtin::MaxI if args.len() == 2 => {
                    let a = self.eval_range(&args[0], fact);
                    let c = self.eval_range(&args[1], fact);
                    Interval::new(a.lo.max(c.lo), a.hi.max(c.hi))
                }
                Builtin::MinI if args.len() == 2 => {
                    let a = self.eval_range(&args[0], fact);
                    let c = self.eval_range(&args[1], fact);
                    Interval::new(a.lo.min(c.lo), a.hi.min(c.hi))
                }
                Builtin::AbsI if args.len() == 1 && ty.is_integer() => {
                    let a = self.eval_range(&args[0], fact);
                    let lo = if a.lo <= 0 && a.hi >= 0 {
                        0
                    } else {
                        a.lo.abs().min(a.hi.abs())
                    };
                    Interval::new(lo, a.lo.abs().max(a.hi.abs()))
                }
                _ => Interval::TOP,
            },
            // loads are bounded only by their element type (applied by the
            // caller's type intersection); everything else is unbounded
            _ => Interval::TOP,
        }
    }
}

impl<'a> Analysis<'a> for Intervals {
    type Fact = Vec<Interval>;
    const SOLVES: fn(&Metrics) -> &Counter = |m| &m.solves_intervals;

    fn boundary(&self, _cfg: &Cfg<'a>) -> Self::Fact {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, kind)| match kind {
                SlotKind::Scalar(ty) if ty.is_integer() => {
                    if i < self.nparams {
                        type_range(*ty)
                    } else {
                        Interval::exact(0) // zero-initialized
                    }
                }
                _ => Interval::TOP,
            })
            .collect()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact, visits: u32) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(other) {
            let merged = a.union(*b);
            let new = if visits >= WIDEN_AFTER {
                // widen the growing side to force termination
                Interval {
                    lo: if merged.lo < a.lo {
                        i128::MIN
                    } else {
                        merged.lo
                    },
                    hi: if merged.hi > a.hi {
                        i128::MAX
                    } else {
                        merged.hi
                    },
                }
            } else {
                merged
            };
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    fn transfer(&mut self, step: &Step<'a>, _ctrl: &[usize], fact: &mut Self::Fact) {
        if let StepOp::Set { slot, value } = &step.op {
            fact[*slot] = self.eval_range(value, fact);
        }
    }
}

// ---- liveness ---------------------------------------------------------------

/// Dense slot bitset used as the liveness fact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn empty(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= o`, returning whether `self` changed.
    pub fn union_with(&mut self, o: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&o.words) {
            changed |= b & !*a != 0;
            *a |= b;
        }
        changed
    }
}

/// Backward slot liveness. A flow fact is the set of slots whose current
/// value may still be read ("live") at that point.
pub struct Liveness {
    nslots: usize,
}

impl Liveness {
    pub fn new(f: &FuncIr) -> Liveness {
        Liveness {
            nslots: f.slots.len(),
        }
    }
}

impl<'a> Analysis<'a> for Liveness {
    type Fact = BitSet;
    const SOLVES: fn(&Metrics) -> &Counter = |m| &m.solves_liveness;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, _cfg: &Cfg<'a>) -> Self::Fact {
        // nothing is live after the function returns (return values flow
        // through an explicit Eval step, not through slots)
        BitSet::empty(self.nslots)
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact, _visits: u32) -> bool {
        into.union_with(other)
    }

    fn transfer(&mut self, step: &Step<'a>, _ctrl: &[usize], fact: &mut Self::Fact) {
        if let StepOp::Set { slot, .. } = step.op {
            fact.remove(slot);
        }
        for e in step.exprs() {
            e.walk(&mut |e| {
                if let Ex::Slot { slot, .. } = e {
                    fact.insert(*slot);
                }
            });
        }
    }
}

// ---- uniformity -------------------------------------------------------------

/// Uniformity of one slot: `uniform` = identical on every work-item of the
/// launch; `guniform` = identical within each work-group (implied by
/// `uniform`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Uni {
    pub uniform: bool,
    pub guniform: bool,
}

impl Uni {
    pub const BOTH: Uni = Uni {
        uniform: true,
        guniform: true,
    };
    pub const NONE: Uni = Uni {
        uniform: false,
        guniform: false,
    };

    fn and(self, o: Uni) -> Uni {
        Uni {
            uniform: self.uniform && o.uniform,
            guniform: self.guniform && o.guniform,
        }
    }
}

/// Dataflow uniformity: slot facts iterated to a fixpoint through loops,
/// with assignments under divergent control (a branch whose condition is
/// not uniform decides *which* items execute the write) demoted.
///
/// This refines the sanitizer's syntactic AST pass: copies through
/// temporaries, values carried around loop back-edges, and re-convergence
/// after uniform branches are all handled by the fixpoint instead of by
/// one-shot syntactic rules.
pub struct Uniformity {
    nslots: usize,
    /// Branch-condition uniformity by statement id, accumulated
    /// monotonically (AND) across solver iterations.
    cond_uni: BTreeMap<usize, Uni>,
    changed: bool,
}

impl Uniformity {
    pub fn new(f: &FuncIr) -> Uniformity {
        Uniformity {
            nslots: f.slots.len(),
            cond_uni: BTreeMap::new(),
            changed: false,
        }
    }

    /// Uniformity of `e` under the current slot facts.
    pub fn eval_uni(&self, e: &Ex, fact: &[Uni]) -> Uni {
        match e {
            Ex::Const { .. } | Ex::LocalBase { .. } | Ex::PrivBase { .. } => Uni::BOTH,
            Ex::Slot { slot, .. } => fact[*slot],
            Ex::PtrAdd { ptr, offset, .. } => {
                self.eval_uni(ptr, fact).and(self.eval_uni(offset, fact))
            }
            Ex::Load { addr, space, .. } => {
                // documented assumption (shared with the AST sanitizer): a
                // load from a uniform address yields a uniform value within
                // one abstract pass; local memory contents may differ per
                // group, so group-uniformity is all a local load keeps
                let a = self.eval_uni(addr, fact);
                Uni {
                    uniform: a.uniform && *space != AddrSpace::Local,
                    guniform: a.guniform,
                }
            }
            Ex::Bin { l, r, .. } | Ex::Cmp { l, r, .. } => {
                self.eval_uni(l, fact).and(self.eval_uni(r, fact))
            }
            Ex::LogAnd { l, r } | Ex::LogOr { l, r } => {
                self.eval_uni(l, fact).and(self.eval_uni(r, fact))
            }
            Ex::Un { e, .. } | Ex::Cast { e, .. } => self.eval_uni(e, fact),
            Ex::CallBuiltin { b, args, .. } => match b {
                Builtin::GetGlobalId | Builtin::GetLocalId => Uni::NONE,
                Builtin::GetGroupId => Uni {
                    uniform: false,
                    guniform: true,
                },
                Builtin::GetGlobalSize
                | Builtin::GetLocalSize
                | Builtin::GetNumGroups
                | Builtin::GetWorkDim => Uni::BOTH,
                _ if b.is_atomic() => Uni::NONE, // each item sees a distinct old value
                _ => args
                    .iter()
                    .fold(Uni::BOTH, |u, a| u.and(self.eval_uni(a, fact))),
            },
            Ex::CallFunc { .. } => Uni::NONE, // not analyzed across calls
            Ex::Select { cond, t, f, .. } => self
                .eval_uni(cond, fact)
                .and(self.eval_uni(t, fact))
                .and(self.eval_uni(f, fact)),
        }
    }

    /// Combined uniformity of the enclosing branch conditions. Conditions
    /// not yet seen default to uniform — the solver re-iterates (see
    /// [`Analysis::reset_changed`]) until the monotone demotion settles.
    fn ctrl_uni(&self, ctrl: &[usize]) -> Uni {
        ctrl.iter().fold(Uni::BOTH, |u, sid| {
            u.and(self.cond_uni.get(sid).copied().unwrap_or(Uni::BOTH))
        })
    }

    /// Branch-condition uniformity observed by the last solve, keyed by
    /// statement id (for [`super::analysis`]'s divergence refinement).
    pub fn cond_uniformity(&self) -> &BTreeMap<usize, Uni> {
        &self.cond_uni
    }
}

impl<'a> Analysis<'a> for Uniformity {
    type Fact = Vec<Uni>;
    const SOLVES: fn(&Metrics) -> &Counter = |m| &m.solves_uniformity;

    fn boundary(&self, _cfg: &Cfg<'a>) -> Self::Fact {
        // every parameter is launch-uniform (set_arg binds one value for
        // the whole NDRange); non-param slots start zero-initialized
        vec![Uni::BOTH; self.nslots]
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact, _visits: u32) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(other) {
            let new = a.and(*b);
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    fn transfer(&mut self, step: &Step<'a>, ctrl: &[usize], fact: &mut Self::Fact) {
        match &step.op {
            StepOp::Set { slot, value } => {
                // a write under divergent control executes on a
                // data-dependent subset of items: the slot diverges even
                // if the stored value is uniform
                let u = self.eval_uni(value, fact).and(self.ctrl_uni(ctrl));
                fact[*slot] = u;
            }
            StepOp::Cond(e) => {
                let u = self.eval_uni(e, fact);
                let cur = self.cond_uni.get(&step.sid).copied().unwrap_or(Uni::BOTH);
                let merged = cur.and(u);
                if merged != cur {
                    self.cond_uni.insert(step.sid, merged);
                    self.changed = true;
                }
            }
            _ => {}
        }
    }

    fn reset_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }
}

// ---- per-line IR facts for the sanitizer ------------------------------------

// Dataflow facts re-keyed by source line, consumed by [`super::analysis`]'s
// refined sanitizer pass. Lines are the common currency between the AST
// checker (which owns the diagnostics) and the executable IR (which the
// analyses run over); where several accesses share a line the facts are
// met conservatively. The two kinds are solved separately because they are
// read separately: bounds verdicts on every refined build, store facts only
// when a race verdict asks for them.

/// Facts about the values stored on each line: what a would-be race needs
/// to be ruled out.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StoreFacts {
    /// line → uniformity meet of every value stored on that line.
    pub store_uni: BTreeMap<usize, Uni>,
    /// line → `Some(bits)` when every store on the line provably stores
    /// that one constant; `None` once any store is non-constant or two
    /// stores disagree.
    pub store_const: BTreeMap<usize, Option<u64>>,
}

/// line → (span of the first fixed-extent array access on it, whether
/// *every* such access is proved in bounds by the interval analysis).
pub type FixedBounds = BTreeMap<usize, (Span, bool)>;

impl StoreFacts {
    /// Run constant and uniformity analysis over `f` and project the
    /// stored values' facts onto source lines.
    pub fn for_func(f: &FuncIr) -> StoreFacts {
        let cfg = Cfg::build(f);
        let mut out = StoreFacts::default();

        // constant stored values
        let cp_sol = solve(&cfg, &mut ConstProp::new(f));
        fact_at_each_step(&cfg, &mut ConstProp::new(f), &cp_sol, |step, fact| {
            if let StepOp::Store { value, .. } = &step.op {
                if step.span.line == 0 {
                    return;
                }
                let c = eval_const(value, fact).map(|(bits, _)| bits);
                out.store_const
                    .entry(step.span.line)
                    .and_modify(|e| {
                        if *e != c {
                            *e = None;
                        }
                    })
                    .or_insert(c);
            }
        });

        // uniformity of stored values (the solved instance carries the
        // fixpoint branch-condition facts needed to replay transfers)
        let mut un = Uniformity::new(f);
        let un_sol = solve(&cfg, &mut un);
        let un_eval = Uniformity::new(f); // eval_uni reads only slot facts
        fact_at_each_step(&cfg, &mut un, &un_sol, |step, fact| {
            if let StepOp::Store { value, .. } = &step.op {
                if step.span.line == 0 {
                    return;
                }
                let u = un_eval.eval_uni(value, fact);
                out.store_uni
                    .entry(step.span.line)
                    .and_modify(|e| *e = e.and(u))
                    .or_insert(u);
            }
        });
        out
    }
}

/// Interval bounds of the fixed-extent (`__local`/`__private`) array
/// indices of `f`. Widening erases loop-counter upper bounds, so inside
/// canonical counted-loop bodies the solver fact is re-sharpened with the
/// loop guard before evaluating index ranges.
pub fn fixed_bounds(f: &FuncIr) -> FixedBounds {
    let mut out = FixedBounds::new();
    let cfg = Cfg::build(f);
    let guards = collect_counter_guards(f);
    let iv = Intervals::new(f);
    let iv_sol = solve(&cfg, &mut Intervals::new(f));
    let mut sharpened = Vec::new();
    fact_at_each_step(&cfg, &mut Intervals::new(f), &iv_sol, |step, fact| {
        if step.span.line == 0 {
            return;
        }
        sharpened.clone_from(fact);
        for g in guards.iter().filter(|g| g.covers(step.sid)) {
            sharpened[g.slot] = sharpened[g.slot].intersect(g.bound);
        }
        for e in step.exprs() {
            scan_fixed_accesses(e, f, &iv, &sharpened, step.span, &mut out);
        }
    });
    out
}

/// A counted loop `for (j = ...; j CMP const; ...)` that checks its
/// condition before every iteration and whose body never reassigns `j`.
/// Every statement in the body therefore executes under a true guard, so
/// the (widened) interval fact for `j` may be intersected with the bound
/// the comparison implies. The loop's *step* block is deliberately
/// excluded — the increment there runs after the access site and may
/// leave the guard range.
struct CounterGuard {
    /// Inclusive pre-order sid range of the loop body.
    body: (usize, usize),
    slot: usize,
    bound: Interval,
}

impl CounterGuard {
    fn covers(&self, sid: usize) -> bool {
        self.body.0 <= sid && sid <= self.body.1
    }
}

/// The slot constraint implied by `cond` evaluating to true, for
/// conditions of the shape `slot CMP integer-constant`.
fn guard_bound(cond: &Ex) -> Option<(usize, Interval)> {
    let Ex::Cmp { op, l, r, .. } = cond else {
        return None;
    };
    let Ex::Slot { slot, ty } = &**l else {
        return None;
    };
    let Ex::Const { bits, ty: cty } = &**r else {
        return None;
    };
    if !ty.is_integer() || !cty.is_integer() {
        return None;
    }
    let k = if cty.is_signed() {
        *bits as i64 as i128
    } else {
        *bits as i128
    };
    let bound = match op {
        COp::Lt => Interval::new(i128::MIN, k - 1),
        COp::Le => Interval::new(i128::MIN, k),
        COp::Gt => Interval::new(k + 1, i128::MAX),
        COp::Ge => Interval::new(k, i128::MAX),
        COp::Eq => Interval::exact(k),
        COp::Ne => return None,
    };
    Some((*slot, bound))
}

/// Collect every loop whose guard soundly bounds its counter throughout
/// the body (condition checked first, counter not reassigned inside).
fn collect_counter_guards(f: &FuncIr) -> Vec<CounterGuard> {
    let mut out = Vec::new();
    for_each_stmt(&f.body, &mut |sid, st| {
        let StKind::Loop {
            cond,
            body,
            check_first: true,
            ..
        } = &st.kind
        else {
            return;
        };
        let Some((slot, bound)) = guard_bound(cond) else {
            return;
        };
        let mut assigns = false;
        let mut n = 0usize;
        for_each_stmt(body, &mut |_, s| {
            n += 1;
            if matches!(s.kind, StKind::SetSlot { slot: w, .. } if w == slot) {
                assigns = true;
            }
        });
        if assigns || n == 0 {
            return;
        }
        out.push(CounterGuard {
            body: (sid + 1, sid + n),
            slot,
            bound,
        });
    });
    out
}

/// Find `array[idx]` accesses on fixed-extent allocations and record
/// whether the interval analysis proves `0 <= idx < len`.
fn scan_fixed_accesses(
    e: &Ex,
    f: &FuncIr,
    iv: &Intervals,
    fact: &[Interval],
    span: Span,
    out: &mut FixedBounds,
) {
    if let Ex::PtrAdd { ptr, offset, .. } = e {
        let len = match &**ptr {
            Ex::LocalBase { alloc, .. } => f.local_allocs.get(*alloc).map(|a| a.len),
            Ex::PrivBase { alloc, .. } => f.priv_allocs.get(*alloc).map(|a| a.len),
            _ => None,
        };
        if let Some(len) = len {
            let r = iv.eval_range(offset, fact);
            let ok = r.lo >= 0 && r.hi < len as i128;
            out.entry(span.line)
                .and_modify(|(_, all_ok)| *all_ok &= ok)
                .or_insert((span, ok));
        }
    }
    match e {
        Ex::PtrAdd { ptr, offset, .. } => {
            scan_fixed_accesses(ptr, f, iv, fact, span, out);
            scan_fixed_accesses(offset, f, iv, fact, span, out);
        }
        Ex::Load { addr, .. } => scan_fixed_accesses(addr, f, iv, fact, span, out),
        Ex::Bin { l, r, .. } | Ex::Cmp { l, r, .. } => {
            scan_fixed_accesses(l, f, iv, fact, span, out);
            scan_fixed_accesses(r, f, iv, fact, span, out);
        }
        Ex::LogAnd { l, r } | Ex::LogOr { l, r } => {
            scan_fixed_accesses(l, f, iv, fact, span, out);
            scan_fixed_accesses(r, f, iv, fact, span, out);
        }
        Ex::Un { e, .. } | Ex::Cast { e, .. } => scan_fixed_accesses(e, f, iv, fact, span, out),
        Ex::CallBuiltin { args, .. } | Ex::CallFunc { args, .. } => {
            for a in args {
                scan_fixed_accesses(a, f, iv, fact, span, out);
            }
        }
        Ex::Select { cond, t, f: fe, .. } => {
            scan_fixed_accesses(cond, f, iv, fact, span, out);
            scan_fixed_accesses(t, f, iv, fact, span, out);
            scan_fixed_accesses(fe, f, iv, fact, span, out);
        }
        Ex::Const { .. } | Ex::Slot { .. } | Ex::LocalBase { .. } | Ex::PrivBase { .. } => {}
    }
}

// ---- tests ------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::{parser, sema};

    fn compile(src: &str) -> crate::exec::ir::Module {
        let tu = parser::parse(src).expect("parse");
        sema::analyze(&tu).expect("sema")
    }

    fn kernel(m: &crate::exec::ir::Module, name: &str) -> FuncIr {
        m.funcs[m.kernels[name]].clone()
    }

    const LOOPY: &str = r#"
__kernel void k(__global int *out, int n) {
    int i = (int)get_global_id(0);
    int base = n * 4;
    int acc = 0;
    for (int j = 0; j < n; j = j + 1) {
        acc = acc + base;
    }
    if (i < n) {
        out[i] = acc;
    }
}
"#;

    #[test]
    fn cfg_structure_has_one_back_edge() {
        let m = compile(LOOPY);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        // every edge is recorded at both ends
        for (b, block) in cfg.blocks.iter().enumerate() {
            for &s in &block.succs {
                assert!(cfg.blocks[s].preds.contains(&b));
            }
        }
        // depth-first from the entry: an edge into a block still on the
        // stack closes a loop (0 = unseen, 1 = on the stack, 2 = done)
        fn dfs(cfg: &Cfg, b: BlockId, state: &mut [u8], back_edges: &mut usize) {
            state[b] = 1;
            for &s in &cfg.blocks[b].succs {
                match state[s] {
                    0 => dfs(cfg, s, state, back_edges),
                    1 => *back_edges += 1,
                    _ => {}
                }
            }
            state[b] = 2;
        }
        let mut state = vec![0; cfg.blocks.len()];
        let mut back_edges = 0;
        dfs(&cfg, cfg.entry, &mut state, &mut back_edges);
        assert_eq!(back_edges, 1, "exactly one loop in the kernel");
        assert_eq!(state[cfg.exit], 2, "the exit is reachable");
    }

    #[test]
    fn statement_numbering_matches_cfg_sids() {
        let m = compile(LOOPY);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut spans = BTreeMap::new();
        for_each_stmt(&f.body, &mut |sid, st| {
            spans.insert(sid, st.span);
        });
        assert_eq!(spans.len(), cfg.n_statements);
        for block in &cfg.blocks {
            for step in &block.steps {
                assert_eq!(
                    spans.get(&step.sid),
                    Some(&step.span),
                    "CFG step sid/span must match the tree numbering"
                );
            }
        }
    }

    #[test]
    fn const_prop_proves_loop_invariant_constant() {
        let src = r#"
__kernel void k(__global int *out) {
    int a = 3;
    int b = a + 4;
    int c = b;
    out[get_global_id(0)] = c;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut cp = ConstProp::new(&f);
        let sol = solve(&cfg, &mut cp);
        // at the store, c must be the constant 7
        let mut found = false;
        fact_at_each_step(&cfg, &mut ConstProp::new(&f), &sol, |step, fact| {
            if let StepOp::Store { value, .. } = &step.op {
                assert_eq!(
                    eval_const(value, fact),
                    Some((7, ScalarType::I32)),
                    "store value folds to 7"
                );
                found = true;
            }
        });
        assert!(found, "kernel has a store");
    }

    #[test]
    fn const_prop_kills_facts_across_branches() {
        let src = r#"
__kernel void k(__global int *out, int n) {
    int a = 3;
    if (n > 0) {
        a = 5;
    }
    out[get_global_id(0)] = a;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut cp = ConstProp::new(&f);
        let sol = solve(&cfg, &mut cp);
        fact_at_each_step(&cfg, &mut ConstProp::new(&f), &sol, |step, fact| {
            if let StepOp::Store { value, .. } = &step.op {
                assert_eq!(
                    eval_const(value, fact),
                    None,
                    "3 joined with 5 must not stay constant"
                );
            }
        });
    }

    #[test]
    fn intervals_bound_a_guarded_loop_counter() {
        let src = r#"
__kernel void k(__global int *out) {
    int acc = 0;
    for (int j = 0; j < 8; j = j + 1) {
        acc = acc + 1;
    }
    out[get_global_id(0)] = acc;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut iv = Intervals::new(&f);
        let sol = solve(&cfg, &mut iv);
        // j only ever takes values 0..=8 (8 at the failing test); the
        // widened analysis must at least prove non-negativity without
        // claiming anything above the type range
        let mut checked = false;
        fact_at_each_step(&cfg, &mut Intervals::new(&f), &sol, |step, fact| {
            if let StepOp::Set { slot, value } = &step.op {
                // the increment j = j + 1 (value reads the same slot)
                let mut uses = Vec::new();
                value.walk(&mut |e| {
                    if let Ex::Slot { slot, .. } = e {
                        uses.push(*slot);
                    }
                });
                if uses == vec![*slot] && matches!(value, Ex::Bin { op: BOp::Add, .. }) {
                    let r = fact[*slot];
                    assert!(r.lo >= 0, "loop counter proved non-negative: {r:?}");
                    checked = true;
                }
            }
        });
        assert!(checked, "found the increment");
    }

    #[test]
    fn ir_facts_prove_loop_guarded_private_accesses() {
        let src = r#"
__kernel void k(__global float *out, __global const float *in) {
    float tmp[8];
    int i = (int)get_global_id(0);
    for (int j = 0; j < 8; j = j + 1) {
        tmp[j] = in[i * 8 + j];
    }
    float s = 0.0f;
    for (int j = 0; j < 8; j = j + 1) {
        s = s + tmp[j];
    }
    out[i] = s;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let bounds = fixed_bounds(&f);
        // both tmp[j] lines carry fixed-extent accesses, and the counter
        // guard j < 8 sharpens the widened fact back to [0, 7]
        assert_eq!(bounds.len(), 2, "{bounds:?}");
        assert!(
            bounds.values().all(|(_, ok)| *ok),
            "loop-guarded scratch accesses proved in bounds: {bounds:?}"
        );
    }

    #[test]
    fn counter_guard_refuses_counters_reassigned_in_the_body() {
        let src = r#"
__kernel void k(__global float *out, int n) {
    float tmp[8];
    for (int j = 0; j < 8; j = j + 1) {
        tmp[j] = 0.0f;
        if (n > 4) {
            j = n;
        }
        tmp[j] = 1.0f;
    }
    out[0] = tmp[0];
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let bounds = fixed_bounds(&f);
        // the body reassigns j, so the guard must NOT apply — neither
        // tmp[j] line may claim an in-bounds proof
        let unproved = bounds.values().filter(|(_, ok)| !*ok).count();
        assert_eq!(
            unproved, 2,
            "reassigned counter must stay unproved: {bounds:?}"
        );
    }

    #[test]
    fn intervals_prove_masked_index_bounds() {
        let src = r#"
__kernel void k(__global int *out) {
    int i = (int)get_global_id(0);
    int j = i & 15;
    out[j] = 1;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut iv = Intervals::new(&f);
        let sol = solve(&cfg, &mut iv);
        let mut found = false;
        let replay = Intervals::new(&f);
        fact_at_each_step(&cfg, &mut Intervals::new(&f), &sol, |step, fact| {
            if let StepOp::Store {
                addr: Ex::PtrAdd { offset, .. },
                ..
            } = &step.op
            {
                let r = replay.eval_range(offset, fact);
                assert_eq!((r.lo, r.hi), (0, 15), "masked index proved in [0,15]");
                found = true;
            }
        });
        assert!(found, "kernel has an indexed store");
    }

    #[test]
    fn liveness_finds_dead_store_and_live_accumulator() {
        let src = r#"
__kernel void k(__global int *out) {
    int dead = 42;
    int live = 7;
    out[get_global_id(0)] = live;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut lv = Liveness::new(&f);
        let sol = solve(&cfg, &mut lv);
        // at the Set of `dead`, the assigned slot must be dead afterwards;
        // at the Set of `live` it must be live afterwards
        let mut dead_checked = false;
        let mut live_checked = false;
        fact_at_each_step(&cfg, &mut Liveness::new(&f), &sol, |step, live_after| {
            if let StepOp::Set { slot, value } = &step.op {
                if let Some((42, _)) = eval_const(value, &[]) {
                    assert!(!live_after.contains(*slot), "42 is never read");
                    dead_checked = true;
                }
                if let Some((7, _)) = eval_const(value, &[]) {
                    assert!(live_after.contains(*slot), "7 is stored to memory");
                    live_checked = true;
                }
            }
        });
        assert!(dead_checked && live_checked);
    }

    #[test]
    fn uniformity_tracks_copies_and_divergent_writes() {
        let src = r#"
__kernel void k(__global int *out, int n) {
    int u = n * 2;
    int v = u;
    int g = (int)get_group_id(0);
    int d = 0;
    if ((int)get_global_id(0) < n) {
        d = 1;
    }
    int w = 0;
    if (n > 3) {
        w = 5;
    }
    out[get_global_id(0)] = v + g + d + w;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut un = Uniformity::new(&f);
        let sol = solve(&cfg, &mut un);
        // inspect the final store's operand slots via the flow facts
        let mut seen = Vec::new();
        let mut replay = Uniformity::new(&f);
        // replay must accumulate the same condition facts the solve did
        replay.cond_uni = un.cond_uniformity().clone();
        fact_at_each_step(&cfg, &mut replay, &sol, |step, fact| {
            if let StepOp::Store { value, .. } = &step.op {
                seen.push(Uniformity::new(&f).eval_uni(value, fact));
            }
        });
        assert_eq!(seen.len(), 1);
        // the sum mixes gid-dependent data: not uniform in any sense
        assert_eq!(seen[0], Uni::NONE);
        // and slot-level claims: find facts at the store
        let mut checked = false;
        let mut replay2 = Uniformity::new(&f);
        replay2.cond_uni = un.cond_uniformity().clone();
        fact_at_each_step(&cfg, &mut replay2, &sol, |step, fact| {
            if let StepOp::Store { .. } = &step.op {
                // slots in declaration order after the params: u, v, g, d, w
                // (sema allocates value slots sequentially past the params)
                let base = f.params.len();
                assert_eq!(fact[base], Uni::BOTH, "u = n*2 is uniform");
                assert_eq!(fact[base + 1], Uni::BOTH, "v copies a uniform");
                assert_eq!(
                    fact[base + 2],
                    Uni {
                        uniform: false,
                        guniform: true
                    },
                    "group id is group-uniform"
                );
                assert_eq!(fact[base + 3], Uni::NONE, "write under divergent branch");
                assert_eq!(fact[base + 4], Uni::BOTH, "write under uniform branch");
                checked = true;
            }
        });
        assert!(checked);
        let _ = sol;
    }

    #[test]
    fn uniformity_loop_fixpoint_demotes_carried_values() {
        // `x` becomes item-dependent on iteration 1; the fixpoint must
        // carry that demotion around the back edge
        let src = r#"
__kernel void k(__global int *out, int n) {
    int x = 0;
    for (int j = 0; j < n; j = j + 1) {
        x = x + (int)get_local_id(0);
    }
    out[get_global_id(0)] = x;
}
"#;
        let m = compile(src);
        let f = kernel(&m, "k");
        let cfg = Cfg::build(&f);
        let mut un = Uniformity::new(&f);
        let sol = solve(&cfg, &mut un);
        let mut checked = false;
        let mut replay = Uniformity::new(&f);
        replay.cond_uni = un.cond_uniformity().clone();
        fact_at_each_step(&cfg, &mut replay, &sol, |step, fact| {
            if let StepOp::Store { .. } = &step.op {
                let base = f.params.len();
                assert_eq!(fact[base], Uni::NONE, "x absorbed a lane-varying term");
                checked = true;
            }
        });
        assert!(checked);
    }

    /// The solver before its buffers were reused: a fresh fact per visit,
    /// a cloned scratch per join and a comparison to detect the change.
    /// [`solve`] must reproduce its solutions exactly.
    fn solve_reference<'a, A: Analysis<'a>>(cfg: &Cfg<'a>, a: &mut A) -> Solution<A::Fact> {
        let n = cfg.blocks.len();
        let backward = a.direction() == Direction::Backward;
        let boundary_block = if backward { cfg.exit } else { cfg.entry };
        let mut flow_in: Vec<Option<A::Fact>> = vec![None; n];
        let mut flow_out: Vec<Option<A::Fact>> = vec![None; n];
        let mut visits = vec![0u32; n];
        loop {
            let mut queue: VecDeque<BlockId> = VecDeque::new();
            let mut queued = vec![false; n];
            if flow_in[boundary_block].is_none() {
                flow_in[boundary_block] = Some(a.boundary(cfg));
            }
            for b in 0..n {
                if flow_in[b].is_some() {
                    queue.push_back(b);
                    queued[b] = true;
                }
            }
            while let Some(b) = queue.pop_front() {
                queued[b] = false;
                let mut fact = flow_in[b].clone().expect("queued blocks are reached");
                let block = &cfg.blocks[b];
                let steps: Vec<&Step<'a>> = if backward {
                    block.steps.iter().rev().collect()
                } else {
                    block.steps.iter().collect()
                };
                for step in steps {
                    a.transfer(step, &block.ctrl, &mut fact);
                }
                let changed_out = flow_out[b].as_ref() != Some(&fact);
                flow_out[b] = Some(fact.clone());
                if !changed_out {
                    continue;
                }
                let nexts = if backward { &block.preds } else { &block.succs };
                for &s in nexts {
                    let update = match &flow_in[s] {
                        None => true,
                        Some(cur) => {
                            let mut merged = cur.clone();
                            a.join(&mut merged, &fact, visits[s]);
                            if merged != *cur {
                                visits[s] += 1;
                                flow_in[s] = Some(merged);
                                true
                            } else {
                                false
                            }
                        }
                    };
                    if flow_in[s].is_none() {
                        flow_in[s] = Some(fact.clone());
                    }
                    if update && !queued[s] {
                        queue.push_back(s);
                        queued[s] = true;
                    }
                }
            }
            if !a.reset_changed() {
                break;
            }
        }
        Solution { flow_in, flow_out }
    }

    fn assert_same_solution<'a, A: Analysis<'a>>(cfg: &Cfg<'a>, mut new: A, mut old: A, what: &str)
    where
        A::Fact: std::fmt::Debug,
    {
        let got = solve(cfg, &mut new);
        let want = solve_reference(cfg, &mut old);
        assert_eq!(got.flow_in, want.flow_in, "{what}: flow-in");
        assert_eq!(got.flow_out, want.flow_out, "{what}: flow-out");
    }

    #[test]
    fn copy_free_solver_matches_the_reference_solver() {
        let sources = [
            LOOPY,
            include_str!("../../tests/lint_corpus/divergent_barrier.cl"),
            include_str!("../../tests/lint_corpus/oob_fixed_array.cl"),
            include_str!("../../tests/lint_corpus/oob_launch.cl"),
            include_str!("../../tests/lint_corpus/proved_safe.cl"),
            include_str!("../../tests/lint_corpus/racy_transpose.cl"),
            include_str!("../../tests/lint_corpus/uniform_addr_race.cl"),
            include_str!("../../../benchsuite/src/kernels/ep.cl"),
            include_str!("../../../benchsuite/src/kernels/floyd.cl"),
            include_str!("../../../benchsuite/src/kernels/reduction.cl"),
            include_str!("../../../benchsuite/src/kernels/spmv.cl"),
            include_str!("../../../benchsuite/src/kernels/transpose.cl"),
        ];
        let mut checked = 0;
        for src in sources {
            let text = crate::clc::pp::preprocess(src, &Default::default()).expect("preprocess");
            let plain = compile(&text);
            // the optimised module adds the shapes LICM and CSE produce
            let mut optimized = plain.clone();
            super::super::opt::optimize(&mut optimized, super::super::opt::OptLevel::O2);
            for f in plain.funcs.iter().chain(&optimized.funcs) {
                let cfg = Cfg::build(f);
                let what = &f.name;
                assert_same_solution(&cfg, ConstProp::new(f), ConstProp::new(f), what);
                assert_same_solution(&cfg, Intervals::new(f), Intervals::new(f), what);
                assert_same_solution(&cfg, Liveness::new(f), Liveness::new(f), what);
                let (mut new, mut old) = (Uniformity::new(f), Uniformity::new(f));
                let (got, want) = (solve(&cfg, &mut new), solve_reference(&cfg, &mut old));
                assert_eq!(got.flow_in, want.flow_in, "{what}: uniformity flow-in");
                assert_eq!(new.cond_uni, old.cond_uni, "{what}: branch uniformity");
                checked += 1;
            }
        }
        assert!(checked >= 24, "{checked} functions compared");
    }

    #[test]
    fn pure_nontrapping_classification() {
        let c1 = Ex::Const {
            bits: 1,
            ty: ScalarType::I32,
        };
        let c0 = Ex::Const {
            bits: 0,
            ty: ScalarType::I32,
        };
        let slot = Ex::Slot {
            slot: 0,
            ty: ScalarType::I32,
        };
        let div_const = Ex::Bin {
            op: BOp::Div,
            ty: ScalarType::I32,
            l: Box::new(slot.clone()),
            r: Box::new(c1.clone()),
        };
        assert!(pure_nontrapping(&div_const), "divisor is a nonzero const");
        let div_zero = Ex::Bin {
            op: BOp::Div,
            ty: ScalarType::I32,
            l: Box::new(slot.clone()),
            r: Box::new(c0),
        };
        assert!(!pure_nontrapping(&div_zero), "constant zero divisor traps");
        let div_slot = Ex::Bin {
            op: BOp::Div,
            ty: ScalarType::I32,
            l: Box::new(c1.clone()),
            r: Box::new(slot.clone()),
        };
        assert!(!pure_nontrapping(&div_slot), "unknown divisor may trap");
        let fdiv = Ex::Bin {
            op: BOp::Div,
            ty: ScalarType::F32,
            l: Box::new(c1.clone()),
            r: Box::new(slot.clone()),
        };
        assert!(pure_nontrapping(&fdiv), "float division never traps");
        let load = Ex::Load {
            addr: Box::new(slot.clone()),
            elem: ScalarType::I32,
            space: AddrSpace::Global,
        };
        assert!(!pure_nontrapping(&load), "loads can fault");
        let atomic = Ex::CallBuiltin {
            b: Builtin::AtomicAdd,
            ty: ScalarType::I32,
            args: vec![slot.clone(), c1.clone()],
        };
        assert!(!pure_nontrapping(&atomic), "atomics are side-effecting");
        let geom = Ex::CallBuiltin {
            b: Builtin::GetGlobalId,
            ty: ScalarType::U64,
            args: vec![c1],
        };
        assert!(pure_nontrapping(&geom), "geometry queries are pure");
    }

    #[test]
    fn eval_const_uses_interpreter_arithmetic() {
        // -7 / 2 truncates toward zero exactly like the interpreter
        let l = Ex::Const {
            bits: (-7i64) as u64,
            ty: ScalarType::I32,
        };
        let r = Ex::Const {
            bits: 2,
            ty: ScalarType::I32,
        };
        let div = Ex::Bin {
            op: BOp::Div,
            ty: ScalarType::I32,
            l: Box::new(l),
            r: Box::new(r),
        };
        let (bits, ty) = eval_const(&div, &[]).expect("folds");
        assert_eq!(ty, ScalarType::I32);
        assert_eq!(
            bits,
            ops::bin_op(BOp::Div, ScalarType::I32, (-7i64) as u64, 2).unwrap()
        );
        // division by a constant zero must NOT fold (it traps at run time)
        let div0 = Ex::Bin {
            op: BOp::Div,
            ty: ScalarType::I32,
            l: Box::new(Ex::Const {
                bits: 7,
                ty: ScalarType::I32,
            }),
            r: Box::new(Ex::Const {
                bits: 0,
                ty: ScalarType::I32,
            }),
        };
        assert_eq!(eval_const(&div0, &[]), None);
    }
}
