//! The optimizing mid-end: a pass pipeline over the executable IR, built
//! on the [`super::dataflow`] framework.
//!
//! Passes (in pipeline order):
//!
//! 1. **const-prop** — forward constant/copy propagation; slot reads whose
//!    value is provably a constant (or a copy of another slot) are
//!    replaced in place.
//! 2. **const-fold** — bottom-up folding of constant operator trees using
//!    the interpreter's own arithmetic ([`crate::exec::ops`]), plus
//!    integer algebraic identities (`x+0`, `x*1`, `x*0` for pure `x`).
//!    Trapping operations (`/0`, `%0`) are never folded — they must trap
//!    at run time exactly as at O0.
//! 3. **cfg-simplify** — `if`s with constant conditions are spliced to the
//!    taken arm; `while`-style loops with a constant-false condition and
//!    effect-free `if`s with two empty arms are dropped.
//! 4. **dce** — backward liveness; assignments to slots that are never
//!    read again, and pure expression statements, are removed. Only
//!    pure-and-nontrapping right-hand sides are eligible: a dead `x = a/b`
//!    with an unknown divisor stays, because O0 would trap on `b == 0`.
//! 5. **licm** (O2) — pure nontrapping expressions (including address
//!    arithmetic and geometry builtins) that read no slot assigned inside
//!    a loop are computed once into a fresh slot before the loop.
//! 6. **cse** (O2, local) — within straight-line runs, repeated pure
//!    nontrapping subexpressions over identical slot versions are
//!    computed once into a fresh slot.
//!
//! **Span preservation is a hard invariant.** Every statement the mid-end
//! creates carries the span of a real source statement (the statement of
//! the first occurrence for CSE temps, the loop header for LICM temps),
//! and every statement it moves or splices keeps its own span. The
//! interpreter charges all counters through one span-tagged chokepoint,
//! so `report -- annotate` per-line sums equal launch totals for *any*
//! span-complete tree; the tests here assert transformed kernels never
//! invent source lines.
//!
//! O0 returns the module untouched (the reference semantics); O1 runs
//! passes 1–4; O2 adds LICM and CSE. The pipeline iterates to a fixpoint
//! (bounded rounds) because passes expose work for each other: const-prop
//! feeds folding, folding exposes constant branches, splicing exposes
//! dead slots.

use std::collections::{BTreeMap, BTreeSet};

use crate::clc::dataflow::{
    eval_const, fact_at_each_step, pure_nontrapping, solve, Cfg, ConstProp, Liveness, SlotVal,
    StepOp,
};
use crate::exec::ir::{
    for_each_stmt, for_each_stmt_mut, BOp, COp, Ex, FuncIr, Module, SlotKind, St, StKind, UOp,
};
use crate::types::ScalarType;

/// Optimization level for [`optimize`] and `Program` builds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash)]
pub enum OptLevel {
    /// Reference semantics: the IR runs exactly as `sema` produced it.
    O0,
    /// Safe scalar passes: const-prop/fold, CFG simplify, DCE.
    #[default]
    O1,
    /// O1 plus loop-invariant code motion and local CSE.
    O2,
}

impl OptLevel {
    /// The build-option spelling (`-O0`/`-O1`/`-O2`).
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
        }
    }

    /// Parse a `-O<n>` build option.
    pub fn from_flag(flag: &str) -> Option<OptLevel> {
        match flag {
            "-O0" => Some(OptLevel::O0),
            "-O1" => Some(OptLevel::O1),
            "-O2" => Some(OptLevel::O2),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
        })
    }
}

/// Work done by one [`optimize`] run, by pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassStats {
    /// Operator trees folded to constants.
    pub const_folded: u64,
    /// Slot reads replaced with constants or copy sources.
    pub const_propagated: u64,
    /// Statements removed as dead.
    pub dce_removed: u64,
    /// Branches/loops resolved statically.
    pub branches_simplified: u64,
    /// Redundant evaluations eliminated by CSE (occurrences beyond the
    /// first of each shared expression).
    pub cse_replaced: u64,
    /// Loop-invariant expressions hoisted out of loops.
    pub licm_hoisted: u64,
}

impl PassStats {
    /// Total rewrites across all passes.
    pub fn total(&self) -> u64 {
        self.const_folded
            + self.const_propagated
            + self.dce_removed
            + self.branches_simplified
            + self.cse_replaced
            + self.licm_hoisted
    }

    /// Accumulate another run's work (a program builds several functions;
    /// reports sum over benchmarks).
    pub fn absorb(&mut self, o: &PassStats) {
        self.const_folded += o.const_folded;
        self.const_propagated += o.const_propagated;
        self.dce_removed += o.dce_removed;
        self.branches_simplified += o.branches_simplified;
        self.cse_replaced += o.cse_replaced;
        self.licm_hoisted += o.licm_hoisted;
    }
}

/// Bound on pipeline rounds. Passes expose work for each other, so the
/// pipeline repeats until a round makes no rewrite; the bound only
/// guarantees termination.
const MAX_ROUNDS: usize = 3;

/// Optimize every function of `module` at `level`, returning per-pass
/// statistics. Also bumps the `oclsim_clc_opt_*` telemetry counters.
pub fn optimize(module: &mut Module, level: OptLevel) -> PassStats {
    let mut stats = PassStats::default();
    if level == OptLevel::O0 {
        return stats;
    }
    type Pass = fn(&mut FuncIr, &mut PassStats) -> u64;
    let all: [Pass; 6] = [const_prop, const_fold, cfg_simplify, dce, licm, cse];
    let passes = &all[..if level >= OptLevel::O2 { 6 } else { 4 }];
    for f in &mut module.funcs {
        // a pass reads nothing but the IR: once it has found nothing it
        // finds nothing again until some pass changes the IR, so it is not
        // rerun before then
        let mut idle = [false; 6];
        for _ in 0..MAX_ROUNDS {
            let mut changed = 0;
            for (i, pass) in passes.iter().enumerate() {
                if idle[i] {
                    continue;
                }
                let slots = f.slots.len();
                let n = pass(f, &mut stats);
                // CSE may add a temp without counting a rewrite
                let touched = n > 0 || f.slots.len() != slots;
                if touched {
                    idle = [false; 6];
                }
                idle[i] = !touched;
                changed += n;
            }
            if changed == 0 {
                break;
            }
        }
    }
    let m = crate::telemetry::metrics();
    m.opt_const_folded.add(stats.const_folded);
    m.opt_const_propagated.add(stats.const_propagated);
    m.opt_dce_removed.add(stats.dce_removed);
    m.opt_branches_simplified.add(stats.branches_simplified);
    m.opt_cse_replaced.add(stats.cse_replaced);
    m.opt_licm_hoisted.add(stats.licm_hoisted);
    stats
}

// ---- pass 1: constant/copy propagation --------------------------------------

/// The known `(slot, value)` facts of the slots one statement reads.
type Known = Vec<(usize, SlotVal)>;

fn const_prop(f: &mut FuncIr, stats: &mut PassStats) -> u64 {
    let by_sid: Vec<Option<Known>> = {
        let cfg = Cfg::build(f);
        let sol = solve(&cfg, &mut ConstProp::new(f));
        // fact flowing into each statement's step, by statement id, cut
        // down to the slots the step reads; for a Loop this is the
        // *header* flow-in (joined over the back edge), the only fact
        // valid for every evaluation of the condition
        let mut by_sid = vec![None; cfg.n_statements];
        let mut uses = Vec::new();
        fact_at_each_step(&cfg, &mut ConstProp::new(f), &sol, |step, fact| {
            if by_sid[step.sid].is_some() {
                return;
            }
            uses.clear();
            for e in step.exprs() {
                e.walk(&mut |e| match e {
                    Ex::Slot { slot, .. } if !uses.contains(slot) => uses.push(*slot),
                    _ => {}
                });
            }
            let known = uses.iter().filter_map(|&s| match fact.get(s) {
                Some(SlotVal::Unknown) | None => None,
                Some(&v) => Some((s, v)),
            });
            by_sid[step.sid] = Some(known.collect());
        });
        by_sid
    };
    let mut count = 0;
    for_each_stmt_mut(&mut f.body, &mut |sid, st| {
        let Some(Some(fact)) = by_sid.get(sid) else {
            return; // unreachable statement: leave it alone
        };
        // replace slot reads that the facts pin down
        st.for_each_expr_mut(|e| {
            e.walk_mut(&mut |e| {
                let Ex::Slot { slot, ty } = e else { return };
                match fact.iter().find(|(s, _)| s == slot).map(|(_, v)| v) {
                    Some(SlotVal::Const { bits, ty: fty }) if fty == ty => {
                        *e = Ex::Const {
                            bits: *bits,
                            ty: *ty,
                        };
                        count += 1;
                    }
                    Some(SlotVal::Copy(src)) if src != slot => {
                        // slots hold raw canonical bits, so reading the
                        // copy's source under the same node type is exact
                        *slot = *src;
                        count += 1;
                    }
                    _ => {}
                }
            })
        });
    });
    stats.const_propagated += count;
    count
}

// ---- pass 2: constant folding -----------------------------------------------

fn const_fold(f: &mut FuncIr, stats: &mut PassStats) -> u64 {
    let mut count = 0;
    for_each_stmt_mut(&mut f.body, &mut |_, st| {
        st.for_each_expr_mut(|e| fold_expr(e, &mut count))
    });
    stats.const_folded += count;
    count
}

fn take(b: &mut Box<Ex>) -> Ex {
    std::mem::replace(
        &mut **b,
        Ex::Const {
            bits: 0,
            ty: ScalarType::I32,
        },
    )
}

/// True when `e` is the integer constant `v` (canonical encoding).
fn is_int_const(e: &Ex, v: u64) -> bool {
    matches!(e, Ex::Const { bits, ty } if ty.is_integer() && *bits == v)
}

fn fold_expr(e: &mut Ex, n: &mut u64) {
    e.for_each_child_mut(|c| fold_expr(c, n));
    if matches!(e, Ex::Const { .. }) {
        return;
    }
    // all-constant trees fold through the interpreter's own arithmetic;
    // eval_const refuses trapping cases (/0, %0) so they still trap at
    // run time exactly as at O0
    if let Some((bits, ty)) = eval_const(e, &[]) {
        *e = Ex::Const { bits, ty };
        *n += 1;
        return;
    }
    // integer algebraic identities (floats excluded: -0.0 + 0.0 != -0.0)
    let replacement = match e {
        Ex::Bin { op, ty, l, r } if ty.is_integer() => match op {
            BOp::Add if is_int_const(r, 0) => Some(take(l)),
            BOp::Add if is_int_const(l, 0) => Some(take(r)),
            BOp::Sub if is_int_const(r, 0) => Some(take(l)),
            BOp::Mul if is_int_const(r, 1) => Some(take(l)),
            BOp::Mul if is_int_const(l, 1) => Some(take(r)),
            BOp::Mul
                if (is_int_const(r, 0) && pure_nontrapping(l))
                    || (is_int_const(l, 0) && pure_nontrapping(r)) =>
            {
                Some(Ex::Const { bits: 0, ty: *ty })
            }
            _ => None,
        },
        Ex::Select { cond, t, f, .. } => match **cond {
            // with a constant condition the interpreter only ever
            // evaluates the chosen arm, so dropping the other is exact
            Ex::Const { bits, .. } => Some(if bits != 0 { take(t) } else { take(f) }),
            _ => None,
        },
        _ => None,
    };
    if let Some(r) = replacement {
        *e = r;
        *n += 1;
    }
}

// ---- pass 3: CFG simplification ---------------------------------------------

fn cfg_simplify(f: &mut FuncIr, stats: &mut PassStats) -> u64 {
    let mut n = 0;
    simplify_block(&mut f.body, &mut n);
    stats.branches_simplified += n;
    n
}

fn simplify_block(body: &mut Vec<St>, n: &mut u64) {
    let old = std::mem::take(body);
    for mut st in old {
        match &mut st.kind {
            StKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                simplify_block(then_blk, n);
                simplify_block(else_blk, n);
                if let Ex::Const { bits, .. } = cond {
                    // splice the taken arm in place; inner spans survive
                    let arm = if *bits != 0 {
                        std::mem::take(then_blk)
                    } else {
                        std::mem::take(else_blk)
                    };
                    body.extend(arm);
                    *n += 1;
                    continue;
                }
                if then_blk.is_empty() && else_blk.is_empty() && pure_nontrapping(cond) {
                    *n += 1;
                    continue; // branch with two empty arms and a pure test
                }
                body.push(st);
            }
            StKind::Loop {
                cond,
                body: lb,
                step,
                check_first,
            } => {
                simplify_block(lb, n);
                simplify_block(step, n);
                if *check_first && is_int_const(cond, 0) {
                    *n += 1;
                    continue; // while(false): never entered
                }
                body.push(st);
            }
            _ => body.push(st),
        }
    }
}

// ---- pass 4: dead-code elimination ------------------------------------------

fn dce(f: &mut FuncIr, stats: &mut PassStats) -> u64 {
    let live_after: Vec<Option<bool>> = {
        let cfg = Cfg::build(f);
        let sol = solve(&cfg, &mut Liveness::new(f));
        // the backward replay hands each step the fact before its
        // (reversed) transfer — i.e. the live set *after* the step in
        // execution order; an assignment needs only its own slot's bit
        let mut by_sid = vec![None; cfg.n_statements];
        fact_at_each_step(&cfg, &mut Liveness::new(f), &sol, |step, fact| {
            if let StepOp::Set { slot, .. } = step.op {
                by_sid[step.sid] = Some(fact.contains(slot));
            }
        });
        by_sid
    };
    let mut n = 0;
    let mut sid = 0usize;
    dce_block(&mut f.body, &live_after, &mut sid, &mut n);
    stats.dce_removed += n;
    n
}

fn dce_block(body: &mut Vec<St>, live_after: &[Option<bool>], sid: &mut usize, n: &mut u64) {
    let old = std::mem::take(body);
    for mut st in old {
        let this = *sid;
        *sid += 1;
        match &mut st.kind {
            StKind::SetSlot { value, .. } => {
                if pure_nontrapping(value) {
                    if let Some(Some(false)) = live_after.get(this) {
                        *n += 1;
                        continue; // assigned value is never read again
                    }
                }
                body.push(st);
            }
            StKind::ExprSt(e) if pure_nontrapping(e) => {
                *n += 1; // pure expression statement: no effect at all
            }
            StKind::If {
                then_blk, else_blk, ..
            } => {
                dce_block(then_blk, live_after, sid, n);
                dce_block(else_blk, live_after, sid, n);
                body.push(st);
            }
            StKind::Loop { body: lb, step, .. } => {
                dce_block(lb, live_after, sid, n);
                dce_block(step, live_after, sid, n);
                body.push(st);
            }
            _ => body.push(st),
        }
    }
}

// ---- pass 5: loop-invariant code motion (O2) --------------------------------

fn licm(f: &mut FuncIr, stats: &mut PassStats) -> u64 {
    let mut n = 0;
    let mut slots = std::mem::take(&mut f.slots);
    licm_block(&mut f.body, &mut slots, &mut n);
    f.slots = slots;
    stats.licm_hoisted += n;
    n
}

fn licm_block(body: &mut Vec<St>, slots: &mut Vec<SlotKind>, n: &mut u64) {
    let old = std::mem::take(body);
    for mut st in old {
        match &mut st.kind {
            StKind::If {
                then_blk, else_blk, ..
            } => {
                licm_block(then_blk, slots, n);
                licm_block(else_blk, slots, n);
                body.push(st);
            }
            StKind::Loop {
                cond,
                body: lb,
                step,
                ..
            } => {
                // inner loops first: their hoisted temps land in this
                // loop's body and the next pipeline round can lift them
                // further if they are invariant here too
                licm_block(lb, slots, n);
                licm_block(step, slots, n);
                let mut assigned = BTreeSet::new();
                for block in [&*lb, &*step] {
                    for_each_stmt(block, &mut |_, st| {
                        if let StKind::SetSlot { slot, .. } = st.kind {
                            assigned.insert(slot);
                        }
                    });
                }
                let mut plans: Vec<Ex> = Vec::new();
                scan_invariants(cond, &assigned, &mut plans);
                for block in [&*lb, &*step] {
                    for_each_stmt(block, &mut |_, st| {
                        st.for_each_expr(|e| scan_invariants(e, &assigned, &mut plans))
                    });
                }
                let planned: Vec<(Ex, usize)> = plans
                    .into_iter()
                    .map(|ex| {
                        slots.push(SlotKind::Scalar(ex.ty()));
                        (ex, slots.len() - 1)
                    })
                    .collect();
                if !planned.is_empty() {
                    *n += planned.len() as u64;
                    let mut replace = |e: &mut Ex| {
                        e.walk_mut(&mut |e| {
                            if let Some((p, temp)) = planned.iter().find(|(p, _)| p == e) {
                                *e = Ex::Slot {
                                    slot: *temp,
                                    ty: p.ty(),
                                };
                            }
                        })
                    };
                    replace(cond);
                    for block in [lb, step] {
                        for_each_stmt_mut(block, &mut |_, st| st.for_each_expr_mut(&mut replace));
                    }
                    for (ex, temp) in &planned {
                        // hoisted temps charge the loop-header line: the
                        // span of the loop statement whose work they lift
                        body.push(St::new(
                            StKind::SetSlot {
                                slot: *temp,
                                value: ex.clone(),
                            },
                            st.span,
                        ));
                    }
                }
                body.push(st);
            }
            _ => body.push(st),
        }
    }
}

/// Is `e` hoistable out of a loop whose assigned slots are `assigned`?
/// Leaves are never worth a temp; all-constant trees are folding's job.
fn licm_candidate(e: &Ex, assigned: &BTreeSet<usize>) -> bool {
    match e {
        Ex::Const { .. } | Ex::Slot { .. } | Ex::LocalBase { .. } | Ex::PrivBase { .. } => false,
        _ => {
            if !pure_nontrapping(e) || eval_const(e, &[]).is_some() {
                return false;
            }
            let mut invariant = true;
            e.walk(&mut |e| {
                if let Ex::Slot { slot, .. } = e {
                    invariant &= !assigned.contains(slot);
                }
            });
            invariant
        }
    }
}

/// Collect maximal invariant subexpressions (top-down; an invariant tree
/// covers everything inside it).
fn scan_invariants(e: &Ex, assigned: &BTreeSet<usize>, plans: &mut Vec<Ex>) {
    if licm_candidate(e, assigned) {
        if !plans.iter().any(|p| p == e) {
            plans.push(e.clone());
        }
        return;
    }
    e.for_each_child(|c| scan_invariants(c, assigned, plans));
}

// ---- pass 6: local common-subexpression elimination (O2) --------------------

fn cse(f: &mut FuncIr, stats: &mut PassStats) -> u64 {
    let mut n = 0;
    let mut slots = std::mem::take(&mut f.slots);
    cse_block(&mut f.body, &mut slots, &mut n);
    f.slots = slots;
    stats.cse_replaced += n;
    n
}

fn cse_block(body: &mut Vec<St>, slots: &mut Vec<SlotKind>, n: &mut u64) {
    for st in body.iter_mut() {
        match &mut st.kind {
            StKind::If {
                then_blk, else_blk, ..
            } => {
                cse_block(then_blk, slots, n);
                cse_block(else_blk, slots, n);
            }
            StKind::Loop { body: lb, step, .. } => {
                cse_block(lb, slots, n);
                cse_block(step, slots, n);
            }
            _ => {}
        }
    }
    // straight-line runs: maximal sequences of Set/Store/ExprSt (control
    // statements and barriers end a run; the mask is constant within one)
    let old = std::mem::take(body);
    let mut run: Vec<St> = Vec::new();
    for st in old {
        let straight = matches!(
            st.kind,
            StKind::SetSlot { .. } | StKind::Store { .. } | StKind::ExprSt(_)
        );
        if straight {
            run.push(st);
        } else {
            process_run(&mut run, slots, n, body);
            body.push(st);
        }
    }
    process_run(&mut run, slots, n, body);
}

/// A candidate expression of a run, the slot versions it read and how
/// often it occurred.
type Occurrences<'e> = (&'e Ex, Vec<(usize, u64)>, u64);

/// One shared-expression plan: the expression, the slot versions it read,
/// and the temp slot once allocated.
struct CsePlan {
    ex: Ex,
    vers: Vec<(usize, u64)>,
    temp: Option<usize>,
}

/// Candidates are pure, nontrapping, non-leaf and not already constant.
/// Bare address nodes (`PtrAdd`) stay out: a pointer temp hides the base
/// from the access-pattern cost model without saving real work.
fn cse_candidate(e: &Ex) -> bool {
    match e {
        Ex::Const { .. }
        | Ex::Slot { .. }
        | Ex::LocalBase { .. }
        | Ex::PrivBase { .. }
        | Ex::PtrAdd { .. } => false,
        _ => pure_nontrapping(e) && eval_const(e, &[]).is_none(),
    }
}

fn cse_key(e: &Ex, vers: &BTreeMap<usize, u64>) -> Vec<(usize, u64)> {
    let mut uses = Vec::new();
    e.walk(&mut |e| {
        if let Ex::Slot { slot, .. } = e {
            uses.push(*slot);
        }
    });
    uses.sort_unstable();
    uses.dedup();
    uses.iter()
        .map(|s| (*s, vers.get(s).copied().unwrap_or(0)))
        .collect()
}

fn process_run(run: &mut Vec<St>, slots: &mut Vec<SlotKind>, n: &mut u64, out: &mut Vec<St>) {
    if run.len() < 2 {
        out.append(run);
        return;
    }
    // phase 1: count occurrences keyed by (expression, slot versions);
    // only the shared ones become plans
    let mut seen: Vec<Occurrences> = Vec::new();
    let mut vers: BTreeMap<usize, u64> = BTreeMap::new();
    for st in run.iter() {
        // candidates count at every nesting level: descending into a
        // candidate lets a subtree shared between two *different* larger
        // expressions still be found
        st.for_each_expr(|e| {
            e.walk(&mut |e| {
                if !cse_candidate(e) {
                    return;
                }
                let k = cse_key(e, &vers);
                if let Some(p) = seen.iter_mut().find(|p| *p.0 == *e && p.1 == k) {
                    p.2 += 1;
                } else {
                    seen.push((e, k, 1));
                }
            })
        });
        if let StKind::SetSlot { slot, .. } = &st.kind {
            *vers.entry(*slot).or_insert(0) += 1;
        }
    }
    let mut plans: Vec<CsePlan> = seen
        .into_iter()
        .filter(|&(_, _, count)| count >= 2)
        .map(|(ex, vers, _)| CsePlan {
            ex: ex.clone(),
            vers,
            temp: None,
        })
        .collect();
    if plans.is_empty() {
        out.append(run);
        return;
    }
    // phase 2: replay the identical versioning; materialize each shared
    // expression once, immediately before its first occurrence
    let mut vers: BTreeMap<usize, u64> = BTreeMap::new();
    for mut st in run.drain(..) {
        let span = st.span;
        let mut pending: Vec<St> = Vec::new();
        st.for_each_expr_mut(|e| {
            e.walk_mut(&mut |e| {
                if !cse_candidate(e) {
                    return;
                }
                let k = cse_key(e, &vers);
                let Some(p) = plans.iter_mut().find(|p| p.ex == *e && p.vers == k) else {
                    return;
                };
                let ty = e.ty();
                let first = p.temp.is_none();
                let temp = match p.temp {
                    Some(t) => t,
                    None => {
                        slots.push(SlotKind::Scalar(ty));
                        let t = slots.len() - 1;
                        p.temp = Some(t);
                        // the temp charges the line of its first occurrence
                        pending.push(St::new(
                            StKind::SetSlot {
                                slot: t,
                                value: e.clone(),
                            },
                            span,
                        ));
                        t
                    }
                };
                *e = Ex::Slot { slot: temp, ty };
                if !first {
                    *n += 1;
                }
            })
        });
        if let StKind::SetSlot { slot, .. } = &st.kind {
            *vers.entry(*slot).or_insert(0) += 1;
        }
        out.extend(pending);
        out.push(st);
    }
}

// ---- IR pretty-printer ------------------------------------------------------

/// Render `f` as a compact listing: one statement per line, a `L<n>`
/// gutter carrying each statement's source line, slots as `%<id>`. The
/// gutter is the point — diffing a dump before and after [`optimize`]
/// shows both what the passes rewrote *and* that every surviving
/// statement still maps to a real source line (the span-preservation
/// invariant the per-line profiler depends on).
pub fn dump(f: &FuncIr) -> String {
    let mut out = String::new();
    let kind = if f.is_kernel { "kernel" } else { "func" };
    out.push_str(&format!("{} {}(", kind, f.name));
    for (i, _) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("%{}: {}", i, slot_ty(&f.slots[i])));
    }
    out.push_str(") {\n");
    for (i, s) in f.slots.iter().enumerate().skip(f.params.len()) {
        out.push_str(&format!("  %{}: {}\n", i, slot_ty(s)));
    }
    dump_block(&f.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn slot_ty(s: &SlotKind) -> String {
    match s {
        SlotKind::Scalar(ty) => ty_name(*ty).to_string(),
        SlotKind::Ptr { space, elem } => format!("{}*{:?}", ty_name(*elem), space).to_lowercase(),
    }
}

fn ty_name(ty: ScalarType) -> &'static str {
    match ty {
        ScalarType::Bool => "bool",
        ScalarType::I8 => "i8",
        ScalarType::U8 => "u8",
        ScalarType::I16 => "i16",
        ScalarType::U16 => "u16",
        ScalarType::I32 => "i32",
        ScalarType::U32 => "u32",
        ScalarType::I64 => "i64",
        ScalarType::U64 => "u64",
        ScalarType::F32 => "f32",
        ScalarType::F64 => "f64",
    }
}

fn dump_block(block: &[St], depth: usize, out: &mut String) {
    for st in block {
        let pad = "  ".repeat(depth);
        let gutter = format!("{pad}L{:<3} ", st.span.line);
        match &st.kind {
            StKind::SetSlot { slot, value } => {
                out.push_str(&format!("{gutter}%{} = {}\n", slot, dump_ex(value)));
            }
            StKind::Store {
                addr, space, value, ..
            } => {
                out.push_str(&format!(
                    "{gutter}st.{} [{}] = {}\n",
                    format!("{space:?}").to_lowercase(),
                    dump_ex(addr),
                    dump_ex(value)
                ));
            }
            StKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                out.push_str(&format!("{gutter}if {} {{\n", dump_ex(cond)));
                dump_block(then_blk, depth + 1, out);
                if !else_blk.is_empty() {
                    out.push_str(&format!("{pad}     }} else {{\n"));
                    dump_block(else_blk, depth + 1, out);
                }
                out.push_str(&format!("{pad}     }}\n"));
            }
            StKind::Loop {
                cond,
                body,
                step,
                check_first,
            } => {
                let head = if *check_first { "while" } else { "do-while" };
                out.push_str(&format!("{gutter}{head} {} {{\n", dump_ex(cond)));
                dump_block(body, depth + 1, out);
                if !step.is_empty() {
                    out.push_str(&format!("{pad}     }} step {{\n"));
                    dump_block(step, depth + 1, out);
                }
                out.push_str(&format!("{pad}     }}\n"));
            }
            StKind::Return(e) => match e {
                Some(e) => out.push_str(&format!("{gutter}return {}\n", dump_ex(e))),
                None => out.push_str(&format!("{gutter}return\n")),
            },
            StKind::Break => out.push_str(&format!("{gutter}break\n")),
            StKind::Continue => out.push_str(&format!("{gutter}continue\n")),
            StKind::Barrier { .. } => out.push_str(&format!("{gutter}barrier\n")),
            StKind::ExprSt(e) => out.push_str(&format!("{gutter}{}\n", dump_ex(e))),
        }
    }
}

fn dump_ex(e: &Ex) -> String {
    match e {
        Ex::Const { bits, ty } => match ty {
            ScalarType::F32 => format!("{:?}f32", f32::from_bits(*bits as u32)),
            ScalarType::F64 => format!("{:?}f64", f64::from_bits(*bits)),
            ScalarType::Bool => format!("{}", *bits != 0),
            ScalarType::I8 | ScalarType::I16 | ScalarType::I32 | ScalarType::I64 => {
                format!("{}{}", *bits as i64, ty_name(*ty))
            }
            _ => format!("{}{}", bits, ty_name(*ty)),
        },
        Ex::Slot { slot, .. } => format!("%{slot}"),
        Ex::LocalBase { alloc, .. } => format!("local#{alloc}"),
        Ex::PrivBase { alloc, .. } => format!("priv#{alloc}"),
        Ex::PtrAdd { ptr, offset, .. } => {
            format!("&{}[{}]", dump_ex(ptr), dump_ex(offset))
        }
        Ex::Load { addr, space, .. } => {
            format!(
                "ld.{} [{}]",
                format!("{space:?}").to_lowercase(),
                dump_ex(addr)
            )
        }
        Ex::Bin { op, l, r, .. } => {
            let sym = match op {
                BOp::Add => "+",
                BOp::Sub => "-",
                BOp::Mul => "*",
                BOp::Div => "/",
                BOp::Rem => "%",
                BOp::And => "&",
                BOp::Or => "|",
                BOp::Xor => "^",
                BOp::Shl => "<<",
                BOp::Shr => ">>",
            };
            format!("({} {} {})", dump_ex(l), sym, dump_ex(r))
        }
        Ex::Cmp { op, l, r, .. } => {
            let sym = match op {
                COp::Lt => "<",
                COp::Gt => ">",
                COp::Le => "<=",
                COp::Ge => ">=",
                COp::Eq => "==",
                COp::Ne => "!=",
            };
            format!("({} {} {})", dump_ex(l), sym, dump_ex(r))
        }
        Ex::LogAnd { l, r } => format!("({} && {})", dump_ex(l), dump_ex(r)),
        Ex::LogOr { l, r } => format!("({} || {})", dump_ex(l), dump_ex(r)),
        Ex::Un { op, e, .. } => {
            let sym = match op {
                UOp::Neg => "-",
                UOp::Not => "!",
                UOp::BitNot => "~",
            };
            format!("{sym}{}", dump_ex(e))
        }
        Ex::Cast { to, e, .. } => format!("({})({})", ty_name(*to), dump_ex(e)),
        Ex::CallBuiltin { b, args, .. } => {
            let args: Vec<String> = args.iter().map(dump_ex).collect();
            format!("{b:?}({})", args.join(", "))
        }
        Ex::CallFunc { func, args, .. } => {
            let args: Vec<String> = args.iter().map(dump_ex).collect();
            format!("fn#{func}({})", args.join(", "))
        }
        Ex::Select { cond, t, f, .. } => {
            format!("({} ? {} : {})", dump_ex(cond), dump_ex(t), dump_ex(f))
        }
    }
}

// ---- tests ------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::{parser, sema};
    use std::collections::BTreeSet;

    fn compile(src: &str) -> Module {
        let tu = parser::parse(src).expect("parse");
        sema::analyze(&tu).expect("sema")
    }

    fn kernel<'m>(m: &'m Module, name: &str) -> &'m FuncIr {
        &m.funcs[m.kernels[name]]
    }

    fn source_lines(f: &FuncIr) -> BTreeSet<usize> {
        let mut lines = BTreeSet::new();
        for_each_stmt(&f.body, &mut |_, st| {
            lines.insert(st.span.line);
        });
        lines
    }

    fn count_stmts(f: &FuncIr) -> usize {
        let mut n = 0;
        for_each_stmt(&f.body, &mut |_, _| n += 1);
        n
    }

    #[test]
    fn o0_is_identity() {
        let mut m = compile(
            r#"
__kernel void k(__global int *out) {
    int a = 3;
    int b = a + 4;
    out[get_global_id(0)] = b;
}
"#,
        );
        let before = m.clone();
        let stats = optimize(&mut m, OptLevel::O0);
        assert_eq!(stats, PassStats::default());
        assert_eq!(m, before);
    }

    #[test]
    fn const_chain_folds_to_store_of_constant() {
        let mut m = compile(
            r#"
__kernel void k(__global int *out) {
    int a = 3;
    int b = a + 4;
    int c = b * 2;
    out[get_global_id(0)] = c;
}
"#,
        );
        let stats = optimize(&mut m, OptLevel::O1);
        assert!(stats.const_propagated > 0, "{stats:?}");
        assert!(stats.dce_removed >= 3, "a, b, c all die: {stats:?}");
        let f = kernel(&m, "k");
        let mut stored = None;
        for_each_stmt(&f.body, &mut |_, st| {
            if let StKind::Store { value, .. } = &st.kind {
                stored = eval_const(value, &[]);
            }
        });
        assert_eq!(stored, Some((14, ScalarType::I32)));
        // nothing is left but the store
        assert_eq!(count_stmts(f), 1);
    }

    #[test]
    fn constant_branch_is_spliced() {
        let mut m = compile(
            r#"
__kernel void k(__global int *out) {
    int p = 4;
    if (p > 3) {
        out[get_global_id(0)] = 1;
    } else {
        out[get_global_id(0)] = 2;
    }
}
"#,
        );
        let stats = optimize(&mut m, OptLevel::O1);
        assert!(stats.branches_simplified >= 1, "{stats:?}");
        let f = kernel(&m, "k");
        let mut stores = Vec::new();
        for_each_stmt(&f.body, &mut |_, st| {
            if let StKind::Store { value, .. } = &st.kind {
                stores.push(eval_const(value, &[]));
            }
        });
        assert_eq!(stores, vec![Some((1, ScalarType::I32))]);
        // no If survives
        for_each_stmt(&f.body, &mut |_, st| {
            assert!(!matches!(st.kind, StKind::If { .. }));
        });
    }

    #[test]
    fn dce_keeps_potentially_trapping_dead_code() {
        let mut m = compile(
            r#"
__kernel void k(__global int *out, int n, int d) {
    int dead_pure = n * 3;
    int dead_trap = n / d;
    out[get_global_id(0)] = 7;
}
"#,
        );
        let stats = optimize(&mut m, OptLevel::O2);
        assert!(stats.dce_removed >= 1, "{stats:?}");
        let f = kernel(&m, "k");
        let mut divs = 0;
        let mut muls = 0;
        for_each_stmt(&f.body, &mut |_, st| {
            if let StKind::SetSlot { value, .. } = &st.kind {
                if matches!(value, Ex::Bin { op: BOp::Div, .. }) {
                    divs += 1;
                }
                if matches!(value, Ex::Bin { op: BOp::Mul, .. }) {
                    muls += 1;
                }
            }
        });
        assert_eq!(divs, 1, "n/d may trap on d==0 and must survive DCE");
        assert_eq!(muls, 0, "n*3 is pure and dead");
    }

    #[test]
    fn licm_hoists_invariant_address_math() {
        let mut m = compile(
            r#"
__kernel void k(__global int *out, int n) {
    int acc = 0;
    for (int j = 0; j < 64; j = j + 1) {
        acc = acc + n * 4;
    }
    out[get_global_id(0)] = acc;
}
"#,
        );
        let before_lines = source_lines(kernel(&m, "k"));
        let stats = optimize(&mut m, OptLevel::O2);
        assert!(stats.licm_hoisted >= 1, "n * 4 is invariant: {stats:?}");
        let f = kernel(&m, "k");
        // the loop body no longer multiplies
        let mut in_loop_muls = 0;
        for_each_stmt(&f.body, &mut |_, st| {
            if let StKind::Loop { body, .. } = &st.kind {
                for inner in body {
                    if let StKind::SetSlot { value, .. } = &inner.kind {
                        let mut has_mul = false;
                        value.walk(&mut |e| has_mul |= matches!(e, Ex::Bin { op: BOp::Mul, .. }));
                        if has_mul {
                            in_loop_muls += 1;
                        }
                    }
                }
            }
        });
        assert_eq!(in_loop_muls, 0, "the multiply moved out of the loop");
        // span preservation: no invented lines
        let after_lines = source_lines(f);
        assert!(
            after_lines.is_subset(&before_lines),
            "optimized spans {after_lines:?} must come from {before_lines:?}"
        );
    }

    #[test]
    fn cse_shares_repeated_subexpressions() {
        let mut m = compile(
            r#"
__kernel void k(__global int *out, int n) {
    int i = (int)get_global_id(0);
    out[i] = (n + 1) * (n + 2);
    out[i + 1] = (n + 1) * (n + 2) + 5;
}
"#,
        );
        let stats = optimize(&mut m, OptLevel::O2);
        assert!(stats.cse_replaced >= 1, "{stats:?}");
    }

    #[test]
    fn spans_survive_full_o2_pipeline() {
        let src = r#"
__kernel void k(__global int *out, __global const int *in, int n) {
    int i = (int)get_global_id(0);
    int t = 0;
    for (int j = 0; j < n; j = j + 1) {
        t = t + in[j] * (n + 3);
    }
    if (i < n) {
        out[i] = t + (n + 3);
    }
}
"#;
        let mut m = compile(src);
        let before_lines = source_lines(kernel(&m, "k"));
        let stats = optimize(&mut m, OptLevel::O2);
        assert!(stats.total() > 0, "pipeline does real work: {stats:?}");
        let after_lines = source_lines(kernel(&m, "k"));
        assert!(
            after_lines.is_subset(&before_lines),
            "no invented source lines: {after_lines:?} vs {before_lines:?}"
        );
        assert!(
            !after_lines.contains(&0),
            "no synthetic (line 0) statements created"
        );
    }

    #[test]
    fn opt_level_flags_round_trip() {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            assert_eq!(OptLevel::from_flag(level.flag()), Some(level));
        }
        assert_eq!(OptLevel::from_flag("-O3"), None);
        assert_eq!(OptLevel::default(), OptLevel::O1);
        assert!(OptLevel::O0 < OptLevel::O1 && OptLevel::O1 < OptLevel::O2);
    }

    #[test]
    fn pass_stats_absorb_and_total() {
        let mut a = PassStats {
            const_folded: 1,
            const_propagated: 2,
            dce_removed: 3,
            branches_simplified: 4,
            cse_replaced: 5,
            licm_hoisted: 6,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.total(), 2 * b.total());
        assert_eq!(a.total(), 42);
    }

    #[test]
    fn dump_shows_rewrites_and_never_invents_source_lines() {
        // the README's before/after mid-end listing is this kernel
        let src = r#"
__kernel void smooth(__global float *dst, __global const float *src, const int n) {
    int i = (int)get_global_id(0);
    float gain = 2.0f * 0.75f;
    for (int j = 0; j < n; j = j + 1) {
        float w = gain / (float)n;
        dst[i * 8 + j] = src[i * 8 + j] * w;
    }
}
"#;
        let tu = parser::parse(src).expect("parse");
        let mut m = sema::analyze(&tu).expect("sema");
        let before = dump(kernel(&m, "smooth"));
        optimize(&mut m, OptLevel::O2);
        let after = dump(kernel(&m, "smooth"));

        // the fold is visible: `2.0f * 0.75f` became the literal 1.5
        assert!(before.contains("%4 = 1.5f32"), "{before}");
        // ...then propagated into the hoisted division and DCE'd away
        assert!(after.contains("(1.5f32 / (f32)(%2))"), "{after}");
        assert!(!after.contains("%4 = "), "{after}");
        // LICM pulled `i * 8` in front of the loop, CSE shared the address
        let loop_at = after.find("while").expect("loop survives");
        let hoist_at = after.find("(%3 * 8i32)").expect("hoisted index");
        assert!(hoist_at < loop_at, "{after}");

        // every gutter line in the optimized dump names a line that exists
        // in the unoptimized dump — the span-preservation invariant,
        // readable straight off the listing
        let lines = |s: &str| -> BTreeSet<String> {
            s.split_whitespace()
                .filter(|w| w.starts_with('L') && w[1..].chars().all(|c| c.is_ascii_digit()))
                .map(str::to_string)
                .collect()
        };
        assert!(
            lines(&after).is_subset(&lines(&before)),
            "optimized dump invented source lines:\n{after}"
        );
    }
}
