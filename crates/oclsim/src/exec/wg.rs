//! Compiled work-group execution backend ("wg").
//!
//! The reference SIMT interpreter ([`super::interp`]) dispatches every IR
//! statement once per work-*item* vector, which is counter-exact but
//! dominates host wall time on large launches. This module adopts the pocl
//! CPU execution strategy: each kernel is rewritten by **barrier-aware loop
//! fission** into *work-item loops* over the local range, the fissioned
//! bodies are lowered to a compact **register bytecode**, and one VM
//! activation executes a whole work-group — warp-sized chunk by warp-sized
//! chunk, so the coalescing / bank-conflict / divergence counter model
//! still sees exactly the warps the reference backend saw.
//!
//! # Equivalence contract
//!
//! Every charge the reference interpreter makes decomposes additively per
//! warp: instruction charges are `cost x active_warps`, memory coalescing
//! and bank conflicts are computed warp-by-warp, and divergence loss is
//! `cost x (covered - active)` per warp. The VM executes one warp at a
//! time with the same warp boundaries and routes every delta through the
//! same accumulate-then-merge chokepoint discipline as
//! `interp::GroupRun::bump`, so [`GroupStats`], launch totals and
//! per-line counter maps are **byte-identical** to the reference backend
//! (this is enforced by the `config_matrix`, `backend_equivalence` and
//! `report_matrix` tests, which run both engines in one process).
//!
//! The one observable difference is error *ordering* on faulting kernels:
//! the VM runs warp 0 to completion before warp 1 starts, so when two
//! different lanes would trap at different statements the backend may
//! report the other trap first. Racy kernels (undefined behaviour) can
//! also observe a different interleaving; the dynamic race sanitizer
//! depends on statement-major order, so sanitized launches always take the
//! reference backend.
//!
//! # Fallback rules
//!
//! Planning is per kernel and conservative. A kernel falls back to the
//! reference interpreter (with a build-log note and a
//! `oclsim_exec_wg_fallbacks_total` metric) when it uses:
//! * atomics — the per-item *old values* depend on statement-major order;
//! * a barrier together with `return`, or a barrier under divergent
//!   control flow (inside an `if`, in a loop `step`, or in a loop whose
//!   condition the uniformity analysis cannot prove group-uniform);
//! * `break`/`continue` binding to a barrier-carrying loop;
//! * helper functions that contain barriers, recursion, or array
//!   allocations;
//! * statements with no source line (synthetic IR built by tests).
//!
//! At launch time the reference backend is also used when the dynamic
//! race sanitizer is on, or when the device SIMD width is 1 (the scalar
//! segment-cache model is access-order-sensitive) or above 64 (warp
//! execution masks are single `u64` words).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use crate::clc::ast::AddrSpace;
use crate::clc::dataflow::{solve, Cfg, Uni, Uniformity};
use crate::error::{Error, Result};
use crate::exec::interp::{
    arg_pointer, bin_cost, lane_priv, load_lane_mem, load_le, local_pointer, math1_fn, math2_fn,
    math_class, math_cost, priv_pointer, ptr_add, store_lane_mem, store_le, LaunchEnv, BASE_SHIFT,
    MAX_CALL_DEPTH, OFF_MASK, TAG_CONST, TAG_GLOBAL, TAG_LOCAL, TAG_SHIFT,
};
use crate::exec::ir::{for_each_stmt, BOp, Builtin, Ex, FuncIr, Module, St, StKind};
use crate::exec::launch::BoundArg;
use crate::exec::ops;
use crate::prof::cache::{GroupCacheSim, L2Record};
use crate::prof::counters::{GroupCounters, InstrClass};
use crate::timing::GroupStats;
use crate::types::ScalarType;

// ---- plan data model --------------------------------------------------------

/// Register index within a frame. Slots `0..nslots` mirror the IR frame
/// slots, `nslots` is the return-value register, temps follow.
type Reg = u16;

/// One bytecode instruction. Registers are frame-relative; every value op
/// reads its operands and writes its destination per lane of the current
/// warp chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Switch per-line counter attribution to `line`.
    SetLine(u32),
    /// `dst = bits` in every lane (constants, pointer bases).
    ConstFill {
        dst: Reg,
        bits: u64,
    },
    /// `dst[lane] = src[lane]` for active lanes (slot assignment, `&&`/`||`
    /// result merge).
    CopyMasked {
        dst: Reg,
        src: Reg,
    },
    /// `dst[lane] = src[lane]` for all lanes of the chunk (call argument
    /// staging; masked-off lanes carry unobservable garbage).
    CopyFull {
        dst: Reg,
        src: Reg,
    },
    /// Geometry builtin (`dim` is ignored for `get_work_dim`).
    Geom {
        dst: Reg,
        dim: Dim,
        b: Builtin,
    },
    /// `dst = ptr + off * elem_size` (wrapping, offset-field arithmetic).
    PtrAdd {
        dst: Reg,
        ptr: Reg,
        off: Reg,
        elem_size: u32,
    },
    /// A `Load` or `Store`.
    Mem(MemOp),
    Bin {
        dst: Reg,
        l: Reg,
        r: Reg,
        op: BOp,
        ty: ScalarType,
    },
    Cmp {
        dst: Reg,
        l: Reg,
        r: Reg,
        op: crate::exec::ir::COp,
        ty: ScalarType,
    },
    Un {
        dst: Reg,
        a: Reg,
        op: crate::exec::ir::UOp,
        ty: ScalarType,
    },
    Cast {
        dst: Reg,
        a: Reg,
        from: ScalarType,
        to: ScalarType,
    },
    Math1 {
        dst: Reg,
        a: Reg,
        b: Builtin,
        ty: ScalarType,
    },
    Math2 {
        dst: Reg,
        a: Reg,
        c: Reg,
        b: Builtin,
        ty: ScalarType,
    },
    Math3 {
        dst: Reg,
        x: Reg,
        y: Reg,
        z: Reg,
        b: Builtin,
        ty: ScalarType,
    },
    /// Ternary merge: `dst[lane] = cond[lane] ? t[lane] : f[lane]`, plus
    /// the select's ALU charge under the full pre-divergence mask.
    SelMerge {
        dst: Reg,
        cond: Reg,
        t: Reg,
        f: Reg,
    },
    /// The 1-cycle control charge of an `if`/loop test.
    ChargeBranch,
    /// Enter an `if`: split exec by the truthiness of `cond` (`invert`
    /// enters on falsy — the `||` right-hand side).
    PushIf {
        cond: Reg,
        invert: bool,
    },
    /// Swap to the other side of the innermost `if`.
    ElseSwap,
    /// Leave the innermost `if`, reconverging finished lanes.
    PopIf,
    /// Enter a loop (records the entry mask for reconvergence).
    PushLoop,
    /// End of one loop-body iteration: `continue` lanes rejoin.
    LoopIterEnd,
    /// Leave the innermost loop: entry lanes minus returned lanes resume.
    PopLoop,
    /// `exec &= truthy(cond)` — the loop test.
    AndTruthy {
        cond: Reg,
    },
    /// `exec &= !returned`.
    AndNotRet,
    Break,
    Continue,
    /// Return from the current function. The return *value* (if any) was
    /// already `CopyMasked` into the frame's return register by the
    /// preceding op; this op only retires the active lanes.
    Return,
    /// Helper-function call: `nargs` values staged at `abase..`.
    Call {
        dst: Reg,
        func: u32,
        abase: Reg,
        nargs: u16,
    },
    Jmp(u32),
    /// Jump iff no lane of the chunk is active (skips dead regions and
    /// guards loop back-edges against empty-mask spinning).
    JmpIfEmpty(u32),
}

/// The dimension operand of a geometry builtin: an arbitrary expression in
/// the language, a literal in every kernel in the tree — resolved at plan
/// time, where it makes the builtin a table copy or a fill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dim {
    /// Already clamped to `0..=2`, like the run-time value is.
    Const(u8),
    Reg(Reg),
}

/// A memory instruction: `data[lane] = *addr[lane]`, or the reverse when
/// `store` is set. `space` is the static address space of the pointer type
/// (it selects the charges); the pointer's tag selects the memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOp {
    pub addr: Reg,
    /// Destination of a load, value of a store.
    pub data: Reg,
    pub elem: ScalarType,
    pub space: AddrSpace,
    pub store: bool,
}

/// A straight-line bytecode chunk (jump targets are indices into it).
pub type Code = Vec<Op>;

/// One node of the fissioned kernel body. `Region`s are barrier-free and
/// run to completion warp by warp; barriers and barrier-carrying loops
/// become group-level structure, which is exactly the pocl "work-item
/// loop" transformation with the loop inverted to warp chunks.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupOp {
    /// A barrier-free span of the kernel, compiled to bytecode. Executed
    /// once per warp chunk with a full entry mask.
    Region(Code),
    /// A work-group barrier (charged once per group, like the reference).
    Barrier { line: u32 },
    /// A loop that contains barriers. Its condition is proven group-uniform
    /// at plan time; the VM evaluates it for every warp (reproducing the
    /// reference charges) and takes the group-wide decision from lane 0,
    /// verifying at runtime that every lane agreed.
    UniformLoop {
        cond: Code,
        cond_reg: Reg,
        body: Vec<GroupOp>,
        step: Code,
        check_first: bool,
    },
}

/// Compiled bytecode for one helper function.
#[derive(Debug, PartialEq)]
pub struct FuncPlan {
    pub nregs: usize,
    /// Register holding the function's return value (`= nslots`).
    pub ret_reg: Reg,
    pub code: Code,
}

/// Compiled, fissioned plan for one kernel.
#[derive(Debug, PartialEq)]
pub struct KernelPlan {
    pub nregs: usize,
    pub ops: Vec<GroupOp>,
    /// Whether a reused register frame must be zeroed before each run.
    /// `false` when the plan-time scan proves every register is written
    /// before it is read, so stale values from the previous group are
    /// unobservable.
    pub zero_frame: bool,
}

/// Per-module plan table, indexed by [`crate::exec::ir::FuncId`].
#[derive(Debug, Default)]
pub struct ModulePlan {
    /// Helper-function bytecode (entries only for helpers reachable from a
    /// plannable kernel).
    pub funcs: Vec<Option<Arc<FuncPlan>>>,
    /// Per-kernel plan, or the human-readable fallback reason.
    pub kernels: Vec<Option<std::result::Result<Arc<KernelPlan>, String>>>,
}

/// Lazily computed, module-attached plan cache. The cache is *identity*
/// state, not value state: clones start empty and every instance compares
/// equal, so [`Module`] keeps its derived `Clone`/`PartialEq` semantics.
#[derive(Default)]
pub struct PlanCache(OnceLock<Arc<ModulePlan>>);

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache(OnceLock::new())
    }
}

impl PartialEq for PlanCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("planned", &self.0.get().is_some())
            .finish()
    }
}

/// The wg execution plan of `module`, computed on first use and cached on
/// the module (device-independent: costs and SIMD width bind at launch).
pub fn module_plan(module: &Module) -> Arc<ModulePlan> {
    module
        .wg_plans
        .0
        .get_or_init(|| Arc::new(plan_module(module)))
        .clone()
}

// ---- planner ---------------------------------------------------------------

type PlanResult<T> = std::result::Result<T, String>;

/// Plan every kernel of `module`: fission + bytecode, or a fallback reason.
pub fn plan_module(module: &Module) -> ModulePlan {
    let _span = crate::telemetry::span("clc", "wg-plan");
    let mut plan = ModulePlan {
        funcs: module.funcs.iter().map(|_| None).collect(),
        kernels: module.funcs.iter().map(|_| None).collect(),
    };
    let mut helper_memo: HashMap<usize, PlanResult<Arc<FuncPlan>>> = HashMap::new();
    for &fid in module.kernels.values() {
        let result = plan_kernel(module, fid, &mut helper_memo);
        plan.kernels[fid] = Some(result.map(Arc::new));
    }
    for (fid, fp) in helper_memo {
        if let Ok(fp) = fp {
            plan.funcs[fid] = Some(fp);
        }
    }
    plan
}

/// Kernels of `module` that the wg backend declines, as
/// `(kernel name, line of the kernel's first statement, reason)` sorted by
/// kernel name. Planning is memoized on the module, so calling this after a
/// launch (or before one) costs nothing extra.
pub fn fallback_reasons(module: &Module) -> Vec<(String, usize, String)> {
    let plan = module_plan(module);
    let mut names: Vec<(&String, usize)> = module.kernels.iter().map(|(n, &f)| (n, f)).collect();
    names.sort();
    let mut out = Vec::new();
    for (name, fid) in names {
        if let Some(Err(reason)) = &plan.kernels[fid] {
            let line = module.funcs[fid]
                .body
                .first()
                .map(|st| st.span.line)
                .unwrap_or(1);
            out.push((name.clone(), line, reason.clone()));
        }
    }
    out
}

/// Compile `source` the way `Program::build` does (preprocess, parse, sema,
/// `-O2`) and report which kernels the wg backend would decline. For
/// lint-style tooling that works from source strings.
pub fn fallback_report(source: &str) -> Result<Vec<(String, usize, String)>> {
    let src = crate::clc::pp::preprocess(source, &HashMap::new())?;
    let tu = crate::clc::parser::parse(&src)?;
    let mut module = crate::clc::sema::analyze(&tu)?;
    crate::clc::opt::optimize(&mut module, crate::clc::opt::OptLevel::O2);
    Ok(fallback_reasons(&module))
}

fn plan_kernel(
    module: &Module,
    fid: usize,
    helper_memo: &mut HashMap<usize, PlanResult<Arc<FuncPlan>>>,
) -> PlanResult<KernelPlan> {
    let kernel = &module.funcs[fid];

    // plan every reachable helper first (memoized across kernels)
    let mut reach = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = HashSet::new();
    collect_callees(module, &kernel.body, &mut reach, &mut seen, &mut stack)?;
    for &callee in &reach {
        let f = &module.funcs[callee];
        if f.has_barrier {
            return Err(format!("helper function `{}` contains a barrier", f.name));
        }
        helper_memo
            .entry(callee)
            .or_insert_with(|| check_fn(f).and_then(|()| compile_helper(f)).map(Arc::new));
        match &helper_memo[&callee] {
            Ok(_) => {}
            Err(e) => return Err(e.clone()),
        }
    }

    check_fn(kernel)?;
    if kernel.has_barrier && contains(&kernel.body, |k| matches!(k, StKind::Return(_))) {
        return Err("kernel mixes barriers with `return`".into());
    }

    // group-uniformity facts for barrier-carrying loop conditions
    let uctx = if kernel.has_barrier {
        let mut un = Uniformity::new(kernel);
        let cfg = Cfg::build(kernel);
        let _ = solve(&cfg, &mut un);
        let mut sid_of = HashMap::new();
        for_each_stmt(&kernel.body, &mut |sid, st| {
            sid_of.insert(st as *const St as usize, sid);
        });
        Some((sid_of, un.cond_uniformity().clone()))
    } else {
        None
    };

    let mut c = Compiler::new(kernel)?;
    let ops = fission_block(&kernel.body, &mut c, uctx.as_ref())?;
    let zero_frame = frame_needs_zeroing(&ops, c.nregs, kernel.params.len());
    Ok(KernelPlan {
        nregs: c.nregs,
        ops,
        zero_frame,
    })
}

/// Def-before-use scan over a kernel plan: `false` iff every register read
/// is preceded by a full-width write in program order, starting from the
/// argument slots bound by [`WgGroupRun::run`]. Only fully straight-line
/// plans qualify — under control flow, calls, or barrier loops a write
/// covers just the active lanes, so the scan conservatively keeps the
/// per-group frame zeroing.
fn frame_needs_zeroing(ops: &[GroupOp], nregs: usize, nargs: usize) -> bool {
    let mut defined = vec![false; nregs];
    defined[..nargs.min(nregs)].fill(true);
    for gop in ops {
        let code = match gop {
            GroupOp::Region(code) if code_is_straight(code) => code,
            GroupOp::Barrier { .. } => continue,
            _ => return true,
        };
        for op in code {
            let (uses, def): ([Option<Reg>; 3], Option<Reg>) = match *op {
                Op::SetLine(_) | Op::ChargeBranch => ([None; 3], None),
                Op::ConstFill { dst, .. } => ([None; 3], Some(dst)),
                // straight-line regions run under a full mask, so a masked
                // copy overwrites every lane and never reads its dst
                Op::CopyMasked { dst, src } | Op::CopyFull { dst, src } => {
                    ([Some(src), None, None], Some(dst))
                }
                Op::Geom { dst, dim, .. } => {
                    let dim = match dim {
                        Dim::Reg(r) => Some(r),
                        Dim::Const(_) => None,
                    };
                    ([dim, None, None], Some(dst))
                }
                Op::PtrAdd { dst, ptr, off, .. } => ([Some(ptr), Some(off), None], Some(dst)),
                Op::Mem(m) if m.store => ([Some(m.addr), Some(m.data), None], None),
                Op::Mem(m) => ([Some(m.addr), None, None], Some(m.data)),
                Op::Bin { dst, l, r, .. } | Op::Cmp { dst, l, r, .. } => {
                    ([Some(l), Some(r), None], Some(dst))
                }
                Op::Un { dst, a, .. } | Op::Cast { dst, a, .. } | Op::Math1 { dst, a, .. } => {
                    ([Some(a), None, None], Some(dst))
                }
                Op::Math2 { dst, a, c, .. } => ([Some(a), Some(c), None], Some(dst)),
                Op::Math3 { dst, x, y, z, .. } => ([Some(x), Some(y), Some(z)], Some(dst)),
                Op::SelMerge { dst, cond, t, f } => ([Some(cond), Some(t), Some(f)], Some(dst)),
                // control flow and calls cannot appear in straight code
                _ => return true,
            };
            for u in uses.into_iter().flatten() {
                if !defined[u as usize] {
                    return true;
                }
            }
            if let Some(d) = def {
                defined[d as usize] = true;
            }
        }
    }
    false
}

/// Transitively collect helper functions called from `body` (depth-first;
/// a cycle means recursion, which the reference traps at runtime and the
/// planner declines at plan time).
fn collect_callees(
    module: &Module,
    body: &[St],
    out: &mut Vec<usize>,
    seen: &mut HashSet<usize>,
    stack: &mut HashSet<usize>,
) -> PlanResult<()> {
    let mut here = Vec::new();
    for_each_stmt(body, &mut |_, st| {
        st.for_each_expr(|e| {
            e.walk(&mut |e| {
                if let Ex::CallFunc { func, .. } = e {
                    here.push(*func);
                }
            })
        });
    });
    for func in here {
        if stack.contains(&func) {
            return Err(format!(
                "recursive call through `{}`",
                module.funcs[func].name
            ));
        }
        if seen.insert(func) {
            out.push(func);
            stack.insert(func);
            collect_callees(module, &module.funcs[func].body, out, seen, stack)?;
            stack.remove(&func);
        }
    }
    Ok(())
}

/// Plan-time checks shared by kernels and helpers: every statement needs a
/// real source line (per-line attribution has no compile-time join rule
/// for line 0) and atomics are statement-major-order sensitive.
fn check_fn(f: &FuncIr) -> PlanResult<()> {
    let mut err = None;
    for_each_stmt(&f.body, &mut |_, st| {
        if err.is_some() {
            return;
        }
        if st.span.line == 0 {
            err = Some(format!(
                "function `{}` has a statement with no source line",
                f.name
            ));
            return;
        }
        st.for_each_expr(|e| {
            e.walk(&mut |e| {
                if let Ex::CallBuiltin { b, .. } = e {
                    if b.is_atomic() && err.is_none() {
                        err = Some(format!(
                            "function `{}` uses an atomic builtin (old-value ordering is \
                         statement-major)",
                            f.name
                        ));
                    }
                }
            })
        });
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Does `body` hold a statement that `pred` picks, at any depth?
fn contains(body: &[St], pred: fn(&StKind) -> bool) -> bool {
    let mut found = false;
    for_each_stmt(body, &mut |_, st| found |= pred(&st.kind));
    found
}

/// `break`/`continue` statements that would bind to the *enclosing* loop
/// (i.e. not nested inside a deeper loop of `body`).
fn block_breaks_out(body: &[St]) -> bool {
    body.iter().any(|st| match &st.kind {
        StKind::Break | StKind::Continue => true,
        StKind::If {
            then_blk, else_blk, ..
        } => block_breaks_out(then_blk) || block_breaks_out(else_blk),
        // an inner loop captures its own break/continue
        StKind::Loop { .. } => false,
        _ => false,
    })
}

/// Can control *escape* this statement sideways (return/break/continue),
/// leaving the execution mask smaller than it entered? Used to place
/// empty-mask jumps after statements, mirroring the reference
/// interpreter's per-statement `live.any()` check.
fn may_escape(st: &St) -> bool {
    match &st.kind {
        StKind::Return(_) | StKind::Break | StKind::Continue => true,
        StKind::If {
            then_blk, else_blk, ..
        } => then_blk.iter().any(may_escape) || else_blk.iter().any(may_escape),
        // break/continue re-bind inside the nested loop; only return escapes
        StKind::Loop { body, step, .. } => {
            contains(body, |k| matches!(k, StKind::Return(_)))
                || contains(step, |k| matches!(k, StKind::Return(_)))
        }
        _ => false,
    }
}

type UniformCtx = (HashMap<usize, usize>, BTreeMap<usize, Uni>);

/// Barrier-aware loop fission: split `stmts` into barrier-free regions,
/// group barriers, and uniform loops around barrier-carrying loop bodies.
fn fission_block(
    stmts: &[St],
    c: &mut Compiler<'_>,
    uctx: Option<&UniformCtx>,
) -> PlanResult<Vec<GroupOp>> {
    let mut ops = Vec::new();
    let mut region: Vec<&St> = Vec::new();
    let flush =
        |region: &mut Vec<&St>, ops: &mut Vec<GroupOp>, c: &mut Compiler<'_>| -> PlanResult<()> {
            if region.is_empty() {
                return Ok(());
            }
            let code = c.compile_region(region)?;
            region.clear();
            ops.push(GroupOp::Region(code));
            Ok(())
        };
    for st in stmts {
        match &st.kind {
            StKind::Barrier { .. } => {
                flush(&mut region, &mut ops, c)?;
                ops.push(GroupOp::Barrier {
                    line: st.span.line as u32,
                });
            }
            StKind::Loop {
                cond,
                body,
                step,
                check_first,
            } if contains(body, |k| matches!(k, StKind::Barrier { .. }))
                || contains(step, |k| matches!(k, StKind::Barrier { .. })) =>
            {
                flush(&mut region, &mut ops, c)?;
                if contains(step, |k| matches!(k, StKind::Barrier { .. })) {
                    return Err("barrier in a loop step".into());
                }
                if block_breaks_out(body) {
                    return Err("`break`/`continue` out of a barrier-carrying loop".into());
                }
                let ctx = uctx.expect("barrier loops only appear in barrier kernels");
                let sid = ctx
                    .0
                    .get(&(st as *const St as usize))
                    .copied()
                    .expect("every statement is numbered");
                // `cond_uni` records only *demoted* conditions; a
                // condition absent from the map stayed `Uni::BOTH` through
                // the fixpoint, i.e. is provably uniform.
                let uni = ctx.1.get(&sid).copied().unwrap_or(Uni::BOTH);
                if !uni.guniform {
                    return Err(
                        "barrier-carrying loop condition is not provably group-uniform".into(),
                    );
                }
                let (cond_code, cond_reg) = c.compile_cond_chunk(cond, st.span.line as u32)?;
                let inner = fission_block(body, c, uctx)?;
                let step_code = c.compile_region(&step.iter().collect::<Vec<_>>())?;
                ops.push(GroupOp::UniformLoop {
                    cond: cond_code,
                    cond_reg,
                    body: inner,
                    step: step_code,
                    check_first: *check_first,
                });
            }
            StKind::If {
                then_blk, else_blk, ..
            } if contains(then_blk, |k| matches!(k, StKind::Barrier { .. }))
                || contains(else_blk, |k| matches!(k, StKind::Barrier { .. })) =>
            {
                return Err("barrier under divergent control flow (inside an `if`)".into());
            }
            _ => region.push(st),
        }
    }
    flush(&mut region, &mut ops, c)?;
    Ok(ops)
}

fn compile_helper(f: &FuncIr) -> PlanResult<FuncPlan> {
    // helpers share one plan across every kernel of the module, but the
    // reference interpreter resolves array allocations against the
    // *launched kernel's* tables — decline the ambiguity
    if !f.local_allocs.is_empty() || !f.priv_allocs.is_empty() {
        return Err(format!(
            "helper function `{}` declares an array allocation",
            f.name
        ));
    }
    let mut c = Compiler::new_helper(f)?;
    let code = c.compile_region(&f.body.iter().collect::<Vec<_>>())?;
    Ok(FuncPlan {
        nregs: c.nregs,
        ret_reg: c.ret_reg,
        code,
    })
}

// ---- bytecode compiler ------------------------------------------------------

struct Compiler<'m> {
    /// Allocation tables are resolved against the *kernel* (the reference
    /// semantics); helpers are compiled with `None` and reject bases.
    kernel: Option<&'m FuncIr>,
    nslots: usize,
    /// Register holding the function's return value (`= nslots`).
    ret_reg: Reg,
    /// Next free temp register (reset to `nslots + 1` between statements).
    tmp_top: usize,
    /// High-water register count (frame size).
    nregs: usize,
    code: Code,
    labels: Vec<u32>,
    fixups: Vec<(usize, usize)>,
}

const UNBOUND: u32 = u32::MAX;

impl<'m> Compiler<'m> {
    fn build(kernel: Option<&'m FuncIr>, f: &'m FuncIr) -> PlanResult<Compiler<'m>> {
        let nslots = f.slots.len();
        if nslots + 1 > Reg::MAX as usize {
            return Err("kernel needs more than 65535 registers".into());
        }
        Ok(Compiler {
            kernel,
            nslots,
            ret_reg: nslots as Reg,
            tmp_top: nslots + 1,
            nregs: nslots + 1,
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        })
    }

    fn new(kernel: &'m FuncIr) -> PlanResult<Compiler<'m>> {
        Compiler::build(Some(kernel), kernel)
    }

    fn new_helper(f: &'m FuncIr) -> PlanResult<Compiler<'m>> {
        Compiler::build(None, f)
    }

    fn new_tmp(&mut self) -> PlanResult<Reg> {
        let r = self.tmp_top;
        if r > Reg::MAX as usize {
            return Err("kernel needs more than 65535 registers".into());
        }
        self.tmp_top += 1;
        self.nregs = self.nregs.max(self.tmp_top);
        Ok(r as Reg)
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(UNBOUND);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        self.labels[label] = self.code.len() as u32;
    }

    fn emit_jmp(&mut self, label: usize) {
        self.fixups.push((self.code.len(), label));
        self.code.push(Op::Jmp(UNBOUND));
    }

    fn emit_jmp_if_empty(&mut self, label: usize) {
        self.fixups.push((self.code.len(), label));
        self.code.push(Op::JmpIfEmpty(UNBOUND));
    }

    /// Patch jumps and take the finished chunk, resetting for the next one.
    fn finish_chunk(&mut self) -> Code {
        for &(pos, label) in &self.fixups {
            let target = self.labels[label];
            debug_assert_ne!(target, UNBOUND, "unbound label");
            match &mut self.code[pos] {
                Op::Jmp(t) | Op::JmpIfEmpty(t) => *t = target,
                _ => unreachable!("fixup points at a jump"),
            }
        }
        self.fixups.clear();
        self.labels.clear();
        std::mem::take(&mut self.code)
    }

    /// Compile a barrier-free statement span into one chunk.
    fn compile_region(&mut self, stmts: &[&St]) -> PlanResult<Code> {
        let exit = self.new_label();
        self.compile_block_refs(stmts, exit)?;
        self.bind(exit);
        Ok(self.finish_chunk())
    }

    /// Compile a loop condition into its own chunk: line switch, the
    /// condition value, and the branch charge (the reference order).
    fn compile_cond_chunk(&mut self, cond: &Ex, header_line: u32) -> PlanResult<(Code, Reg)> {
        self.code.push(Op::SetLine(header_line));
        let mark = self.tmp_top;
        let r = self.compile_ex(cond)?;
        self.code.push(Op::ChargeBranch);
        self.tmp_top = mark;
        Ok((self.finish_chunk(), r))
    }

    fn compile_block_refs(&mut self, stmts: &[&St], exit: usize) -> PlanResult<()> {
        for st in stmts {
            self.compile_stmt(st, exit)?;
        }
        Ok(())
    }

    fn compile_block(&mut self, stmts: &[St], exit: usize) -> PlanResult<()> {
        for st in stmts {
            self.compile_stmt(st, exit)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, st: &St, block_exit: usize) -> PlanResult<()> {
        self.code.push(Op::SetLine(st.span.line as u32));
        let mark = self.tmp_top;
        match &st.kind {
            StKind::SetSlot { slot, value } => {
                let v = self.compile_ex(value)?;
                self.code.push(Op::CopyMasked {
                    dst: *slot as Reg,
                    src: v,
                });
            }
            StKind::Store {
                addr,
                elem,
                space,
                value,
            } => {
                let a = self.compile_ex(addr)?;
                let v = self.compile_ex(value)?;
                self.code.push(Op::Mem(MemOp {
                    addr: a,
                    data: v,
                    elem: *elem,
                    space: *space,
                    store: true,
                }));
            }
            StKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.compile_ex(cond)?;
                self.code.push(Op::ChargeBranch);
                self.code.push(Op::PushIf {
                    cond: c,
                    invert: false,
                });
                self.tmp_top = mark;
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.emit_jmp_if_empty(l_else);
                self.compile_block(then_blk, l_else)?;
                self.bind(l_else);
                self.code.push(Op::ElseSwap);
                self.emit_jmp_if_empty(l_end);
                self.compile_block(else_blk, l_end)?;
                self.bind(l_end);
                self.code.push(Op::PopIf);
            }
            StKind::Loop {
                cond,
                body,
                step,
                check_first,
            } => {
                self.code.push(Op::PushLoop);
                let l_top = self.new_label();
                let l_iter_end = self.new_label();
                let l_step_end = self.new_label();
                let l_exit = self.new_label();
                if *check_first {
                    let c = self.compile_ex(cond)?;
                    self.code.push(Op::ChargeBranch);
                    self.code.push(Op::AndTruthy { cond: c });
                    self.tmp_top = mark;
                }
                self.bind(l_top);
                self.emit_jmp_if_empty(l_exit);
                self.compile_block(body, l_iter_end)?;
                self.bind(l_iter_end);
                self.code.push(Op::LoopIterEnd);
                self.emit_jmp_if_empty(l_exit);
                self.compile_block(step, l_step_end)?;
                self.bind(l_step_end);
                self.code.push(Op::AndNotRet);
                self.emit_jmp_if_empty(l_exit);
                // the loop test is charged to the loop-header line
                self.code.push(Op::SetLine(st.span.line as u32));
                let c = self.compile_ex(cond)?;
                self.code.push(Op::ChargeBranch);
                self.code.push(Op::AndTruthy { cond: c });
                self.tmp_top = mark;
                self.emit_jmp(l_top);
                self.bind(l_exit);
                self.code.push(Op::PopLoop);
            }
            StKind::Return(val) => {
                if let Some(e) = val {
                    let v = self.compile_ex(e)?;
                    let ret = self.ret_reg;
                    self.code.push(Op::CopyMasked { dst: ret, src: v });
                }
                self.code.push(Op::Return);
            }
            StKind::Break => self.code.push(Op::Break),
            StKind::Continue => self.code.push(Op::Continue),
            StKind::Barrier { .. } => {
                // fission extracts every kernel barrier; helper barriers
                // fall back at plan time
                return Err("barrier in a non-fissionable position".into());
            }
            StKind::ExprSt(e) => {
                let _ = self.compile_ex(e)?;
            }
        }
        self.tmp_top = mark;
        if may_escape(st) {
            self.emit_jmp_if_empty(block_exit);
        }
        Ok(())
    }

    /// Compile `e`, returning the register holding its per-lane value.
    /// Slot reads return the slot register itself (never written by
    /// expression evaluation); everything else lands in a fresh temp.
    fn compile_ex(&mut self, e: &Ex) -> PlanResult<Reg> {
        match e {
            Ex::Const { bits, .. } => {
                let r = self.new_tmp()?;
                self.code.push(Op::ConstFill {
                    dst: r,
                    bits: *bits,
                });
                Ok(r)
            }
            Ex::Slot { slot, .. } => Ok(*slot as Reg),
            Ex::LocalBase { alloc, .. } => {
                let kernel = self
                    .kernel
                    .ok_or_else(|| "array allocation referenced from a helper".to_string())?;
                let off = kernel.local_allocs[*alloc].byte_offset;
                let r = self.new_tmp()?;
                self.code.push(Op::ConstFill {
                    dst: r,
                    bits: local_pointer(off),
                });
                Ok(r)
            }
            Ex::PrivBase { alloc, .. } => {
                let kernel = self
                    .kernel
                    .ok_or_else(|| "array allocation referenced from a helper".to_string())?;
                let off = kernel.priv_allocs[*alloc].byte_offset;
                let r = self.new_tmp()?;
                self.code.push(Op::ConstFill {
                    dst: r,
                    bits: priv_pointer(off),
                });
                Ok(r)
            }
            Ex::PtrAdd {
                ptr,
                offset,
                elem_size,
            } => {
                let p = self.compile_ex(ptr)?;
                let o = self.compile_ex(offset)?;
                let r = self.new_tmp()?;
                self.code.push(Op::PtrAdd {
                    dst: r,
                    ptr: p,
                    off: o,
                    elem_size: *elem_size as u32,
                });
                Ok(r)
            }
            Ex::Load { addr, elem, space } => {
                let a = self.compile_ex(addr)?;
                let r = self.new_tmp()?;
                self.code.push(Op::Mem(MemOp {
                    addr: a,
                    data: r,
                    elem: *elem,
                    space: *space,
                    store: false,
                }));
                Ok(r)
            }
            Ex::Bin { op, ty, l, r } => {
                let a = self.compile_ex(l)?;
                let b = self.compile_ex(r)?;
                let d = self.new_tmp()?;
                self.code.push(Op::Bin {
                    dst: d,
                    l: a,
                    r: b,
                    op: *op,
                    ty: *ty,
                });
                Ok(d)
            }
            Ex::Cmp { op, ty, l, r } => {
                let a = self.compile_ex(l)?;
                let b = self.compile_ex(r)?;
                let d = self.new_tmp()?;
                self.code.push(Op::Cmp {
                    dst: d,
                    l: a,
                    r: b,
                    op: *op,
                    ty: *ty,
                });
                Ok(d)
            }
            Ex::LogAnd { l, r } | Ex::LogOr { l, r } => {
                let invert = matches!(e, Ex::LogOr { .. });
                let a = self.compile_ex(l)?;
                // merge into a temp we own, never into a slot register
                let res = if (a as usize) > self.nslots {
                    a
                } else {
                    let t = self.new_tmp()?;
                    self.code.push(Op::CopyFull { dst: t, src: a });
                    t
                };
                self.code.push(Op::PushIf { cond: res, invert });
                let l_join = self.new_label();
                self.emit_jmp_if_empty(l_join);
                let b = self.compile_ex(r)?;
                self.code.push(Op::CopyMasked { dst: res, src: b });
                self.bind(l_join);
                self.code.push(Op::ElseSwap);
                self.code.push(Op::PopIf);
                Ok(res)
            }
            Ex::Un { op, ty, e } => {
                let a = self.compile_ex(e)?;
                let d = self.new_tmp()?;
                self.code.push(Op::Un {
                    dst: d,
                    a,
                    op: *op,
                    ty: *ty,
                });
                Ok(d)
            }
            Ex::Cast { from, to, e } => {
                let a = self.compile_ex(e)?;
                let d = self.new_tmp()?;
                self.code.push(Op::Cast {
                    dst: d,
                    a,
                    from: *from,
                    to: *to,
                });
                Ok(d)
            }
            Ex::Select { cond, t, f, .. } => {
                let c = self.compile_ex(cond)?;
                self.code.push(Op::PushIf {
                    cond: c,
                    invert: false,
                });
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.emit_jmp_if_empty(l_else);
                let tv = self.compile_ex(t)?;
                self.bind(l_else);
                self.code.push(Op::ElseSwap);
                self.emit_jmp_if_empty(l_end);
                let fv = self.compile_ex(f)?;
                self.bind(l_end);
                self.code.push(Op::PopIf);
                let d = self.new_tmp()?;
                self.code.push(Op::SelMerge {
                    dst: d,
                    cond: c,
                    t: tv,
                    f: fv,
                });
                Ok(d)
            }
            Ex::CallBuiltin { b, ty, args } => self.compile_builtin(*b, *ty, args),
            Ex::CallFunc { func, args, .. } => {
                let mut arg_regs = Vec::with_capacity(args.len());
                for a in args {
                    arg_regs.push(self.compile_ex(a)?);
                }
                // stage arguments in consecutive registers
                let abase = self.tmp_top as Reg;
                for _ in 0..args.len() {
                    self.new_tmp()?;
                }
                for (i, &src) in arg_regs.iter().enumerate() {
                    self.code.push(Op::CopyFull {
                        dst: abase + i as Reg,
                        src,
                    });
                }
                let d = self.new_tmp()?;
                self.code.push(Op::Call {
                    dst: d,
                    func: *func as u32,
                    abase,
                    nargs: args.len() as u16,
                });
                Ok(d)
            }
        }
    }

    fn compile_builtin(&mut self, b: Builtin, ty: ScalarType, args: &[Ex]) -> PlanResult<Reg> {
        if b.is_geometry() {
            let dim = match args.first() {
                None => Dim::Const(0),
                Some(Ex::Const { bits, .. }) => Dim::Const((*bits as u32).min(2) as u8),
                Some(e) => Dim::Reg(self.compile_ex(e)?),
            };
            let r = self.new_tmp()?;
            self.code.push(Op::Geom { dst: r, dim, b });
            return Ok(r);
        }
        if b.is_atomic() {
            return Err("atomic builtin".into());
        }
        match args.len() {
            1 => {
                let a = self.compile_ex(&args[0])?;
                let d = self.new_tmp()?;
                self.code.push(Op::Math1 { dst: d, a, b, ty });
                Ok(d)
            }
            2 => {
                let a = self.compile_ex(&args[0])?;
                let c = self.compile_ex(&args[1])?;
                let d = self.new_tmp()?;
                self.code.push(Op::Math2 {
                    dst: d,
                    a,
                    c,
                    b,
                    ty,
                });
                Ok(d)
            }
            3 => {
                let x = self.compile_ex(&args[0])?;
                let y = self.compile_ex(&args[1])?;
                let z = self.compile_ex(&args[2])?;
                let d = self.new_tmp()?;
                self.code.push(Op::Math3 {
                    dst: d,
                    x,
                    y,
                    z,
                    b,
                    ty,
                });
                Ok(d)
            }
            _ => unreachable!("sema checks builtin arities"),
        }
    }
}

// ---- the VM ----------------------------------------------------------------

// ---- specialized lane loops -------------------------------------------------
//
// The generic scalar helpers in [`ops`] re-dispatch on `(op, ty)` for every
// lane, which costs more than the arithmetic itself. The fills below hoist
// that dispatch out of the lane loop for the types that dominate kernel
// inner loops and run one tight (autovectorizable) loop per arm. Every arm
// is a transcription of the corresponding `ops` arm with the type fixed, so
// the results are bit-identical; narrow or rare types keep the generic
// helper as the fallback arm.

/// `regs[d+k] = regs[l+k] (op) regs[r+k]` for the non-trapping binaries
/// (`Div`/`Rem` stay on the per-lane path that can fault).
fn bin_fill(op: BOp, ty: ScalarType, regs: &mut [u64], d: usize, l: usize, r: usize, ww: usize) {
    use ScalarType::*;
    assert!(d + ww <= regs.len() && l + ww <= regs.len() && r + ww <= regs.len());
    macro_rules! lanes {
        (|$x:ident, $y:ident| $body:expr) => {
            for k in 0..ww {
                let $x = regs[l + k];
                let $y = regs[r + k];
                regs[d + k] = $body;
            }
        };
    }
    // canonical signed values are sign-extended `i64`s, so truncating to the
    // width, operating, and re-sign-extending matches `canon_i` exactly; the
    // unsigned twins match `canon_u`'s masking. Shift amounts are taken
    // modulo the width of the *canonical* operand, like `shift_amount`.
    macro_rules! i32_arm {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes!(|a, b| {
                let $x = a as i32;
                let $y = b as i32;
                ($body) as i64 as u64
            })
        };
    }
    macro_rules! u32_arm {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes!(|a, b| {
                let $x = a as u32;
                let $y = b as u32;
                ($body) as u64
            })
        };
    }
    macro_rules! f32_arm {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes!(|a, b| {
                let $x = f32::from_bits(a as u32);
                let $y = f32::from_bits(b as u32);
                ($body).to_bits() as u64
            })
        };
    }
    macro_rules! f64_arm {
        (|$x:ident, $y:ident| $body:expr) => {
            lanes!(|a, b| {
                let $x = f64::from_bits(a);
                let $y = f64::from_bits(b);
                ($body).to_bits()
            })
        };
    }
    match (ty, op) {
        (I32, BOp::Add) => i32_arm!(|x, y| x.wrapping_add(y)),
        (I32, BOp::Sub) => i32_arm!(|x, y| x.wrapping_sub(y)),
        (I32, BOp::Mul) => i32_arm!(|x, y| x.wrapping_mul(y)),
        (I32, BOp::And) => i32_arm!(|x, y| x & y),
        (I32, BOp::Or) => i32_arm!(|x, y| x | y),
        (I32, BOp::Xor) => i32_arm!(|x, y| x ^ y),
        (I32, BOp::Shl) => lanes!(|a, b| ((a as i32).wrapping_shl((b % 32) as u32)) as i64 as u64),
        (I32, BOp::Shr) => lanes!(|a, b| ((a as i32).wrapping_shr((b % 32) as u32)) as i64 as u64),
        (I64, BOp::Add) => lanes!(|a, b| (a as i64).wrapping_add(b as i64) as u64),
        (I64, BOp::Sub) => lanes!(|a, b| (a as i64).wrapping_sub(b as i64) as u64),
        (I64, BOp::Mul) => lanes!(|a, b| (a as i64).wrapping_mul(b as i64) as u64),
        (I64, BOp::And) | (U64, BOp::And) => lanes!(|a, b| a & b),
        (I64, BOp::Or) | (U64, BOp::Or) => lanes!(|a, b| a | b),
        (I64, BOp::Xor) | (U64, BOp::Xor) => lanes!(|a, b| a ^ b),
        (I64, BOp::Shl) => lanes!(|a, b| ((a as i64).wrapping_shl((b % 64) as u32)) as u64),
        (I64, BOp::Shr) => lanes!(|a, b| ((a as i64).wrapping_shr((b % 64) as u32)) as u64),
        (U32, BOp::Add) => u32_arm!(|x, y| x.wrapping_add(y)),
        (U32, BOp::Sub) => u32_arm!(|x, y| x.wrapping_sub(y)),
        (U32, BOp::Mul) => u32_arm!(|x, y| x.wrapping_mul(y)),
        (U32, BOp::And) => u32_arm!(|x, y| x & y),
        (U32, BOp::Or) => u32_arm!(|x, y| x | y),
        (U32, BOp::Xor) => u32_arm!(|x, y| x ^ y),
        (U32, BOp::Shl) => u32_arm!(|x, y| x.wrapping_shl(y % 32)),
        (U32, BOp::Shr) => u32_arm!(|x, y| x.wrapping_shr(y % 32)),
        (U64, BOp::Add) => lanes!(|a, b| a.wrapping_add(b)),
        (U64, BOp::Sub) => lanes!(|a, b| a.wrapping_sub(b)),
        (U64, BOp::Mul) => lanes!(|a, b| a.wrapping_mul(b)),
        (U64, BOp::Shl) => lanes!(|a, b| a.wrapping_shl((b % 64) as u32)),
        (U64, BOp::Shr) => lanes!(|a, b| a.wrapping_shr((b % 64) as u32)),
        (F32, BOp::Add) => f32_arm!(|x, y| x + y),
        (F32, BOp::Sub) => f32_arm!(|x, y| x - y),
        (F32, BOp::Mul) => f32_arm!(|x, y| x * y),
        (F32, BOp::Div) => f32_arm!(|x, y| x / y),
        (F64, BOp::Add) => f64_arm!(|x, y| x + y),
        (F64, BOp::Sub) => f64_arm!(|x, y| x - y),
        (F64, BOp::Mul) => f64_arm!(|x, y| x * y),
        (F64, BOp::Div) => f64_arm!(|x, y| x / y),
        _ => lanes!(|a, b| ops::bin_op(op, ty, a, b).expect("only div/rem trap")),
    }
}

/// `regs[d+k] = regs[l+k] (cmp) regs[r+k]` with the type dispatch hoisted.
/// Canonical signed values compare correctly at `i64`, canonical unsigned
/// at `u64`; float arms reproduce `cmp_op`'s NaN table (every comparison
/// with NaN is false except `!=`).
fn cmp_fill(
    op: crate::exec::ir::COp,
    ty: ScalarType,
    regs: &mut [u64],
    d: usize,
    l: usize,
    r: usize,
    ww: usize,
) {
    use crate::exec::ir::COp;
    assert!(d + ww <= regs.len() && l + ww <= regs.len() && r + ww <= regs.len());
    macro_rules! lanes {
        (|$x:ident, $y:ident| $body:expr) => {
            for k in 0..ww {
                let $x = regs[l + k];
                let $y = regs[r + k];
                regs[d + k] = ($body) as u64;
            }
        };
    }
    macro_rules! typed {
        ($cv:expr) => {{
            let cv = $cv;
            match op {
                COp::Lt => lanes!(|a, b| cv(a) < cv(b)),
                COp::Gt => lanes!(|a, b| cv(a) > cv(b)),
                COp::Le => lanes!(|a, b| cv(a) <= cv(b)),
                COp::Ge => lanes!(|a, b| cv(a) >= cv(b)),
                COp::Eq => lanes!(|a, b| cv(a) == cv(b)),
                COp::Ne => lanes!(|a, b| cv(a) != cv(b)),
            }
        }};
    }
    if ty == ScalarType::F32 {
        typed!(|v: u64| f32::from_bits(v as u32));
    } else if ty == ScalarType::F64 {
        typed!(f64::from_bits);
    } else if ty.is_signed() {
        typed!(|v: u64| v as i64);
    } else {
        typed!(|v: u64| v);
    }
}

/// `regs[d+k] = cast(regs[a+k])` with the `(from, to)` dispatch hoisted for
/// the conversions kernels actually emit (`size_t` geometry into `int`
/// indexes, `int`/`uint` widening, float conversions).
fn cast_fill(from: ScalarType, to: ScalarType, regs: &mut [u64], d: usize, a: usize, ww: usize) {
    use ScalarType::*;
    assert!(d + ww <= regs.len() && a + ww <= regs.len());
    macro_rules! lanes {
        (|$x:ident| $body:expr) => {
            for k in 0..ww {
                let $x = regs[a + k];
                regs[d + k] = $body;
            }
        };
    }
    match (from, to) {
        (U64 | U32 | I64, I32) => lanes!(|x| (x as i32) as i64 as u64),
        (I32 | I64 | U64, U32) => lanes!(|x| x & 0xFFFF_FFFF),
        (I32 | U32, I64) | (I32 | U32, U64) => lanes!(|x| x),
        (I32 | I64, F32) => lanes!(|x| ((((x as i64) as f64) as f32).to_bits()) as u64),
        (U32 | U64, F32) => lanes!(|x| (((x as f64) as f32).to_bits()) as u64),
        (I32 | I64, F64) => lanes!(|x| ((x as i64) as f64).to_bits()),
        (U32 | U64, F64) => lanes!(|x| (x as f64).to_bits()),
        (F32, I32) => lanes!(|x| ((f32::from_bits(x as u32) as f64) as i32) as i64 as u64),
        (F32, U32) => lanes!(|x| ((f32::from_bits(x as u32) as f64) as u32) as u64),
        (F32, F64) => lanes!(|x| (f32::from_bits(x as u32) as f64).to_bits()),
        (F64, F32) => lanes!(|x| ((f64::from_bits(x) as f32).to_bits()) as u64),
        _ => lanes!(|x| ops::cast_bits(x, from, to)),
    }
}

/// `regs[d + k] = ptr_add(regs[p + k], regs[o + k], elem_size)` for `k < n`.
/// Element sizes are powers of two, and scaling by one is a shift — which,
/// unlike `ptr_add`'s 64-bit multiply, the lane loop can vectorise. The two
/// agree bit for bit: both are arithmetic modulo 2^64 before the mask.
fn ptr_add_fill(regs: &mut [u64], d: usize, p: usize, o: usize, elem_size: u32, n: usize) {
    assert!(d + n <= regs.len() && p + n <= regs.len() && o + n <= regs.len());
    if elem_size.is_power_of_two() {
        let sh = elem_size.trailing_zeros();
        for k in 0..n {
            let off = regs[p + k].wrapping_add(regs[o + k] << sh) & OFF_MASK;
            regs[d + k] = (regs[p + k] & !OFF_MASK) | off;
        }
    } else {
        for k in 0..n {
            regs[d + k] = ptr_add(regs[p + k], regs[o + k] as i64, elem_size as usize);
        }
    }
}

/// Per-warp divergence state while executing one chunk.
struct WarpState {
    /// Active-lane bitmask over the chunk's `0..ww` lanes.
    exec: u64,
    /// Lanes that executed `return` in the current function.
    ret: u64,
    /// First lane of this warp within the group.
    lo: usize,
    /// Warp width (clipped at the group tail; `<= 64`).
    ww: usize,
    if_stack: Vec<IfFrame>,
    loop_stack: Vec<LoopFrame>,
}

struct IfFrame {
    /// Lanes waiting to run the other side.
    other: u64,
    /// Lanes that finished their side.
    done: u64,
}

struct LoopFrame {
    /// Exec mask at loop entry (reconvergence target).
    entry: u64,
    /// Lanes parked by `continue` until the end of the iteration.
    cont: u64,
}

/// Run `$body` with `$k` bound to each lane of `0..$n` selected by `$mask`:
/// all of them for `None` — a plain counted loop the compiler can unroll
/// and vectorise — or the set bits of `Some(exec)`, ascending.
macro_rules! for_lanes {
    ($mask:expr, $n:expr, |$k:ident| $body:block) => {
        match $mask {
            None => {
                // the lane index is shared with the `Some` arm's bodies
                #[allow(clippy::needless_range_loop)]
                for $k in 0..$n $body
            }
            Some(mut e) => {
                while e != 0 {
                    let $k = e.trailing_zeros() as usize;
                    e &= e - 1;
                    $body
                }
            }
        }
    };
}

/// The [`for_lanes!`] selector of a warp of `ww` lanes executing `exec`.
fn lane_mask(exec: u64, ww: usize) -> Option<u64> {
    (exec != warp_full(ww)).then_some(exec)
}

fn warp_full(ww: usize) -> u64 {
    if ww >= 64 {
        u64::MAX
    } else {
        (1u64 << ww) - 1
    }
}

/// True when `code` contains only straight-line value ops — no control
/// flow, no calls, nothing that writes the exec mask. Such a region is
/// order-insensitive between warps: every mask stays full, so executing
/// it warp-outer (one warp through the whole chunk at a time) and
/// op-outer (each op across every warp, the reference interpreter's
/// lock-step order) produce the same values, the same counter sums, and
/// the same first fault.
fn code_is_straight(code: &[Op]) -> bool {
    code.iter().all(|op| {
        matches!(
            op,
            Op::SetLine(_)
                | Op::ConstFill { .. }
                | Op::CopyMasked { .. }
                | Op::CopyFull { .. }
                | Op::Geom { .. }
                | Op::PtrAdd { .. }
                | Op::Mem(_)
                | Op::Bin { .. }
                | Op::Cmp { .. }
                | Op::Un { .. }
                | Op::Cast { .. }
                | Op::Math1 { .. }
                | Op::Math2 { .. }
                | Op::Math3 { .. }
                | Op::SelMerge { .. }
                | Op::ChargeBranch
        )
    })
}

/// Bytecode VM state for one work-group (the wg counterpart of
/// [`super::interp::GroupRun`], with the same public result fields).
pub struct WgGroupRun<'a> {
    env: &'a LaunchEnv<'a>,
    plan: &'a ModulePlan,
    kplan: &'a KernelPlan,
    nlanes: usize,
    lid: [Vec<u64>; 3],
    gid: [Vec<u64>; 3],
    group_id: [u64; 3],
    local_mem: Vec<u8>,
    priv_mem: Vec<u8>,
    priv_stride: usize,
    pub stats: GroupStats,
    pub counters: Option<GroupCounters>,
    pub line_counters: Option<BTreeMap<usize, GroupCounters>>,
    collect: bool,
    cur_line: usize,
    /// Pending counter deltas for `cur_line`, merged into the totals and
    /// the per-line map when the line changes (the batched equivalent of
    /// the reference `bump()` chokepoint — a line gets an entry exactly
    /// when some delta landed while it was current).
    acc: GroupCounters,
    acc_dirty: bool,
    /// Kernel register frame: `nregs x nlanes`, register-major.
    regs: Vec<u64>,
    frame_pool: Vec<Vec<u64>>,
    seg_buf: Vec<u64>,
    bank_buf: Vec<(u64, u64)>,
    call_depth: usize,
    /// Warp memory accesses that were regular in both charge and move, and
    /// those that took a generic path. Like `counters` they accumulate over
    /// every group this VM runs; the launch folds them into the metrics
    /// registry once.
    pub mem_regular: u64,
    pub mem_generic: u64,
    /// Per-group L1 tag-array simulation (present when the device profile
    /// has the `cache` capability). Transactions are buffered per warp and
    /// replayed in warp-index order at every barrier and at the end of the
    /// group run, so the hit/miss stream is byte-identical to the
    /// statement-major reference backend.
    cache: Option<GroupCacheSim>,
}

impl<'a> WgGroupRun<'a> {
    /// Prepare the VM for work-group `group` (per-dimension index).
    pub fn new(
        env: &'a LaunchEnv<'a>,
        plan: &'a ModulePlan,
        kplan: &'a KernelPlan,
        group: [usize; 3],
    ) -> WgGroupRun<'a> {
        let l = env.geom.local;
        let nlanes = l[0] * l[1] * l[2];
        let mut lid = [vec![0u64; nlanes], vec![0u64; nlanes], vec![0u64; nlanes]];
        let mut gid = [vec![0u64; nlanes], vec![0u64; nlanes], vec![0u64; nlanes]];
        for lane in 0..nlanes {
            let lx = lane % l[0];
            let ly = (lane / l[0]) % l[1];
            let lz = lane / (l[0] * l[1]);
            let lids = [lx, ly, lz];
            for d in 0..3 {
                lid[d][lane] = lids[d] as u64;
                gid[d][lane] = (group[d] * l[d] + lids[d]) as u64;
            }
        }
        WgGroupRun {
            env,
            plan,
            kplan,
            nlanes,
            lid,
            gid,
            group_id: [group[0] as u64, group[1] as u64, group[2] as u64],
            local_mem: vec![0u8; env.kernel.local_bytes()],
            priv_mem: vec![0u8; env.kernel.priv_bytes_per_lane() * nlanes],
            priv_stride: env.kernel.priv_bytes_per_lane(),
            stats: GroupStats::default(),
            counters: env.collect.then(GroupCounters::default),
            line_counters: env.collect.then(BTreeMap::new),
            collect: env.collect,
            cur_line: 0,
            acc: GroupCounters::default(),
            acc_dirty: false,
            regs: vec![0u64; kplan.nregs * nlanes],
            frame_pool: Vec::new(),
            seg_buf: Vec::new(),
            bank_buf: Vec::new(),
            call_depth: 0,
            mem_regular: 0,
            mem_generic: 0,
            cache: env
                .cache
                .as_ref()
                .map(|cc| GroupCacheSim::new(cc, env.cost.segment_bytes as u64)),
        }
    }

    /// Re-arm this VM for another group of the same launch, reusing every
    /// allocation (register frame, lane-id tables, scratch buffers, frame
    /// pool). Dimensions whose group index is unchanged keep their
    /// global-id table; plans whose def-before-use scan passed keep the
    /// stale register frame. `counters`/`line_counters` are deliberately
    /// *not* cleared — they accumulate across every group this VM runs
    /// (launch counters are commutative sums, so per-VM accumulation is
    /// indistinguishable from per-group harvesting) and are taken once by
    /// the launch worker at the end of its claim loop.
    pub fn reset(&mut self, group: [usize; 3]) {
        let l = self.env.geom.local;
        for d in 0..3 {
            if self.group_id[d] != group[d] as u64 {
                self.group_id[d] = group[d] as u64;
                let g0 = (group[d] * l[d]) as u64;
                for (g, lid) in self.gid[d].iter_mut().zip(&self.lid[d]) {
                    *g = g0 + lid;
                }
            }
        }
        self.local_mem.fill(0);
        self.priv_mem.fill(0);
        self.stats = GroupStats::default();
        self.cur_line = 0;
        if self.kplan.zero_frame {
            self.regs.fill(0);
        }
        self.call_depth = 0;
        if let Some(sim) = &mut self.cache {
            sim.reset_group();
        }
    }

    /// Run the fissioned kernel for every lane of this group.
    pub fn run(&mut self) -> Result<()> {
        // bind parameters into the slot registers of every lane
        let nlanes = self.nlanes;
        for (i, arg) in self.env.args.iter().enumerate() {
            let v = match arg {
                BoundArg::Buffer { space, .. } => arg_pointer(i, *space),
                BoundArg::Scalar { bits, .. } => *bits,
            };
            self.regs[i * nlanes..(i + 1) * nlanes].fill(v);
        }
        let mut regs = std::mem::take(&mut self.regs);
        let kplan = self.kplan;
        let result = self.run_group_ops(&kplan.ops, &mut regs);
        self.regs = regs;
        self.flush_cache();
        self.flush_lines();
        result
    }

    /// Take the ordered stream of L1 misses this group produced; the
    /// launch layer replays it through the shared L2 tag array in linear
    /// group-id order (mirrors [`super::interp::GroupRun::take_l2_stream`]).
    pub fn take_l2_stream(&mut self) -> Vec<L2Record> {
        self.cache
            .as_mut()
            .map(|sim| std::mem::take(&mut sim.l2_stream))
            .unwrap_or_default()
    }

    /// Replay the buffered per-warp transaction stream through the L1 tag
    /// array in warp-index order — the canonical order both backends share.
    /// Hit/miss deltas land directly on the totals and the per-line map
    /// (each record carries its own source line, so the `acc` batching for
    /// `cur_line` does not apply).
    fn flush_cache(&mut self) {
        let Some(mut sim) = self.cache.take() else {
            return;
        };
        sim.flush(|dsl, hit| {
            if hit {
                self.stats.l1_hits += 1;
            } else {
                self.stats.l1_misses += 1;
            }
            if let Some(c) = &mut self.counters {
                let lc = self
                    .line_counters
                    .as_mut()
                    .expect("line_counters allocated together with counters")
                    .entry(dsl as usize)
                    .or_default();
                if hit {
                    c.l1_hits += 1;
                    lc.l1_hits += 1;
                } else {
                    c.l1_misses += 1;
                    lc.l1_misses += 1;
                }
            }
        });
        self.cache = Some(sim);
    }

    // ---- counter chokepoints -----------------------------------------------

    /// Merge the pending per-line deltas into the totals and the current
    /// line's entry. Every counter delta flows through `acc`, so per-line
    /// sums equal the group totals by construction — same invariant, same
    /// chokepoint shape as the reference `bump()`.
    fn flush_lines(&mut self) {
        if !self.acc_dirty {
            return;
        }
        let acc = std::mem::take(&mut self.acc);
        self.acc_dirty = false;
        if let Some(c) = &mut self.counters {
            c.merge(&acc);
            self.line_counters
                .as_mut()
                .expect("line_counters allocated together with counters")
                .entry(self.cur_line)
                .or_default()
                .merge(&acc);
        }
    }

    #[inline]
    fn set_line(&mut self, line: usize) {
        if line != self.cur_line {
            self.flush_lines();
            self.cur_line = line;
        }
    }

    /// Warp-granular instruction charge — the per-warp decomposition of the
    /// reference `charge()`: one warp's worth of cycles/instructions, lane
    /// slots covered equal to the (clipped) warp width. Empty warps charge
    /// nothing, exactly like a warp with no active lanes in the reference.
    #[inline]
    fn charge_warp(&mut self, cost: u32, class: InstrClass, exec: u64, ww: usize) {
        if exec == 0 {
            return;
        }
        self.stats.cycles += cost as u64;
        self.stats.instructions += 1;
        if self.collect {
            let covered = ww as u64;
            let active = exec.count_ones() as u64;
            self.acc.instr.add(class, 1);
            self.acc.lane_cycles_issued += cost as u64 * covered;
            self.acc.divergence_lost_cycles += cost as u64 * (covered - active);
            self.acc_dirty = true;
        }
    }

    #[inline]
    fn count_ops_warp(&mut self, exec: u64, is_float: bool, per_lane: u64) {
        if self.collect && exec != 0 {
            let n = exec.count_ones() as u64 * per_lane;
            self.acc.arith_ops += n;
            if is_float {
                self.acc.flops += n;
            }
            self.acc_dirty = true;
        }
    }

    /// The whole-group equivalent of one [`Self::charge_warp`] per warp
    /// with a full mask: `nwarps` instructions issue, every lane slot is
    /// both covered and active, so the divergence term is zero. The sums
    /// are byte-identical to the per-warp calls it replaces.
    #[inline]
    fn charge_group(&mut self, cost: u32, class: InstrClass) {
        let nwarps = self.nlanes.div_ceil(self.env.simd) as u64;
        self.stats.cycles += cost as u64 * nwarps;
        self.stats.instructions += nwarps;
        if self.collect {
            self.acc.instr.add(class, nwarps);
            self.acc.lane_cycles_issued += cost as u64 * self.nlanes as u64;
            self.acc_dirty = true;
        }
    }

    /// Whole-group [`Self::count_ops_warp`] under full masks.
    #[inline]
    fn count_ops_group(&mut self, is_float: bool, per_lane: u64) {
        if self.collect {
            let n = self.nlanes as u64 * per_lane;
            self.acc.arith_ops += n;
            if is_float {
                self.acc.flops += n;
            }
            self.acc_dirty = true;
        }
    }

    /// Per-warp global-memory coalescing — the single-warp body of the
    /// reference `charge_global` loop (identical segment math). `addrs` are
    /// the warp's address registers, `warp` the group-relative warp index
    /// that keys the cache simulation's per-warp record buffers.
    ///
    /// `aligned` says that every active lane's access is naturally aligned
    /// (the regular move validated it), so none straddles a segment. If the
    /// lanes then also touch segments in ascending order — every
    /// unit-stride, broadcast or row-tiled access — the warp is *regular*:
    /// its transactions are the segment changes from one lane to the next,
    /// counted in a pass with no compare and no branch. The distinct
    /// ascending segments of such a warp are exactly what sorting and
    /// deduplicating its segment list yields, so the count (and, on cached
    /// devices, the record stream) is the reference's. Anything else takes
    /// the reference's push/sort/dedup. Returns whether the warp was regular.
    fn charge_global_warp(
        &mut self,
        addrs: &[u64],
        size: usize,
        exec: u64,
        warp: usize,
        aligned: bool,
    ) -> bool {
        debug_assert_ne!(exec, 0);
        let ww = addrs.len();
        let regular = if exec == warp_full(ww) {
            self.charge_segments(addrs, size, warp, aligned)
        } else {
            // the active lanes' addresses, densely: the segment math of a
            // partial warp is that of a full warp of fewer lanes
            let mut dense = [0u64; 64];
            let mut n = 0;
            for_lanes!(Some(exec), ww, |k| {
                dense[n] = addrs[k];
                n += 1;
            });
            self.charge_segments(&dense[..n], size, warp, aligned)
        };
        self.charge_warp(self.env.cost.mem_issue, InstrClass::Mem, exec, ww);
        regular
    }

    /// The transactions of one warp access to `addrs`, its active lanes'
    /// addresses (see [`Self::charge_global_warp`]).
    fn charge_segments(&mut self, addrs: &[u64], size: usize, warp: usize, aligned: bool) -> bool {
        let seg = self.env.cost.segment_bytes as u64;
        let active = addrs.len() as u64;
        // device segment sizes are powers of two, so a segment id is a shift
        let sh = seg.trailing_zeros();
        let mut regular = aligned && seg.is_power_of_two() && size as u64 <= seg;
        let mut tx = 1u64;
        if regular {
            // segment ids are below 2^57, so a step from one lane to the
            // next has bit 63 set iff it descends, and a step plus 2^63 - 1
            // has it set iff the step is at least one segment up
            let mut descends = 0u64;
            for pair in addrs.windows(2) {
                let step = (pair[1] >> sh).wrapping_sub(pair[0] >> sh);
                descends |= step;
                tx += step.wrapping_add(i64::MAX as u64) >> 63;
            }
            regular = descends >> 63 == 0;
        }
        if !regular || self.cache.is_some() {
            let mut segs = std::mem::take(&mut self.seg_buf);
            segs.clear();
            let seg_of = |a: u64| {
                if seg.is_power_of_two() {
                    a >> sh
                } else {
                    a / seg
                }
            };
            for &a in addrs {
                // an access may straddle two segments; a segment equal to
                // the one pushed last would not survive the dedup anyway
                let (first, last) = (seg_of(a), seg_of(a + size as u64 - 1));
                if segs.last() != Some(&first) {
                    segs.push(first);
                }
                if last != first {
                    segs.push(last);
                }
            }
            if !regular {
                segs.sort_unstable();
                segs.dedup();
                tx = segs.len() as u64;
            }
            if let Some(sim) = &mut self.cache {
                let line = self.cur_line as u32;
                for (i, &s) in segs.iter().enumerate() {
                    sim.record(warp, s, line, i == 0);
                }
            }
            self.seg_buf = segs;
        }
        self.stats.mem_transactions += tx;
        if self.collect {
            self.acc.mem_transactions += tx;
            self.acc.mem_transactions_min += (active * size as u64).div_ceil(seg).max(1);
            self.acc.global_bytes += active * size as u64;
            self.acc_dirty = true;
        }
        regular
    }

    /// Per-warp local-access + bank-conflict accounting (the single-warp
    /// body of the reference `charge_local_counters`).
    fn charge_local_warp(&mut self, addrs: &[u64], exec: u64) {
        if !self.collect {
            return;
        }
        const BANKS: u64 = 32;
        let mut words = std::mem::take(&mut self.bank_buf);
        words.clear();
        for_lanes!(lane_mask(exec, addrs.len()), addrs.len(), |k| {
            let word = (addrs[k] & OFF_MASK) / 4;
            words.push((word % BANKS, word));
        });
        let accesses = words.len() as u64;
        words.sort_unstable();
        words.dedup();
        let mut conflicts = 0u64;
        let mut i = 0;
        while i < words.len() {
            let bank = words[i].0;
            let mut in_bank = 0u64;
            while i < words.len() && words[i].0 == bank {
                in_bank += 1;
                i += 1;
            }
            conflicts += in_bank - 1;
        }
        self.bank_buf = words;
        self.acc.local_accesses += accesses;
        self.acc.bank_conflicts += conflicts;
        self.acc_dirty = true;
    }

    // ---- memory instructions -------------------------------------------------

    /// Move the data of `m` for lanes `mask` of the `n` lanes whose address
    /// and data registers start at `a0` / `d0` (lane 0 of which is lane
    /// `lo` of the group) — provided the access is *regular*: every lane
    /// dereferences the same global/constant buffer with a word-sized
    /// element, or the local arena, or its own private arena, and none
    /// would fault. One validation pass, then one copy pass with the buffer
    /// lookup, tag dispatch and sign fixup hoisted out of it; lanes move in
    /// ascending order, so overlapping stores land as in the generic loop.
    ///
    /// Returns `false` with *nothing moved* for everything else (mixed or
    /// malformed pointers, a sub-word global element, a misaligned or
    /// out-of-range lane, a `__constant` store): the per-lane generic path
    /// of [`Self::mem_warp`] owns those cases and every fault.
    #[allow(clippy::too_many_arguments)]
    fn move_lanes(
        &mut self,
        regs: &mut [u64],
        a0: usize,
        d0: usize,
        m: MemOp,
        mask: Option<u64>,
        n: usize,
        lo: usize,
    ) -> bool {
        // the two registers as slices of their own: `k < n` then proves
        // every lane index in range once, outside the loops
        let (addrs, data) = if a0 + n <= d0 {
            let (low, high) = regs.split_at_mut(d0);
            (&low[a0..a0 + n], &mut high[..n])
        } else if d0 + n <= a0 {
            let (low, high) = regs.split_at_mut(a0);
            (&high[..n], &mut low[d0..d0 + n])
        } else {
            return false;
        };
        let size = m.elem.size();
        // a signed load sign-extends what it read (`load_lane_mem`)
        let sext = if m.elem.is_signed() {
            64 - 8 * size as u32
        } else {
            0
        };
        let canon = |raw: u64| ((raw << sext) as i64 >> sext) as u64;
        let proto = addrs[mask.map_or(0, |e| e.trailing_zeros() as usize)] & !OFF_MASK;
        let tag = proto >> TAG_SHIFT;
        if m.space != AddrSpace::Private && (tag == TAG_GLOBAL || (tag == TAG_CONST && !m.store)) {
            let Some(BoundArg::Buffer { buffer, .. }) =
                self.env.args.get(((proto >> BASE_SHIFT) & 0xFFF) as usize)
            else {
                return false;
            };
            if size < 4 {
                return false;
            }
            // same verdicts as `Buffer::device_access_ok`. Offsets are 48
            // bits, so with equal tag and base bits `(proto | last) - addr`
            // wraps into bit 63 exactly when the access ends past the
            // buffer — a bounds test with no compare, which keeps the pass
            // vectorisable
            let Some(last) = (buffer.len_bytes() as u64).checked_sub(size as u64) else {
                return false;
            };
            // bits set in some lane / in every lane: equal above the
            // offset field iff every lane names this buffer
            let (mut any, mut all, mut over) = (0u64, u64::MAX, 0u64);
            for_lanes!(mask, n, |k| {
                any |= addrs[k];
                all &= addrs[k];
                over |= (proto | last).wrapping_sub(addrs[k]);
            });
            if (any ^ all) & !OFF_MASK != 0 || any & (size as u64 - 1) != 0 || over >> 63 != 0 {
                return false;
            }
            let words = buffer.device_words();
            let word = |a: u64| ((a & OFF_MASK) >> 2) as usize;
            match (m.store, size) {
                (false, 4) => for_lanes!(mask, n, |k| {
                    data[k] = canon(words[word(addrs[k])].load(Ordering::Relaxed) as u64);
                }),
                (false, _) => for_lanes!(mask, n, |k| {
                    let w = word(addrs[k]);
                    let low = words[w].load(Ordering::Relaxed) as u64;
                    data[k] = low | (words[w + 1].load(Ordering::Relaxed) as u64) << 32;
                }),
                (true, 4) => for_lanes!(mask, n, |k| {
                    words[word(addrs[k])].store(data[k] as u32, Ordering::Relaxed);
                }),
                (true, _) => for_lanes!(mask, n, |k| {
                    let w = word(addrs[k]);
                    words[w].store(data[k] as u32, Ordering::Relaxed);
                    words[w + 1].store((data[k] >> 32) as u32, Ordering::Relaxed);
                }),
            }
            return true;
        }
        // the arenas: `__local` is shared and alignment-checked, private
        // is one `priv_stride` slice per lane (`lane_priv` ignores the tag)
        let (mem, lane_stride, szm1, tags) = match m.space {
            AddrSpace::Private => (&mut self.priv_mem, self.priv_stride, 0, 0),
            _ if tag == TAG_LOCAL => (&mut self.local_mem, 0, size - 1, !OFF_MASK),
            _ => return false,
        };
        let at = |k: usize| (addrs[k] & OFF_MASK) as usize + (lo + k) * lane_stride;
        let mut bad = 0u64;
        for_lanes!(mask, n, |k| {
            bad |= ((addrs[k] ^ proto) & tags)
                | (at(k) & szm1) as u64
                | (at(k) + size > mem.len()) as u64;
        });
        if bad != 0 {
            return false;
        }
        if m.store {
            for_lanes!(mask, n, |k| {
                store_le(&mut mem[at(k)..at(k) + size], data[k]);
            });
        } else {
            for_lanes!(mask, n, |k| {
                data[k] = canon(load_le(&mem[at(k)..at(k) + size]));
            });
        }
        true
    }

    /// One warp's share of a `Load`/`Store`: the data — unless a group-wide
    /// [`Self::move_lanes`] already `moved` it — and the reference's charges
    /// for the address space. Both callers (the op-outer and the warp-outer
    /// interpreter) come through here, so charge/fault interleaving is
    /// decided in one place. A regular move cannot fault and the charges
    /// only read the address register, so their order is immaterial; a
    /// declined move has touched nothing, and the warp is then charged and
    /// redone lane by lane through `load_lane_mem`/`store_lane_mem`, which
    /// report the fault — the reference's order.
    #[allow(clippy::too_many_arguments)]
    fn mem_warp(
        &mut self,
        regs: &mut [u64],
        stride: usize,
        base: usize,
        m: MemOp,
        exec: u64,
        ww: usize,
        lo: usize,
        moved: bool,
    ) -> Result<()> {
        let a0 = m.addr as usize * stride + base;
        let d0 = m.data as usize * stride + base;
        let moved = moved || self.move_lanes(regs, a0, d0, m, lane_mask(exec, ww), ww, lo);
        let mut regular = moved;
        match m.space {
            AddrSpace::Global | AddrSpace::Constant => {
                // `lo` is the true lane offset even inside callee frames
                // (Op::Call preserves it): the group-relative warp index
                let warp = lo / self.env.simd;
                let addrs = &regs[a0..a0 + ww];
                regular = self.charge_global_warp(addrs, m.elem.size(), exec, warp, moved);
            }
            AddrSpace::Local => {
                self.charge_warp(self.env.cost.local_access, InstrClass::Local, exec, ww);
                self.stats.local_accesses += exec.count_ones() as u64;
                self.charge_local_warp(&regs[a0..a0 + ww], exec);
            }
            AddrSpace::Private => {
                self.charge_warp(self.env.cost.int_alu, InstrClass::Other, exec, ww);
            }
        }
        if !moved {
            for_lanes!(lane_mask(exec, ww), ww, |k| {
                let mut ptr = regs[a0 + k];
                if m.space == AddrSpace::Private {
                    ptr = lane_priv(ptr, lo + k, self.priv_stride);
                }
                let (args, local, private) =
                    (self.env.args, &mut self.local_mem, &mut self.priv_mem);
                if m.store {
                    store_lane_mem(args, local, private, ptr, m.elem, regs[d0 + k])?;
                } else {
                    regs[d0 + k] = load_lane_mem(args, local, private, ptr, m.elem)?;
                }
            });
        }
        if regular {
            self.mem_regular += 1;
        } else {
            self.mem_generic += 1;
        }
        Ok(())
    }

    /// A `Load`/`Store` of a straight-line region, for the whole group: one
    /// group-wide move when every lane is regular, then the charges warp by
    /// warp (coalescing and bank conflicts are per-warp quantities). A
    /// declined group move has touched nothing, so the per-warp path keeps
    /// the reference's charge/fault interleaving.
    fn mem_group(&mut self, regs: &mut [u64], m: MemOp) -> Result<()> {
        let (nlanes, simd) = (self.nlanes, self.env.simd);
        let (a0, d0) = (m.addr as usize * nlanes, m.data as usize * nlanes);
        let moved = self.move_lanes(regs, a0, d0, m, None, nlanes, 0);
        for lo in (0..nlanes).step_by(simd) {
            let ww = simd.min(nlanes - lo);
            self.mem_warp(regs, nlanes, lo, m, warp_full(ww), ww, lo, moved)?;
        }
        Ok(())
    }

    // ---- group-level structure ---------------------------------------------

    fn run_group_ops(&mut self, ops: &[GroupOp], regs: &mut Vec<u64>) -> Result<()> {
        for op in ops {
            match op {
                GroupOp::Region(code) => self.run_region(code, regs)?,
                GroupOp::Barrier { line } => {
                    // by construction every lane reaches the barrier: the
                    // preceding regions ran every warp to completion and
                    // barrier kernels contain no `return`
                    //
                    // the barrier is also the canonical cache replay point:
                    // both backends flush the buffered per-warp transaction
                    // stream here, so the tag-array probe order is identical
                    self.flush_cache();
                    self.set_line(*line as usize);
                    self.stats.barriers += 1;
                    self.stats.cycles += self.env.cost.barrier as u64;
                    self.stats.instructions += 1;
                    if self.collect {
                        self.acc.barriers += 1;
                        self.acc.barrier_stall_cycles += self.env.cost.barrier as u64;
                        self.acc.instr.add(InstrClass::Control, 1);
                        self.acc_dirty = true;
                    }
                }
                GroupOp::UniformLoop {
                    cond,
                    cond_reg,
                    body,
                    step,
                    check_first,
                } => {
                    let mut taken = if *check_first {
                        self.uniform_cond(cond, *cond_reg, regs)?
                    } else {
                        true
                    };
                    while taken {
                        self.run_group_ops(body, regs)?;
                        self.run_region(step, regs)?;
                        taken = self.uniform_cond(cond, *cond_reg, regs)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate a barrier-loop condition for every warp (full reference
    /// charges) and take the group decision, verifying uniformity.
    fn uniform_cond(&mut self, cond: &Code, cond_reg: Reg, regs: &mut [u64]) -> Result<bool> {
        self.run_region(cond, regs)?;
        let base = cond_reg as usize * self.nlanes;
        let taken = regs[base] != 0;
        let agreeing = regs[base..base + self.nlanes]
            .iter()
            .filter(|&&v| (v != 0) == taken)
            .count();
        if agreeing != self.nlanes {
            // lanes that keep looping hit the barrier without the rest —
            // the same divergence the reference traps at the barrier itself
            let looping = regs[base..base + self.nlanes]
                .iter()
                .filter(|&&v| v != 0)
                .count();
            return Err(Error::BarrierDivergence(format!(
                "barrier reached by {}/{} work-items of the group",
                looping, self.nlanes
            )));
        }
        Ok(taken)
    }

    /// Run one barrier-free bytecode chunk for every lane of the group.
    /// Straight-line chunks take the lock-step fast path; anything with
    /// control flow runs warp-outer through the general interpreter.
    fn run_region(&mut self, code: &[Op], regs: &mut [u64]) -> Result<()> {
        if code_is_straight(code) {
            return self.run_code_group(code, regs);
        }
        let simd = self.env.simd;
        let nwarps = self.nlanes.div_ceil(simd);
        for w in 0..nwarps {
            let lo = w * simd;
            let ww = ((w + 1) * simd).min(self.nlanes) - lo;
            let mut ws = WarpState {
                exec: warp_full(ww),
                ret: 0,
                lo,
                ww,
                if_stack: Vec::new(),
                loop_stack: Vec::new(),
            };
            self.run_code(code, regs, self.nlanes, lo, &mut ws)?;
        }
        Ok(())
    }

    /// Execute a straight-line region lock-step: each op is decoded once
    /// for the whole group and its lane loop spans every warp at once —
    /// the reference interpreter's statement-outer order. Only regions
    /// accepted by [`code_is_straight`] come here: with no control flow
    /// every exec mask stays full, so this produces exactly the values,
    /// counter sums, and first fault of the warp-outer path while the op
    /// decode and charge bookkeeping amortize over the group instead of
    /// repeating per warp. Memory ops still walk warp by warp because
    /// coalescing and bank-conflict charges are per-warp quantities.
    fn run_code_group(&mut self, code: &[Op], regs: &mut [u64]) -> Result<()> {
        let nlanes = self.nlanes;
        let stride = nlanes;
        for op in code {
            match op {
                Op::SetLine(line) => self.set_line(*line as usize),
                Op::ConstFill { dst, bits } => {
                    let d = *dst as usize * stride;
                    regs[d..d + nlanes].fill(*bits);
                }
                Op::CopyMasked { dst, src } | Op::CopyFull { dst, src } => {
                    let so = *src as usize * stride;
                    regs.copy_within(so..so + nlanes, *dst as usize * stride);
                }
                Op::Geom { dst, dim, b } => {
                    self.charge_group(self.env.cost.int_alu, InstrClass::Int);
                    self.geom_fill(regs, |r| r as usize * stride, *dst, *dim, *b, 0, nlanes);
                }
                Op::PtrAdd {
                    dst,
                    ptr,
                    off,
                    elem_size,
                } => {
                    self.charge_group(self.env.cost.int_alu, InstrClass::Int);
                    let at = |r: Reg| r as usize * stride;
                    ptr_add_fill(regs, at(*dst), at(*ptr), at(*off), *elem_size, nlanes);
                }
                Op::Mem(m) => self.mem_group(regs, *m)?,
                Op::Bin { dst, l, r, op, ty } => {
                    let class = if ty.is_float() {
                        InstrClass::Float
                    } else {
                        InstrClass::Int
                    };
                    self.charge_group(bin_cost(&self.env.cost, *op, *ty), class);
                    self.count_ops_group(ty.is_float(), 1);
                    if matches!(op, BOp::Div | BOp::Rem) {
                        let d0 = *dst as usize * stride;
                        let l0 = *l as usize * stride;
                        let r0 = *r as usize * stride;
                        for k in 0..nlanes {
                            regs[d0 + k] = ops::bin_op(*op, *ty, regs[l0 + k], regs[r0 + k])?;
                        }
                    } else {
                        bin_fill(
                            *op,
                            *ty,
                            regs,
                            *dst as usize * stride,
                            *l as usize * stride,
                            *r as usize * stride,
                            nlanes,
                        );
                    }
                }
                Op::Cmp { dst, l, r, op, ty } => {
                    self.charge_group(self.env.cost.int_alu, InstrClass::Int);
                    cmp_fill(
                        *op,
                        *ty,
                        regs,
                        *dst as usize * stride,
                        *l as usize * stride,
                        *r as usize * stride,
                        nlanes,
                    );
                }
                Op::Un { dst, a, op, ty } => {
                    let class = if ty.is_float() {
                        InstrClass::Float
                    } else {
                        InstrClass::Int
                    };
                    self.charge_group(self.env.cost.int_alu, class);
                    self.count_ops_group(ty.is_float(), 1);
                    let d0 = *dst as usize * stride;
                    let a0 = *a as usize * stride;
                    for k in 0..nlanes {
                        regs[d0 + k] = ops::un_op(*op, *ty, regs[a0 + k]);
                    }
                }
                Op::Cast { dst, a, from, to } => {
                    self.charge_group(self.env.cost.cast, InstrClass::Other);
                    cast_fill(
                        *from,
                        *to,
                        regs,
                        *dst as usize * stride,
                        *a as usize * stride,
                        nlanes,
                    );
                }
                Op::Math1 { dst, a, b, ty } => {
                    self.charge_group(math_cost(&self.env.cost, *b, *ty), math_class(*b));
                    self.count_ops_group(ty.is_float(), 1);
                    let d0 = *dst as usize * stride;
                    let a0 = *a as usize * stride;
                    if *b == Builtin::AbsI {
                        for k in 0..nlanes {
                            let v = regs[a0 + k];
                            regs[d0 + k] = if ty.is_signed() {
                                ops::cast_bits(
                                    (v as i64).wrapping_abs() as u64,
                                    ScalarType::I64,
                                    *ty,
                                )
                            } else {
                                v
                            };
                        }
                    } else {
                        let f = math1_fn(*b);
                        for k in 0..nlanes {
                            regs[d0 + k] = ops::math1(f, *ty, regs[a0 + k]);
                        }
                    }
                }
                Op::Math2 { dst, a, c, b, ty } => {
                    self.charge_group(math_cost(&self.env.cost, *b, *ty), math_class(*b));
                    self.count_ops_group(ty.is_float(), 1);
                    let d0 = *dst as usize * stride;
                    let a0 = *a as usize * stride;
                    let c0 = *c as usize * stride;
                    if matches!(b, Builtin::MaxI | Builtin::MinI) {
                        macro_rules! minmax {
                            (|$x:ident, $y:ident| $take_a:expr) => {
                                for k in 0..nlanes {
                                    let av = regs[a0 + k];
                                    let cv = regs[c0 + k];
                                    let $x = av;
                                    let $y = cv;
                                    regs[d0 + k] = if $take_a { av } else { cv };
                                }
                            };
                        }
                        match (*b, ty.is_signed()) {
                            (Builtin::MaxI, true) => minmax!(|x, y| (x as i64) >= (y as i64)),
                            (Builtin::MaxI, false) => minmax!(|x, y| x >= y),
                            (_, true) => minmax!(|x, y| (x as i64) <= (y as i64)),
                            (_, false) => minmax!(|x, y| x <= y),
                        }
                    } else {
                        let f = math2_fn(*b);
                        for k in 0..nlanes {
                            regs[d0 + k] = ops::math2(&f, *ty, regs[a0 + k], regs[c0 + k]);
                        }
                    }
                }
                Op::Math3 {
                    dst,
                    x,
                    y,
                    z,
                    b,
                    ty,
                } => {
                    self.charge_group(math_cost(&self.env.cost, *b, *ty), math_class(*b));
                    // fused multiply-add: two flops per lane
                    self.count_ops_group(ty.is_float(), 2);
                    let d0 = *dst as usize * stride;
                    let x0 = *x as usize * stride;
                    let y0 = *y as usize * stride;
                    let z0 = *z as usize * stride;
                    for k in 0..nlanes {
                        regs[d0 + k] = ops::math3(
                            |a, b, c| a * b + c,
                            *ty,
                            regs[x0 + k],
                            regs[y0 + k],
                            regs[z0 + k],
                        );
                    }
                }
                Op::SelMerge { dst, cond, t, f } => {
                    let d0 = *dst as usize * stride;
                    let c0 = *cond as usize * stride;
                    let t0 = *t as usize * stride;
                    let f0 = *f as usize * stride;
                    for k in 0..nlanes {
                        regs[d0 + k] = if regs[c0 + k] != 0 {
                            regs[t0 + k]
                        } else {
                            regs[f0 + k]
                        };
                    }
                    self.charge_group(self.env.cost.int_alu, InstrClass::Int);
                }
                Op::ChargeBranch => self.charge_group(1, InstrClass::Control),
                _ => unreachable!("code_is_straight admits only straight-line ops"),
            }
        }
        Ok(())
    }

    /// Geometry builtin `b` of dimension `dim` for the `n` lanes from lane
    /// `lo` of the group on; `at` gives the index of a register's first
    /// such lane. With a literal dimension — always, in practice — this is
    /// a copy of the id table or a fill.
    #[allow(clippy::too_many_arguments)]
    fn geom_fill(
        &self,
        regs: &mut [u64],
        at: impl Fn(Reg) -> usize,
        dst: Reg,
        dim: Dim,
        b: Builtin,
        lo: usize,
        n: usize,
    ) {
        use Builtin::*;
        let table = match b {
            GetGlobalId => Some(&self.gid),
            GetLocalId => Some(&self.lid),
            _ => None,
        };
        let uniform = |d: usize| match b {
            GetGroupId => self.group_id[d],
            GetGlobalSize => self.env.geom.global[d] as u64,
            GetLocalSize => self.env.geom.local[d] as u64,
            GetNumGroups => self.env.geom.num_groups()[d] as u64,
            GetWorkDim => self.env.geom.work_dim as u64,
            _ => unreachable!("the per-lane geometry builtins are tables"),
        };
        let d0 = at(dst);
        match (dim, table) {
            (Dim::Const(d), Some(t)) => {
                regs[d0..d0 + n].copy_from_slice(&t[d as usize][lo..lo + n])
            }
            (Dim::Const(d), None) => regs[d0..d0 + n].fill(uniform(d as usize)),
            (Dim::Reg(r), _) => {
                let m0 = at(r);
                for k in 0..n {
                    let d = (regs[m0 + k] as u32).min(2) as usize;
                    regs[d0 + k] = table.map_or_else(|| uniform(d), |t| t[d][lo + k]);
                }
            }
        }
    }

    // ---- frame pool ---------------------------------------------------------

    fn take_frame(&mut self, len: usize) -> Vec<u64> {
        match self.frame_pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0);
                v
            }
            None => vec![0u64; len],
        }
    }

    fn give_frame(&mut self, v: Vec<u64>) {
        if self.frame_pool.len() < MAX_CALL_DEPTH {
            self.frame_pool.push(v);
        }
    }

    // ---- bytecode interpreter ----------------------------------------------

    /// Execute one chunk for one warp. `stride`/`base` locate register
    /// lanes: register `r`, lane `k` lives at `regs[r * stride + base + k]`
    /// (the kernel frame is register-major over the whole group; callee
    /// frames are register-major over one warp).
    fn run_code(
        &mut self,
        code: &[Op],
        regs: &mut [u64],
        stride: usize,
        base: usize,
        w: &mut WarpState,
    ) -> Result<()> {
        let ww = w.ww;
        let mut pc = 0usize;
        macro_rules! lane {
            ($r:expr, $k:expr) => {
                regs[$r as usize * stride + base + $k]
            };
        }
        while pc < code.len() {
            match &code[pc] {
                Op::SetLine(line) => self.set_line(*line as usize),
                Op::ConstFill { dst, bits } => {
                    let d = *dst as usize * stride + base;
                    regs[d..d + ww].fill(*bits);
                }
                Op::CopyMasked { dst, src } if w.exec != warp_full(ww) => {
                    for_lanes!(Some(w.exec), ww, |k| {
                        lane!(*dst, k) = lane!(*src, k);
                    });
                }
                Op::CopyMasked { dst, src } | Op::CopyFull { dst, src } => {
                    let s = *src as usize * stride + base;
                    regs.copy_within(s..s + ww, *dst as usize * stride + base);
                }
                Op::Geom { dst, dim, b } => {
                    self.charge_warp(self.env.cost.int_alu, InstrClass::Int, w.exec, ww);
                    let at = |r: Reg| r as usize * stride + base;
                    self.geom_fill(regs, at, *dst, *dim, *b, w.lo, ww);
                }
                Op::PtrAdd {
                    dst,
                    ptr,
                    off,
                    elem_size,
                } => {
                    self.charge_warp(self.env.cost.int_alu, InstrClass::Int, w.exec, ww);
                    let at = |r: Reg| r as usize * stride + base;
                    ptr_add_fill(regs, at(*dst), at(*ptr), at(*off), *elem_size, ww);
                }
                Op::Mem(m) => {
                    if w.exec != 0 {
                        self.mem_warp(regs, stride, base, *m, w.exec, ww, w.lo, false)?;
                    }
                }
                Op::Bin { dst, l, r, op, ty } => {
                    let class = if ty.is_float() {
                        InstrClass::Float
                    } else {
                        InstrClass::Int
                    };
                    self.charge_warp(bin_cost(&self.env.cost, *op, *ty), class, w.exec, ww);
                    self.count_ops_warp(w.exec, ty.is_float(), 1);
                    if matches!(op, BOp::Div | BOp::Rem) {
                        // may trap: evaluate only live lanes
                        let mut e = w.exec;
                        while e != 0 {
                            let k = e.trailing_zeros() as usize;
                            e &= e - 1;
                            lane!(*dst, k) = ops::bin_op(*op, *ty, lane!(*l, k), lane!(*r, k))?;
                        }
                    } else {
                        bin_fill(
                            *op,
                            *ty,
                            regs,
                            *dst as usize * stride + base,
                            *l as usize * stride + base,
                            *r as usize * stride + base,
                            ww,
                        );
                    }
                }
                Op::Cmp { dst, l, r, op, ty } => {
                    self.charge_warp(self.env.cost.int_alu, InstrClass::Int, w.exec, ww);
                    cmp_fill(
                        *op,
                        *ty,
                        regs,
                        *dst as usize * stride + base,
                        *l as usize * stride + base,
                        *r as usize * stride + base,
                        ww,
                    );
                }
                Op::Un { dst, a, op, ty } => {
                    let class = if ty.is_float() {
                        InstrClass::Float
                    } else {
                        InstrClass::Int
                    };
                    self.charge_warp(self.env.cost.int_alu, class, w.exec, ww);
                    self.count_ops_warp(w.exec, ty.is_float(), 1);
                    for k in 0..ww {
                        lane!(*dst, k) = ops::un_op(*op, *ty, lane!(*a, k));
                    }
                }
                Op::Cast { dst, a, from, to } => {
                    self.charge_warp(self.env.cost.cast, InstrClass::Other, w.exec, ww);
                    cast_fill(
                        *from,
                        *to,
                        regs,
                        *dst as usize * stride + base,
                        *a as usize * stride + base,
                        ww,
                    );
                }
                Op::Math1 { dst, a, b, ty } => {
                    self.charge_warp(
                        math_cost(&self.env.cost, *b, *ty),
                        math_class(*b),
                        w.exec,
                        ww,
                    );
                    self.count_ops_warp(w.exec, ty.is_float(), 1);
                    if *b == Builtin::AbsI {
                        for k in 0..ww {
                            let v = lane!(*a, k);
                            lane!(*dst, k) = if ty.is_signed() {
                                ops::cast_bits(
                                    (v as i64).wrapping_abs() as u64,
                                    ScalarType::I64,
                                    *ty,
                                )
                            } else {
                                v
                            };
                        }
                    } else {
                        let f = math1_fn(*b);
                        for k in 0..ww {
                            lane!(*dst, k) = ops::math1(f, *ty, lane!(*a, k));
                        }
                    }
                }
                Op::Math2 { dst, a, c, b, ty } => {
                    self.charge_warp(
                        math_cost(&self.env.cost, *b, *ty),
                        math_class(*b),
                        w.exec,
                        ww,
                    );
                    self.count_ops_warp(w.exec, ty.is_float(), 1);
                    if matches!(b, Builtin::MaxI | Builtin::MinI) {
                        let d0 = *dst as usize * stride + base;
                        let a0 = *a as usize * stride + base;
                        let c0 = *c as usize * stride + base;
                        macro_rules! minmax {
                            (|$x:ident, $y:ident| $take_a:expr) => {
                                for k in 0..ww {
                                    let av = regs[a0 + k];
                                    let cv = regs[c0 + k];
                                    let $x = av;
                                    let $y = cv;
                                    regs[d0 + k] = if $take_a { av } else { cv };
                                }
                            };
                        }
                        match (*b, ty.is_signed()) {
                            (Builtin::MaxI, true) => minmax!(|x, y| (x as i64) >= (y as i64)),
                            (Builtin::MaxI, false) => minmax!(|x, y| x >= y),
                            (_, true) => minmax!(|x, y| (x as i64) <= (y as i64)),
                            (_, false) => minmax!(|x, y| x <= y),
                        }
                    } else {
                        let f = math2_fn(*b);
                        for k in 0..ww {
                            lane!(*dst, k) = ops::math2(&f, *ty, lane!(*a, k), lane!(*c, k));
                        }
                    }
                }
                Op::Math3 {
                    dst,
                    x,
                    y,
                    z,
                    b,
                    ty,
                } => {
                    self.charge_warp(
                        math_cost(&self.env.cost, *b, *ty),
                        math_class(*b),
                        w.exec,
                        ww,
                    );
                    // fused multiply-add: two flops per lane
                    self.count_ops_warp(w.exec, ty.is_float(), 2);
                    for k in 0..ww {
                        lane!(*dst, k) = ops::math3(
                            |a, b, c| a * b + c,
                            *ty,
                            lane!(*x, k),
                            lane!(*y, k),
                            lane!(*z, k),
                        );
                    }
                }
                Op::SelMerge { dst, cond, t, f } => {
                    let d0 = *dst as usize * stride + base;
                    let c0 = *cond as usize * stride + base;
                    let t0 = *t as usize * stride + base;
                    let f0 = *f as usize * stride + base;
                    for k in 0..ww {
                        regs[d0 + k] = if regs[c0 + k] != 0 {
                            regs[t0 + k]
                        } else {
                            regs[f0 + k]
                        };
                    }
                    self.charge_warp(self.env.cost.int_alu, InstrClass::Int, w.exec, ww);
                }
                Op::ChargeBranch => self.charge_warp(1, InstrClass::Control, w.exec, ww),
                Op::PushIf { cond, invert } => {
                    let mut truthy = 0u64;
                    let mut e = w.exec;
                    while e != 0 {
                        let k = e.trailing_zeros() as usize;
                        e &= e - 1;
                        if lane!(*cond, k) != 0 {
                            truthy |= 1 << k;
                        }
                    }
                    let (now, later) = if *invert {
                        (w.exec & !truthy, truthy)
                    } else {
                        (truthy, w.exec & !truthy)
                    };
                    w.if_stack.push(IfFrame {
                        other: later,
                        done: 0,
                    });
                    w.exec = now;
                }
                Op::ElseSwap => {
                    let frame = w.if_stack.last_mut().expect("balanced if stack");
                    frame.done |= w.exec;
                    w.exec = frame.other;
                    frame.other = 0;
                }
                Op::PopIf => {
                    let frame = w.if_stack.pop().expect("balanced if stack");
                    w.exec |= frame.done | frame.other;
                }
                Op::PushLoop => w.loop_stack.push(LoopFrame {
                    entry: w.exec,
                    cont: 0,
                }),
                Op::LoopIterEnd => {
                    let frame = w.loop_stack.last_mut().expect("balanced loop stack");
                    w.exec |= frame.cont;
                    frame.cont = 0;
                    w.exec &= !w.ret;
                }
                Op::PopLoop => {
                    let frame = w.loop_stack.pop().expect("balanced loop stack");
                    w.exec = frame.entry & !w.ret;
                }
                Op::AndTruthy { cond } => {
                    let mut e = w.exec;
                    while e != 0 {
                        let k = e.trailing_zeros() as usize;
                        e &= e - 1;
                        if lane!(*cond, k) == 0 {
                            w.exec &= !(1 << k);
                        }
                    }
                }
                Op::AndNotRet => w.exec &= !w.ret,
                Op::Break => w.exec = 0,
                Op::Continue => {
                    let frame = w.loop_stack.last_mut().expect("continue inside a loop");
                    frame.cont |= w.exec;
                    w.exec = 0;
                }
                Op::Return => {
                    w.ret |= w.exec;
                    w.exec = 0;
                }
                Op::Call {
                    dst,
                    func,
                    abase,
                    nargs,
                } => {
                    if w.exec != 0 {
                        if self.call_depth >= MAX_CALL_DEPTH {
                            return Err(Error::InvalidOperation(
                                "device call stack overflow (recursion is not supported in \
                                 OpenCL C)"
                                    .into(),
                            ));
                        }
                        let fplan = self.plan.funcs[*func as usize]
                            .as_ref()
                            .expect("planner compiled every reachable helper")
                            .clone();
                        let mut frame = self.take_frame(fplan.nregs * ww);
                        for i in 0..*nargs as usize {
                            let src = (*abase as usize + i) * stride + base;
                            frame[i * ww..(i + 1) * ww].copy_from_slice(&regs[src..src + ww]);
                        }
                        self.charge_warp(2, InstrClass::Control, w.exec, ww); // call overhead
                        let mut cw = WarpState {
                            exec: w.exec,
                            ret: 0,
                            lo: w.lo,
                            ww,
                            if_stack: Vec::new(),
                            loop_stack: Vec::new(),
                        };
                        self.call_depth += 1;
                        // callee statements attribute to their own lines;
                        // charges after the call fall back to the call site
                        let saved_line = self.cur_line;
                        let result = self.run_code(&fplan.code, &mut frame, ww, 0, &mut cw);
                        self.set_line(saved_line);
                        self.call_depth -= 1;
                        result?;
                        // copy the callee's return register back as a whole
                        // chunk (masked-off lanes carry unobservable
                        // garbage, like the reference's full ret_val copy)
                        let src = fplan.ret_reg as usize * ww;
                        let d = *dst as usize * stride + base;
                        regs[d..d + ww].copy_from_slice(&frame[src..src + ww]);
                        self.give_frame(frame);
                    }
                }
                Op::Jmp(t) => {
                    pc = *t as usize;
                    continue;
                }
                Op::JmpIfEmpty(t) => {
                    if w.exec == 0 {
                        pc = *t as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemAccess};
    use crate::clc::opt::{self, OptLevel};
    use crate::clc::{parser, sema};
    use crate::device::DeviceProfile;
    use crate::exec::interp::GroupRun;
    use crate::exec::launch::Geometry;
    use crate::timing::{CostModel, GroupStats};

    fn compile(src: &str, level: OptLevel) -> Module {
        let tu = parser::parse(src).expect("parse");
        let mut m = sema::analyze(&tu).expect("sema");
        opt::optimize(&mut m, level);
        m
    }

    /// Argument template, re-materialised per backend so the two runs never
    /// share buffer storage (Buffer clones alias the same bytes).
    enum ArgSpec {
        F32(Vec<f32>),
        I32(Vec<i32>),
        ScalarI32(i32),
    }

    fn bind(spec: &[ArgSpec]) -> Vec<BoundArg> {
        spec.iter()
            .map(|s| match s {
                ArgSpec::F32(v) => {
                    let buf = Buffer::new(v.len() * 4, MemAccess::ReadWrite);
                    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
                    buf.write_bytes(0, &bytes).unwrap();
                    BoundArg::Buffer {
                        buffer: buf,
                        space: AddrSpace::Global,
                    }
                }
                ArgSpec::I32(v) => {
                    let buf = Buffer::new(v.len() * 4, MemAccess::ReadWrite);
                    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
                    buf.write_bytes(0, &bytes).unwrap();
                    BoundArg::Buffer {
                        buffer: buf,
                        space: AddrSpace::Global,
                    }
                }
                ArgSpec::ScalarI32(x) => BoundArg::Scalar {
                    bits: *x as i64 as u64,
                    ty: ScalarType::I32,
                },
            })
            .collect()
    }

    /// Everything one backend produced for a launch, in a comparable form.
    #[derive(Debug, PartialEq)]
    struct RunOut {
        stats: Vec<GroupStats>,
        counters: GroupCounters,
        lines: BTreeMap<usize, GroupCounters>,
        err: Option<String>,
        bytes: Vec<Vec<u8>>,
    }

    fn read_arg_bytes(args: &[BoundArg]) -> Vec<Vec<u8>> {
        args.iter()
            .filter_map(|a| match a {
                BoundArg::Buffer { buffer, .. } => {
                    let mut out = vec![0u8; buffer.len_bytes()];
                    buffer.read_bytes(0, &mut out).unwrap();
                    Some(out)
                }
                BoundArg::Scalar { .. } => None,
            })
            .collect()
    }

    /// Run every work-group sequentially through one backend and merge the
    /// results the way `run_ndrange_profiled` does.
    fn run_groups(
        module: &Module,
        kernel: &str,
        args: &[BoundArg],
        geom: Geometry,
        simd: usize,
        plan: Option<&ModulePlan>,
    ) -> RunOut {
        let fid = module.kernels[kernel];
        let env = LaunchEnv {
            module,
            kernel: &module.funcs[fid],
            args,
            geom,
            cost: CostModel::for_device(&DeviceProfile::tesla_c2050()),
            simd,
            sanitize: false,
            collect: true,
            cache: DeviceProfile::tesla_c2050_cached().cache,
        };
        let mut out = RunOut {
            stats: Vec::new(),
            counters: GroupCounters::default(),
            lines: BTreeMap::new(),
            err: None,
            bytes: Vec::new(),
        };
        let kplan = plan.map(|p| match &p.kernels[fid] {
            Some(Ok(k)) => k.clone(),
            Some(Err(e)) => panic!("kernel `{kernel}` unexpectedly fell back: {e}"),
            None => panic!("kernel `{kernel}` has no plan entry"),
        });
        let ng = geom.num_groups();
        'groups: for gz in 0..ng[2] {
            for gy in 0..ng[1] {
                for gx in 0..ng[0] {
                    let g = [gx, gy, gz];
                    let result = if let Some(kplan) = &kplan {
                        let mut run = WgGroupRun::new(&env, plan.unwrap(), kplan, g);
                        run.run()
                            .map(|()| (run.stats, run.counters, run.line_counters))
                    } else {
                        let mut run = GroupRun::new(&env, g);
                        run.run()
                            .map(|()| (run.stats, run.counters, run.line_counters))
                    };
                    match result {
                        Ok((stats, counters, lines)) => {
                            out.stats.push(stats);
                            if let Some(c) = counters {
                                out.counters.merge(&c);
                            }
                            for (line, c) in lines.into_iter().flatten() {
                                out.lines.entry(line).or_default().merge(&c);
                            }
                        }
                        Err(e) => {
                            out.err = Some(e.to_string());
                            break 'groups;
                        }
                    }
                }
            }
        }
        out.bytes = read_arg_bytes(args);
        out
    }

    fn geometry(global: &[usize], local: &[usize]) -> Geometry {
        let mut g = [1usize; 3];
        let mut l = [1usize; 3];
        g[..global.len()].copy_from_slice(global);
        l[..local.len()].copy_from_slice(local);
        Geometry {
            global: g,
            local: l,
            work_dim: global.len() as u32,
        }
    }

    /// Run `kernel` under both backends at the given SIMD width and assert
    /// the outputs, per-group stats, merged counters, and per-line counters
    /// are all identical.
    fn check_pair_simd(
        src: &str,
        kernel: &str,
        global: &[usize],
        local: &[usize],
        spec: &[ArgSpec],
        simd: usize,
        level: OptLevel,
    ) {
        let module = compile(src, level);
        let geom = geometry(global, local);
        let ref_args = bind(spec);
        let wg_args = bind(spec);
        let ref_out = run_groups(&module, kernel, &ref_args, geom, simd, None);
        let plan = module_plan(&module);
        let wg_out = run_groups(&module, kernel, &wg_args, geom, simd, Some(&plan));
        assert_eq!(
            ref_out.err, wg_out.err,
            "error mismatch for `{kernel}` at simd={simd}"
        );
        assert_eq!(
            ref_out.stats, wg_out.stats,
            "per-group stats mismatch for `{kernel}` at simd={simd}"
        );
        assert_eq!(
            ref_out.counters, wg_out.counters,
            "merged counters mismatch for `{kernel}` at simd={simd}"
        );
        assert_eq!(
            ref_out.lines, wg_out.lines,
            "per-line counters mismatch for `{kernel}` at simd={simd}"
        );
        assert_eq!(
            ref_out.bytes, wg_out.bytes,
            "output bytes mismatch for `{kernel}` at simd={simd}"
        );
    }

    fn check_pair(src: &str, kernel: &str, global: &[usize], local: &[usize], spec: &[ArgSpec]) {
        for simd in [4, 32] {
            for level in [OptLevel::O0, OptLevel::O2] {
                check_pair_simd(src, kernel, global, local, spec, simd, level);
            }
        }
    }

    fn seq_f32(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32) * 0.5 - 3.0).collect()
    }

    fn seq_i32(n: usize) -> Vec<i32> {
        (0..n).map(|i| (i as i32 * 7) % 23 - 5).collect()
    }

    #[test]
    fn vadd_matches_ref() {
        let src = r#"
            __kernel void vadd(__global float* out, __global const float* a,
                               __global const float* b) {
                int i = get_global_id(0);
                out[i] = a[i] + b[i];
            }
        "#;
        check_pair(
            src,
            "vadd",
            &[64],
            &[16],
            &[
                ArgSpec::F32(vec![0.0; 64]),
                ArgSpec::F32(seq_f32(64)),
                ArgSpec::F32(seq_f32(64)),
            ],
        );
    }

    #[test]
    fn divergent_branches_match_ref() {
        let src = r#"
            __kernel void div2(__global int* out, __global const int* a) {
                int i = get_global_id(0);
                int v = a[i];
                if (v > 0) {
                    if (v % 2 == 0) { v = v * 3; } else { v = v + 7; }
                } else {
                    v = -v;
                }
                out[i] = v;
            }
        "#;
        check_pair(
            src,
            "div2",
            &[48],
            &[24],
            &[ArgSpec::I32(vec![0; 48]), ArgSpec::I32(seq_i32(48))],
        );
    }

    #[test]
    fn loop_break_continue_match_ref() {
        let src = r#"
            __kernel void lbc(__global int* out, int n) {
                int i = get_global_id(0);
                int acc = 0;
                for (int k = 0; k < n; k = k + 1) {
                    if (k == i) { continue; }
                    if (k > i + 5) { break; }
                    acc = acc + k;
                }
                out[i] = acc;
            }
        "#;
        check_pair(
            src,
            "lbc",
            &[32],
            &[8],
            &[ArgSpec::I32(vec![0; 32]), ArgSpec::ScalarI32(40)],
        );
    }

    #[test]
    fn do_while_matches_ref() {
        let src = r#"
            __kernel void dw(__global int* out) {
                int i = get_global_id(0);
                int k = 0;
                int acc = 0;
                do {
                    acc = acc + k;
                    k = k + 1;
                } while (k < i);
                out[i] = acc;
            }
        "#;
        check_pair(src, "dw", &[24], &[12], &[ArgSpec::I32(vec![0; 24])]);
    }

    #[test]
    fn early_return_matches_ref() {
        let src = r#"
            __kernel void ret(__global int* out, int n) {
                int i = get_global_id(0);
                if (i >= n) { return; }
                out[i] = i * 2;
            }
        "#;
        check_pair(
            src,
            "ret",
            &[32],
            &[16],
            &[ArgSpec::I32(vec![-1; 32]), ArgSpec::ScalarI32(20)],
        );
    }

    #[test]
    fn barrier_local_reduction_matches_ref() {
        let src = r#"
            __kernel void reduce(__global const float* in, __global float* out) {
                __local float sm[64];
                int l = get_local_id(0);
                sm[l] = in[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                for (int s = 32; s > 0; s = s / 2) {
                    if (l < s) { sm[l] = sm[l] + sm[l + s]; }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (l == 0) { out[get_group_id(0)] = sm[0]; }
            }
        "#;
        check_pair(
            src,
            "reduce",
            &[128],
            &[64],
            &[ArgSpec::F32(seq_f32(128)), ArgSpec::F32(vec![0.0; 2])],
        );
    }

    #[test]
    fn top_level_barrier_matches_ref() {
        let src = r#"
            __kernel void tile(__global const float* in, __global float* out) {
                __local float sm[16];
                int l = get_local_id(0);
                int g = get_global_id(0);
                sm[l] = in[g] * 2.0f;
                barrier(CLK_LOCAL_MEM_FENCE);
                out[g] = sm[15 - l];
            }
        "#;
        check_pair(
            src,
            "tile",
            &[64],
            &[16],
            &[ArgSpec::F32(seq_f32(64)), ArgSpec::F32(vec![0.0; 64])],
        );
    }

    #[test]
    fn helper_call_matches_ref() {
        let src = r#"
            float sq(float x) { return x * x; }
            int clampz(int v, int hi) {
                if (v < 0) { return 0; }
                if (v > hi) { return hi; }
                return v;
            }
            __kernel void hc(__global float* out, __global int* iout,
                             __global const int* a) {
                int i = get_global_id(0);
                out[i] = sq((float)i) + sq(2.0f);
                iout[i] = clampz(a[i], 10);
            }
        "#;
        check_pair(
            src,
            "hc",
            &[32],
            &[8],
            &[
                ArgSpec::F32(vec![0.0; 32]),
                ArgSpec::I32(vec![0; 32]),
                ArgSpec::I32(seq_i32(32)),
            ],
        );
    }

    #[test]
    fn nested_helper_call_matches_ref() {
        // regression: calls inside `if`/loop bodies must still be planned
        let src = r#"
            int triple(int v) { return v * 3; }
            __kernel void nhc(__global int* out, __global const int* a) {
                int i = get_global_id(0);
                int v = a[i];
                for (int k = 0; k < 3; k = k + 1) {
                    if (v > 0) { v = triple(v) - 1; }
                }
                out[i] = v;
            }
        "#;
        check_pair(
            src,
            "nhc",
            &[32],
            &[8],
            &[ArgSpec::I32(vec![0; 32]), ArgSpec::I32(seq_i32(32))],
        );
    }

    #[test]
    fn select_and_shortcircuit_match_ref() {
        let src = r#"
            __kernel void sel(__global int* out, __global const int* a) {
                int i = get_global_id(0);
                int v = a[i];
                int r = (v > 3 && v < 10) ? v * 2 : v - 1;
                if (v > 0 || i == 0) { r = r + 100; }
                out[i] = r;
            }
        "#;
        check_pair(
            src,
            "sel",
            &[40],
            &[8],
            &[ArgSpec::I32(vec![0; 40]), ArgSpec::I32(seq_i32(40))],
        );
    }

    #[test]
    fn private_array_matches_ref() {
        let src = r#"
            __kernel void pa(__global int* out) {
                int i = get_global_id(0);
                int tmp[4];
                for (int k = 0; k < 4; k = k + 1) { tmp[k] = i * k + 1; }
                out[i] = tmp[1] + tmp[3];
            }
        "#;
        check_pair(src, "pa", &[32], &[16], &[ArgSpec::I32(vec![0; 32])]);
    }

    #[test]
    fn math_builtins_match_ref() {
        let src = r#"
            __kernel void mb(__global float* out, __global const float* a) {
                int i = get_global_id(0);
                float x = a[i];
                out[i] = sqrt(fabs(x)) + fmax(x, 0.25f) + mad(x, 2.0f, 1.0f);
            }
        "#;
        check_pair(
            src,
            "mb",
            &[32],
            &[16],
            &[ArgSpec::F32(vec![0.0; 32]), ArgSpec::F32(seq_f32(32))],
        );
    }

    #[test]
    fn div_by_zero_traps_identically() {
        let src = r#"
            __kernel void dz(__global int* out, int d) {
                int i = get_global_id(0);
                out[i] = i / d;
            }
        "#;
        let module = compile(src, OptLevel::O2);
        let geom = geometry(&[16], &[16]);
        let ref_args = bind(&[ArgSpec::I32(vec![0; 16]), ArgSpec::ScalarI32(0)]);
        let wg_args = bind(&[ArgSpec::I32(vec![0; 16]), ArgSpec::ScalarI32(0)]);
        let ref_out = run_groups(&module, "dz", &ref_args, geom, 32, None);
        let plan = module_plan(&module);
        let wg_out = run_groups(&module, "dz", &wg_args, geom, 32, Some(&plan));
        assert!(ref_out.err.is_some(), "reference backend should trap");
        assert_eq!(ref_out.err, wg_out.err);
    }

    // --- the memory-op function on hand-built pointers ------------------------

    /// What the language cannot express — clc has scalar casts only, so a
    /// misaligned pointer or a warp that mixes buffers never comes from
    /// source: hand the memory-op function such registers directly. The
    /// regular path must decline them and the generic one must produce
    /// `load_lane_mem`'s values, the reference's transaction count and the
    /// reference's fault.
    #[test]
    fn mem_warp_declines_mixed_misaligned_and_faulting_lanes() {
        let module = compile(
            "__kernel void k(__global int* a, __global int* b) {
                 a[get_global_id(0)] = b[get_global_id(0)];
             }",
            OptLevel::O1,
        );
        let args = bind(&[ArgSpec::I32(seq_i32(64)), ArgSpec::I32(seq_i32(64))]);
        let fid = module.kernels["k"];
        let env = LaunchEnv {
            module: &module,
            kernel: &module.funcs[fid],
            args: &args,
            geom: geometry(&[32], &[32]),
            cost: CostModel::for_device(&DeviceProfile::tesla_c2050()),
            simd: 32,
            sanitize: false,
            collect: true,
            cache: None,
        };
        let plan = module_plan(&module);
        let kplan = match &plan.kernels[fid] {
            Some(Ok(k)) => k.clone(),
            other => panic!("no plan: {other:?}"),
        };
        let load = MemOp {
            addr: 0,
            data: 1,
            elem: ScalarType::I32,
            space: AddrSpace::Global,
            store: false,
        };
        // register 0 = addresses, register 1 = data, 32 lanes each
        let run_load = |addrs: &[u64], exec: u64| {
            let mut vm = WgGroupRun::new(&env, &plan, &kplan, [0, 0, 0]);
            let mut regs = vec![0u64; 64];
            regs[..32].copy_from_slice(addrs);
            let r = vm.mem_warp(&mut regs, 32, 0, load, exec, 32, 0, false);
            (
                r,
                regs[32..].to_vec(),
                vm.stats.mem_transactions,
                (vm.mem_regular, vm.mem_generic),
            )
        };
        let reference = |addrs: &[u64], exec: u64| -> Vec<Result<u64>> {
            (0..32)
                .filter(|k| exec >> k & 1 != 0)
                .map(|k| load_lane_mem(&args, &[], &[], addrs[k], ScalarType::I32))
                .collect()
        };
        let distinct_segments = |addrs: &[u64], exec: u64| {
            let mut segs: Vec<u64> = (0..32)
                .filter(|k| exec >> k & 1 != 0)
                .flat_map(|k| [addrs[k] >> 7, (addrs[k] + 3) >> 7])
                .collect();
            segs.sort_unstable();
            segs.dedup();
            segs.len() as u64
        };
        let unit = |arg: usize, k: usize| arg_pointer(arg, AddrSpace::Global) + 4 * k as u64;

        // the control: unit stride in one buffer is regular, full or masked
        let addrs: Vec<u64> = (0..32).map(|k| unit(1, k)).collect();
        for exec in [u64::MAX >> 32, 0x0F0F_00F1] {
            let (r, data, tx, paths) = run_load(&addrs, exec);
            r.unwrap();
            assert_eq!(paths, (1, 0), "unit stride is regular");
            assert_eq!(tx, distinct_segments(&addrs, exec));
            let want = reference(&addrs, exec);
            let got = (0..32).filter(|k| exec >> k & 1 != 0).map(|k| data[k]);
            assert!(got.eq(want.into_iter().map(|v| v.unwrap())));
            assert!(
                (0..32).all(|k| exec >> k & 1 != 0 || data[k] == 0),
                "inactive lanes kept"
            );
        }

        // lanes alternating between the two buffers: declined, same values
        let mixed: Vec<u64> = (0..32).map(|k| unit(k % 2, k)).collect();
        let (r, data, tx, paths) = run_load(&mixed, u64::MAX >> 32);
        r.unwrap();
        assert_eq!(paths, (0, 1), "a mixed-buffer warp is generic");
        assert_eq!(tx, distinct_segments(&mixed, u64::MAX >> 32));
        let want: Vec<u64> = reference(&mixed, u64::MAX >> 32)
            .into_iter()
            .map(|v| v.unwrap())
            .collect();
        assert_eq!(data, want);

        // one misaligned lane, one lane past the end: the reference's fault
        for (lane, bad) in [(5, unit(1, 5) + 2), (9, unit(1, 64))] {
            let mut addrs: Vec<u64> = (0..32).map(|k| unit(1, k)).collect();
            addrs[lane] = bad;
            let want = reference(&addrs, u64::MAX >> 32)
                .into_iter()
                .find_map(|v| v.err())
                .expect("the reference faults");
            assert!(matches!(
                want,
                Error::MemoryFault {
                    space: "global",
                    len: 4,
                    ..
                }
            ));
            let (r, _, tx, paths) = run_load(&addrs, u64::MAX >> 32);
            assert_eq!(r.unwrap_err(), want, "lane {lane}");
            assert_eq!(paths, (0, 0), "a faulting access is not counted");
            // charged like the reference: before the lanes are walked
            assert_eq!(tx, distinct_segments(&addrs, u64::MAX >> 32));
            // and with the lane masked off, the same warp is fine
            let (r, _, _, _) = run_load(&addrs, (u64::MAX >> 32) & !(1 << lane));
            r.unwrap();
        }
    }

    // --- planner fallback decisions ---------------------------------------

    fn plan_err(src: &str, kernel: &str) -> String {
        let module = compile(src, OptLevel::O2);
        let plan = module_plan(&module);
        let fid = module.kernels[kernel];
        match &plan.kernels[fid] {
            Some(Err(e)) => e.clone(),
            Some(Ok(_)) => panic!("kernel `{kernel}` unexpectedly compiled"),
            None => panic!("kernel `{kernel}` has no plan entry"),
        }
    }

    #[test]
    fn atomic_kernel_falls_back() {
        let err = plan_err(
            r#"
            __kernel void at(__global int* c) {
                atomic_add(&c[0], 1);
            }
            "#,
            "at",
        );
        assert!(err.contains("atomic"), "got: {err}");
    }

    #[test]
    fn barrier_under_divergent_if_falls_back() {
        let err = plan_err(
            r#"
            __kernel void bif(__global int* out) {
                int i = get_global_id(0);
                if (i < 4) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                out[i] = i;
            }
            "#,
            "bif",
        );
        assert!(err.contains("barrier"), "got: {err}");
    }

    #[test]
    fn barrier_plus_return_falls_back() {
        let err = plan_err(
            r#"
            __kernel void br(__global int* out, int n) {
                int i = get_global_id(0);
                if (i >= n) { return; }
                barrier(CLK_LOCAL_MEM_FENCE);
                out[i] = i;
            }
            "#,
            "br",
        );
        assert!(err.contains("return"), "got: {err}");
    }

    #[test]
    fn helper_with_barrier_falls_back() {
        let err = plan_err(
            r#"
            void sync() { barrier(CLK_LOCAL_MEM_FENCE); }
            __kernel void hb(__global int* out) {
                int i = get_global_id(0);
                sync();
                out[i] = i;
            }
            "#,
            "hb",
        );
        assert!(err.contains("barrier"), "got: {err}");
    }

    #[test]
    fn non_uniform_barrier_loop_falls_back() {
        let err = plan_err(
            r#"
            __kernel void nu(__global int* out) {
                int i = get_local_id(0);
                for (int k = 0; k < i; k = k + 1) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                out[get_global_id(0)] = i;
            }
            "#,
            "nu",
        );
        assert!(err.contains("uniform"), "got: {err}");
    }

    #[test]
    fn uniform_barrier_loop_compiles() {
        let src = r#"
            __kernel void ub(__global float* data, int steps) {
                __local float sm[16];
                int l = get_local_id(0);
                for (int k = 0; k < steps; k = k + 1) {
                    sm[l] = data[get_global_id(0)] + (float)k;
                    barrier(CLK_LOCAL_MEM_FENCE);
                    data[get_global_id(0)] = sm[(l + 1) % 16];
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
            }
        "#;
        check_pair(
            src,
            "ub",
            &[32],
            &[16],
            &[ArgSpec::F32(seq_f32(32)), ArgSpec::ScalarI32(3)],
        );
    }
}
