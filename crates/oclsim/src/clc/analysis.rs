//! Static kernel sanitizer: barrier-divergence, cross-work-item race, and
//! out-of-bounds checking over the parsed (and semantically checked) AST.
//!
//! The analysis abstract-interprets each kernel once, tracking every integer
//! value as an **affine polynomial** over symbolic coordinates — global id,
//! local id, group id, scalar parameters, bounded loop counters, and opaque
//! unknowns — together with two uniformity bits (uniform within a work-group
//! / uniform across the whole NDRange). Three checkers run over the result:
//!
//! * **Barrier divergence** — a `barrier(...)` (or a call to a helper that
//!   contains one) reached while any enclosing branch or loop condition
//!   depends on the work-item id is undefined behaviour; flagged as an error.
//! * **Races** — every global/local memory access is recorded with its index
//!   polynomial and its *barrier epoch* (the count of group-level barriers
//!   executed so far; loop bodies are walked twice so cross-iteration pairs
//!   land in the right epochs). Two accesses to the same buffer in the same
//!   epoch, at least one a write, are then proven benign (injective per-item
//!   index, guard-derived disjoint intervals, or uniform address with a
//!   uniform value) or reported. Unprovable pairs downgrade to warnings;
//!   distinct work-items writing provably different values through the same
//!   address is a definite race (error).
//! * **Out of bounds** — constant/bounded indices into `__local`/`__private`
//!   arrays are checked against their declared extents at build time, and
//!   unguarded global accesses are kept as [`LaunchAccess`] records so an
//!   enqueue can evaluate them against the bound buffers and geometry and
//!   reject the launch before execution (see `Kernel::lint_launch`).
//!
//! Known limits (see DESIGN.md for the full list): read-write overlaps on
//! *global* memory are not checked (in-place relaxation patterns such as
//! Floyd–Warshall are deliberately accepted), helper-function bodies are not
//! race-analysed (only their barrier/id usage propagates), injectivity of
//! multi-axis indices assumes the kernel is launched with as many axes as it
//! queries, and barriers inside `if` bodies do not advance the epoch.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::clc::ast::{self, AddrSpace, BinOp, ClType, Expr, PostOp, Span, Stmt, StmtKind, UnOp};
use crate::clc::dataflow::{fixed_bounds, StoreFacts};
use crate::clc::{parser, pp, sema};
use crate::error::Result;
use crate::exec::ir::{FuncIr, Module as IrModule};

// ---------------------------------------------------------------------------
// public diagnostics types
// ---------------------------------------------------------------------------

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a conservative finding ruled out (or an access proved
    /// safe) by the IR dataflow analyses. Never fails a build.
    Note,
    /// Possible problem the analysis could not prove either way.
    Warning,
    /// Definite problem (undefined behaviour or a guaranteed fault).
    Error,
}

/// Which checker produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagKind {
    BarrierDivergence,
    DataRace,
    OutOfBounds,
    /// A conservative finding demoted (or an access positively verified) by
    /// the dataflow-backed refinement; always [`Severity::Note`].
    ProvedSafe,
    /// The compiled work-group backend declined this kernel and it will run
    /// on the reference SIMT interpreter; always [`Severity::Note`].
    BackendFallback,
}

impl DiagKind {
    fn label(self) -> &'static str {
        match self {
            DiagKind::BarrierDivergence => "barrier-divergence",
            DiagKind::DataRace => "race",
            DiagKind::OutOfBounds => "out-of-bounds",
            DiagKind::ProvedSafe => "proved-safe",
            DiagKind::BackendFallback => "backend-fallback",
        }
    }
}

/// One structured, span-carrying finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub kernel: String,
    pub span: Span,
    pub severity: Severity,
    pub kind: DiagKind,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{sev}[{}] kernel `{}`, line {}: {}",
            self.kind.label(),
            self.kernel,
            self.span,
            self.message
        )
    }
}

impl Diagnostic {
    /// Render the diagnostic with a caret snippet of the offending source
    /// line, using the same gutter format as the profile annotator (see
    /// [`crate::clc::snippet`]):
    ///
    /// ```text
    /// warning[uncoalesced] kernel `t`, line 3: stride-N access
    ///  3 |     dst[x * h + y] = v;
    ///    |     ^ stride-N access
    /// ```
    pub fn render_with_source(&self, source: &str) -> String {
        format!(
            "{self}\n{}",
            super::snippet::render_snippet(source, self.span.line, self.span.col, &self.message)
        )
    }
}

/// How strictly build/launch react to analysis findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Skip the analysis entirely.
    Off,
    /// Record findings in the build log / diagnostics sink, never fail.
    #[default]
    Warn,
    /// Error-severity findings fail the build or reject the launch.
    Deny,
}

/// The result of analysing a translation unit.
#[derive(Debug, Default)]
pub struct Analysis {
    pub diagnostics: Vec<Diagnostic>,
    /// Per-kernel records used by the enqueue-time bounds check.
    pub kernels: HashMap<String, KernelSummary>,
}

/// Per-kernel analysis results kept beyond build time.
#[derive(Debug, Default)]
pub struct KernelSummary {
    pub launch_accesses: Vec<LaunchAccess>,
}

/// An unconditional global-memory access whose index polynomial can be
/// range-evaluated once the launch geometry and scalar arguments are known.
#[derive(Debug, Clone)]
pub struct LaunchAccess {
    /// Kernel parameter index of the buffer being accessed.
    pub param: usize,
    pub param_name: String,
    /// Element size in bytes.
    pub elem_size: usize,
    pub is_write: bool,
    pub span: Span,
    idx: Poly,
}

impl LaunchAccess {
    /// Inclusive element-index bounds of this access for the given geometry
    /// (`global`/`local` per axis) and integer scalar argument values by
    /// parameter index. `None` when a needed scalar is missing/non-integer.
    pub fn element_bounds(
        &self,
        global: &[usize; 3],
        local: &[usize; 3],
        scalars: &HashMap<usize, i128>,
    ) -> Option<(i128, i128)> {
        let rng = |s: &Sym| -> Option<(i128, i128)> {
            match *s {
                Sym::Gid(d) => Some((0, global[d as usize] as i128 - 1)),
                Sym::Lid(d) => Some((0, local[d as usize] as i128 - 1)),
                Sym::Grp(d) => Some((
                    0,
                    (global[d as usize] / local[d as usize].max(1)) as i128 - 1,
                )),
                Sym::Param(p) => scalars.get(&(p as usize)).map(|&v| (v, v)),
                Sym::LoopVar { lo, hi, .. } => Some((lo as i128, hi as i128)),
                Sym::Opaque { .. } => None,
            }
        };
        let mut total = (self.idx.k, self.idx.k);
        for (mono, &c) in &self.idx.terms {
            let mut iv = (c, c);
            for s in mono {
                iv = mul_iv(iv, rng(s)?);
            }
            total = (total.0 + iv.0, total.1 + iv.1);
        }
        Some(total)
    }
}

fn mul_iv(a: (i128, i128), b: (i128, i128)) -> (i128, i128) {
    let c = [a.0 * b.0, a.0 * b.1, a.1 * b.0, a.1 * b.1];
    (*c.iter().min().unwrap(), *c.iter().max().unwrap())
}

// ---------------------------------------------------------------------------
// symbolic domain
// ---------------------------------------------------------------------------

/// A symbolic coordinate. `Ord` so monomials have a canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Sym {
    /// `get_global_id(d)`
    Gid(u8),
    /// `get_local_id(d)`
    Lid(u8),
    /// `get_group_id(d)`
    Grp(u8),
    /// Scalar kernel parameter (by parameter index).
    Param(u16),
    /// A `for` counter with compile-time bounds `lo..=hi`.
    LoopVar { id: u32, lo: i64, hi: i64 },
    /// An unknown value; `varying` = may differ between work-items of a group.
    Opaque { id: u32, varying: bool },
}

/// An affine (multi-linear) polynomial: sum of `coeff * product(syms)` plus a
/// constant. Monomials are sorted symbol vectors, so equality is structural.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Poly {
    terms: BTreeMap<Vec<Sym>, i128>,
    k: i128,
}

impl Poly {
    fn konst(k: i128) -> Poly {
        Poly {
            terms: BTreeMap::new(),
            k,
        }
    }

    fn sym(s: Sym) -> Poly {
        let mut terms = BTreeMap::new();
        terms.insert(vec![s], 1);
        Poly { terms, k: 0 }
    }

    fn is_const(&self) -> Option<i128> {
        self.terms.is_empty().then_some(self.k)
    }

    fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        out.k += other.k;
        for (m, c) in &other.terms {
            let e = out.terms.entry(m.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(m);
            }
        }
        out
    }

    fn neg(&self) -> Poly {
        Poly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), -c)).collect(),
            k: -self.k,
        }
    }

    fn sub(&self, other: &Poly) -> Poly {
        self.add(&other.neg())
    }

    fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::konst(self.k * other.k);
        for (m, c) in &self.terms {
            if other.k != 0 {
                let e = out.terms.entry(m.clone()).or_insert(0);
                *e += c * other.k;
            }
        }
        for (m, c) in &other.terms {
            if self.k != 0 {
                let e = out.terms.entry(m.clone()).or_insert(0);
                *e += c * self.k;
            }
        }
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                let mut m: Vec<Sym> = m1.iter().chain(m2.iter()).copied().collect();
                m.sort();
                let e = out.terms.entry(m).or_insert(0);
                *e += c1 * c2;
            }
        }
        out.terms.retain(|_, c| *c != 0);
        out
    }

    fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.terms.keys().flat_map(|m| m.iter().copied())
    }

    /// Does any monomial reference a symbol that differs between work-items
    /// of one group (or, with `cross_group`, between any two work-items)?
    fn item_dependent(&self, cross_group: bool) -> bool {
        self.syms().any(|s| match s {
            Sym::Gid(_) | Sym::Lid(_) => true,
            Sym::Grp(_) => cross_group,
            Sym::Opaque { varying, .. } => varying,
            Sym::Param(_) | Sym::LoopVar { .. } => false,
        })
    }
}

/// Abstract value: optional index polynomial plus uniformity bits.
#[derive(Debug, Clone)]
struct AVal {
    poly: Option<Poly>,
    /// Same for every work-item of one work-group.
    uniform: bool,
    /// Same for every work-item of the whole NDRange.
    guniform: bool,
}

impl AVal {
    fn konst(k: i128) -> AVal {
        AVal {
            poly: Some(Poly::konst(k)),
            uniform: true,
            guniform: true,
        }
    }

    fn top(uniform: bool, guniform: bool) -> AVal {
        AVal {
            poly: None,
            uniform,
            guniform,
        }
    }
}

/// Which buffer an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Buf {
    Param(u16),
    Local(u32),
    Priv(u32),
}

/// A pointer-valued abstract value.
#[derive(Debug, Clone)]
struct PtrVal {
    buf: Option<Buf>,
    space: AddrSpace,
    elem_size: usize,
    offset: AVal,
}

/// A guard-derived bound on a single symbol.
#[derive(Debug, Clone)]
struct Cons {
    sym: Sym,
    lo: Option<Poly>,
    hi: Option<Poly>,
    eq: Option<Poly>,
}

/// One entry of the control-flow guard stack.
#[derive(Debug, Clone)]
struct GuardEntry {
    uniform: bool,
    cons: Vec<Cons>,
    /// True for `for` loops with compile-time bounds: such guards do not
    /// restrict which work-items execute the body, so accesses under them
    /// stay eligible for the launch-time bounds check.
    const_loop: bool,
}

/// One recorded memory access.
#[derive(Debug, Clone)]
struct Access {
    buf: Buf,
    space: AddrSpace,
    idx: Option<Poly>,
    is_write: bool,
    /// For writes: stored value uniform within a group / across the range.
    value_uniform: bool,
    value_guniform: bool,
    epoch: u32,
    cons: Vec<Cons>,
    span: Span,
}

#[derive(Clone)]
enum Var {
    Scalar(AVal),
    Ptr(PtrVal),
    Arr {
        buf: Buf,
        space: AddrSpace,
        elem_size: usize,
    },
}

/// Per-function facts propagated over the call graph.
#[derive(Default, Clone)]
struct FuncMeta {
    has_barrier: bool,
    uses_varying: bool,
    uses_group: bool,
}

// ---------------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------------

/// Analyse a parsed translation unit (assumed to have passed `sema`).
pub fn analyze_tu(tu: &ast::TranslationUnit) -> Analysis {
    analyze_tu_inner(tu, None, false)
}

/// Analyse a translation unit with IR-dataflow refinement: per-line
/// constant/uniformity facts about stored values demote conservative race
/// warnings to [`Severity::Note`] findings of kind [`DiagKind::ProvedSafe`],
/// and interval analysis adds positive "proved in bounds" notes for
/// fixed-extent array accesses. `module` must be the (unoptimized) sema
/// output for the same translation unit. Error-severity findings are never
/// affected — only warnings can be demoted, and only notes can be added.
/// Bounds verdicts are solved for kernels with a fixed-extent array,
/// stored-value facts once, when a race check first asks for them.
pub fn analyze_tu_refined(tu: &ast::TranslationUnit, module: &IrModule) -> Analysis {
    analyze_tu_inner(tu, Some(module), false)
}

/// [`analyze_tu_refined`] with every fact solved up front for every kernel:
/// the test oracle of the on-demand solves, not a supported API.
#[doc(hidden)]
pub fn analyze_tu_eager(tu: &ast::TranslationUnit, module: &IrModule) -> Analysis {
    analyze_tu_inner(tu, Some(module), true)
}

fn analyze_tu_inner(tu: &ast::TranslationUnit, module: Option<&IrModule>, eager: bool) -> Analysis {
    let metas = compute_func_metas(tu);
    let mut out = Analysis::default();
    for f in &tu.funcs {
        if !f.is_kernel {
            continue;
        }
        let ir = module.and_then(|m| m.kernels.get(&f.name).map(|&id| &m.funcs[id]));
        let mut ck = Checker::new(tu, &metas, f, ir);
        if let Some(ir) = ir.filter(|_| eager) {
            ck.store_facts.get_or_init(|| StoreFacts::for_func(ir));
        }
        ck.run(f);
        // a kernel without a fixed-extent array has no access to bound:
        // its interval solve is skipped (the eager oracle runs it anyway)
        let arrays = |ir: &&FuncIr| !ir.local_allocs.is_empty() || !ir.priv_allocs.is_empty();
        if let Some(ir) = ir.filter(|ir| eager || arrays(ir)) {
            // positive verdicts: every fixed-extent array access on the line
            // is proved in bounds by the interval analysis
            for (span, _) in fixed_bounds(ir).into_values().filter(|&(_, ok)| ok) {
                ck.diags.push(Diagnostic {
                    kernel: f.name.clone(),
                    span,
                    severity: Severity::Note,
                    kind: DiagKind::ProvedSafe,
                    message: "fixed-array access proved in bounds by value-range analysis"
                        .to_string(),
                });
            }
        }
        let mut seen = HashSet::new();
        for d in ck.diags {
            if seen.insert((d.span, d.kind)) {
                out.diagnostics.push(d);
            }
        }
        out.kernels.insert(
            f.name.clone(),
            KernelSummary {
                launch_accesses: ck.launch,
            },
        );
    }
    out.diagnostics
        .sort_by_key(|d| (d.kernel.clone(), d.span, std::cmp::Reverse(d.severity)));
    out
}

/// Preprocess, parse, sema-check, and analyse a source string. Convenience
/// entry for tools (the `report -- lint` table) that lint raw OpenCL C.
pub fn analyze_source(source: &str) -> Result<Analysis> {
    let src = pp::preprocess(source, &HashMap::new())?;
    let tu = parser::parse(&src)?;
    sema::analyze(&tu)?;
    Ok(analyze_tu(&tu))
}

/// [`analyze_source`] with the IR-dataflow refinement of
/// [`analyze_tu_refined`] applied.
pub fn analyze_source_refined(source: &str) -> Result<Analysis> {
    let src = pp::preprocess(source, &HashMap::new())?;
    let tu = parser::parse(&src)?;
    let module = sema::analyze(&tu)?;
    Ok(analyze_tu_refined(&tu, &module))
}

fn compute_func_metas(tu: &ast::TranslationUnit) -> HashMap<String, FuncMeta> {
    let mut metas: HashMap<String, FuncMeta> = HashMap::new();
    let mut calls: HashMap<String, HashSet<String>> = HashMap::new();
    for f in &tu.funcs {
        let mut m = FuncMeta::default();
        let mut callees = HashSet::new();
        for_each_call(&f.body, |name, _| match name {
            "barrier" => m.has_barrier = true,
            "get_global_id" | "get_local_id" => m.uses_varying = true,
            "get_group_id" => m.uses_group = true,
            _ => {
                callees.insert(name.to_string());
            }
        });
        metas.insert(f.name.clone(), m);
        calls.insert(f.name.clone(), callees);
    }
    // propagate transitively to a fixpoint (call graphs here are tiny)
    loop {
        let mut changed = false;
        for f in &tu.funcs {
            let merged = calls[&f.name]
                .iter()
                .filter_map(|c| metas.get(c).cloned())
                .fold(FuncMeta::default(), |a, b| FuncMeta {
                    has_barrier: a.has_barrier || b.has_barrier,
                    uses_varying: a.uses_varying || b.uses_varying,
                    uses_group: a.uses_group || b.uses_group,
                });
            let m = metas.get_mut(&f.name).expect("inserted above");
            let next = FuncMeta {
                has_barrier: m.has_barrier || merged.has_barrier,
                uses_varying: m.uses_varying || merged.uses_varying,
                uses_group: m.uses_group || merged.uses_group,
            };
            if next.has_barrier != m.has_barrier
                || next.uses_varying != m.uses_varying
                || next.uses_group != m.uses_group
            {
                *m = next;
                changed = true;
            }
        }
        if !changed {
            return metas;
        }
    }
}

/// Calls `visit` with the name and arguments of every call in `body`, at
/// any depth: in every statement, and in every expression a statement
/// holds.
fn for_each_call<'a>(body: &'a [Stmt], mut visit: impl FnMut(&'a str, &'a [Expr])) {
    ast::walk_stmts(body, &mut |s| {
        s.for_each_expr(|e| {
            e.walk(&mut |e| {
                if let Expr::Call { name, args } = e {
                    visit(name, args);
                }
            })
        })
    });
}

// ---------------------------------------------------------------------------
// the per-kernel checker
// ---------------------------------------------------------------------------

struct Checker<'a> {
    metas: &'a HashMap<String, FuncMeta>,
    kernel: String,
    scopes: Vec<HashMap<String, Var>>,
    guards: Vec<GuardEntry>,
    epoch: u32,
    in_if_depth: usize,
    control_poisoned: bool,
    next_id: u32,
    accesses: Vec<Access>,
    launch: Vec<LaunchAccess>,
    diags: Vec<Diagnostic>,
    used_axes: [bool; 3],
    /// Display names for local/private arrays and params, by `Buf`.
    buf_names: HashMap<Buf, String>,
    /// Declared extents of local/private arrays, by `Buf`.
    arr_lens: HashMap<Buf, i128>,
    /// The kernel's unoptimized IR for the refined pass; `None` runs the
    /// purely syntactic analysis.
    ir: Option<&'a FuncIr>,
    /// Per-line stored-value facts of `ir`, solved on the first race
    /// verdict that reads them.
    store_facts: OnceCell<StoreFacts>,
}

impl<'a> Checker<'a> {
    fn new(
        tu: &'a ast::TranslationUnit,
        metas: &'a HashMap<String, FuncMeta>,
        f: &ast::FuncDef,
        ir: Option<&'a FuncIr>,
    ) -> Self {
        let mut used_axes = [false; 3];
        collect_used_axes(tu, metas, f, &mut used_axes);
        Checker {
            metas,
            kernel: f.name.clone(),
            scopes: vec![HashMap::new()],
            guards: Vec::new(),
            epoch: 0,
            in_if_depth: 0,
            control_poisoned: false,
            next_id: 0,
            accesses: Vec::new(),
            launch: Vec::new(),
            diags: Vec::new(),
            used_axes,
            buf_names: HashMap::new(),
            arr_lens: HashMap::new(),
            ir,
            store_facts: OnceCell::new(),
        }
    }

    fn fresh(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn diag(&mut self, span: Span, severity: Severity, kind: DiagKind, message: String) {
        self.diags.push(Diagnostic {
            kernel: self.kernel.clone(),
            span,
            severity,
            kind,
            message,
        });
    }

    fn run(&mut self, f: &ast::FuncDef) {
        // predefined integer constants the corpus uses in flag expressions
        self.scopes[0].insert("CLK_LOCAL_MEM_FENCE".into(), Var::Scalar(AVal::konst(1)));
        self.scopes[0].insert("CLK_GLOBAL_MEM_FENCE".into(), Var::Scalar(AVal::konst(2)));
        for (i, p) in f.params.iter().enumerate() {
            let var = match p.ty {
                ClType::Scalar(t) => {
                    if t.is_float() {
                        Var::Scalar(AVal::top(true, true))
                    } else {
                        Var::Scalar(AVal {
                            poly: Some(Poly::sym(Sym::Param(i as u16))),
                            uniform: true,
                            guniform: true,
                        })
                    }
                }
                ClType::Ptr(space, t) => {
                    self.buf_names.insert(Buf::Param(i as u16), p.name.clone());
                    Var::Ptr(PtrVal {
                        buf: Some(Buf::Param(i as u16)),
                        space,
                        elem_size: t.size(),
                        offset: AVal::konst(0),
                    })
                }
                ClType::Void => continue,
            };
            self.scopes[0].insert(p.name.clone(), var);
        }
        self.walk_block(&f.body);
        self.report_races(f);
    }

    // ---- environment ----------------------------------------------------

    fn lookup(&self, name: &str) -> Option<&Var> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn set_var(&mut self, name: &str, v: Var) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = v;
                return;
            }
        }
        // sema guarantees declarations precede use; tolerate otherwise
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), v);
    }

    fn declare(&mut self, name: &str, v: Var) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), v);
    }

    fn havoc(&mut self, names: &HashSet<String>) {
        for name in names {
            let (uniform, guniform) = match self.lookup(name) {
                Some(Var::Scalar(v)) => (v.uniform, v.guniform),
                Some(_) => continue, // pointers/arrays keep their binding
                None => continue,
            };
            let id = self.fresh();
            self.set_var(
                name,
                Var::Scalar(AVal {
                    poly: Some(Poly::sym(Sym::Opaque {
                        id,
                        varying: !uniform,
                    })),
                    uniform,
                    guniform,
                }),
            );
        }
    }

    fn guards_uniform(&self) -> bool {
        self.guards.iter().all(|g| g.uniform)
    }

    fn flat_cons(&self) -> Vec<Cons> {
        self.guards.iter().flat_map(|g| g.cons.clone()).collect()
    }

    // ---- statements ------------------------------------------------------

    fn walk_block(&mut self, stmts: &[Stmt]) {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.walk_stmt(s);
        }
        self.scopes.pop();
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        let span = s.span;
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(inner) => self.walk_block(inner),
            StmtKind::Decl { space, base, decls } => {
                for d in decls {
                    if let Some(len_e) = &d.array_len {
                        let len = self
                            .eval(len_e, span)
                            .poly
                            .and_then(|p| p.is_const())
                            .unwrap_or(i128::MAX);
                        let buf = match space {
                            AddrSpace::Local => Buf::Local(self.fresh()),
                            _ => Buf::Priv(self.fresh()),
                        };
                        self.buf_names.insert(buf, d.name.clone());
                        self.arr_lens.insert(buf, len);
                        self.declare(
                            &d.name,
                            Var::Arr {
                                buf,
                                space: if *space == AddrSpace::Local {
                                    AddrSpace::Local
                                } else {
                                    AddrSpace::Private
                                },
                                elem_size: base.size(),
                            },
                        );
                    } else if d.is_pointer {
                        let v = d
                            .init
                            .as_ref()
                            .and_then(|e| self.eval_ptr(e, span))
                            .unwrap_or(PtrVal {
                                buf: None,
                                space: AddrSpace::Global,
                                elem_size: base.size(),
                                offset: AVal::top(false, false),
                            });
                        self.declare(&d.name, Var::Ptr(v));
                    } else {
                        let v = match &d.init {
                            Some(e) => self.eval(e, span),
                            None => AVal::top(true, true),
                        };
                        self.declare(&d.name, Var::Scalar(v));
                    }
                }
            }
            StmtKind::Expr(e) => self.walk_expr_stmt(e, span),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (uniform, cons, neg) = self.eval_cond(cond, span);
                let assigned = assigned_names(then_blk)
                    .union(&assigned_names(else_blk))
                    .cloned()
                    .collect::<HashSet<_>>();
                self.in_if_depth += 1;
                self.guards.push(GuardEntry {
                    uniform,
                    cons,
                    const_loop: false,
                });
                self.walk_block(then_blk);
                self.guards.pop();
                if !else_blk.is_empty() {
                    self.guards.push(GuardEntry {
                        uniform,
                        cons: neg,
                        const_loop: false,
                    });
                    self.walk_block(else_blk);
                    self.guards.pop();
                }
                self.in_if_depth -= 1;
                // join: values assigned under the branch become unknown; a
                // varying condition makes them varying
                for name in &assigned {
                    if let Some(Var::Scalar(v)) = self.lookup(name) {
                        let (u, g) = (v.uniform && uniform, v.guniform && uniform);
                        let id = self.fresh();
                        self.set_var(
                            name,
                            Var::Scalar(AVal {
                                poly: Some(Poly::sym(Sym::Opaque { id, varying: !u })),
                                uniform: u,
                                guniform: g,
                            }),
                        );
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let assigned = assigned_names(body);
                for _pass in 0..2 {
                    self.havoc(&assigned);
                    let (uniform, cons, _) = self.eval_cond(cond, span);
                    self.guards.push(GuardEntry {
                        uniform,
                        cons,
                        const_loop: false,
                    });
                    self.walk_block(body);
                    self.guards.pop();
                }
                self.havoc(&assigned);
            }
            StmtKind::DoWhile { body, cond } => {
                let assigned = assigned_names(body);
                for _pass in 0..2 {
                    self.havoc(&assigned);
                    // body of iteration 1 runs unconditionally: uniformity of
                    // the exit condition still gates barriers in later
                    // iterations, but its constraints do not hold in the body
                    let (uniform, _, _) = self.eval_cond(cond, span);
                    self.guards.push(GuardEntry {
                        uniform,
                        cons: vec![],
                        const_loop: false,
                    });
                    self.walk_block(body);
                    self.guards.pop();
                }
                self.havoc(&assigned);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.walk_stmt(init);
                }
                let counter =
                    self.match_const_counter(init.as_deref(), cond.as_ref(), step.as_ref());
                let mut assigned = assigned_names(body);
                if let Some(st) = step {
                    add_assigned(st, &mut assigned);
                }
                if let Some((name, lo, hi)) = counter {
                    let id = self.fresh();
                    self.set_var(
                        &name,
                        Var::Scalar(AVal {
                            poly: Some(Poly::sym(Sym::LoopVar { id, lo, hi })),
                            uniform: true,
                            guniform: true,
                        }),
                    );
                    assigned.remove(&name);
                    for _pass in 0..2 {
                        self.havoc(&assigned);
                        self.guards.push(GuardEntry {
                            uniform: true,
                            cons: vec![],
                            const_loop: true,
                        });
                        self.walk_block(body);
                        self.guards.pop();
                    }
                    self.havoc(&assigned);
                } else {
                    for _pass in 0..2 {
                        self.havoc(&assigned);
                        let (uniform, cons, _) = match cond {
                            Some(c) => self.eval_cond(c, span),
                            None => (true, vec![], vec![]),
                        };
                        self.guards.push(GuardEntry {
                            uniform,
                            cons,
                            const_loop: false,
                        });
                        self.walk_block(body);
                        if let Some(st) = step {
                            self.walk_expr_stmt(st, span);
                        }
                        self.guards.pop();
                    }
                    self.havoc(&assigned);
                }
                self.scopes.pop();
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.eval(e, span);
                }
                if !self.guards_uniform() {
                    self.control_poisoned = true;
                }
            }
            StmtKind::Break | StmtKind::Continue => {
                if !self.guards_uniform() {
                    self.control_poisoned = true;
                }
            }
        }
    }

    /// `for (int i = LO; i < HI; i += C)` with constant LO/HI/C>0 yields a
    /// bounded loop-variable symbol instead of an opaque havoc.
    fn match_const_counter(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
    ) -> Option<(String, i64, i64)> {
        let StmtKind::Decl { decls, .. } = &init?.kind else {
            return None;
        };
        let [d] = decls.as_slice() else { return None };
        let lo = match d.init.as_ref()? {
            Expr::IntLit { value, .. } => *value as i64,
            _ => return None,
        };
        let Expr::Bin {
            op: op @ (BinOp::Lt | BinOp::Le),
            l,
            r,
        } = cond?
        else {
            return None;
        };
        let Expr::Ident(n) = l.as_ref() else {
            return None;
        };
        if *n != d.name {
            return None;
        }
        let bound = self.eval(r, Span::default()).poly?.is_const()?;
        let hi = if *op == BinOp::Lt { bound - 1 } else { bound } as i64;
        // step must increment the same counter by a positive constant
        let step_ok = match step? {
            Expr::Un {
                op: UnOp::PreInc,
                e,
            }
            | Expr::Post { op: PostOp::Inc, e } => {
                matches!(e.as_ref(), Expr::Ident(m) if *m == d.name)
            }
            Expr::Assign {
                op: Some(BinOp::Add),
                target,
                value,
            } => {
                matches!(target.as_ref(), Expr::Ident(m) if *m == d.name)
                    && matches!(value.as_ref(), Expr::IntLit { value, .. } if *value > 0)
            }
            _ => false,
        };
        (step_ok && hi >= lo).then(|| (d.name.clone(), lo, hi))
    }

    fn walk_expr_stmt(&mut self, e: &Expr, span: Span) {
        match e {
            Expr::Assign { op, target, value } => {
                let v = self.eval(value, span);
                let v = match op {
                    None => v,
                    Some(_) => {
                        // compound assignment also reads the target
                        let cur = self.eval(target, span);
                        self.combine_unknown(&cur, &v)
                    }
                };
                self.assign_to(target, v, span);
            }
            Expr::Un {
                op: UnOp::PreInc | UnOp::PreDec,
                e: t,
            }
            | Expr::Post { e: t, .. } => {
                let cur = self.eval(t, span);
                let one = AVal::konst(1);
                let v = AVal {
                    poly: match (&cur.poly, &one.poly) {
                        (Some(a), Some(b)) => Some(a.add(b)),
                        _ => None,
                    },
                    uniform: cur.uniform,
                    guniform: cur.guniform,
                };
                // note: decrement adds the wrong constant, but the poly is
                // only used when the counter is not havocked, which sema-level
                // statement inc/dec in loops always is
                let v = if matches!(
                    e,
                    Expr::Un {
                        op: UnOp::PreDec,
                        ..
                    } | Expr::Post {
                        op: PostOp::Dec,
                        ..
                    }
                ) {
                    AVal {
                        poly: cur.poly.map(|p| p.sub(&Poly::konst(1))),
                        ..v
                    }
                } else {
                    v
                };
                self.assign_to(t, v, span);
            }
            Expr::Call { name, args } if name == "barrier" => {
                for a in args {
                    self.eval(a, span);
                }
                self.check_barrier(span);
            }
            _ => {
                self.eval(e, span);
            }
        }
    }

    fn check_barrier(&mut self, span: Span) {
        if !self.guards_uniform() || self.control_poisoned {
            self.diag(
                span,
                Severity::Error,
                DiagKind::BarrierDivergence,
                "barrier() is reachable under non-uniform control flow: an enclosing \
                 condition (or an earlier return/break under one) depends on the \
                 work-item id, so work-items of one group may disagree on reaching it"
                    .into(),
            );
        }
        if self.in_if_depth == 0 {
            // barriers inside `if` bodies do not separate epochs (conservative)
            self.epoch += 1;
        }
    }

    fn combine_unknown(&mut self, a: &AVal, b: &AVal) -> AVal {
        AVal::top(a.uniform && b.uniform, a.guniform && b.guniform)
    }

    fn assign_to(&mut self, target: &Expr, v: AVal, span: Span) {
        match target {
            Expr::Ident(name) => match self.lookup(name) {
                Some(Var::Scalar(_)) | None => self.set_var(name, Var::Scalar(v)),
                Some(Var::Ptr(_)) | Some(Var::Arr { .. }) => {
                    // pointer reassignment: lose tracking conservatively
                    if let Some(Var::Ptr(p)) = self.lookup(name).cloned() {
                        self.set_var(
                            name,
                            Var::Ptr(PtrVal {
                                buf: None,
                                offset: AVal::top(false, false),
                                ..p
                            }),
                        );
                    }
                }
            },
            Expr::Index { .. }
            | Expr::Un {
                op: UnOp::Deref, ..
            } => {
                if let Some((ptr, idx)) = self.lvalue_addr(target, span) {
                    self.record_write(&ptr, idx, &v, span);
                }
            }
            _ => {}
        }
    }

    /// Resolve `a[i]` / `*p` to (pointer target, element index).
    fn lvalue_addr(&mut self, e: &Expr, span: Span) -> Option<(PtrVal, AVal)> {
        match e {
            Expr::Index { base, index } => {
                let p = self.eval_ptr(base, span)?;
                let i = self.eval(index, span);
                let idx = AVal {
                    poly: match (&p.offset.poly, &i.poly) {
                        (Some(a), Some(b)) => Some(a.add(b)),
                        _ => None,
                    },
                    uniform: p.offset.uniform && i.uniform,
                    guniform: p.offset.guniform && i.guniform,
                };
                Some((p, idx))
            }
            Expr::Un {
                op: UnOp::Deref,
                e: inner,
            } => {
                let p = self.eval_ptr(inner, span)?;
                let idx = p.offset.clone();
                Some((p, idx))
            }
            _ => None,
        }
    }

    fn eval_ptr(&mut self, e: &Expr, span: Span) -> Option<PtrVal> {
        match e {
            Expr::Ident(name) => match self.lookup(name).cloned() {
                Some(Var::Ptr(p)) => Some(p),
                Some(Var::Arr {
                    buf,
                    space,
                    elem_size,
                }) => Some(PtrVal {
                    buf: Some(buf),
                    space,
                    elem_size,
                    offset: AVal::konst(0),
                }),
                _ => None,
            },
            Expr::Bin {
                op: op @ (BinOp::Add | BinOp::Sub),
                l,
                r,
            } => {
                let p = self.eval_ptr(l, span)?;
                let off = self.eval(r, span);
                let delta = match (&p.offset.poly, &off.poly) {
                    (Some(a), Some(b)) => Some(if *op == BinOp::Add {
                        a.add(b)
                    } else {
                        a.sub(b)
                    }),
                    _ => None,
                };
                Some(PtrVal {
                    offset: AVal {
                        poly: delta,
                        uniform: p.offset.uniform && off.uniform,
                        guniform: p.offset.guniform && off.guniform,
                    },
                    ..p
                })
            }
            Expr::Un {
                op: UnOp::AddrOf,
                e: inner,
            } => {
                let (p, idx) = self.lvalue_addr(inner, span)?;
                Some(PtrVal { offset: idx, ..p })
            }
            Expr::Cast { e, .. } => self.eval_ptr(e, span),
            _ => None,
        }
    }

    // ---- expression evaluation ------------------------------------------

    fn eval(&mut self, e: &Expr, span: Span) -> AVal {
        match e {
            Expr::IntLit { value, .. } => AVal::konst(*value as i128),
            Expr::FloatLit { .. } => AVal::top(true, true),
            Expr::Ident(name) => match self.lookup(name) {
                Some(Var::Scalar(v)) => v.clone(),
                _ => AVal::top(true, true),
            },
            Expr::Bin { op, l, r } => {
                let a = self.eval(l, span);
                let b = self.eval(r, span);
                let uniform = a.uniform && b.uniform;
                let guniform = a.guniform && b.guniform;
                let poly = match (op, &a.poly, &b.poly) {
                    (BinOp::Add, Some(x), Some(y)) => Some(x.add(y)),
                    (BinOp::Sub, Some(x), Some(y)) => Some(x.sub(y)),
                    (BinOp::Mul, Some(x), Some(y)) => Some(x.mul(y)),
                    (BinOp::Div, Some(x), Some(y)) => match (x.is_const(), y.is_const()) {
                        (Some(a), Some(b)) if b != 0 => Some(Poly::konst(a / b)),
                        _ => None,
                    },
                    (BinOp::Rem, Some(x), Some(y)) => match (x.is_const(), y.is_const()) {
                        (Some(a), Some(b)) if b != 0 => Some(Poly::konst(a % b)),
                        _ => None,
                    },
                    (BinOp::Shl, Some(x), Some(y)) => match y.is_const() {
                        Some(s) if (0..63).contains(&s) => Some(x.mul(&Poly::konst(1i128 << s))),
                        _ => None,
                    },
                    (BinOp::Shr, Some(x), Some(y)) => match (x.is_const(), y.is_const()) {
                        (Some(a), Some(s)) if (0..63).contains(&s) => Some(Poly::konst(a >> s)),
                        _ => None,
                    },
                    _ => None,
                };
                AVal {
                    poly,
                    uniform,
                    guniform,
                }
            }
            Expr::Un { op, e: inner } => match op {
                UnOp::Neg => {
                    let v = self.eval(inner, span);
                    AVal {
                        poly: v.poly.map(|p| p.neg()),
                        ..v
                    }
                }
                UnOp::Plus => self.eval(inner, span),
                UnOp::Deref => self.eval_load(inner, None, span),
                UnOp::AddrOf => AVal::top(false, false),
                _ => {
                    let v = self.eval(inner, span);
                    AVal::top(v.uniform, v.guniform)
                }
            },
            Expr::Post { e: inner, .. } => self.eval(inner, span),
            Expr::Assign { target, value, .. } => {
                // assignments only appear in statement position post-sema,
                // but stay safe for unchecked inputs
                let v = self.eval(value, span);
                self.assign_to(target, v.clone(), span);
                v
            }
            Expr::Ternary { cond, t, f } => {
                let (cu, _, _) = self.eval_cond(cond, span);
                let a = self.eval(t, span);
                let b = self.eval(f, span);
                AVal::top(cu && a.uniform && b.uniform, cu && a.guniform && b.guniform)
            }
            Expr::Index { base, index } => self.eval_load(base, Some(index), span),
            Expr::Cast { e: inner, .. } => self.eval(inner, span),
            Expr::Call { name, args } => self.eval_call(name, args, span),
        }
    }

    /// Load through `base[index]` (or `*base` when `index` is None).
    fn eval_load(&mut self, base: &Expr, index: Option<&Expr>, span: Span) -> AVal {
        let p = self.eval_ptr(base, span);
        let idx = match (&p, index) {
            (Some(p), Some(ie)) => {
                let i = self.eval(ie, span);
                AVal {
                    poly: match (&p.offset.poly, &i.poly) {
                        (Some(a), Some(b)) => Some(a.add(b)),
                        _ => None,
                    },
                    uniform: p.offset.uniform && i.uniform,
                    guniform: p.offset.guniform && i.guniform,
                }
            }
            (Some(p), None) => p.offset.clone(),
            (None, Some(ie)) => {
                self.eval(ie, span);
                AVal::top(false, false)
            }
            (None, None) => AVal::top(false, false),
        };
        match p {
            Some(p) => self.record_read(&p, idx, span),
            None => AVal::top(false, false),
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], span: Span) -> AVal {
        // id/geometry builtins
        let axis = |s: &mut Self, args: &[Expr]| -> Option<u8> {
            match args.first() {
                Some(e) => s
                    .eval(e, span)
                    .poly
                    .and_then(|p| p.is_const())
                    .filter(|d| (0..3).contains(d))
                    .map(|d| d as u8),
                None => None,
            }
        };
        match name {
            "get_global_id" | "get_local_id" | "get_group_id" => {
                let d = axis(self, args);
                match d {
                    Some(d) => {
                        self.used_axes[d as usize] = true;
                        let (sym, uniform, guniform) = match name {
                            "get_global_id" => (Sym::Gid(d), false, false),
                            "get_local_id" => (Sym::Lid(d), false, false),
                            _ => (Sym::Grp(d), true, false),
                        };
                        AVal {
                            poly: Some(Poly::sym(sym)),
                            uniform,
                            guniform,
                        }
                    }
                    None => {
                        self.used_axes = [true; 3];
                        AVal::top(false, false)
                    }
                }
            }
            "get_global_size" | "get_local_size" | "get_num_groups" | "get_work_dim" => {
                for a in args {
                    self.eval(a, span);
                }
                let id = self.fresh();
                AVal {
                    poly: Some(Poly::sym(Sym::Opaque { id, varying: false })),
                    uniform: true,
                    guniform: true,
                }
            }
            "barrier" => {
                // expression-position barrier is rejected by sema; be safe
                self.check_barrier(span);
                AVal::top(true, true)
            }
            "mem_fence" | "read_mem_fence" | "write_mem_fence" => AVal::top(true, true),
            _ if name.starts_with("atomic_") || name.starts_with("atom_") => {
                // atomics are synchronised by definition: evaluate the
                // address and operand but record no racing access
                if let Some(a0) = args.first() {
                    self.eval_ptr(a0, span);
                }
                for a in args.iter().skip(1) {
                    self.eval(a, span);
                }
                AVal::top(false, false)
            }
            _ => {
                let mut uniform = true;
                let mut guniform = true;
                for a in args {
                    let v = self.eval(a, span);
                    uniform &= v.uniform;
                    guniform &= v.guniform;
                }
                if let Some(meta) = self.metas.get(name) {
                    if meta.has_barrier {
                        self.check_barrier(span);
                    }
                    if meta.uses_varying {
                        uniform = false;
                        guniform = false;
                    }
                    if meta.uses_group {
                        guniform = false;
                    }
                }
                // math builtins: uniformity of the result follows the args
                AVal::top(uniform, guniform)
            }
        }
    }

    /// Condition evaluation: uniformity plus simple single-symbol constraints
    /// (and their negation for the `else` branch).
    fn eval_cond(&mut self, e: &Expr, span: Span) -> (bool, Vec<Cons>, Vec<Cons>) {
        match e {
            Expr::Bin {
                op: op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne),
                l,
                r,
            } => {
                let a = self.eval(l, span);
                let b = self.eval(r, span);
                let uniform = a.uniform && b.uniform;
                let (mut cons, mut neg) = (vec![], vec![]);
                if let (Some(pa), Some(pb)) = (&a.poly, &b.poly) {
                    if let Some((s, c)) = single_sym(pa) {
                        // s + c OP pb  =>  s OP pb - c
                        let rhs = pb.sub(&Poly::konst(c));
                        add_cons(&mut cons, &mut neg, s, *op, rhs);
                    } else if let Some((s, c)) = single_sym(pb) {
                        // pa OP s + c  =>  s FLIP(OP) pa - c
                        let rhs = pa.sub(&Poly::konst(c));
                        add_cons(&mut cons, &mut neg, s, flip(*op), rhs);
                    }
                }
                (uniform, cons, neg)
            }
            Expr::Bin {
                op: BinOp::LogAnd,
                l,
                r,
            } => {
                let (ul, cl, _) = self.eval_cond(l, span);
                let (ur, cr, _) = self.eval_cond(r, span);
                // the negation of a conjunction is a disjunction: no usable
                // per-symbol bounds survive it
                (ul && ur, cl.into_iter().chain(cr).collect(), vec![])
            }
            Expr::Bin {
                op: BinOp::LogOr,
                l,
                r,
            } => {
                let (ul, _, nl) = self.eval_cond(l, span);
                let (ur, _, nr) = self.eval_cond(r, span);
                (ul && ur, vec![], nl.into_iter().chain(nr).collect())
            }
            Expr::Un {
                op: UnOp::Not,
                e: inner,
            } => {
                let (u, c, n) = self.eval_cond(inner, span);
                (u, n, c)
            }
            _ => {
                let v = self.eval(e, span);
                (v.uniform, vec![], vec![])
            }
        }
    }

    // ---- access recording ------------------------------------------------

    fn record_read(&mut self, p: &PtrVal, idx: AVal, span: Span) -> AVal {
        self.check_static_oob(p, &idx, span);
        if let Some(buf) = p.buf {
            if p.space == AddrSpace::Local {
                self.accesses.push(Access {
                    buf,
                    space: p.space,
                    idx: idx.poly.clone(),
                    is_write: false,
                    value_uniform: true,
                    value_guniform: true,
                    epoch: self.epoch,
                    cons: self.flat_cons(),
                    span,
                });
            }
        }
        // the loaded value is uniform iff the address is (nobody mutates the
        // buffer concurrently as far as a single abstract pass is concerned)
        let id = self.fresh();
        AVal {
            poly: Some(Poly::sym(Sym::Opaque {
                id,
                varying: !idx.uniform,
            })),
            uniform: idx.uniform,
            guniform: idx.guniform && p.space != AddrSpace::Local,
        }
    }

    fn record_write(&mut self, p: &PtrVal, idx: AVal, value: &AVal, span: Span) {
        self.check_static_oob(p, &idx, span);
        let Some(buf) = p.buf else { return };
        match p.space {
            AddrSpace::Global | AddrSpace::Local => {
                self.accesses.push(Access {
                    buf,
                    space: p.space,
                    idx: idx.poly.clone(),
                    is_write: true,
                    value_uniform: value.uniform,
                    value_guniform: value.guniform,
                    epoch: self.epoch,
                    cons: self.flat_cons(),
                    span,
                });
            }
            AddrSpace::Private | AddrSpace::Constant => {}
        }
        // unguarded global writes/reads feed the launch-time bounds check
        if p.space == AddrSpace::Global {
            self.maybe_record_launch(p, &idx, true, span);
        }
    }

    fn maybe_record_launch(&mut self, p: &PtrVal, idx: &AVal, is_write: bool, span: Span) {
        let Some(Buf::Param(param)) = p.buf else {
            return;
        };
        let Some(poly) = &idx.poly else { return };
        if !self.guards.iter().all(|g| g.const_loop) {
            return;
        }
        if poly.syms().any(|s| matches!(s, Sym::Opaque { .. })) {
            return;
        }
        self.launch.push(LaunchAccess {
            param: param as usize,
            param_name: self
                .buf_names
                .get(&Buf::Param(param))
                .cloned()
                .unwrap_or_default(),
            elem_size: p.elem_size,
            is_write,
            span,
            idx: poly.clone(),
        });
    }

    /// Definite build-time OOB on fixed-extent (`__local`/`__private`) arrays.
    fn check_static_oob(&mut self, p: &PtrVal, idx: &AVal, span: Span) {
        let Some(buf) = p.buf else { return };
        let Some(&len) = self.arr_lens.get(&buf) else {
            return;
        };
        if len == i128::MAX {
            return;
        }
        let Some(poly) = &idx.poly else { return };
        let name = self.buf_names.get(&buf).cloned().unwrap_or_default();
        if let Some(c) = poly.is_const() {
            if c < 0 || c >= len {
                self.diag(
                    span,
                    Severity::Error,
                    DiagKind::OutOfBounds,
                    format!("index {c} is out of bounds for `{name}` (length {len})"),
                );
            }
            return;
        }
        // constant bounds under the active guards (e.g. a bounded counter)
        let cons = self.flat_cons();
        let (lo, hi) = bounds(poly, &cons);
        if let Some(lo) = lo.as_ref().and_then(|p| p.is_const()) {
            if lo >= len {
                self.diag(
                    span,
                    Severity::Error,
                    DiagKind::OutOfBounds,
                    format!("index is at least {lo}, out of bounds for `{name}` (length {len})"),
                );
            }
        }
        let _ = hi;
    }

    // ---- race reporting ---------------------------------------------------

    fn report_races(&mut self, f: &ast::FuncDef) {
        let _ = f;
        let accesses = std::mem::take(&mut self.accesses);
        for (i, a) in accesses.iter().enumerate() {
            for b in accesses.iter().skip(i) {
                if a.buf != b.buf || a.epoch != b.epoch {
                    continue;
                }
                if !a.is_write && !b.is_write {
                    continue;
                }
                // global read-write overlap is deliberately unchecked (only
                // writes are recorded for global buffers); local buffers see
                // write-write and read-write pairs
                let (w, x) = if a.is_write { (a, b) } else { (b, a) };
                if let Some((severity, msg)) = self.judge_pair(w, x) {
                    let name = self
                        .buf_names
                        .get(&w.buf)
                        .cloned()
                        .unwrap_or_else(|| "<buffer>".into());
                    let what = if x.is_write {
                        "write-write"
                    } else {
                        "read-write"
                    };
                    let other = if std::ptr::eq(w, x) {
                        String::new()
                    } else {
                        format!(" (other access at line {})", x.span)
                    };
                    let kind = if severity == Severity::Note {
                        DiagKind::ProvedSafe
                    } else {
                        DiagKind::DataRace
                    };
                    self.diag(
                        w.span,
                        severity,
                        kind,
                        format!("{msg}: {what} conflict on `{name}` between work-items with no intervening barrier{other}"),
                    );
                }
            }
        }
    }

    /// `None` = proven benign; otherwise severity + headline.
    fn judge_pair(&self, w: &Access, x: &Access) -> Option<(Severity, String)> {
        let cross_group = w.space == AddrSpace::Global;
        let (Some(pw), Some(px)) = (&w.idx, &x.idx) else {
            if let Some(note) = self.ir_same_value_note(w, x, cross_group) {
                return Some(note);
            }
            return Some((
                Severity::Warning,
                "possible data race (index not analysable)".into(),
            ));
        };
        let w_fixed = !pw.item_dependent(cross_group);
        let x_fixed = !px.item_dependent(cross_group);
        if w_fixed && x_fixed {
            if pw == px {
                let val_ok = |acc: &Access| {
                    !acc.is_write
                        || if cross_group {
                            acc.value_guniform
                        } else {
                            acc.value_uniform
                        }
                };
                if val_ok(w) && val_ok(x) {
                    return None; // every work-item stores the same value
                }
                return Some((
                    Severity::Error,
                    "data race: work-items store differing values to one address".into(),
                ));
            }
            if pw.sub(px).is_const().is_some_and(|c| c != 0) {
                return None; // two distinct fixed cells
            }
            if let Some(note) = self.ir_same_value_note(w, x, cross_group) {
                return Some(note);
            }
            return Some((Severity::Warning, "possible data race".into()));
        }
        if pw == px && self.injective_per_item(pw, w.space, &w.cons, &x.cons) {
            return None; // distinct work-items touch distinct cells
        }
        // guard-aware symbolic interval disjointness
        let (_, w_hi) = bounds(pw, &w.cons);
        let (x_lo, _) = bounds(px, &x.cons);
        if gap_positive(&x_lo, &w_hi) {
            return None;
        }
        let (_, x_hi) = bounds(px, &x.cons);
        let (w_lo, _) = bounds(pw, &w.cons);
        if gap_positive(&w_lo, &x_hi) {
            return None;
        }
        if let Some(note) = self.ir_same_value_note(w, x, cross_group) {
            return Some(note);
        }
        Some((Severity::Warning, "possible data race".into()))
    }

    /// IR-dataflow demotion of a would-be race warning: if every write in
    /// the pair provably stores a value that is identical across the
    /// conflicting work-items, a collision — whether or not the indices
    /// overlap — cannot produce divergent memory contents, mirroring the
    /// uniform-address/uniform-value rule the syntactic pass already applies.
    /// Two *distinct* write sites additionally need the same constant bits
    /// (per-site uniformity alone allows two different uniform values).
    fn ir_same_value_note(
        &self,
        w: &Access,
        x: &Access,
        cross_group: bool,
    ) -> Option<(Severity, String)> {
        let f = self.ir?;
        if !w.is_write {
            return None;
        }
        let ir = self.store_facts.get_or_init(|| StoreFacts::for_func(f));
        let uni_ok = |acc: &Access| {
            let u = ir.store_uni.get(&acc.span.line);
            !acc.is_write || u.is_some_and(|u| if cross_group { u.guniform } else { u.uniform })
        };
        if !uni_ok(w) || !uni_ok(x) {
            return None;
        }
        let same_site = std::ptr::eq(w, x) || w.span.line == x.span.line;
        if !same_site && x.is_write {
            let cw = ir.store_const.get(&w.span.line).copied().flatten()?;
            let cx = ir.store_const.get(&x.span.line).copied().flatten()?;
            if cw != cx {
                return None;
            }
        }
        Some((
            Severity::Note,
            "data race ruled out (dataflow proves all work-items store one value)".into(),
        ))
    }

    /// Is the index injective over the executing work-items? Requires the
    /// polynomial to separate every queried axis (mixed-radix / tiling
    /// coefficients are presumed well-formed — documented assumption), with
    /// bounded loop counters absorbed by a gcd-vs-spread argument.
    fn injective_per_item(
        &self,
        p: &Poly,
        space: AddrSpace,
        cons_a: &[Cons],
        cons_b: &[Cons],
    ) -> bool {
        let pinned = |s: Sym| {
            cons_a.iter().any(|c| c.sym == s && c.eq.is_some())
                && cons_b.iter().any(|c| c.sym == s && c.eq.is_some())
        };
        let syms: HashSet<Sym> = p.syms().collect();
        if syms
            .iter()
            .any(|s| matches!(s, Sym::Opaque { varying: true, .. }))
        {
            return false;
        }
        let has = |s: Sym| syms.contains(&s);
        for d in 0..3u8 {
            if !self.used_axes[d as usize] {
                continue;
            }
            let lid_ok = pinned(Sym::Lid(d)) || has(Sym::Lid(d)) || has(Sym::Gid(d));
            if !lid_ok {
                return false;
            }
            if space == AddrSpace::Global {
                let grp_ok = pinned(Sym::Grp(d)) || has(Sym::Grp(d)) || has(Sym::Gid(d));
                if !grp_ok {
                    return false;
                }
            }
        }
        // bounded loop counters shift the index within one work-item's
        // footprint; require the per-item stride to clear the total spread
        let mut spread: i128 = 0;
        let mut strides: Vec<i128> = Vec::new();
        for (mono, &c) in &p.terms {
            let item_syms = mono
                .iter()
                .filter(|s| matches!(s, Sym::Gid(_) | Sym::Lid(_) | Sym::Grp(_)))
                .count();
            let loop_syms = mono
                .iter()
                .filter(|s| matches!(s, Sym::LoopVar { .. }))
                .count();
            if loop_syms > 0 {
                if mono.len() > 1 {
                    return false; // loop counter multiplied by a symbol
                }
                let Sym::LoopVar { lo, hi, .. } = mono[0] else {
                    unreachable!()
                };
                spread += c.abs() * (hi as i128 - lo as i128);
            } else if item_syms > 0 && mono.len() == 1 {
                strides.push(c.abs());
            }
        }
        if spread == 0 {
            return true;
        }
        let g = strides.into_iter().fold(0i128, gcd);
        g > spread
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `p` as `1*sym + c`?
fn single_sym(p: &Poly) -> Option<(Sym, i128)> {
    if p.terms.len() != 1 {
        return None;
    }
    let (m, &c) = p.terms.iter().next().unwrap();
    (m.len() == 1 && c == 1).then(|| (m[0], p.k))
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn add_cons(cons: &mut Vec<Cons>, neg: &mut Vec<Cons>, s: Sym, op: BinOp, rhs: Poly) {
    let mk = |lo: Option<Poly>, hi: Option<Poly>, eq: Option<Poly>| Cons { sym: s, lo, hi, eq };
    match op {
        BinOp::Lt => {
            cons.push(mk(None, Some(rhs.sub(&Poly::konst(1))), None));
            neg.push(mk(Some(rhs), None, None));
        }
        BinOp::Le => {
            cons.push(mk(None, Some(rhs.clone()), None));
            neg.push(mk(Some(rhs.add(&Poly::konst(1))), None, None));
        }
        BinOp::Gt => {
            cons.push(mk(Some(rhs.add(&Poly::konst(1))), None, None));
            neg.push(mk(None, Some(rhs), None));
        }
        BinOp::Ge => {
            cons.push(mk(Some(rhs.clone()), None, None));
            neg.push(mk(None, Some(rhs.sub(&Poly::konst(1))), None));
        }
        BinOp::Eq => {
            cons.push(mk(None, None, Some(rhs)));
        }
        BinOp::Ne => {
            neg.push(mk(None, None, Some(rhs)));
        }
        _ => {}
    }
}

/// Symbolic range of a symbol under the active constraints.
fn sym_range(s: Sym, cons: &[Cons]) -> (Option<Poly>, Option<Poly>) {
    if matches!(s, Sym::Param(_) | Sym::Opaque { varying: false, .. }) {
        // a group-uniform unknown has one value per group: the exact symbol
        // is always a tighter interval than any guard-derived bound on it
        return (Some(Poly::sym(s)), Some(Poly::sym(s)));
    }
    for c in cons {
        if c.sym != s {
            continue;
        }
        if let Some(eq) = &c.eq {
            return (Some(eq.clone()), Some(eq.clone()));
        }
        let lo = c.lo.clone().or_else(|| default_lo(s));
        let hi = c.hi.clone().or_else(|| default_hi(s));
        return (lo, hi);
    }
    (default_lo(s), default_hi(s))
}

fn default_lo(s: Sym) -> Option<Poly> {
    match s {
        Sym::Gid(_) | Sym::Lid(_) | Sym::Grp(_) => Some(Poly::konst(0)),
        Sym::LoopVar { lo, .. } => Some(Poly::konst(lo as i128)),
        // a uniform unknown / scalar parameter is one fixed value: exact
        Sym::Opaque { varying: false, .. } | Sym::Param(_) => Some(Poly::sym(s)),
        Sym::Opaque { varying: true, .. } => None,
    }
}

fn default_hi(s: Sym) -> Option<Poly> {
    match s {
        Sym::LoopVar { hi, .. } => Some(Poly::konst(hi as i128)),
        Sym::Opaque { varying: false, .. } | Sym::Param(_) => Some(Poly::sym(s)),
        _ => None,
    }
}

/// Symbolic interval of `p` under `cons` (either side may be unknown).
fn bounds(p: &Poly, cons: &[Cons]) -> (Option<Poly>, Option<Poly>) {
    let mut lo = Some(Poly::konst(p.k));
    let mut hi = Some(Poly::konst(p.k));
    for (mono, &c) in &p.terms {
        let (mlo, mhi) = if mono.len() == 1 {
            let (slo, shi) = sym_range(mono[0], cons);
            if c >= 0 {
                (
                    slo.map(|b| b.mul(&Poly::konst(c))),
                    shi.map(|b| b.mul(&Poly::konst(c))),
                )
            } else {
                (
                    shi.map(|b| b.mul(&Poly::konst(c))),
                    slo.map(|b| b.mul(&Poly::konst(c))),
                )
            }
        } else {
            // products: only constant factor ranges are combined
            let mut iv = Some((c, c));
            for s in mono {
                let (slo, shi) = sym_range(*s, cons);
                iv = match (
                    iv,
                    slo.and_then(|p| p.is_const()),
                    shi.and_then(|p| p.is_const()),
                ) {
                    (Some(iv), Some(a), Some(b)) => Some(mul_iv(iv, (a, b))),
                    _ => None,
                };
            }
            match iv {
                Some((a, b)) => (Some(Poly::konst(a)), Some(Poly::konst(b))),
                None => (None, None),
            }
        };
        lo = match (lo, mlo) {
            (Some(a), Some(b)) => Some(a.add(&b)),
            _ => None,
        };
        hi = match (hi, mhi) {
            (Some(a), Some(b)) => Some(a.add(&b)),
            _ => None,
        };
    }
    (lo, hi)
}

/// Is `lo - hi` a positive constant (the intervals have a gap)?
fn gap_positive(lo: &Option<Poly>, hi: &Option<Poly>) -> bool {
    match (lo, hi) {
        (Some(lo), Some(hi)) => lo.sub(hi).is_const().is_some_and(|g| g > 0),
        _ => false,
    }
}

/// The names `stmts` may assign, at any depth: assignment and `++`/`--`
/// targets, and declared names (a declaration shadows, so an outer
/// same-name variable is treated as assigned too: conservative but
/// harmless).
fn assigned_names(stmts: &[Stmt]) -> HashSet<String> {
    let mut out = HashSet::new();
    ast::walk_stmts(stmts, &mut |s| match &s.kind {
        StmtKind::Decl { decls, .. } => out.extend(decls.iter().map(|d| d.name.clone())),
        StmtKind::Expr(e) | StmtKind::For { step: Some(e), .. } => add_assigned(e, &mut out),
        // conditions, `return` values and declaration initialisers are
        // not searched: sema admits assignments and `++`/`--` only in
        // statement position
        _ => {}
    });
    out
}

/// Add the names that `e`, an expression in statement position, assigns.
fn add_assigned(e: &Expr, out: &mut HashSet<String>) {
    e.walk(&mut |e| match e {
        Expr::Assign { target: v, .. }
        | Expr::Un {
            op: UnOp::PreInc | UnOp::PreDec,
            e: v,
        }
        | Expr::Post { e: v, .. } => {
            if let Expr::Ident(n) = &**v {
                out.insert(n.clone());
            }
        }
        _ => {}
    });
}

fn collect_used_axes(
    tu: &ast::TranslationUnit,
    metas: &HashMap<String, FuncMeta>,
    f: &ast::FuncDef,
    axes: &mut [bool; 3],
) {
    // a pre-scan over the kernel and every reachable helper: which axes does
    // the kernel query? (drives the well-dimensioned-launch assumption)
    let mut worklist = vec![f.name.clone()];
    let mut seen = HashSet::new();
    while let Some(name) = worklist.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let Some(def) = tu.funcs.iter().find(|g| g.name == name) else {
            continue;
        };
        for_each_call(&def.body, |name, args| {
            if matches!(name, "get_global_id" | "get_local_id" | "get_group_id") {
                match args.first() {
                    Some(Expr::IntLit { value, .. }) if *value < 3 => {
                        axes[*value as usize] = true;
                    }
                    _ => *axes = [true; 3],
                }
            } else if metas.contains_key(name) {
                worklist.push(name.to_string());
            }
        });
    }
}

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        analyze_source(src)
            .expect("source must compile")
            .diagnostics
    }

    fn has(diags: &[Diagnostic], kind: DiagKind, sev: Severity) -> bool {
        diags.iter().any(|d| d.kind == kind && d.severity == sev)
    }

    #[test]
    fn poly_arithmetic() {
        let gid = Poly::sym(Sym::Gid(0));
        let p = gid.mul(&Poly::konst(10)).add(&Poly::konst(3));
        assert_eq!(p.k, 3);
        assert_eq!(p.terms[&vec![Sym::Gid(0)]], 10);
        assert!(p.sub(&p).is_const() == Some(0));
        let q = p.mul(&Poly::sym(Sym::Param(1)));
        assert_eq!(q.terms[&vec![Sym::Gid(0), Sym::Param(1)]], 10);
        assert_eq!(q.terms[&vec![Sym::Param(1)]], 3);
    }

    #[test]
    fn divergent_barrier_flagged_with_span() {
        let d = lint(
            "__kernel void k(__global float* a) {\n\
             int i = (int)get_global_id(0);\n\
             if (i < 5) {\n    barrier(CLK_LOCAL_MEM_FENCE);\n  }\n\
             a[i] = 1.0f;\n}",
        );
        assert!(
            has(&d, DiagKind::BarrierDivergence, Severity::Error),
            "{d:?}"
        );
        let bd = d
            .iter()
            .find(|d| d.kind == DiagKind::BarrierDivergence)
            .unwrap();
        assert_eq!(bd.span.line, 4, "{bd}");
    }

    #[test]
    fn uniform_barrier_clean() {
        let d = lint(
            "__kernel void k(__global float* a, int n) {\n\
             int i = (int)get_global_id(0);\n\
             if (n > 3) { barrier(CLK_LOCAL_MEM_FENCE); }\n\
             a[i] = 1.0f;\n}",
        );
        assert!(
            !has(&d, DiagKind::BarrierDivergence, Severity::Error),
            "{d:?}"
        );
    }

    #[test]
    fn varying_return_poisons_later_barrier() {
        let d = lint(
            "__kernel void k(__global float* a) {\n\
             int i = (int)get_global_id(0);\n\
             if (i == 0) { return; }\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             a[i] = 1.0f;\n}",
        );
        assert!(
            has(&d, DiagKind::BarrierDivergence, Severity::Error),
            "{d:?}"
        );
    }

    #[test]
    fn local_race_without_barrier_warns() {
        let d = lint(
            "__kernel void k(__global float* out) {\n\
             __local float t[16];\n\
             int lid = (int)get_local_id(0);\n\
             t[lid] = (float)lid;\n\
             out[(int)get_global_id(0)] = t[15 - lid];\n}",
        );
        assert!(has(&d, DiagKind::DataRace, Severity::Warning), "{d:?}");
    }

    #[test]
    fn local_race_fixed_by_barrier() {
        let d = lint(
            "__kernel void k(__global float* out) {\n\
             __local float t[16];\n\
             int lid = (int)get_local_id(0);\n\
             t[lid] = (float)lid;\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             out[(int)get_global_id(0)] = t[15 - lid];\n}",
        );
        assert!(!has(&d, DiagKind::DataRace, Severity::Warning), "{d:?}");
        assert!(!has(&d, DiagKind::DataRace, Severity::Error), "{d:?}");
    }

    #[test]
    fn same_address_differing_values_is_definite_race() {
        let d = lint(
            "__kernel void k(__global int* out) {\n\
             out[0] = (int)get_global_id(0);\n}",
        );
        assert!(has(&d, DiagKind::DataRace, Severity::Error), "{d:?}");
    }

    #[test]
    fn same_address_same_value_benign() {
        let d = lint(
            "__kernel void k(__global int* out, int n) {\n\
             out[0] = n * 2;\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tree_reduction_lints_clean() {
        let d = lint(
            "__kernel void k(__global const float* in, __global float* partials) {\n\
             __local float sdata[64];\n\
             int lid = (int)get_local_id(0);\n\
             sdata[lid] = in[(int)get_global_id(0)];\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             for (int s = 32; s > 0; s >>= 1) {\n\
               if (lid < s) { sdata[lid] += sdata[lid + s]; }\n\
               barrier(CLK_LOCAL_MEM_FENCE);\n\
             }\n\
             if (lid == 0) { partials[(int)get_group_id(0)] = sdata[0]; }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn strided_private_chunks_benign() {
        // EP shape: q[tid * 10 + i] with i in 0..10
        let d = lint(
            "__kernel void k(__global int* q) {\n\
             int tid = (int)get_global_id(0);\n\
             for (int i = 0; i < 10; i++) { q[tid * 10 + i] = i; }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn overlapping_strided_chunks_warn() {
        // stride 8 < spread 9: chunks of adjacent items overlap
        let d = lint(
            "__kernel void k(__global int* q) {\n\
             int tid = (int)get_global_id(0);\n\
             for (int i = 0; i < 10; i++) { q[tid * 8 + i] = i; }\n}",
        );
        assert!(has(&d, DiagKind::DataRace, Severity::Warning), "{d:?}");
    }

    #[test]
    fn local_constant_oob_flagged() {
        let d = lint(
            "__kernel void k(__global float* out) {\n\
             __local float t[16];\n\
             t[20] = 1.0f;\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             out[(int)get_global_id(0)] = t[0];\n}",
        );
        assert!(has(&d, DiagKind::OutOfBounds, Severity::Error), "{d:?}");
        let oob = d.iter().find(|d| d.kind == DiagKind::OutOfBounds).unwrap();
        assert_eq!(oob.span.line, 3, "{oob}");
    }

    #[test]
    fn private_array_in_bounds_loop_clean() {
        let d = lint(
            "__kernel void k(__global int* out) {\n\
             int acc[10];\n\
             for (int i = 0; i < 10; i++) { acc[i] = i; }\n\
             out[(int)get_global_id(0)] = acc[9];\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn launch_access_recorded_and_bounded() {
        let a = analyze_source(
            "__kernel void k(__global float* out) {\n\
             out[(int)get_global_id(0) + 1000] = 1.0f;\n}",
        )
        .unwrap();
        let sum = &a.kernels["k"];
        assert_eq!(sum.launch_accesses.len(), 1);
        let acc = &sum.launch_accesses[0];
        assert_eq!(acc.param, 0);
        let b = acc
            .element_bounds(&[4, 1, 1], &[4, 1, 1], &HashMap::new())
            .unwrap();
        assert_eq!(b, (1000, 1003));
    }

    #[test]
    fn scalar_param_feeds_launch_bounds() {
        let a = analyze_source(
            "__kernel void k(__global float* out, int off) {\n\
             out[(int)get_global_id(0) + off] = 1.0f;\n}",
        )
        .unwrap();
        let acc = &a.kernels["k"].launch_accesses[0];
        let mut scalars = HashMap::new();
        scalars.insert(1usize, 5i128);
        let b = acc
            .element_bounds(&[8, 1, 1], &[8, 1, 1], &scalars)
            .unwrap();
        assert_eq!(b, (5, 12));
    }

    #[test]
    fn transpose_tile_pattern_lints_clean() {
        let d = lint(
            "__kernel void t(__global float* dst, __global const float* src,\n\
                             const int h, const int w) {\n\
             __local float tile[256];\n\
             int gx = (int)get_global_id(0);\n\
             int gy = (int)get_global_id(1);\n\
             int lx = (int)get_local_id(0);\n\
             int ly = (int)get_local_id(1);\n\
             tile[ly * 16 + lx] = src[gy * w + gx];\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             int ox = (int)get_group_id(1) * 16 + lx;\n\
             int oy = (int)get_group_id(0) * 16 + ly;\n\
             dst[oy * h + ox] = tile[lx * 16 + ly];\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transpose_without_barrier_warns() {
        let d = lint(
            "__kernel void t(__global float* dst, __global const float* src,\n\
                             const int h, const int w) {\n\
             __local float tile[256];\n\
             int gx = (int)get_global_id(0);\n\
             int gy = (int)get_global_id(1);\n\
             int lx = (int)get_local_id(0);\n\
             int ly = (int)get_local_id(1);\n\
             tile[ly * 16 + lx] = src[gy * w + gx];\n\
             dst[(gx * h) + gy] = tile[lx * 16 + ly];\n}",
        );
        assert!(has(&d, DiagKind::DataRace, Severity::Warning), "{d:?}");
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            kernel: "k".into(),
            span: Span::new(3, 5),
            severity: Severity::Warning,
            kind: DiagKind::DataRace,
            message: "possible data race".into(),
        };
        assert_eq!(
            d.to_string(),
            "warning[race] kernel `k`, line 3:5: possible data race"
        );
    }
}
