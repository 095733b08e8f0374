//! Semantic analysis: resolves names, checks and propagates types, applies
//! C's usual arithmetic conversions, lowers the AST to the typed executable
//! IR, lays out local/private array allocations, and computes per-parameter
//! read/write summaries (used by launch validation and surfaced to clients
//! like HPL's transfer minimiser).

use std::collections::HashMap;

use crate::clc::ast::{self, AddrSpace, BinOp, ClType, Expr, PostOp, Span, Stmt, StmtKind, UnOp};
use crate::clc::dataflow;
use crate::error::{Error, Result};
use crate::exec::ir::{
    for_each_stmt, ArrayAlloc, BOp, Builtin, COp, Ex, FuncId, FuncIr, Module, ParamInfo, ParamKind,
    SlotId, SlotKind, St, StKind, UOp,
};
use crate::exec::ops;
use crate::types::{ScalarType, Value};

/// Analyse a parsed translation unit and produce an executable [`Module`].
pub fn analyze(tu: &ast::TranslationUnit) -> Result<Module> {
    let mut sema_span = crate::telemetry::span("clc", "sema");
    sema_span.note("funcs", tu.funcs.len());
    // pass 1: collect signatures so definition order does not matter
    let mut sigs: HashMap<String, FuncId> = HashMap::new();
    for (i, f) in tu.funcs.iter().enumerate() {
        if sigs.insert(f.name.clone(), i).is_some() {
            return Err(err(f.span, format!("duplicate function `{}`", f.name)));
        }
        if builtin_by_name(&f.name).is_some() || is_reserved(&f.name) {
            return Err(err(
                f.span,
                format!("`{}` shadows a built-in function", f.name),
            ));
        }
    }

    let mut module = Module::default();
    {
        let _lower_span = crate::telemetry::span("clc", "lower");
        for f in &tu.funcs {
            let fir = FuncSema::new(tu, &sigs).lower_function(f)?;
            if f.is_kernel {
                module.kernels.insert(f.name.clone(), module.funcs.len());
            }
            module.funcs.push(fir);
        }
    }
    propagate_param_effects(&mut module);
    propagate_barriers_and_fp64(&mut module);
    Ok(module)
}

fn err(line: Span, msg: impl Into<String>) -> Error {
    Error::BuildFailure(format!("sema, line {line}: {}", msg.into()))
}

fn is_reserved(name: &str) -> bool {
    matches!(
        name,
        "barrier" | "mem_fence" | "read_mem_fence" | "write_mem_fence"
    )
}

/// A lowered pointer-valued expression with its static address-space info.
struct PtrEx {
    ex: Ex,
    space: AddrSpace,
    elem: ScalarType,
}

/// What a name refers to.
#[derive(Clone)]
enum Binding {
    Slot(SlotId),
    LocalArray { alloc: usize, elem: ScalarType },
    PrivArray { alloc: usize, elem: ScalarType },
    Const(Value),
}

struct FuncSema<'a> {
    tu: &'a ast::TranslationUnit,
    sigs: &'a HashMap<String, FuncId>,
    scopes: Vec<HashMap<String, Binding>>,
    slots: Vec<SlotKind>,
    local_allocs: Vec<ArrayAlloc>,
    priv_allocs: Vec<ArrayAlloc>,
    is_kernel: bool,
    ret: Option<ScalarType>,
    loop_depth: usize,
}

impl<'a> FuncSema<'a> {
    fn new(tu: &'a ast::TranslationUnit, sigs: &'a HashMap<String, FuncId>) -> Self {
        let mut s = FuncSema {
            tu,
            sigs,
            scopes: vec![HashMap::new()],
            slots: Vec::new(),
            local_allocs: Vec::new(),
            priv_allocs: Vec::new(),
            is_kernel: false,
            ret: None,
            loop_depth: 0,
        };
        // predefined constants
        s.define_const("CLK_LOCAL_MEM_FENCE", Value::U32(1));
        s.define_const("CLK_GLOBAL_MEM_FENCE", Value::U32(2));
        s.define_const("M_PI", Value::F64(std::f64::consts::PI));
        s.define_const("M_PI_F", Value::F32(std::f32::consts::PI));
        s.define_const("M_E", Value::F64(std::f64::consts::E));
        s.define_const("MAXFLOAT", Value::F32(f32::MAX));
        s.define_const("FLT_EPSILON", Value::F32(f32::EPSILON));
        s.define_const("INT_MAX", Value::I32(i32::MAX));
        s.define_const("INT_MIN", Value::I32(i32::MIN));
        s
    }

    fn define_const(&mut self, name: &str, v: Value) {
        self.scopes[0].insert(name.to_string(), Binding::Const(v));
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn bind(&mut self, line: Span, name: &str, b: Binding) -> Result<()> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.insert(name.to_string(), b).is_some() {
            return Err(err(line, format!("`{name}` redeclared in the same scope")));
        }
        Ok(())
    }

    fn new_slot(&mut self, kind: SlotKind) -> SlotId {
        self.slots.push(kind);
        self.slots.len() - 1
    }

    // ---- function --------------------------------------------------------

    fn lower_function(mut self, f: &ast::FuncDef) -> Result<FuncIr> {
        self.is_kernel = f.is_kernel;
        self.ret = match f.ret {
            ClType::Void => None,
            ClType::Scalar(t) => Some(t),
            ClType::Ptr(..) => {
                return Err(err(f.span, "pointer return types are not supported"));
            }
        };
        if f.is_kernel && self.ret.is_some() {
            return Err(err(f.span, "kernels must return void"));
        }

        let mut params = Vec::new();
        self.scopes.push(HashMap::new());
        for p in &f.params {
            let (kind, slot_kind) = match p.ty {
                ClType::Scalar(t) => (ParamKind::Scalar(t), SlotKind::Scalar(t)),
                ClType::Ptr(AddrSpace::Global, t) => (
                    ParamKind::GlobalPtr { elem: t },
                    SlotKind::Ptr {
                        space: AddrSpace::Global,
                        elem: t,
                    },
                ),
                ClType::Ptr(AddrSpace::Constant, t) => (
                    ParamKind::ConstantPtr { elem: t },
                    SlotKind::Ptr {
                        space: AddrSpace::Constant,
                        elem: t,
                    },
                ),
                ClType::Ptr(AddrSpace::Local, t) => (
                    ParamKind::LocalPtr { elem: t },
                    SlotKind::Ptr {
                        space: AddrSpace::Local,
                        elem: t,
                    },
                ),
                ClType::Ptr(AddrSpace::Private, _) => {
                    return Err(err(f.span, "private-pointer parameters are not supported"));
                }
                ClType::Void => return Err(err(f.span, "void parameter")),
            };
            if f.is_kernel && matches!(kind, ParamKind::LocalPtr { .. }) {
                // legal OpenCL (size set via clSetKernelArg), but the oclsim
                // host API does not expose local args yet
                return Err(err(
                    f.span,
                    "__local pointer kernel parameters are not supported; declare the \
                     array inside the kernel instead",
                ));
            }
            let slot = self.new_slot(slot_kind);
            self.bind(f.span, &p.name, Binding::Slot(slot))?;
            params.push(ParamInfo {
                name: p.name.clone(),
                kind,
                reads: false,
                writes: false,
            });
        }

        let body = self.lower_block(&f.body)?;
        self.scopes.pop();

        let mut fir = FuncIr {
            name: f.name.clone(),
            is_kernel: f.is_kernel,
            ret: self.ret,
            params,
            slots: self.slots,
            local_allocs: self.local_allocs,
            priv_allocs: self.priv_allocs,
            body,
            uses_fp64: false,
            has_barrier: false,
        };
        compute_direct_effects(&mut fir);
        Ok(fir)
    }

    // ---- statements ------------------------------------------------------

    fn lower_block(&mut self, stmts: &[Stmt]) -> Result<Vec<St>> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for s in stmts {
            self.lower_stmt(s, &mut out)?;
        }
        self.scopes.pop();
        Ok(out)
    }

    fn lower_stmt(&mut self, s: &Stmt, out: &mut Vec<St>) -> Result<()> {
        let line = s.span;
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(inner) => {
                let blk = self.lower_block(inner)?;
                out.extend(blk);
            }
            StmtKind::Decl { space, base, decls } => {
                for d in decls {
                    self.lower_declarator(line, *space, *base, d, out)?;
                }
            }
            StmtKind::Expr(e) => self.lower_expr_stmt(line, e, out)?,
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.lower_condition(line, cond)?;
                let t = self.lower_block(then_blk)?;
                let e = self.lower_block(else_blk)?;
                out.push(St::new(
                    StKind::If {
                        cond: c,
                        then_blk: t,
                        else_blk: e,
                    },
                    line,
                ));
            }
            StmtKind::While { cond, body } => {
                let c = self.lower_condition(line, cond)?;
                self.loop_depth += 1;
                let b = self.lower_block(body)?;
                self.loop_depth -= 1;
                out.push(St::new(
                    StKind::Loop {
                        cond: c,
                        body: b,
                        step: vec![],
                        check_first: true,
                    },
                    line,
                ));
            }
            StmtKind::DoWhile { body, cond } => {
                self.loop_depth += 1;
                let b = self.lower_block(body)?;
                self.loop_depth -= 1;
                let c = self.lower_condition(line, cond)?;
                out.push(St::new(
                    StKind::Loop {
                        cond: c,
                        body: b,
                        step: vec![],
                        check_first: false,
                    },
                    line,
                ));
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // the init declaration scopes over cond/step/body
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init, out)?;
                }
                let c = match cond {
                    Some(c) => self.lower_condition(line, c)?,
                    None => Ex::Const {
                        bits: 1,
                        ty: ScalarType::Bool,
                    },
                };
                self.loop_depth += 1;
                let b = self.lower_block(body)?;
                self.loop_depth -= 1;
                let mut st = Vec::new();
                if let Some(step) = step {
                    self.lower_expr_stmt(line, step, &mut st)?;
                }
                self.scopes.pop();
                out.push(St::new(
                    StKind::Loop {
                        cond: c,
                        body: b,
                        step: st,
                        check_first: true,
                    },
                    line,
                ));
            }
            StmtKind::Return(e) => {
                let v = match (e, self.ret) {
                    (None, None) => None,
                    (Some(e), Some(rt)) => {
                        let v = self.lower_value(line, e)?;
                        Some(self.coerce(v, rt))
                    }
                    (Some(_), None) => {
                        return Err(err(line, "void function returns a value"));
                    }
                    (None, Some(_)) => {
                        return Err(err(line, "non-void function returns without a value"));
                    }
                };
                out.push(St::new(StKind::Return(v), line));
            }
            StmtKind::Break => {
                if self.loop_depth == 0 {
                    return Err(err(line, "`break` outside of a loop"));
                }
                out.push(St::new(StKind::Break, line));
            }
            StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(err(line, "`continue` outside of a loop"));
                }
                out.push(St::new(StKind::Continue, line));
            }
        }
        Ok(())
    }

    fn lower_declarator(
        &mut self,
        line: Span,
        space: AddrSpace,
        base: ScalarType,
        d: &ast::Declarator,
        out: &mut Vec<St>,
    ) -> Result<()> {
        if let Some(len_expr) = &d.array_len {
            // array declaration
            if d.is_pointer {
                return Err(err(line, "arrays of pointers are not supported"));
            }
            if d.init.is_some() {
                return Err(err(line, "array initialisers are not supported"));
            }
            let len = self.array_len(line, len_expr)?;
            match space {
                AddrSpace::Local => {
                    if !self.is_kernel {
                        return Err(err(
                            line,
                            "__local variables may only be declared in kernel functions",
                        ));
                    }
                    let byte_offset = place_array(line, &self.local_allocs, base, len)?;
                    let alloc = self.local_allocs.len();
                    self.local_allocs.push(ArrayAlloc {
                        elem: base,
                        len,
                        byte_offset,
                    });
                    self.bind(line, &d.name, Binding::LocalArray { alloc, elem: base })?;
                }
                AddrSpace::Private => {
                    if !self.is_kernel {
                        return Err(err(
                            line,
                            "private arrays in helper functions are not supported",
                        ));
                    }
                    let byte_offset = place_array(line, &self.priv_allocs, base, len)?;
                    let alloc = self.priv_allocs.len();
                    self.priv_allocs.push(ArrayAlloc {
                        elem: base,
                        len,
                        byte_offset,
                    });
                    self.bind(line, &d.name, Binding::PrivArray { alloc, elem: base })?;
                }
                AddrSpace::Global | AddrSpace::Constant => {
                    return Err(err(
                        line,
                        "global/constant arrays cannot be declared in kernels",
                    ));
                }
            }
            return Ok(());
        }

        if d.is_pointer {
            // pointer variable: `__global float* p = x;`
            let init = d
                .init
                .as_ref()
                .ok_or_else(|| err(line, "pointer variables must be initialised"))?;
            let p = self.lower_pointer(line, init)?;
            if p.elem != base {
                return Err(err(
                    line,
                    format!(
                        "pointer initialiser has element type {}, expected {}",
                        p.elem.cl_name(),
                        base.cl_name()
                    ),
                ));
            }
            let slot = self.new_slot(SlotKind::Ptr {
                space: p.space,
                elem: p.elem,
            });
            self.bind(line, &d.name, Binding::Slot(slot))?;
            out.push(St::new(StKind::SetSlot { slot, value: p.ex }, line));
            return Ok(());
        }

        if space == AddrSpace::Local {
            return Err(err(
                line,
                "__local scalars are not supported; use a 1-element array",
            ));
        }
        let slot = self.new_slot(SlotKind::Scalar(base));
        self.bind(line, &d.name, Binding::Slot(slot))?;
        if let Some(init) = &d.init {
            let v = self.lower_value(line, init)?;
            out.push(St::new(
                StKind::SetSlot {
                    slot,
                    value: self.coerce(v, base),
                },
                line,
            ));
        }
        Ok(())
    }

    /// Expressions in statement position: assignments, inc/dec, and calls.
    fn lower_expr_stmt(&mut self, line: Span, e: &Expr, out: &mut Vec<St>) -> Result<()> {
        match e {
            Expr::Assign { op, target, value } => {
                self.lower_assignment(line, *op, target, value, out)
            }
            Expr::Un {
                op: UnOp::PreInc,
                e,
            }
            | Expr::Post { op: PostOp::Inc, e } => self.lower_incdec(line, e, BinOp::Add, out),
            Expr::Un {
                op: UnOp::PreDec,
                e,
            }
            | Expr::Post { op: PostOp::Dec, e } => self.lower_incdec(line, e, BinOp::Sub, out),
            Expr::Call { name, args } if name == "barrier" => {
                let flags = if args.is_empty() {
                    1 // bare barrier(): local fence
                } else if args.len() == 1 {
                    self.const_eval_int(line, &args[0])?.0
                } else {
                    return Err(err(line, "barrier takes at most one flags argument"));
                };
                out.push(St::new(
                    StKind::Barrier {
                        local_fence: flags & 1 != 0,
                        global_fence: flags & 2 != 0,
                    },
                    line,
                ));
                Ok(())
            }
            Expr::Call { name, .. }
                if matches!(
                    name.as_str(),
                    "mem_fence" | "read_mem_fence" | "write_mem_fence"
                ) =>
            {
                // lock-step execution makes intra-group fences no-ops
                Ok(())
            }
            Expr::Call { .. } => {
                let v = self.lower_value(line, e)?;
                out.push(St::new(StKind::ExprSt(v), line));
                Ok(())
            }
            _ => Err(err(
                line,
                "only assignments, increments/decrements and calls may be used as statements",
            )),
        }
    }

    fn lower_incdec(
        &mut self,
        line: Span,
        target: &Expr,
        op: BinOp,
        out: &mut Vec<St>,
    ) -> Result<()> {
        let one = Expr::IntLit {
            value: 1,
            unsigned: false,
            long: false,
        };
        self.lower_assignment(line, Some(op), target, &one, out)
    }

    fn lower_assignment(
        &mut self,
        line: Span,
        op: Option<BinOp>,
        target: &Expr,
        value: &Expr,
        out: &mut Vec<St>,
    ) -> Result<()> {
        match target {
            Expr::Ident(name) => {
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| err(line, format!("use of undeclared identifier `{name}`")))?
                    .clone();
                let Binding::Slot(slot) = binding else {
                    return Err(err(line, format!("`{name}` is not assignable")));
                };
                match self.slots[slot] {
                    SlotKind::Scalar(ty) => {
                        let rhs =
                            self.build_assigned_value(line, op, Ex::Slot { slot, ty }, ty, value)?;
                        out.push(St::new(StKind::SetSlot { slot, value: rhs }, line));
                    }
                    SlotKind::Ptr { space, elem } => {
                        if op.is_some() {
                            return Err(err(
                                line,
                                "compound assignment to pointers is not supported",
                            ));
                        }
                        let p = self.lower_pointer(line, value)?;
                        if p.space != space || p.elem != elem {
                            return Err(err(line, "pointer assignment with mismatched type"));
                        }
                        out.push(St::new(StKind::SetSlot { slot, value: p.ex }, line));
                    }
                }
                Ok(())
            }
            Expr::Index { .. }
            | Expr::Un {
                op: UnOp::Deref, ..
            } => {
                let (addr, space, elem) = self.lower_lvalue_addr(line, target)?;
                let cur = Ex::Load {
                    addr: Box::new(addr.clone()),
                    elem,
                    space,
                };
                if space == AddrSpace::Constant {
                    return Err(err(line, "cannot write through a __constant pointer"));
                }
                let rhs = self.build_assigned_value(line, op, cur, elem, value)?;
                out.push(St::new(
                    StKind::Store {
                        addr,
                        elem,
                        space,
                        value: rhs,
                    },
                    line,
                ));
                Ok(())
            }
            _ => Err(err(line, "invalid assignment target")),
        }
    }

    /// Build the stored value for `target op= value` / `target = value`.
    fn build_assigned_value(
        &mut self,
        line: Span,
        op: Option<BinOp>,
        current: Ex,
        target_ty: ScalarType,
        value: &Expr,
    ) -> Result<Ex> {
        let rhs = self.lower_value(line, value)?;
        match op {
            None => Ok(self.coerce(rhs, target_ty)),
            Some(op) => {
                let combined = self.build_binary(line, op, current, rhs)?;
                Ok(self.coerce(combined, target_ty))
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    /// Lower an expression that must produce a scalar value.
    fn lower_value(&mut self, line: Span, e: &Expr) -> Result<Ex> {
        match e {
            Expr::IntLit {
                value,
                unsigned,
                long,
            } => {
                let ty = match (unsigned, long) {
                    (false, false) => {
                        if *value <= i32::MAX as u64 {
                            ScalarType::I32
                        } else if *value <= i64::MAX as u64 {
                            ScalarType::I64
                        } else {
                            ScalarType::U64
                        }
                    }
                    (true, false) => {
                        if *value <= u32::MAX as u64 {
                            ScalarType::U32
                        } else {
                            ScalarType::U64
                        }
                    }
                    (false, true) => ScalarType::I64,
                    (true, true) => ScalarType::U64,
                };
                Ok(Ex::Const { bits: *value, ty })
            }
            Expr::FloatLit { value, f32 } => {
                if *f32 {
                    Ok(Ex::Const {
                        bits: (*value as f32).to_bits() as u64,
                        ty: ScalarType::F32,
                    })
                } else {
                    Ok(Ex::Const {
                        bits: value.to_bits(),
                        ty: ScalarType::F64,
                    })
                }
            }
            Expr::Ident(name) => {
                let b = self
                    .lookup(name)
                    .ok_or_else(|| err(line, format!("use of undeclared identifier `{name}`")))?
                    .clone();
                match b {
                    Binding::Slot(slot) => match self.slots[slot] {
                        SlotKind::Scalar(ty) => Ok(Ex::Slot { slot, ty }),
                        SlotKind::Ptr { .. } => Err(err(
                            line,
                            format!("pointer `{name}` used as a scalar value"),
                        )),
                    },
                    Binding::Const(v) => Ok(Ex::Const {
                        bits: v.to_bits(),
                        ty: v.scalar_type(),
                    }),
                    Binding::LocalArray { .. } | Binding::PrivArray { .. } => {
                        Err(err(line, format!("array `{name}` used as a scalar value")))
                    }
                }
            }
            Expr::Bin { op, l, r } => {
                if op.is_logical() {
                    let lc = self.lower_condition(line, l)?;
                    let rc = self.lower_condition(line, r)?;
                    return Ok(match op {
                        BinOp::LogAnd => Ex::LogAnd {
                            l: Box::new(lc),
                            r: Box::new(rc),
                        },
                        BinOp::LogOr => Ex::LogOr {
                            l: Box::new(lc),
                            r: Box::new(rc),
                        },
                        _ => unreachable!(),
                    });
                }
                let le = self.lower_value(line, l)?;
                let re = self.lower_value(line, r)?;
                self.build_binary(line, *op, le, re)
            }
            Expr::Un { op, e: inner } => match op {
                UnOp::Plus => self.lower_value(line, inner),
                UnOp::Neg => {
                    let v = self.lower_value(line, inner)?;
                    let ty = v.ty().integer_promote();
                    Ok(Ex::Un {
                        op: UOp::Neg,
                        ty,
                        e: Box::new(self.coerce(v, ty)),
                    })
                }
                UnOp::Not => {
                    let c = self.lower_condition(line, inner)?;
                    Ok(Ex::Un {
                        op: UOp::Not,
                        ty: ScalarType::Bool,
                        e: Box::new(c),
                    })
                }
                UnOp::BitNot => {
                    let v = self.lower_value(line, inner)?;
                    let ty = v.ty().integer_promote();
                    if ty.is_float() {
                        return Err(err(line, "`~` applied to a floating-point value"));
                    }
                    Ok(Ex::Un {
                        op: UOp::BitNot,
                        ty,
                        e: Box::new(self.coerce(v, ty)),
                    })
                }
                UnOp::Deref => {
                    let p = self.lower_pointer(line, inner)?;
                    Ok(Ex::Load {
                        addr: Box::new(p.ex),
                        elem: p.elem,
                        space: p.space,
                    })
                }
                UnOp::AddrOf => Err(err(
                    line,
                    "`&` is only supported directly in call arguments",
                )),
                UnOp::PreInc | UnOp::PreDec => Err(err(
                    line,
                    "increment/decrement is only supported in statement position",
                )),
            },
            Expr::Post { .. } => Err(err(
                line,
                "increment/decrement is only supported in statement position",
            )),
            Expr::Assign { .. } => Err(err(
                line,
                "assignment is only supported in statement position",
            )),
            Expr::Ternary { cond, t, f } => {
                let c = self.lower_condition(line, cond)?;
                let tv = self.lower_value(line, t)?;
                let fv = self.lower_value(line, f)?;
                let ty = tv.ty().promote(fv.ty());
                Ok(Ex::Select {
                    cond: Box::new(c),
                    t: Box::new(self.coerce(tv, ty)),
                    f: Box::new(self.coerce(fv, ty)),
                    ty,
                })
            }
            Expr::Index { .. } => {
                let (addr, space, elem) = self.lower_lvalue_addr(line, e)?;
                Ok(Ex::Load {
                    addr: Box::new(addr),
                    elem,
                    space,
                })
            }
            Expr::Cast { ty, e: inner } => {
                let to = match ty {
                    ClType::Scalar(t) => *t,
                    _ => return Err(err(line, "only scalar casts are supported")),
                };
                let v = self.lower_value(line, inner)?;
                Ok(self.coerce(v, to))
            }
            Expr::Call { name, args } => self.lower_call(line, name, args),
        }
    }

    /// Lower an expression used as a branch/loop condition to a Bool value.
    fn lower_condition(&mut self, line: Span, e: &Expr) -> Result<Ex> {
        let v = self.lower_value(line, e)?;
        Ok(self.to_bool(v))
    }

    fn to_bool(&self, v: Ex) -> Ex {
        if v.ty() == ScalarType::Bool {
            return v;
        }
        let ty = v.ty();
        let zero = Ex::Const { bits: 0, ty };
        Ex::Cmp {
            op: COp::Ne,
            ty,
            l: Box::new(v),
            r: Box::new(zero),
        }
    }

    /// Insert a Cast node if needed.
    fn coerce(&self, v: Ex, to: ScalarType) -> Ex {
        let from = v.ty();
        if from == to {
            return v;
        }
        // fold literal casts for cleaner IR and cheaper execution
        if let Ex::Const { bits, .. } = v {
            return Ex::Const {
                bits: ops::cast_bits(bits, from, to),
                ty: to,
            };
        }
        Ex::Cast {
            from,
            to,
            e: Box::new(v),
        }
    }

    fn build_binary(&mut self, line: Span, op: BinOp, l: Ex, r: Ex) -> Result<Ex> {
        if op.is_comparison() {
            let ty = l.ty().promote(r.ty());
            let (l, r) = (self.coerce(l, ty), self.coerce(r, ty));
            let cop = match op {
                BinOp::Lt => COp::Lt,
                BinOp::Gt => COp::Gt,
                BinOp::Le => COp::Le,
                BinOp::Ge => COp::Ge,
                BinOp::Eq => COp::Eq,
                BinOp::Ne => COp::Ne,
                _ => unreachable!(),
            };
            return Ok(Ex::Cmp {
                op: cop,
                ty,
                l: Box::new(l),
                r: Box::new(r),
            });
        }
        let bop = match op {
            BinOp::Add => BOp::Add,
            BinOp::Sub => BOp::Sub,
            BinOp::Mul => BOp::Mul,
            BinOp::Div => BOp::Div,
            BinOp::Rem => BOp::Rem,
            BinOp::BitAnd => BOp::And,
            BinOp::BitOr => BOp::Or,
            BinOp::BitXor => BOp::Xor,
            BinOp::Shl => BOp::Shl,
            BinOp::Shr => BOp::Shr,
            _ if op.is_logical() || op.is_comparison() => {
                unreachable!("handled above")
            }
            _ => unreachable!(),
        };
        let ty = if matches!(bop, BOp::Shl | BOp::Shr) {
            // shift result type follows the (promoted) left operand
            l.ty().integer_promote()
        } else {
            l.ty().promote(r.ty())
        };
        if ty.is_float()
            && matches!(
                bop,
                BOp::Rem | BOp::And | BOp::Or | BOp::Xor | BOp::Shl | BOp::Shr
            )
        {
            return Err(err(
                line,
                format!("operator {bop:?} requires integer operands"),
            ));
        }
        let l = self.coerce(l, ty);
        let r = self.coerce(r, ty);
        // constant folding, as any real compiler performs (macro-expanded
        // expressions like `(256 * 8)` must not cost runtime cycles)
        if let (Ex::Const { bits: lb, .. }, Ex::Const { bits: rb, .. }) = (&l, &r) {
            if let Ok(bits) = ops::bin_op(bop, ty, *lb, *rb) {
                return Ok(Ex::Const { bits, ty });
            }
        }
        Ok(Ex::Bin {
            op: bop,
            ty,
            l: Box::new(l),
            r: Box::new(r),
        })
    }

    // ---- pointers and lvalues ---------------------------------------------

    /// Lower an expression that must produce a pointer.
    fn lower_pointer(&mut self, line: Span, e: &Expr) -> Result<PtrEx> {
        match e {
            Expr::Ident(name) => {
                let b = self
                    .lookup(name)
                    .ok_or_else(|| err(line, format!("use of undeclared identifier `{name}`")))?
                    .clone();
                match b {
                    Binding::Slot(slot) => match self.slots[slot] {
                        SlotKind::Ptr { space, elem } => Ok(PtrEx {
                            ex: Ex::Slot {
                                slot,
                                ty: ScalarType::U64,
                            },
                            space,
                            elem,
                        }),
                        SlotKind::Scalar(_) => {
                            Err(err(line, format!("scalar `{name}` used as a pointer")))
                        }
                    },
                    Binding::LocalArray { alloc, elem } => Ok(PtrEx {
                        ex: Ex::LocalBase { alloc, elem },
                        space: AddrSpace::Local,
                        elem,
                    }),
                    Binding::PrivArray { alloc, elem } => Ok(PtrEx {
                        ex: Ex::PrivBase { alloc, elem },
                        space: AddrSpace::Private,
                        elem,
                    }),
                    Binding::Const(_) => {
                        Err(err(line, format!("constant `{name}` is not a pointer")))
                    }
                }
            }
            Expr::Bin {
                op: BinOp::Add,
                l,
                r,
            } => {
                let p = self.lower_pointer(line, l)?;
                let off = self.lower_value(line, r)?;
                let off = self.coerce(off, ScalarType::I64);
                Ok(PtrEx {
                    elem: p.elem,
                    space: p.space,
                    ex: Ex::PtrAdd {
                        elem_size: p.elem.size(),
                        ptr: Box::new(p.ex),
                        offset: Box::new(off),
                    },
                })
            }
            Expr::Bin {
                op: BinOp::Sub,
                l,
                r,
            } => {
                let p = self.lower_pointer(line, l)?;
                let off = self.lower_value(line, r)?;
                let off = self.coerce(off, ScalarType::I64);
                let neg = Ex::Un {
                    op: UOp::Neg,
                    ty: ScalarType::I64,
                    e: Box::new(off),
                };
                Ok(PtrEx {
                    elem: p.elem,
                    space: p.space,
                    ex: Ex::PtrAdd {
                        elem_size: p.elem.size(),
                        ptr: Box::new(p.ex),
                        offset: Box::new(neg),
                    },
                })
            }
            Expr::Un {
                op: UnOp::AddrOf,
                e: inner,
            } => {
                let (addr, space, elem) = self.lower_lvalue_addr(line, inner)?;
                Ok(PtrEx {
                    ex: addr,
                    space,
                    elem,
                })
            }
            _ => Err(err(
                line,
                "expression is not a supported pointer expression",
            )),
        }
    }

    /// Lower an lvalue (`a[i]` or `*p`) to its address.
    fn lower_lvalue_addr(&mut self, line: Span, e: &Expr) -> Result<(Ex, AddrSpace, ScalarType)> {
        match e {
            Expr::Index { base, index } => {
                let p = self.lower_pointer(line, base)?;
                let idx = self.lower_value(line, index)?;
                let idx = self.coerce(idx, ScalarType::I64);
                let addr = Ex::PtrAdd {
                    elem_size: p.elem.size(),
                    ptr: Box::new(p.ex),
                    offset: Box::new(idx),
                };
                Ok((addr, p.space, p.elem))
            }
            Expr::Un {
                op: UnOp::Deref,
                e: inner,
            } => {
                let p = self.lower_pointer(line, inner)?;
                Ok((p.ex, p.space, p.elem))
            }
            _ => Err(err(line, "expression is not an lvalue")),
        }
    }

    // ---- calls -------------------------------------------------------------

    fn lower_call(&mut self, line: Span, name: &str, args: &[Expr]) -> Result<Ex> {
        if name == "barrier" {
            return Err(err(line, "barrier() may only appear as a statement"));
        }
        if let Some(b) = builtin_by_name(name) {
            return self.lower_builtin(line, name, b, args);
        }
        // `max`/`min`/`abs`/`clamp` dispatch on argument types
        match name {
            "max" | "min" => {
                check_argc(line, name, args, 2)?;
                let a = self.lower_value(line, &args[0])?;
                let b = self.lower_value(line, &args[1])?;
                let ty = a.ty().promote(b.ty());
                let bi = if ty.is_float() {
                    if name == "max" {
                        Builtin::Fmax
                    } else {
                        Builtin::Fmin
                    }
                } else if name == "max" {
                    Builtin::MaxI
                } else {
                    Builtin::MinI
                };
                let (a, b) = (self.coerce(a, ty), self.coerce(b, ty));
                return Ok(Ex::CallBuiltin {
                    b: bi,
                    ty,
                    args: vec![a, b],
                });
            }
            "abs" => {
                check_argc(line, name, args, 1)?;
                let a = self.lower_value(line, &args[0])?;
                let ty = a.ty().integer_promote();
                if ty.is_float() {
                    return Err(err(line, "use fabs() for floating-point absolute value"));
                }
                let a = self.coerce(a, ty);
                return Ok(Ex::CallBuiltin {
                    b: Builtin::AbsI,
                    ty,
                    args: vec![a],
                });
            }
            "clamp" => {
                check_argc(line, name, args, 3)?;
                let x = self.lower_value(line, &args[0])?;
                let lo = self.lower_value(line, &args[1])?;
                let hi = self.lower_value(line, &args[2])?;
                let ty = x.ty().promote(lo.ty()).promote(hi.ty());
                let (maxb, minb) = if ty.is_float() {
                    (Builtin::Fmax, Builtin::Fmin)
                } else {
                    (Builtin::MaxI, Builtin::MinI)
                };
                let x = self.coerce(x, ty);
                let lo = self.coerce(lo, ty);
                let hi = self.coerce(hi, ty);
                let lower = Ex::CallBuiltin {
                    b: maxb,
                    ty,
                    args: vec![x, lo],
                };
                return Ok(Ex::CallBuiltin {
                    b: minb,
                    ty,
                    args: vec![lower, hi],
                });
            }
            _ => {}
        }
        // user function
        let Some(&func) = self.sigs.get(name) else {
            return Err(err(line, format!("call to unknown function `{name}`")));
        };
        let callee = &self.tu.funcs[func];
        if callee.is_kernel {
            return Err(err(
                line,
                format!("kernel `{name}` cannot be called from device code"),
            ));
        }
        if callee.params.len() != args.len() {
            return Err(err(
                line,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    callee.params.len(),
                    args.len()
                ),
            ));
        }
        let ret = match callee.ret {
            ClType::Void => None,
            ClType::Scalar(t) => Some(t),
            ClType::Ptr(..) => return Err(err(line, "pointer return types are not supported")),
        };
        let param_tys: Vec<ClType> = callee.params.iter().map(|p| p.ty).collect();
        let mut lowered = Vec::with_capacity(args.len());
        for (a, pty) in args.iter().zip(&param_tys) {
            match pty {
                ClType::Scalar(t) => {
                    let v = self.lower_value(line, a)?;
                    lowered.push(self.coerce(v, *t));
                }
                ClType::Ptr(space, t) => {
                    let p = self.lower_pointer(line, a)?;
                    if p.elem != *t {
                        return Err(err(line, "pointer argument with mismatched element type"));
                    }
                    // unqualified callee pointers default to global; allow
                    // passing local/constant pointers only on exact match
                    if *space != p.space {
                        return Err(err(
                            line,
                            format!(
                                "pointer argument address space mismatch: passing {} to {}",
                                p.space.cl_name(),
                                space.cl_name()
                            ),
                        ));
                    }
                    lowered.push(p.ex);
                }
                ClType::Void => return Err(err(line, "void parameter")),
            }
        }
        // void calls get a dummy I32 result type; StKind::ExprSt discards it
        let ret_ty = ret.unwrap_or(ScalarType::I32);
        Ok(Ex::CallFunc {
            func,
            ret: ret_ty,
            args: lowered,
        })
    }

    fn lower_builtin(&mut self, line: Span, name: &str, b: Builtin, args: &[Expr]) -> Result<Ex> {
        use Builtin::*;
        match b {
            GetGlobalId | GetLocalId | GetGroupId | GetGlobalSize | GetLocalSize | GetNumGroups => {
                check_argc(line, name, args, 1)?;
                let dim = self.lower_value(line, &args[0])?;
                let dim = self.coerce(dim, ScalarType::U32);
                Ok(Ex::CallBuiltin {
                    b,
                    ty: ScalarType::U64,
                    args: vec![dim],
                })
            }
            GetWorkDim => {
                check_argc(line, name, args, 0)?;
                Ok(Ex::CallBuiltin {
                    b,
                    ty: ScalarType::U32,
                    args: vec![],
                })
            }
            Sqrt | Rsqrt | Fabs | Exp | Log | Log2 | Sin | Cos | Tan | Floor | Ceil | Trunc
            | Round => {
                check_argc(line, name, args, 1)?;
                let a = self.lower_value(line, &args[0])?;
                let ty = float_ty(a.ty());
                let a = self.coerce(a, ty);
                Ok(Ex::CallBuiltin {
                    b,
                    ty,
                    args: vec![a],
                })
            }
            Pow | Fmod | Fmax | Fmin => {
                check_argc(line, name, args, 2)?;
                let x = self.lower_value(line, &args[0])?;
                let y = self.lower_value(line, &args[1])?;
                let ty = float_ty(x.ty().promote(y.ty()));
                let x = self.coerce(x, ty);
                let y = self.coerce(y, ty);
                Ok(Ex::CallBuiltin {
                    b,
                    ty,
                    args: vec![x, y],
                })
            }
            Mad | Fma => {
                check_argc(line, name, args, 3)?;
                let x = self.lower_value(line, &args[0])?;
                let y = self.lower_value(line, &args[1])?;
                let z = self.lower_value(line, &args[2])?;
                let ty = float_ty(x.ty().promote(y.ty()).promote(z.ty()));
                let x = self.coerce(x, ty);
                let y = self.coerce(y, ty);
                let z = self.coerce(z, ty);
                Ok(Ex::CallBuiltin {
                    b,
                    ty,
                    args: vec![x, y, z],
                })
            }
            MaxI | MinI | AbsI => unreachable!("dispatched by name above"),
            AtomicAdd | AtomicSub | AtomicXchg | AtomicMin | AtomicMax => {
                check_argc(line, name, args, 2)?;
                self.lower_atomic(line, b, args, true)
            }
            AtomicInc | AtomicDec => {
                check_argc(line, name, args, 1)?;
                self.lower_atomic(line, b, args, false)
            }
        }
    }

    fn lower_atomic(
        &mut self,
        line: Span,
        b: Builtin,
        args: &[Expr],
        has_operand: bool,
    ) -> Result<Ex> {
        let p = self.lower_pointer(line, &args[0])?;
        if !matches!(p.elem, ScalarType::I32 | ScalarType::U32) {
            return Err(err(line, "atomics require int/uint operands"));
        }
        if !matches!(p.space, AddrSpace::Global | AddrSpace::Local) {
            return Err(err(line, "atomics require a global or local pointer"));
        }
        let ty = p.elem;
        let mut lowered = vec![p.ex];
        if has_operand {
            let v = self.lower_value(line, &args[1])?;
            lowered.push(self.coerce(v, ty));
        }
        Ok(Ex::CallBuiltin {
            b,
            ty,
            args: lowered,
        })
    }

    // ---- constant evaluation ----------------------------------------------

    fn const_eval_int(&mut self, line: Span, e: &Expr) -> Result<(u64, ScalarType)> {
        let v = self.lower_value(line, e)?;
        match dataflow::eval_const(&v, &[]) {
            Some((bits, ty)) if ty.is_integer() => Ok((bits, ty)),
            _ => Err(err(line, "expression must be a compile-time constant")),
        }
    }

    /// The length of an array declarator: a positive integer constant.
    fn array_len(&mut self, line: Span, e: &Expr) -> Result<usize> {
        let (bits, ty) = self.const_eval_int(line, e)?;
        let sign_bit = 1u64 << (ty.size() * 8 - 1);
        if ty.is_signed() && bits & sign_bit != 0 {
            return Err(err(line, "negative array length"));
        }
        match usize::try_from(bits) {
            Ok(0) => Err(err(line, "zero-length arrays are not allowed")),
            Ok(len) => Ok(len),
            Err(_) => Err(err(line, format!("array of {bits} elements is too large"))),
        }
    }
}

fn check_argc(line: Span, name: &str, args: &[Expr], n: usize) -> Result<()> {
    if args.len() != n {
        Err(err(
            line,
            format!("`{name}` expects {n} argument(s), got {}", args.len()),
        ))
    } else {
        Ok(())
    }
}

fn float_ty(t: ScalarType) -> ScalarType {
    if t == ScalarType::F64 {
        ScalarType::F64
    } else {
        ScalarType::F32
    }
}

fn align_to(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

/// The byte offset of one more array of `len` elements of `elem` after
/// `allocs`. An arena that would pass `isize::MAX` bytes is a build error,
/// so no later offset arithmetic can overflow.
fn place_array(line: Span, allocs: &[ArrayAlloc], elem: ScalarType, len: usize) -> Result<usize> {
    let end = allocs
        .iter()
        .map(|a| a.byte_offset + a.byte_len())
        .max()
        .unwrap_or(0);
    let offset = align_to(end, elem.size());
    len.checked_mul(elem.size())
        .and_then(|bytes| bytes.checked_add(offset))
        .filter(|&end| end <= isize::MAX as usize)
        .map(|_| offset)
        .ok_or_else(|| err(line, format!("array of {len} elements is too large")))
}

fn builtin_by_name(name: &str) -> Option<Builtin> {
    use Builtin::*;
    Some(match name {
        "get_global_id" => GetGlobalId,
        "get_local_id" => GetLocalId,
        "get_group_id" => GetGroupId,
        "get_global_size" => GetGlobalSize,
        "get_local_size" => GetLocalSize,
        "get_num_groups" => GetNumGroups,
        "get_work_dim" => GetWorkDim,
        "sqrt" | "native_sqrt" | "half_sqrt" => Sqrt,
        "rsqrt" | "native_rsqrt" => Rsqrt,
        "fabs" => Fabs,
        "exp" | "native_exp" => Exp,
        "log" | "native_log" => Log,
        "log2" | "native_log2" => Log2,
        "pow" | "powr" => Pow,
        "sin" | "native_sin" => Sin,
        "cos" | "native_cos" => Cos,
        "tan" | "native_tan" => Tan,
        "floor" => Floor,
        "ceil" => Ceil,
        "trunc" => Trunc,
        "round" => Round,
        "fmod" => Fmod,
        "fmax" => Fmax,
        "fmin" => Fmin,
        "mad" => Mad,
        "fma" => Fma,
        "atomic_add" | "atom_add" => AtomicAdd,
        "atomic_sub" | "atom_sub" => AtomicSub,
        "atomic_inc" | "atom_inc" => AtomicInc,
        "atomic_dec" | "atom_dec" => AtomicDec,
        "atomic_xchg" | "atom_xchg" => AtomicXchg,
        "atomic_min" | "atom_min" => AtomicMin,
        "atomic_max" | "atom_max" => AtomicMax,
        _ => return None,
    })
}

// ---- whole-module analyses --------------------------------------------------

/// Mark per-parameter read/write effects from this function's own body.
fn compute_direct_effects(f: &mut FuncIr) {
    let nparams = f.params.len();
    let mut reads = vec![false; nparams];
    let mut writes = vec![false; nparams];
    for_each_stmt(&f.body, &mut |_, st| {
        if let StKind::Store { addr, .. } = &st.kind {
            if let Some(p) = root_param(addr, nparams) {
                writes[p] = true;
            }
        }
        // atomics write through their pointer argument
        st.for_each_expr(|e| {
            e.walk(&mut |e| match e {
                Ex::Load { addr, .. } => {
                    if let Some(p) = root_param(addr, nparams) {
                        reads[p] = true;
                    }
                }
                Ex::CallBuiltin { b, args, .. } if b.is_atomic() => {
                    if let Some(p) = root_param(&args[0], nparams) {
                        reads[p] = true;
                        writes[p] = true;
                    }
                }
                _ => {}
            })
        });
    });
    for (i, p) in f.params.iter_mut().enumerate() {
        p.reads = reads[i];
        p.writes = writes[i];
    }
}

/// Trace a pointer expression back to the parameter slot it is based on.
fn root_param(e: &Ex, nparams: usize) -> Option<usize> {
    match e {
        Ex::Slot { slot, .. } if *slot < nparams => Some(*slot),
        Ex::PtrAdd { ptr, .. } => root_param(ptr, nparams),
        _ => None,
    }
}

/// Propagate read/write effects through helper-function calls to a fixpoint:
/// passing a kernel parameter pointer to a helper inherits the helper's
/// effects on that parameter.
fn propagate_param_effects(module: &mut Module) {
    loop {
        let mut changed = false;
        let snapshot: Vec<Vec<(bool, bool)>> = module
            .funcs
            .iter()
            .map(|f| f.params.iter().map(|p| (p.reads, p.writes)).collect())
            .collect();
        for fi in 0..module.funcs.len() {
            let nparams = module.funcs[fi].params.len();
            let mut extra: Vec<(bool, bool)> = vec![(false, false); nparams];
            for_each_stmt(&module.funcs[fi].body, &mut |_, st| {
                st.for_each_expr(|e| {
                    e.walk(&mut |e| {
                        if let Ex::CallFunc { func, args, .. } = e {
                            for (ai, a) in args.iter().enumerate() {
                                if let Some(p) = root_param(a, nparams) {
                                    let (r, w) =
                                        snapshot[*func].get(ai).copied().unwrap_or((false, false));
                                    extra[p].0 |= r;
                                    extra[p].1 |= w;
                                }
                            }
                        }
                    })
                });
            });
            for (pi, (r, w)) in extra.into_iter().enumerate() {
                let p = &mut module.funcs[fi].params[pi];
                if (r && !p.reads) || (w && !p.writes) {
                    changed = true;
                }
                p.reads |= r;
                p.writes |= w;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Compute `uses_fp64` and `has_barrier` transitively through calls.
fn propagate_barriers_and_fp64(module: &mut Module) {
    // direct facts
    let mut fp64 = vec![false; module.funcs.len()];
    let mut barrier = vec![false; module.funcs.len()];
    let mut calls: Vec<Vec<FuncId>> = vec![Vec::new(); module.funcs.len()];
    for (fi, f) in module.funcs.iter().enumerate() {
        if f.params.iter().any(|p| param_is_fp64(&p.kind))
            || f.local_allocs.iter().any(|a| a.elem == ScalarType::F64)
            || f.priv_allocs.iter().any(|a| a.elem == ScalarType::F64)
            || f.ret == Some(ScalarType::F64)
        {
            fp64[fi] = true;
        }
        for_each_stmt(&f.body, &mut |_, st| {
            if matches!(st.kind, StKind::Barrier { .. }) {
                barrier[fi] = true;
            }
            st.for_each_expr(|e| {
                e.walk(&mut |e| {
                    if e.ty() == ScalarType::F64 {
                        fp64[fi] = true;
                    }
                    if let Ex::CallFunc { func, .. } = e {
                        calls[fi].push(*func);
                    }
                })
            });
        });
    }
    // propagate through the (acyclic by construction) call graph
    loop {
        let mut changed = false;
        for fi in 0..module.funcs.len() {
            for &callee in &calls[fi] {
                if fp64[callee] && !fp64[fi] {
                    fp64[fi] = true;
                    changed = true;
                }
                if barrier[callee] && !barrier[fi] {
                    barrier[fi] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (fi, f) in module.funcs.iter_mut().enumerate() {
        f.uses_fp64 = fp64[fi];
        f.has_barrier = barrier[fi];
    }
}

fn param_is_fp64(k: &ParamKind) -> bool {
    matches!(
        k,
        ParamKind::GlobalPtr {
            elem: ScalarType::F64
        } | ParamKind::ConstantPtr {
            elem: ScalarType::F64
        } | ParamKind::LocalPtr {
            elem: ScalarType::F64
        } | ParamKind::Scalar(ScalarType::F64)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clc::parser::parse;

    fn compile(src: &str) -> Module {
        analyze(&parse(src).unwrap()).unwrap_or_else(|e| panic!("sema failed: {e}\n{src}"))
    }

    fn compile_err(src: &str) -> Error {
        match parse(src).and_then(|tu| analyze(&tu)) {
            Ok(_) => panic!("expected failure for:\n{src}"),
            Err(e) => e,
        }
    }

    #[test]
    fn saxpy_lowers() {
        let m = compile(
            "__kernel void saxpy(__global double* y, __global const double* x, double a) {
                 int i = get_global_id(0);
                 y[i] = a * x[i] + y[i];
             }",
        );
        assert_eq!(m.kernels.len(), 1);
        let f = &m.funcs[m.kernels["saxpy"]];
        assert!(f.uses_fp64);
        assert!(!f.has_barrier);
        assert!(
            f.params[0].reads && f.params[0].writes,
            "y is read and written"
        );
        assert!(f.params[1].reads && !f.params[1].writes, "x is read-only");
    }

    #[test]
    fn write_only_param_detected() {
        let m = compile(
            "__kernel void f(__global float* out, __global const float* in) {
                 int i = get_global_id(0);
                 out[i] = in[i];
             }",
        );
        let f = &m.funcs[0];
        assert!(!f.params[0].reads && f.params[0].writes);
        assert!(f.params[1].reads && !f.params[1].writes);
    }

    #[test]
    fn local_array_layout() {
        let m = compile(
            "__kernel void f() {
                 __local float a[10];
                 __local double b[4];
                 a[0] = 1.0f; b[0] = 2.0;
             }",
        );
        let f = &m.funcs[0];
        assert_eq!(f.local_allocs.len(), 2);
        assert_eq!(f.local_allocs[0].byte_offset, 0);
        // 40 bytes of floats, aligned up to 8 for the doubles
        assert_eq!(f.local_allocs[1].byte_offset, 40);
        assert_eq!(f.local_bytes(), 40 + 32);
    }

    #[test]
    fn private_array_allocation() {
        let m = compile("__kernel void f() { float t[16]; t[0] = 0.0f; }");
        assert_eq!(m.funcs[0].priv_allocs.len(), 1);
        assert_eq!(m.funcs[0].priv_bytes_per_lane(), 64);
    }

    #[test]
    fn barrier_statement_and_flags() {
        let m = compile(
            "__kernel void f() { barrier(CLK_LOCAL_MEM_FENCE); \
             barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE); }",
        );
        let f = &m.funcs[0];
        assert!(f.has_barrier);
        assert!(matches!(
            f.body[0].kind,
            StKind::Barrier {
                local_fence: true,
                global_fence: false
            }
        ));
        assert!(matches!(
            f.body[1].kind,
            StKind::Barrier {
                local_fence: true,
                global_fence: true
            }
        ));
    }

    #[test]
    fn fp32_kernel_not_marked_fp64() {
        let m = compile("__kernel void f(__global float* a) { a[0] = 1.0f; }");
        assert!(!m.funcs[0].uses_fp64);
    }

    #[test]
    fn double_arithmetic_marks_fp64() {
        // constant-only double expressions fold away and need no fp64...
        let m = compile("__kernel void f(__global float* a) { a[0] = (float)(1.0 * 2.0); }");
        assert!(
            !m.funcs[0].uses_fp64,
            "folded double constants cost nothing at runtime"
        );
        // ...but double arithmetic on runtime values does (unsuffixed
        // literals are double, so `x * 2.0` promotes to double)
        let m = compile("__kernel void f(__global float* a) { a[0] = (float)(a[0] * 2.0); }");
        assert!(m.funcs[0].uses_fp64);
    }

    #[test]
    fn helper_call_effects_propagate() {
        let m = compile(
            "void store(__global float* p, int i, float v) { p[i] = v; }
             __kernel void k(__global float* out) { store(out, 0, 1.0f); }",
        );
        let k = &m.funcs[m.kernels["k"]];
        assert!(k.params[0].writes, "write through helper must propagate");
    }

    #[test]
    fn helper_barrier_propagates() {
        let m = compile(
            "void sync() { barrier(CLK_LOCAL_MEM_FENCE); }
             __kernel void k() { sync(); }",
        );
        assert!(m.funcs[m.kernels["k"]].has_barrier);
    }

    #[test]
    fn usual_arithmetic_conversions() {
        let m = compile("__kernel void f(__global float* a, int i) { a[0] = i + 1.5f; }");
        // find the Bin node: it must operate at F32 with a cast on i
        let f = &m.funcs[0];
        let mut found = false;
        for_each_stmt(&f.body, &mut |_, st| {
            st.for_each_expr(|e| {
                e.walk(&mut |e| {
                    if let Ex::Bin {
                        op: BOp::Add, ty, ..
                    } = e
                    {
                        assert_eq!(*ty, ScalarType::F32);
                        found = true;
                    }
                })
            });
        });
        assert!(found);
    }

    #[test]
    fn condition_normalised_to_bool() {
        let m = compile("__kernel void f(int n) { if (n) { } while (n - 1) { break; } }");
        let StKind::If { cond, .. } = &m.funcs[0].body[0].kind else {
            panic!()
        };
        assert_eq!(cond.ty(), ScalarType::Bool);
    }

    #[test]
    fn for_loop_lowering() {
        let m = compile(
            "__kernel void f(__global int* a, int n) {
                 for (int i = 0; i < n; i += 2) { a[i] = i; }
             }",
        );
        let body = &m.funcs[0].body;
        // init SetSlot followed by Loop with non-empty step
        assert!(matches!(body[0].kind, StKind::SetSlot { .. }));
        let StKind::Loop {
            step, check_first, ..
        } = &body[1].kind
        else {
            panic!()
        };
        assert!(*check_first && !step.is_empty());
    }

    #[test]
    fn do_while_checks_after() {
        let m = compile("__kernel void f(int n) { do { n = n - 1; } while (n > 0); }");
        let StKind::Loop { check_first, .. } = &m.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(!check_first);
    }

    #[test]
    fn shift_result_follows_left_operand() {
        let m = compile("__kernel void f(__global uint* a, uint x) { a[0] = x >> 3; }");
        let mut seen = false;
        for_each_stmt(&m.funcs[0].body, &mut |_, st| {
            st.for_each_expr(|e| {
                e.walk(&mut |e| {
                    if let Ex::Bin {
                        op: BOp::Shr, ty, ..
                    } = e
                    {
                        assert_eq!(*ty, ScalarType::U32);
                        seen = true;
                    }
                })
            });
        });
        assert!(seen);
    }

    #[test]
    fn pointer_variable_and_arithmetic() {
        compile(
            "__kernel void f(__global float* a, int i) {
                 __global float* p = a + i;
                 *p = 1.0f;
                 p[1] = 2.0f;
             }",
        );
    }

    #[test]
    fn atomic_lowering() {
        let m = compile("__kernel void f(__global int* c) { atomic_add(c, 1); }");
        let f = &m.funcs[0];
        assert!(f.params[0].reads && f.params[0].writes);
    }

    #[test]
    fn max_min_dispatch_on_type() {
        let m = compile(
            "__kernel void f(__global float* a, __global int* b) {
                 a[0] = max(a[1], 2.0f);
                 b[0] = max(b[1], 2);
             }",
        );
        let mut fmax = 0;
        let mut imax = 0;
        for_each_stmt(&m.funcs[0].body, &mut |_, st| {
            st.for_each_expr(|e| {
                e.walk(&mut |e| {
                    if let Ex::CallBuiltin { b, .. } = e {
                        match b {
                            Builtin::Fmax => fmax += 1,
                            Builtin::MaxI => imax += 1,
                            _ => {}
                        }
                    }
                })
            });
        });
        assert_eq!((fmax, imax), (1, 1));
    }

    #[test]
    fn errors() {
        assert!(compile_err("__kernel int f() { return 1; }")
            .to_string()
            .contains("kernels must return void"));
        assert!(compile_err("__kernel void f() { g(); }")
            .to_string()
            .contains("unknown function"));
        assert!(compile_err("__kernel void f(int a) { a = b; }")
            .to_string()
            .contains("undeclared"));
        assert!(compile_err("__kernel void f() { break; }")
            .to_string()
            .contains("outside"));
        assert!(compile_err("void h() { __local float s[4]; }")
            .to_string()
            .contains("kernel functions"));
        assert!(
            compile_err("__kernel void f(__constant float* c) { c[0] = 1.0f; }")
                .to_string()
                .contains("__constant")
        );
        assert!(
            compile_err("__kernel void f(int n) { int m = n; int x = barrier(m); }")
                .to_string()
                .contains("statement")
        );
        assert!(compile_err("__kernel void f() { int i; int i; }")
            .to_string()
            .contains("redeclared"));
        assert!(
            compile_err("__kernel void k() {} __kernel void j() { k(); }")
                .to_string()
                .contains("cannot be called")
        );
    }

    #[test]
    fn shadowing_in_inner_scope_allowed() {
        compile("__kernel void f(int i) { { int i = 2; i = i + 1; } }");
    }

    #[test]
    fn const_array_length_expressions() {
        let m = compile("__kernel void f() { __local float s[4 * 8 + 2]; s[0] = 0.0f; }");
        assert_eq!(m.funcs[0].local_allocs[0].len, 34);
        assert!(
            compile_err("__kernel void f(int n) { __local float s[n]; }")
                .to_string()
                .contains("compile-time constant")
        );
    }

    #[test]
    fn duplicate_function_rejected() {
        assert!(compile_err("void f() {} void f() {}")
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn shadowing_builtin_function_rejected() {
        assert!(compile_err("float sqrt(float x) { return x; }")
            .to_string()
            .contains("built-in"));
    }

    #[test]
    fn select_from_ternary() {
        let m =
            compile("__kernel void f(__global float* a, int i) { a[0] = i > 0 ? 1.0f : 2.0f; }");
        let mut seen = false;
        for_each_stmt(&m.funcs[0].body, &mut |_, st| {
            st.for_each_expr(|e| {
                e.walk(&mut |e| {
                    if matches!(e, Ex::Select { .. }) {
                        seen = true;
                    }
                })
            });
        });
        assert!(seen);
    }
}
