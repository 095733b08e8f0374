//! Kernel capture: the thread-local recorder and the control-flow
//! constructs of the HPL kernel language.
//!
//! The paper's C++ HPL closes blocks with `endif_`/`endfor_` macros; in
//! Rust, closures delimit blocks, so `if_(cond, || { ... })` needs no
//! terminator. The semantics are identical: executing the kernel function
//! under an active recorder emits IR instead of computing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{Expr, IntoExpr};
use crate::ir::{CType, HStmt, HStmtKind, MemFlag, Node, ParamRecord, RecordSite, RecordedKernel};
use crate::scalar::{HplScalar, Scalar};

thread_local! {
    /// The kernel this thread is recording, if any.
    static RECORDING: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// The in-progress recording of one kernel.
pub(crate) struct Recorder {
    pub params: Vec<ParamRecord>,
    /// array handle id → parameter index
    pub array_params: HashMap<u64, usize>,
    /// scalar handle id → parameter index
    pub scalar_params: HashMap<u64, usize>,
    /// array handle id → kernel-local declaration id
    pub local_arrays: HashMap<u64, u32>,
    /// scalar handle id → kernel-local variable id
    pub local_vars: HashMap<u64, (u32, CType)>,
    /// statement block stack; index 0 is the kernel body
    pub blocks: Vec<Vec<HStmt>>,
    next_id: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            params: Vec::new(),
            array_params: HashMap::new(),
            scalar_params: HashMap::new(),
            local_arrays: HashMap::new(),
            local_vars: HashMap::new(),
            blocks: vec![Vec::new()],
            next_id: 0,
        }
    }

    /// Allocate a fresh variable/declaration id.
    pub fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Append a statement to the innermost open block.
    pub fn push_stmt(&mut self, s: HStmt) {
        self.blocks
            .last_mut()
            .expect("block stack never empty")
            .push(s);
    }
}

/// Is a kernel currently being captured on this thread?
pub fn is_recording() -> bool {
    RECORDING.with(|r| r.borrow().is_some())
}

/// Run `f` with the active recorder. Panics if no capture is in progress —
/// which means an HPL kernel construct was used outside `eval()`.
pub(crate) fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDING.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().unwrap_or_else(|| {
            panic!(
                "HPL kernel construct used outside a kernel: control flow (if_/for_/...), \
                 `Array::at`, and `barrier` are only valid while `eval()` records a kernel"
            )
        });
        f(rec)
    })
}

/// Like [`with_recorder`] but returns `None` when not recording.
pub(crate) fn try_with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDING.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Capture a kernel: runs `body` (which registers params and then invokes
/// the user kernel function) under a fresh recorder and returns the
/// recorded kernel. Used by [`crate::eval`].
pub(crate) fn capture(name: String, body: impl FnOnce()) -> RecordedKernel {
    RECORDING.with(|r| {
        let prev = r.borrow_mut().replace(Recorder::new());
        assert!(
            prev.is_none(),
            "nested kernel capture: eval() called inside a kernel function"
        );
    });
    // ensure the recorder is cleared even if body panics
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            RECORDING.with(|r| *r.borrow_mut() = None);
        }
    }
    let guard = Guard;
    body();
    let rec = RECORDING
        .with(|r| r.borrow_mut().take())
        .expect("recorder present");
    drop(guard);
    assert_eq!(
        rec.blocks.len(),
        1,
        "unbalanced control-flow blocks during capture"
    );
    RecordedKernel {
        name,
        params: rec.params,
        body: rec.blocks.into_iter().next().expect("body block"),
    }
}

// ---- control flow constructs ---------------------------------------------------

fn record_block(body: impl FnOnce()) -> Vec<HStmt> {
    with_recorder(|r| r.blocks.push(Vec::new()));
    body();
    with_recorder(|r| r.blocks.pop().expect("matching block"))
}

/// `if_(cond, || { ... })` — conditional execution inside a kernel.
#[track_caller]
pub fn if_(cond: Expr<bool>, body: impl FnOnce()) {
    let site = RecordSite::here();
    let then_blk = record_block(body);
    with_recorder(|r| {
        r.push_stmt(HStmt::new(
            HStmtKind::If {
                cond: cond.node(),
                then_blk,
                else_blk: Vec::new(),
            },
            site,
        ))
    });
}

/// `if_else(cond, || { ... }, || { ... })`.
#[track_caller]
pub fn if_else(cond: Expr<bool>, then_body: impl FnOnce(), else_body: impl FnOnce()) {
    let site = RecordSite::here();
    let then_blk = record_block(then_body);
    let else_blk = record_block(else_body);
    with_recorder(|r| {
        r.push_stmt(HStmt::new(
            HStmtKind::If {
                cond: cond.node(),
                then_blk,
                else_blk,
            },
            site,
        ))
    });
}

/// `for_(from, to, |i| { ... })` — counted loop `for (i = from; i < to; i++)`.
/// The closure receives the loop variable as an expression.
#[track_caller]
pub fn for_(from: impl IntoExpr<i32>, to: impl IntoExpr<i32>, body: impl FnOnce(Expr<i32>)) {
    for_step(from, to, 1, body)
}

/// `for_step(from, to, step, |i| { ... })` — `for (i = from; i < to; i += step)`.
#[track_caller]
pub fn for_step(
    from: impl IntoExpr<i32>,
    to: impl IntoExpr<i32>,
    step: impl IntoExpr<i32>,
    body: impl FnOnce(Expr<i32>),
) {
    let site = RecordSite::here();
    let from = from.into_expr();
    let to = to.into_expr();
    let step = step.into_expr();
    let var = with_recorder(|r| r.fresh_id());
    let loop_var = Expr::<i32>::from_node(Arc::new(Node::Var(var, CType::I32)));
    let body_blk = record_block(|| body(loop_var));
    with_recorder(|r| {
        r.push_stmt(HStmt::new(
            HStmtKind::For {
                var,
                cty: CType::I32,
                declares: true,
                from: from.node(),
                to: to.node(),
                step: step.node(),
                body: body_blk,
            },
            site,
        ))
    });
}

/// Counted loop over an existing kernel variable (the paper's
/// `for_(i = from, i < to, i += step)` shape with a user-declared `Int i`).
#[track_caller]
pub fn for_var<T: HplScalar>(
    var: &Scalar<T>,
    from: impl IntoExpr<T>,
    to: impl IntoExpr<T>,
    step: impl IntoExpr<T>,
    body: impl FnOnce(),
) {
    let site = RecordSite::here();
    let from = from.into_expr();
    let to = to.into_expr();
    let step = step.into_expr();
    let var_id = var.kernel_var_id().unwrap_or_else(|| {
        panic!("for_var requires a kernel-local variable (a Scalar created inside the kernel)")
    });
    let body_blk = record_block(body);
    with_recorder(|r| {
        r.push_stmt(HStmt::new(
            HStmtKind::For {
                var: var_id,
                cty: T::CTYPE,
                declares: false,
                from: from.node(),
                to: to.node(),
                step: step.node(),
                body: body_blk,
            },
            site,
        ))
    });
}

/// `while_(cond, || { ... })`.
#[track_caller]
pub fn while_(cond: Expr<bool>, body: impl FnOnce()) {
    let site = RecordSite::here();
    let body_blk = record_block(body);
    with_recorder(|r| {
        r.push_stmt(HStmt::new(
            HStmtKind::While {
                cond: cond.node(),
                body: body_blk,
            },
            site,
        ))
    });
}

/// Early exit of the current work-item (`return;`).
#[track_caller]
pub fn return_() {
    let site = RecordSite::here();
    with_recorder(|r| r.push_stmt(HStmt::new(HStmtKind::ReturnVoid, site)));
}

// ---- barrier ---------------------------------------------------------------------

/// Memory-consistency scope of a [`barrier`] (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncFlags(u8);

/// Consistent view of local (scratchpad) memory after the barrier.
pub const LOCAL: SyncFlags = SyncFlags(1);
/// Consistent view of global memory after the barrier.
pub const GLOBAL: SyncFlags = SyncFlags(2);

impl std::ops::BitOr for SyncFlags {
    type Output = SyncFlags;
    fn bitor(self, rhs: SyncFlags) -> SyncFlags {
        SyncFlags(self.0 | rhs.0)
    }
}

/// Work-group barrier: synchronises all threads of the local domain.
/// `barrier(LOCAL)`, `barrier(GLOBAL)` or `barrier(LOCAL | GLOBAL)`.
#[track_caller]
pub fn barrier(flags: SyncFlags) {
    let site = RecordSite::here();
    with_recorder(|r| {
        r.push_stmt(HStmt::new(
            HStmtKind::Barrier {
                local: flags.0 & 1 != 0,
                global: flags.0 & 2 != 0,
            },
            site,
        ))
    });
}

// ---- local array declaration helper used by Array -----------------------------------

#[track_caller]
pub(crate) fn record_array_decl(array_id: u64, cty: CType, mem: MemFlag, dims: &[usize]) -> u32 {
    let site = RecordSite::here();
    with_recorder(|r| {
        let decl = r.fresh_id();
        r.local_arrays.insert(array_id, decl);
        r.push_stmt(HStmt::new(
            HStmtKind::DeclArray {
                decl,
                cty,
                mem,
                dims: dims.to_vec(),
            },
            site,
        ));
        decl
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_balanced_body() {
        let k = capture("t".into(), || {
            if_(
                Expr::<bool>::from_node(Arc::new(Node::LitBool(true))),
                || {},
            );
        });
        assert_eq!(k.name, "t");
        assert_eq!(k.body.len(), 1);
        assert!(matches!(k.body[0].kind, HStmtKind::If { .. }));
        assert!(
            k.body[0]
                .site
                .is_some_and(|s| s.file.ends_with("kernel.rs")),
            "capture records the DSL call site: {:?}",
            k.body[0].site
        );
        assert!(!is_recording(), "recorder cleared after capture");
    }

    #[test]
    fn nested_blocks_nest_statements() {
        let k = capture("t".into(), || {
            for_(0, 4, |_i| {
                if_(
                    Expr::<bool>::from_node(Arc::new(Node::LitBool(true))),
                    || {
                        barrier(LOCAL);
                    },
                );
            });
        });
        let HStmtKind::For { body, .. } = &k.body[0].kind else {
            panic!()
        };
        let HStmtKind::If { then_blk, .. } = &body[0].kind else {
            panic!()
        };
        assert!(matches!(
            then_blk[0].kind,
            HStmtKind::Barrier {
                local: true,
                global: false
            }
        ));
    }

    #[test]
    fn barrier_flags_combine() {
        let k = capture("t".into(), || barrier(LOCAL | GLOBAL));
        assert!(matches!(
            k.body[0].kind,
            HStmtKind::Barrier {
                local: true,
                global: true
            }
        ));
        let k = capture("t".into(), || barrier(GLOBAL));
        assert!(matches!(
            k.body[0].kind,
            HStmtKind::Barrier {
                local: false,
                global: true
            }
        ));
    }

    #[test]
    #[should_panic(expected = "outside a kernel")]
    fn constructs_outside_eval_panic() {
        barrier(LOCAL);
    }

    #[test]
    fn recorder_cleared_on_panic() {
        let result = std::panic::catch_unwind(|| {
            capture("t".into(), || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(
            !is_recording(),
            "poisoned recorder would break the next eval"
        );
    }

    #[test]
    fn for_step_records_step() {
        let k = capture("t".into(), || {
            for_step(0, 64, 8, |_i| {});
        });
        let HStmtKind::For { step, .. } = &k.body[0].kind else {
            panic!()
        };
        assert_eq!(**step, Node::LitI(8, CType::I32));
    }
}
