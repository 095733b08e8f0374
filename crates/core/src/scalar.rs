//! HPL scalar types: the `Int`, `Uint`, `Float`, `Double`, ... of §III-A.
//!
//! A [`Scalar`] created in host code holds a host value and can be passed
//! to kernels by value. A `Scalar` created *inside* a kernel function
//! (while a capture is active) records a private variable declaration
//! instead — mirroring HPL, where the same datatypes serve both roles.

use std::sync::{Arc, Mutex};

use crate::expr::{Expr, IntoExpr};
use crate::ir::{CType, HStmt, HStmtKind, Node, RecordSite};
use crate::kernel::{is_recording, try_with_recorder, with_recorder};
use crate::lock;

/// Rust types usable as HPL scalar/array element types.
pub trait HplScalar: oclsim::DeviceScalar + PartialEq + std::fmt::Debug + Default {
    /// The OpenCL-facing type.
    const CTYPE: CType;
    /// Literal IR node for a value of this type.
    fn lit_node(self) -> Node;
    /// Host-side tagged value (for kernel scalar arguments).
    fn to_value(self) -> oclsim::Value;
}

macro_rules! impl_hpl_scalar {
    ($($t:ty => $ct:ident, $lit:ident, $conv:ty);* $(;)?) => {
        $(impl HplScalar for $t {
            const CTYPE: CType = CType::$ct;
            fn lit_node(self) -> Node { Node::$lit(self as $conv, CType::$ct) }
            fn to_value(self) -> oclsim::Value { oclsim::Value::from(self) }
        })*
    };
}
impl_hpl_scalar! {
    i8  => I8,  LitI, i64;
    i16 => I16, LitI, i64;
    i32 => I32, LitI, i64;
    i64 => I64, LitI, i64;
    u8  => U8,  LitU, u64;
    u16 => U16, LitU, u64;
    u32 => U32, LitU, u64;
    u64 => U64, LitU, u64;
    f32 => F32, LitF, f64;
    f64 => F64, LitF, f64;
}

// scalar handles come from the allocator shared with arrays (see
// `crate::array::next_handle_id`): the alias-pattern cache key compares
// handles across argument kinds, so they must never collide

enum Repr<T> {
    /// Host-side scalar with a current value.
    Host(Mutex<T>),
    /// Kernel-local private variable.
    KernelVar(u32),
}

/// An HPL scalar (see the `Int`, `Uint`, `Float`, `Double`, ... aliases).
///
/// Cheap to clone — clones share the underlying value, like the
/// reference-semantics HPL types in the paper.
pub struct Scalar<T: HplScalar> {
    id: u64,
    repr: Arc<Repr<T>>,
}

impl<T: HplScalar> Clone for Scalar<T> {
    fn clone(&self) -> Self {
        Scalar {
            id: self.id,
            repr: Arc::clone(&self.repr),
        }
    }
}

impl<T: HplScalar> Scalar<T> {
    /// Create a scalar. On the host this holds `v`; inside a kernel it
    /// declares a private variable initialised to `v`.
    #[track_caller]
    pub fn new(v: T) -> Scalar<T> {
        if is_recording() {
            Self::kernel_var(Some(Arc::new(v.lit_node())))
        } else {
            Scalar {
                id: crate::array::next_handle_id(),
                repr: Arc::new(Repr::Host(Mutex::new(v))),
            }
        }
    }

    /// Declare an uninitialised kernel variable (`Int i;` in the paper).
    /// Panics outside a kernel — host scalars always have a value.
    #[track_caller]
    pub fn var() -> Scalar<T> {
        assert!(
            is_recording(),
            "Scalar::var() declares a kernel variable and is only valid inside a kernel; \
             use Scalar::new(value) on the host"
        );
        Self::kernel_var(None)
    }

    #[track_caller]
    fn kernel_var(init: Option<Arc<Node>>) -> Scalar<T> {
        let site = RecordSite::here();
        let var = with_recorder(|r| {
            let var = r.fresh_id();
            r.push_stmt(HStmt::new(
                HStmtKind::DeclScalar {
                    var,
                    cty: T::CTYPE,
                    init,
                },
                site,
            ));
            var
        });
        let s = Scalar {
            id: crate::array::next_handle_id(),
            repr: Arc::new(Repr::KernelVar(var)),
        };
        with_recorder(|r| {
            r.local_vars.insert(s.id, (var, T::CTYPE));
        });
        s
    }

    /// Unique handle id (used by the recorder's parameter registry).
    pub(crate) fn handle_id(&self) -> u64 {
        self.id
    }

    /// The kernel variable id, when this is a kernel-local variable.
    pub(crate) fn kernel_var_id(&self) -> Option<u32> {
        match &*self.repr {
            Repr::KernelVar(v) => Some(*v),
            Repr::Host(_) => None,
        }
    }

    /// Host value. Panics for kernel variables.
    pub fn get(&self) -> T {
        match &*self.repr {
            Repr::Host(v) => *lock(v),
            Repr::KernelVar(_) => {
                panic!("Scalar::get() reads a host value; use .v() inside kernels")
            }
        }
    }

    /// Set the host value. Panics for kernel variables.
    pub fn set(&self, v: T) {
        match &*self.repr {
            Repr::Host(slot) => *lock(slot) = v,
            Repr::KernelVar(_) => {
                panic!("Scalar::set() writes a host value; use .assign() inside kernels")
            }
        }
    }

    /// The scalar as a kernel expression. Valid only while recording:
    /// resolves to the kernel parameter, the kernel variable, or — for a
    /// host scalar that is not a parameter — its captured literal value
    /// (HPL "captures variables defined outside kernels").
    pub fn v(&self) -> Expr<T> {
        let node = match &*self.repr {
            Repr::KernelVar(var) => Node::Var(*var, T::CTYPE),
            Repr::Host(value) => {
                let param = try_with_recorder(|r| r.scalar_params.get(&self.id).copied());
                match param {
                    Some(Some(p)) => Node::ScalarParam(p),
                    Some(None) => lock(value).lit_node(),
                    None => panic!(
                        "Scalar::v() builds a kernel expression and is only valid inside a kernel"
                    ),
                }
            }
        };
        Expr::from_node(Arc::new(node))
    }

    /// Kernel-side assignment: `s.assign(e)` records `s = e;`.
    #[track_caller]
    pub fn assign(&self, e: impl IntoExpr<T>) {
        self.v().assign(e)
    }

    /// Kernel-side compound assignment `s += e`.
    #[track_caller]
    pub fn assign_add(&self, e: impl IntoExpr<T>) {
        self.v().assign_add(e)
    }

    /// Kernel-side compound assignment `s -= e`.
    #[track_caller]
    pub fn assign_sub(&self, e: impl IntoExpr<T>) {
        self.v().assign_sub(e)
    }

    /// Kernel-side compound assignment `s *= e`.
    #[track_caller]
    pub fn assign_mul(&self, e: impl IntoExpr<T>) {
        self.v().assign_mul(e)
    }

    /// Kernel-side compound assignment `s /= e`.
    #[track_caller]
    pub fn assign_div(&self, e: impl IntoExpr<T>) {
        self.v().assign_div(e)
    }
}

impl<T: HplScalar> std::fmt::Debug for Scalar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.repr {
            Repr::Host(v) => write!(f, "Scalar({:?})", *lock(v)),
            Repr::KernelVar(id) => write!(f, "Scalar(kernel var v{id})"),
        }
    }
}

/// `int` scalar (paper: `Int`).
pub type Int = Scalar<i32>;
/// `uint` scalar (paper: `Uint`).
pub type Uint = Scalar<u32>;
/// `long` scalar.
pub type Long = Scalar<i64>;
/// `ulong` scalar.
pub type Ulong = Scalar<u64>;
/// `float` scalar (paper: `Float`).
pub type Float = Scalar<f32>;
/// `double` scalar (paper: `Double`).
pub type Double = Scalar<f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::capture;

    #[test]
    fn host_scalar_get_set() {
        let a = Double::new(1.5);
        assert_eq!(a.get(), 1.5);
        a.set(2.5);
        assert_eq!(a.get(), 2.5);
        let b = a.clone();
        b.set(3.0);
        assert_eq!(a.get(), 3.0, "clones share state (reference semantics)");
    }

    #[test]
    fn kernel_scalar_records_declaration() {
        let k = capture("t".into(), || {
            let i = Int::new(5);
            i.assign(i.v() + 1);
        });
        assert!(matches!(
            k.body[0].kind,
            HStmtKind::DeclScalar {
                cty: CType::I32,
                init: Some(_),
                ..
            }
        ));
        assert!(matches!(k.body[1].kind, HStmtKind::Assign { .. }));
        assert!(
            k.body[0]
                .site
                .is_some_and(|s| s.file.ends_with("scalar.rs")),
            "Int::new records the declaration site: {:?}",
            k.body[0].site
        );
    }

    #[test]
    fn var_records_uninitialised_declaration() {
        let k = capture("t".into(), || {
            let _i = Int::var();
        });
        assert!(matches!(
            k.body[0].kind,
            HStmtKind::DeclScalar { init: None, .. }
        ));
    }

    #[test]
    fn unregistered_host_scalar_is_captured_as_literal() {
        let outside = Float::new(4.25);
        let k = capture("t".into(), || {
            let x = Float::new(0.0);
            x.assign(outside.v());
        });
        let HStmtKind::Assign { rhs, .. } = &k.body[1].kind else {
            panic!()
        };
        assert_eq!(**rhs, Node::LitF(4.25, CType::F32));
    }

    #[test]
    #[should_panic(expected = "only valid inside a kernel")]
    fn v_outside_kernel_panics() {
        let a = Int::new(1);
        let _ = a.v();
    }

    #[test]
    #[should_panic(expected = "only valid inside a kernel")]
    fn var_outside_kernel_panics() {
        let _ = Int::var();
    }

    #[test]
    fn type_aliases_have_expected_ctypes() {
        assert_eq!(<i32 as HplScalar>::CTYPE, CType::I32);
        assert_eq!(<f64 as HplScalar>::CTYPE, CType::F64);
        assert_eq!(<u64 as HplScalar>::CTYPE, CType::U64);
    }
}
