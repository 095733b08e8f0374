//! # HPL — Heterogeneous Programming Library
//!
//! A Rust reproduction of the library presented in *"A Portable
//! High-Productivity Approach to Program Heterogeneous Systems"* (Bozkus &
//! Fraguela, IPDPS 2012). HPL lets you write data-parallel **kernels** as
//! ordinary Rust functions over HPL datatypes; invoking them through
//! [`eval()`](eval()) records the computation, generates OpenCL C at runtime,
//! compiles it with the backend (here the [`oclsim`] simulated OpenCL
//! platform), caches the result, and manages every buffer and host↔device
//! transfer automatically.
//!
//! ## Quick start (the paper's SAXPY, Figure 3)
//!
//! ```
//! use hpl::prelude::*;
//!
//! // an HPL kernel: an ordinary function over HPL datatypes
//! fn saxpy(y: &Array<f64, 1>, x: &Array<f64, 1>, a: &Double) {
//!     y.at(idx()).assign(a.v() * x.at(idx()) + y.at(idx()));
//! }
//!
//! let y = Array::<f64, 1>::from_vec([1000], vec![1.0; 1000]);
//! let x = Array::<f64, 1>::from_vec([1000], vec![2.0; 1000]);
//! let a = Double::new(3.0);
//!
//! eval(saxpy).run((&y, &x, &a)).unwrap();
//!
//! assert_eq!(y.get(0), 3.0 * 2.0 + 1.0);
//! ```
//!
//! ## The programming model (paper §II)
//!
//! - The **host** runs ordinary Rust; kernels run on **devices** in SPMD
//!   fashion over a *global domain* of up to three dimensions, optionally
//!   tiled into *local domains* (work-groups) that share scratchpad memory
//!   and synchronise with [`barrier`].
//! - [`Array<T, N>`](Array) values live in global, constant, local, or
//!   private memory ([`MemFlag`]); scalars ([`Int`], [`Double`], ...) are
//!   passed by value.
//! - Kernels identify their work-item through the predefined variables
//!   [`idx`]/[`idy`]/[`idz`], [`lidx`].., [`gidx`].., and the domain sizes
//!   [`szx`].., [`lszx`].., [`ngroupsx`]...
//! - Control flow inside kernels uses [`if_`], [`if_else`], [`for_`],
//!   [`for_step`], [`for_var`], [`while_`] — closures replace the paper's
//!   `endif_`/`endfor_` terminators.
//!
//! ## Performance model
//!
//! [`eval()`](eval()) returns an [`EvalProfile`] separating HPL's own (measured)
//! overheads — capture, code generation, backend compilation — from the
//! (modeled) device execution and transfer times, which is exactly the
//! decomposition the paper's evaluation reports.

#![forbid(unsafe_code)]

pub mod array;
pub mod codegen;
pub mod error;
pub mod eval;
pub mod expr;
pub mod ir;
pub mod kernel;
pub mod math;
pub mod patterns;
pub mod predef;
pub mod profile;
pub mod runtime;
pub mod scalar;
pub mod session;
pub mod telemetry;

pub use array::{Array, ArrayTransferStats, HostData, HostDataMut, HostIndex, KernelIndex};
pub use codegen::{LineMap, LineMapEntry};
pub use error::{Error, Result};
pub use eval::{
    cache_stats, clear_kernel_cache, eval, opt_level, AsyncEval, CacheEntryInfo, CacheStats, Eval,
    EvalProfile, KernelArg, KernelProvenance,
};
pub use expr::{Expr, IntoExpr};
pub use ir::{MemFlag, RecordSite};
pub use kernel::{
    barrier, for_, for_step, for_var, if_, if_else, return_, while_, SyncFlags, GLOBAL, LOCAL,
};
pub use predef::{
    gidx, gidy, gidz, idx, idy, idz, lidx, lidy, lidz, lszx, lszy, lszz, ngroupsx, ngroupsy,
    ngroupsz, szx, szy, szz,
};
pub use profile::{profile, ProfileReport, ProfiledLaunch, ProfiledTransfer};
pub use runtime::{runtime, Config, DeviceEntry, Runtime, RuntimeScope, TransferStats};
pub use scalar::{Double, Float, HplScalar, Int, Long, Scalar, Uint, Ulong};
pub use session::{current_tenant, current_tenant_name, enter_tenant, TenantScope};

/// Lock `m` even if a holder panicked: a panicking lock holder is already
/// a bug being reported elsewhere; never compound it by poisoning every
/// waiter.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Everything a typical HPL program needs.
pub mod prelude {
    pub use crate::array::Array;
    pub use crate::eval::eval;
    pub use crate::kernel::{
        barrier, for_, for_step, for_var, if_, if_else, return_, while_, GLOBAL, LOCAL,
    };
    pub use crate::math;
    pub use crate::predef::*;
    pub use crate::scalar::{Double, Float, Int, Long, Scalar, Uint, Ulong};
}
