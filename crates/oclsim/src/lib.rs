//! # oclsim — a simulated OpenCL platform
//!
//! `oclsim` is a from-scratch, pure-Rust stand-in for an OpenCL
//! implementation: it accepts **OpenCL C source strings**, compiles them
//! with its own front-end (preprocessor → lexer → parser → semantic
//! analysis → typed IR), and executes kernels on a **simulated
//! data-parallel device**. Work-groups are scheduled across host worker
//! threads; inside a work-group, work-items run in SIMT lock-step with
//! divergence masks, which yields exact OpenCL barrier and local-memory
//! semantics (and turns the undefined behaviours of real devices —
//! out-of-bounds accesses, divergent barriers — into trapped errors).
//!
//! Because no GPU is attached, performance is *modeled*, not measured: the
//! interpreter counts architectural events (instructions per warp,
//! coalesced memory transactions, barriers) and a roofline-style analytic
//! model over a [`device::DeviceProfile`] converts them to a device time.
//! The built-in profiles mirror the testbed of the HPL paper: a Tesla
//! C2050/C2070-class GPU, a Quadro FX 380-class GPU (no fp64), and a Xeon
//! host CPU.
//!
//! ## Example
//!
//! ```
//! use oclsim::{Platform, Context, CommandQueue, Program, MemAccess};
//!
//! let platform = Platform::default_platform();
//! let device = platform.default_accelerator().unwrap();
//! let ctx = Context::new(&[device.clone()]).unwrap();
//! let queue = CommandQueue::new(&ctx, &device).unwrap();
//!
//! let src = r#"
//!     __kernel void axpy(__global float* y, __global const float* x, float a) {
//!         size_t i = get_global_id(0);
//!         y[i] = a * x[i] + y[i];
//!     }
//! "#;
//! let program = Program::from_source(&ctx, src);
//! program.build("").unwrap();
//! let kernel = program.kernel("axpy").unwrap();
//!
//! let x = ctx.create_buffer_from(&[1.0f32; 8], MemAccess::ReadOnly).unwrap();
//! let y = ctx.create_buffer_from(&[2.0f32; 8], MemAccess::ReadWrite).unwrap();
//! kernel.set_arg_buffer(0, &y).unwrap();
//! kernel.set_arg_buffer(1, &x).unwrap();
//! kernel.set_arg_scalar(2, 3.0f32).unwrap();
//! let event = queue.enqueue_ndrange(&kernel, &[8], None).unwrap();
//!
//! assert_eq!(y.read_vec::<f32>(0, 8).unwrap(), vec![5.0; 8]);
//! assert!(event.modeled_seconds() > 0.0);
//! ```

pub mod buffer;
pub mod clc;
pub mod context;
pub mod device;
pub mod error;
pub mod exec;
pub mod obs;
pub mod platform;
pub mod prof;
pub mod program;
pub mod queue;
pub mod sched;
pub mod serve;
pub mod telemetry;
pub mod timing;
pub mod types;

pub use buffer::{Buffer, MemAccess};
pub use clc::analysis::{Analysis, DiagKind, Diagnostic, Severity, Strictness};
pub use clc::opt::{OptLevel, PassStats};
pub use context::Context;
pub use device::{Device, DeviceProfile, DeviceType};
pub use error::{Error, Result};
pub use exec::config::{backend_name, set_backend, Backend, ExecConfig};
pub use obs::{take_postmortems, Postmortem, RequestTrace, TraceId};
pub use platform::Platform;
pub use prof::{
    chrome_trace, chrome_trace_with_host, profile_launch, roofline, validate_chrome_trace,
    CacheConfig, GroupCounters, InstrClass, InstrMix, LaunchCounters, RooflinePoint, TransferDir,
    TransferInfo,
};
pub use program::{Kernel, Program};
pub use queue::{CommandQueue, ReadHandle};
pub use sched::{wait_for_events, CommandKind, Event, EventStatus, TimelineStamps};
pub use timing::{GroupStats, TimingBreakdown};
pub use types::{DeviceScalar, ScalarType, Value};

/// Lock `m` even if a holder panicked: a panicking lock holder is already
/// a bug being reported elsewhere; never compound it by poisoning every
/// waiter.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
