//! Profiling and observability for the simulated device.
//!
//! The subsystem has four parts:
//!
//! * [`counters`] — simulated hardware counters (instruction mix, memory
//!   transactions vs. the coalesced minimum, divergence, barrier stalls,
//!   bank conflicts, per-CU occupancy), collected per work-group inside
//!   the interpreter and merged additively so totals are independent of
//!   `OCLSIM_THREADS`.
//! * [`cache`] — a deterministic set-associative tag-array model of the
//!   L1/L2 hierarchy, fed by the same per-warp transaction stream the
//!   coalescing counters charge; active only on device profiles that
//!   declare a [`CacheConfig`] capability.
//! * event timestamps — OpenCL-style QUEUED/SUBMIT/START/END stamps on
//!   every command, exposed through
//!   [`Event::profiling_info`](crate::sched::Event::profiling_info) when
//!   the owning queue has profiling enabled
//!   ([`CommandQueue::set_profiling`](crate::queue::CommandQueue::set_profiling),
//!   the `CL_QUEUE_PROFILING_ENABLE` analog).
//! * [`trace`] — a Chrome `trace_event` JSON exporter that lays kernel
//!   and DMA slices out on the modeled timeline, one track per CU-pool
//!   lane plus one for the DMA engine (loadable in Perfetto or
//!   `chrome://tracing`); [`trace::chrome_trace_with_host`] additionally
//!   injects host-runtime telemetry spans (see [`crate::telemetry`]) as a
//!   synthetic "host runtime" process above the device tracks; [`json`]
//!   holds the dependency-free JSON parser used to schema-check traces in
//!   tests.
//! * [`roofline`] — per-kernel roofline placement: arithmetic intensity
//!   from the counters against the device's compute and bandwidth
//!   ceilings.
//! * [`annotate`] — perf-annotate-style source listings built from the
//!   per-line counter map ([`LaunchCounters::lines`]): each source line
//!   with its counters, share of the kernel's memory transactions, and a
//!   heat marker, rendered through the same gutter format as the
//!   sanitizer's diagnostics.
//!
//! Profiling costs nothing when disabled: every interpreter hook is
//! behind a `collect` flag that defaults to off, and the scheduler
//! always records stamps (it needs them to model overlap anyway).

pub mod annotate;
pub mod cache;
pub mod counters;
pub mod json;
pub mod roofline;
pub mod trace;

pub use annotate::AnnotatedLine;
pub use cache::{CacheConfig, GroupCacheSim, TagArray};
pub use counters::{
    GroupCounters, InstrClass, InstrMix, LaunchCounters, TransferDir, TransferInfo,
};
pub use json::validate_chrome_trace;
pub use roofline::{roofline, RooflinePoint};
pub use trace::{chrome_trace, chrome_trace_with_host, splice_chrome_events};

use crate::device::Device;
use crate::error::Result;
use crate::exec::launch::{run_ndrange_profiled, validate_launch, Geometry};
use crate::program::Kernel;
use crate::timing::TimingBreakdown;

/// Run `kernel` synchronously on `device` with counter collection forced on.
///
/// This bypasses the queue layer (no event, no modeled overlap) and exists
/// for tests and tools that need counters without enabling queue profiling.
/// Engine and claimer count are `device`'s
/// ([`Device::with_exec`](crate::Device::with_exec)).
pub fn profile_launch(
    kernel: &Kernel,
    global: &[usize],
    local: Option<&[usize]>,
    device: &Device,
) -> Result<(TimingBreakdown, LaunchCounters)> {
    let geom = Geometry::new(global, local, device)?;
    let args = kernel.bound_args()?;
    validate_launch(kernel.func_ir(), &args, &geom, device)?;
    let (timing, counters) = run_ndrange_profiled(
        kernel.clone(),
        args,
        geom,
        device.clone(),
        kernel.sanitize(),
        true,
        None,
    )?;
    Ok((timing, counters.expect("collect was requested")))
}
