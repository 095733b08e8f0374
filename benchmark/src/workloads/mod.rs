//! The workloads. Each is a closed loop: a client issues its next request
//! only after the previous one completed.

pub mod bulk;
pub mod cold_compile;
pub mod five;
pub mod launch_chain;
pub mod service_soak;

use crate::common::{Cfg, EndToEnd};
use crate::trace::Tracer;

/// Name and one-line reason of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "launch_chain",
        "warm 64-node Floyd-Warshall, 64 dependent launches a pass through hpl::eval: per-launch fixed cost dominates, the VM does little, clc nothing",
    ),
    (
        "bulk_kernels",
        "the five paper benchmarks at paper-scaled sizes, warm cache, plain Tesla: the exec::wg bytecode VM does nearly all the work",
    ),
    (
        "bulk_cached",
        "the same passes on tesla_c2050_cached: every global transaction is also replayed through prof::cache, so VM and cache-model costs can move apart",
    ),
    (
        "cold_compile",
        "every request compiles from nothing (HPL cold evals, handwritten and seeded synthetic OpenCL C at -O0/-O1/-O2): hpl record/codegen and clc do the work",
    ),
    (
        "service_soak",
        "two tenants on serve::Service running a seeded blocking/async/partitioned mix: shared binary cache, sessions, partitioner, async sched and obs tracing",
    ),
];

/// Simulator worker threads (`OCLSIM_THREADS`) and closed-loop client
/// threads of a workload on a machine with `nproc` cores: at most
/// `min(nproc, 4)` runnable threads either way.
pub fn threads(workload: &str, nproc: usize) -> (usize, usize) {
    match workload {
        // tenants run their work-groups inline (one worker spawns nothing)
        "service_soak" => (1, nproc.clamp(1, 2)),
        _ => (nproc.clamp(1, 4), 1),
    }
}

/// Set-up repetitions of an untraced run (their median is `setup_s`):
/// more where one set-up is short, so each run spends a comparable,
/// measurable time on it.
pub fn setup_reps(workload: &str) -> usize {
    match workload {
        "bulk_kernels" | "bulk_cached" => 3,
        "service_soak" => 7,
        _ => 25,
    }
}

pub fn run(workload: &str, cfg: &Cfg) -> Result<EndToEnd, String> {
    match workload {
        "launch_chain" => launch_chain::run(cfg),
        "bulk_kernels" => bulk::run(cfg, false),
        "bulk_cached" => bulk::run(cfg, true),
        "cold_compile" => cold_compile::run(cfg),
        "service_soak" => service_soak::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The traced run of a workload: its set-up, the probes of the layers it
/// exercises on that state, then the replay (each in the workload's file).
/// The probes come first: some modeled seconds are timeline differences
/// whose last bits depend on what ran before, and everything before the
/// time-boxed replay repeats exactly from run to run.
pub fn trace(workload: &str, cfg: &Cfg, tr: &mut Tracer) -> Result<(), String> {
    match workload {
        "launch_chain" => launch_chain::trace(cfg, tr),
        "bulk_kernels" => bulk::trace(cfg, false, tr),
        "bulk_cached" => bulk::trace(cfg, true, tr),
        "cold_compile" => cold_compile::trace(cfg, tr),
        "service_soak" => service_soak::trace(cfg, tr),
        other => Err(format!("unknown workload `{other}`")),
    }
}
