//! NDRange launch: geometry validation and parallel execution of
//! work-groups by the calling thread and the device's worker pool.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::buffer::{Buffer, MemAccess};
use crate::clc::ast::AddrSpace;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::exec::config::Backend;
use crate::exec::interp::{GroupRun, LaunchEnv};
use crate::exec::ir::{FuncIr, ParamKind};
use crate::exec::pool::Job;
use crate::exec::wg;
use crate::lock;
use crate::prof::cache::{L2Record, TagArray};
use crate::prof::counters::{GroupCounters, LaunchCounters};
use crate::program::Kernel;
use crate::timing::{cu_loads, model_launch, CostModel, GroupStats, TimingBreakdown};
use crate::types::ScalarType;

/// A kernel argument bound for a launch.
#[derive(Debug, Clone)]
pub enum BoundArg {
    /// A device buffer bound to a `__global` or `__constant` pointer.
    Buffer { buffer: Buffer, space: AddrSpace },
    /// A scalar passed by value (canonical bits).
    Scalar { bits: u64, ty: ScalarType },
}

/// Launch geometry (global domain, local domain, dimensionality).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub global: [usize; 3],
    pub local: [usize; 3],
    pub work_dim: u32,
}

impl Geometry {
    /// Construct and validate a geometry; `local = None` lets the runtime
    /// pick a local size (mirroring passing NULL to clEnqueueNDRangeKernel).
    pub fn new(global: &[usize], local: Option<&[usize]>, device: &Device) -> Result<Geometry> {
        if global.is_empty() || global.len() > 3 {
            return Err(Error::InvalidLaunch(format!(
                "global domain must have 1-3 dimensions, got {}",
                global.len()
            )));
        }
        if global.contains(&0) {
            return Err(Error::InvalidLaunch(
                "global domain has a zero-sized dimension".into(),
            ));
        }
        let work_dim = global.len() as u32;
        let mut g = [1usize; 3];
        g[..global.len()].copy_from_slice(global);

        let max_wg = device.profile().max_work_group_size;
        let l = match local {
            Some(local) => {
                if local.len() != global.len() {
                    return Err(Error::InvalidLaunch(
                        "local domain must have the same number of dimensions as the global domain"
                            .into(),
                    ));
                }
                let mut l = [1usize; 3];
                l[..local.len()].copy_from_slice(local);
                for d in 0..3 {
                    if l[d] == 0 {
                        return Err(Error::InvalidLaunch("zero-sized local dimension".into()));
                    }
                    if g[d] % l[d] != 0 {
                        return Err(Error::InvalidLaunch(format!(
                            "local size {} does not divide global size {} in dimension {d}",
                            l[d], g[d]
                        )));
                    }
                }
                l
            }
            None => Self::default_local(g, max_wg),
        };
        let checked_product = |dims: [usize; 3]| {
            dims.iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| {
                    Error::InvalidLaunch(format!("domain {dims:?} has more work-items than usize"))
                })
        };
        let group_items = checked_product(l)?;
        if group_items > max_wg {
            return Err(Error::InvalidLaunch(format!(
                "work-group of {group_items} work-items exceeds the device maximum of {max_wg}"
            )));
        }
        // bounds `total_items()`, and `total_groups()` with it: each
        // dimension has at most as many groups as items
        checked_product(g)?;
        Ok(Geometry {
            global: g,
            local: l,
            work_dim,
        })
    }

    /// The library's default local-domain choice: the largest power of two
    /// ≤ min(max_wg, global) that divides the global size in dimension 0,
    /// 1 elsewhere. (This is HPL's "the local domain is chosen by the
    /// library" behaviour.)
    fn default_local(global: [usize; 3], max_wg: usize) -> [usize; 3] {
        let mut l0 = 1usize;
        let mut candidate = 1usize;
        while candidate * 2 <= max_wg.min(global[0]) {
            candidate *= 2;
            if global[0].is_multiple_of(candidate) {
                l0 = candidate;
            }
        }
        [l0, 1, 1]
    }

    /// Work-groups per dimension.
    pub fn num_groups(&self) -> [usize; 3] {
        [
            self.global[0] / self.local[0],
            self.global[1] / self.local[1],
            self.global[2] / self.local[2],
        ]
    }

    /// Total number of work-groups.
    pub fn total_groups(&self) -> usize {
        self.num_groups().iter().product()
    }

    /// Total number of work-items.
    pub fn total_items(&self) -> usize {
        self.global.iter().product()
    }
}

/// Validate that bound arguments match the kernel signature and the device
/// can run the kernel.
pub fn validate_launch(
    kernel: &FuncIr,
    args: &[BoundArg],
    geom: &Geometry,
    device: &Device,
) -> Result<()> {
    let profile = device.profile();
    if kernel.uses_fp64 && !profile.fp64 {
        return Err(Error::UnsupportedCapability(format!(
            "kernel `{}` uses double precision, which `{}` does not support",
            kernel.name, profile.name
        )));
    }
    if kernel.local_bytes() > profile.local_mem_bytes as usize {
        return Err(Error::OutOfResources(format!(
            "kernel `{}` needs {} bytes of local memory; device `{}` has {}",
            kernel.name,
            kernel.local_bytes(),
            profile.name,
            profile.local_mem_bytes
        )));
    }
    if args.len() != kernel.params.len() {
        return Err(Error::InvalidArg {
            kernel: kernel.name.clone(),
            index: args.len().min(kernel.params.len()),
            reason: format!(
                "kernel has {} parameters but {} arguments are bound",
                kernel.params.len(),
                args.len()
            ),
        });
    }
    for (i, (arg, param)) in args.iter().zip(&kernel.params).enumerate() {
        let fail = |reason: String| Error::InvalidArg {
            kernel: kernel.name.clone(),
            index: i,
            reason,
        };
        match (&param.kind, arg) {
            (
                ParamKind::GlobalPtr { .. },
                BoundArg::Buffer {
                    buffer,
                    space: AddrSpace::Global,
                },
            ) => {
                if param.writes && buffer.access() == MemAccess::ReadOnly {
                    return Err(fail(
                        "kernel writes through this parameter but the buffer is read-only".into(),
                    ));
                }
                if param.reads && buffer.access() == MemAccess::WriteOnly {
                    return Err(fail(
                        "kernel reads through this parameter but the buffer is write-only".into(),
                    ));
                }
            }
            (
                ParamKind::ConstantPtr { .. },
                BoundArg::Buffer {
                    buffer,
                    space: AddrSpace::Constant,
                },
            ) => {
                if buffer.len_bytes() > profile.constant_mem_bytes as usize {
                    return Err(fail(format!(
                        "constant buffer of {} bytes exceeds the device's {}-byte constant memory",
                        buffer.len_bytes(),
                        profile.constant_mem_bytes
                    )));
                }
            }
            (ParamKind::Scalar(want), BoundArg::Scalar { ty, .. }) => {
                if want != ty {
                    return Err(fail(format!(
                        "scalar argument has type {}, kernel expects {}",
                        ty.cl_name(),
                        want.cl_name()
                    )));
                }
            }
            _ => {
                return Err(fail("argument kind does not match the parameter".into()));
            }
        }
    }
    // barriers synchronise within a group; a 1-item group is always fine,
    // but groups must fit (already checked in Geometry::new against device)
    let _ = geom;
    Ok(())
}

/// What one group hands back to the launch: its linear id, its stats and
/// its L1-miss stream (replayed through the shared L2 after the launch).
type GroupResult = (usize, GroupStats, Vec<L2Record>);

/// Everything a launch's claimers share. Owned (`'static`), so pool threads
/// can hold it; each claimer builds its borrowed [`LaunchEnv`] from it.
struct LaunchJob {
    kernel: Kernel,
    args: Vec<BoundArg>,
    geom: Geometry,
    device: Device,
    sanitize: bool,
    collect: bool,
    wg_plan: Option<(Arc<wg::ModulePlan>, Arc<wg::KernelPlan>)>,
    /// One past the last linear group id of the launch's span.
    end: usize,
    /// Next linear group id to claim.
    next: AtomicUsize,
    failed: AtomicBool,
    /// The error of the lowest-numbered faulting group. Ids are claimed in
    /// increasing order and a claimed group always runs to its end, so this
    /// is the error a single claimer would have stopped at.
    first_error: Mutex<Option<(usize, Error)>>,
    sinks: Mutex<Sinks>,
}

/// Where claimers fold their results; every merge is a plain sum or an
/// append that is sorted afterwards, so the order of folding is immaterial.
#[derive(Default)]
struct Sinks {
    stats: Vec<GroupResult>,
    counters: GroupCounters,
    lines: BTreeMap<usize, GroupCounters>,
    /// Warp memory accesses of the wg VM by path, `[regular, generic]`.
    mem_paths: [u64; 2],
}

impl Job for LaunchJob {
    /// Claim and run groups until none are left or one has failed, then
    /// fold this claimer's results into the shared sinks.
    fn run(&self) {
        let profile = self.device.profile();
        let env = LaunchEnv {
            module: self.kernel.module(),
            kernel: self.kernel.func_ir(),
            args: &self.args,
            geom: self.geom,
            cost: CostModel::for_device(profile),
            simd: profile.simd_width.max(1) as usize,
            sanitize: self.sanitize,
            collect: self.collect,
            cache: profile.cache,
        };
        let ngroups = self.geom.num_groups();
        let mut local_stats: Vec<GroupResult> = Vec::new();
        let mut local_counters = GroupCounters::default();
        let mut local_lines: BTreeMap<usize, GroupCounters> = BTreeMap::new();
        // one VM per claimer, reset per group: the register frame, lane-id
        // tables and scratch buffers are reused across every group this
        // claimer runs instead of reallocated per group
        let mut wg_run: Option<wg::WgGroupRun> = None;
        loop {
            if self.failed.load(Ordering::Relaxed) {
                break;
            }
            let g = self.next.fetch_add(1, Ordering::Relaxed);
            if g >= self.end {
                break;
            }
            let gx = g % ngroups[0];
            let gy = (g / ngroups[0]) % ngroups[1];
            let gz = g / (ngroups[0] * ngroups[1]);
            let result = if let Some((mplan, kplan)) = &self.wg_plan {
                let run = wg_run
                    .get_or_insert_with(|| wg::WgGroupRun::new(&env, mplan, kplan, [gx, gy, gz]));
                run.reset([gx, gy, gz]);
                // counters stay inside the VM, accumulating across every
                // group this claimer runs; harvested once after the loop
                run.run().map(|()| {
                    let l2 = run.take_l2_stream();
                    (std::mem::take(&mut run.stats), l2, None, None)
                })
            } else {
                let mut run = GroupRun::new(&env, [gx, gy, gz]);
                run.run().map(|()| {
                    let l2 = run.take_l2_stream();
                    (run.stats, l2, run.counters, run.line_counters)
                })
            };
            match result {
                Ok((stats, l2_stream, counters, line_counters)) => {
                    local_stats.push((g, stats, l2_stream));
                    if let Some(c) = &counters {
                        local_counters.merge(c);
                    }
                    if let Some(lines) = &line_counters {
                        for (&line, c) in lines {
                            local_lines.entry(line).or_default().merge(c);
                        }
                    }
                }
                Err(e) => {
                    self.failed.store(true, Ordering::Relaxed);
                    let mut slot = lock(&self.first_error);
                    if slot.as_ref().is_none_or(|&(first, _)| g < first) {
                        *slot = Some((g, e));
                    }
                    break;
                }
            }
        }
        let mut mem_paths = [0; 2];
        if let Some(run) = &mut wg_run {
            mem_paths = [run.mem_regular, run.mem_generic];
            if let Some(c) = run.counters.take() {
                local_counters.merge(&c);
            }
            if let Some(lines) = run.line_counters.take() {
                for (line, c) in lines {
                    local_lines.entry(line).or_default().merge(&c);
                }
            }
        }
        let mut sinks = lock(&self.sinks);
        sinks.stats.extend(local_stats);
        sinks.mem_paths[0] += mem_paths[0];
        sinks.mem_paths[1] += mem_paths[1];
        if self.collect {
            sinks.counters.merge(&local_counters);
            // per-line deltas are plain sums too, so this merge is as
            // order-independent as the totals merge above
            for (line, c) in &local_lines {
                sinks.lines.entry(*line).or_default().merge(c);
            }
        }
    }
}

/// Execute a validated launch; optionally collect profiling counters.
///
/// The engine and the claimer count come from the device's
/// [`ExecConfig`](super::config::ExecConfig). The calling thread claims
/// work-groups itself and asks the device's persistent worker pool
/// (`exec::pool`) for `threads - 1` helpers that run the same claim
/// loop; helpers that are busy elsewhere are never waited for.
///
/// With `collect = false` the interpreter skips every counter hook. With
/// `collect = true` each claimer keeps a thread-local [`GroupCounters`] and
/// folds it into the shared total with a purely additive merge, so the
/// result is independent of claimer count and group completion order.
///
/// `group_span = Some((start, end))` executes only the linearized
/// work-groups in `[start, end)` while **keeping the full geometry**: every
/// builtin (`get_global_id`, `get_num_groups`, `get_global_size`, group
/// ids) reports full-launch values, so a kernel cannot tell it is running
/// as one chunk of a partitioned launch. This is what lets the
/// [`crate::serve`] partitioner split an NDRange across devices with
/// bit-identical results. The modeled timing covers only the span.
pub fn run_ndrange_profiled(
    kernel: Kernel,
    args: Vec<BoundArg>,
    geom: Geometry,
    device: Device,
    sanitize: bool,
    collect: bool,
    group_span: Option<(usize, usize)>,
) -> Result<(TimingBreakdown, Option<LaunchCounters>)> {
    // Resolve the compiled work-group plan. The wg backend needs whole
    // warps it can mask with one `u64` (2 <= simd <= 64), no dynamic race
    // sanitizer (statement-major order), and a kernel the planner accepted;
    // anything else runs on the reference interpreter.
    let module = kernel.module();
    let exec = device.exec();
    let wants_wg = exec.effective_backend() == Backend::Wg;
    let wg_plan = if wants_wg && !sanitize && (2..=64).contains(&device.profile().simd_width) {
        let mplan = wg::module_plan(module);
        module
            .kernels
            .get(&kernel.func_ir().name)
            .and_then(|&fid| mplan.kernels.get(fid).cloned().flatten())
            .and_then(|r| r.ok())
            .map(|kplan| (mplan, kplan))
    } else {
        None
    };
    {
        let m = crate::telemetry::metrics();
        if wg_plan.is_some() {
            m.exec_wg_launches.add(1);
        } else {
            m.exec_ref_launches.add(1);
            if wants_wg {
                m.exec_wg_fallbacks.add(1);
            }
        }
    }
    let _exec_span = crate::telemetry::span("exec", if wg_plan.is_some() { "wg" } else { "ref" });
    let full_total = geom.total_groups();
    let (start, end) = match group_span {
        Some((s, e)) => {
            if s >= e || e > full_total {
                return Err(Error::InvalidLaunch(format!(
                    "group span {s}..{e} is not a non-empty subrange of 0..{full_total}"
                )));
            }
            (s, e)
        }
        None => (0, full_total),
    };
    let span_groups = end - start;

    let nthreads = exec.threads.min(span_groups).max(1);
    let job = Arc::new(LaunchJob {
        kernel,
        args,
        geom,
        device,
        sanitize,
        collect,
        wg_plan,
        end,
        next: AtomicUsize::new(start),
        failed: AtomicBool::new(false),
        first_error: Mutex::new(None),
        sinks: Mutex::new(Sinks {
            stats: Vec::with_capacity(span_groups),
            ..Sinks::default()
        }),
    });
    let device = &job.device;
    device.pool().run(nthreads - 1, &job);

    if let Some((_, e)) = lock(&job.first_error).take() {
        return Err(e);
    }
    // Re-establish linear group order before modeling: float accumulation
    // over the stats is order-sensitive in the last ulp, and the modeled
    // time must be a pure function of the workload, not of which worker
    // finished first.
    let Sinks {
        stats: mut stats_by_group,
        counters: mut totals,
        mut lines,
        mem_paths,
    } = std::mem::take(&mut *lock(&job.sinks));
    // once per launch, not per access: a shared counter bumped from every
    // claimer's inner loop would bounce its cache line between them
    let m = crate::telemetry::metrics();
    m.exec_wg_mem_regular.add(mem_paths[0]);
    m.exec_wg_mem_generic.add(mem_paths[1]);
    stats_by_group.sort_unstable_by_key(|&(g, _, _)| g);
    // Replay every group's L1-miss stream through the one shared L2 tag
    // array in linear group-id order: cross-group reuse is modeled, while
    // the result stays independent of the worker pool, the claim order and
    // the execution backend.
    if let Some(cc) = &device.profile().cache {
        let mut l2 = TagArray::new(cc.l2_sets(), cc.l2_ways as usize);
        let (mut h1, mut m1, mut h2, mut m2) = (0u64, 0u64, 0u64, 0u64);
        for (_, stats, stream) in &mut stats_by_group {
            h1 += stats.l1_hits;
            m1 += stats.l1_misses;
            for &(line, dsl) in stream.iter() {
                let hit = l2.access(line);
                if hit {
                    stats.l2_hits += 1;
                    h2 += 1;
                } else {
                    stats.l2_misses += 1;
                    m2 += 1;
                }
                if collect {
                    let lc = lines.entry(dsl as usize).or_default();
                    if hit {
                        totals.l2_hits += 1;
                        lc.l2_hits += 1;
                    } else {
                        totals.l2_misses += 1;
                        lc.l2_misses += 1;
                    }
                }
            }
        }
        let m = crate::telemetry::metrics();
        m.prof_cache_l1_hits.add(h1);
        m.prof_cache_l1_misses.add(m1);
        m.prof_cache_l2_hits.add(h2);
        m.prof_cache_l2_misses.add(m2);
    }
    let stats: Vec<GroupStats> = stats_by_group.into_iter().map(|(_, s, _)| s).collect();
    let timing = model_launch(device.profile(), &stats);
    let counters = collect.then(|| {
        let load = cu_loads(device.profile(), &stats);
        let makespan = load.iter().copied().max().unwrap_or(0);
        let cu_occupancy = load
            .iter()
            .map(|&l| {
                if makespan == 0 {
                    0.0
                } else {
                    l as f64 / makespan as f64
                }
            })
            .collect();
        LaunchCounters {
            totals,
            lines,
            num_groups: stats.len(),
            total_cycles: timing.totals.cycles,
            cu_occupancy,
        }
    });
    Ok((timing, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::exec::config::ExecConfig;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_c2050())
    }

    #[test]
    fn geometry_defaults() {
        let g = Geometry::new(&[1000], None, &dev()).unwrap();
        assert_eq!(g.work_dim, 1);
        assert_eq!(g.global, [1000, 1, 1]);
        // largest power of two dividing 1000 under 1024 is 8
        assert_eq!(g.local, [8, 1, 1]);
        assert_eq!(g.total_groups(), 125);
    }

    #[test]
    fn geometry_pow2_default_local() {
        let g = Geometry::new(&[4096], None, &dev()).unwrap();
        assert_eq!(g.local, [1024, 1, 1]);
        let g = Geometry::new(&[512], None, &dev()).unwrap();
        assert_eq!(g.local, [512, 1, 1]);
    }

    #[test]
    fn geometry_2d() {
        let g = Geometry::new(&[4, 8], Some(&[2, 4]), &dev()).unwrap();
        assert_eq!(g.work_dim, 2);
        assert_eq!(g.global, [4, 8, 1]);
        assert_eq!(g.local, [2, 4, 1]);
        assert_eq!(g.num_groups(), [2, 2, 1]);
        assert_eq!(g.total_items(), 32);
    }

    #[test]
    fn geometry_validation_errors() {
        assert!(Geometry::new(&[], None, &dev()).is_err());
        assert!(Geometry::new(&[0], None, &dev()).is_err());
        assert!(
            Geometry::new(&[10], Some(&[3]), &dev()).is_err(),
            "3 does not divide 10"
        );
        assert!(
            Geometry::new(&[8, 8], Some(&[8]), &dev()).is_err(),
            "dim mismatch"
        );
        assert!(
            Geometry::new(&[2048, 2048], Some(&[2048, 1]), &dev()).is_err(),
            "group too large"
        );
        assert!(Geometry::new(&[1, 2, 3, 4], None, &dev()).is_err());
        // hostile sizes are errors, not overflow panics (debug) or wrapped
        // products that slip past the group-size check (release)
        let huge = [usize::MAX, 2];
        assert!(Geometry::new(&huge, Some(&huge), &dev()).is_err());
        let wraps_to_zero = [1usize << 32, 1 << 32];
        assert!(Geometry::new(&wraps_to_zero, Some(&wraps_to_zero), &dev()).is_err());
        assert!(
            Geometry::new(&[1 << 40, 1 << 40], None, &dev()).is_err(),
            "total work-items overflow"
        );
    }

    #[test]
    fn prime_global_gets_local_1() {
        let g = Geometry::new(&[997], None, &dev()).unwrap();
        assert_eq!(g.local, [1, 1, 1]);
    }

    /// Cache counters are byte-identical across host worker counts: L1
    /// state is group-private (each group replays its own transaction
    /// stream), and the shared L2 is replayed single-threaded in linear
    /// group-id order after the workers join, so the pool size can never
    /// reorder a probe.
    #[test]
    fn cache_counters_identical_across_worker_counts() {
        let device = Device::new(DeviceProfile::tesla_c2050_cached());
        let ctx = crate::Context::new(std::slice::from_ref(&device)).unwrap();
        // strided gather (intra-warp line reuse + cross-group L2 reuse),
        // a barrier (mid-group canonical flush point), then a streaming
        // read — enough shape to catch any ordering bug
        let src = "__kernel void stride(__global float* a, __global float* b) {
            int i = (int)get_global_id(0);
            float x = a[(i * 7) % 4096];
            barrier(CLK_GLOBAL_MEM_FENCE);
            b[i] = x + a[i];
        }";
        let p = crate::Program::from_source(&ctx, src);
        p.build("").unwrap();
        let k = p.kernel("stride").unwrap();
        let a = ctx
            .create_buffer(4 * 4096, crate::MemAccess::ReadOnly)
            .unwrap();
        let b = ctx
            .create_buffer(4 * 4096, crate::MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &a).unwrap();
        k.set_arg_buffer(1, &b).unwrap();
        let args = k.bound_args().unwrap();
        let geom = Geometry::new(&[4096], Some(&[64]), &device).unwrap();
        // the launcher takes profile, engine, claimer count and pool from
        // the device it is handed: a same-profile device per claimer count
        // runs the one kernel over the one pair of buffers
        let run = |threads: usize| {
            let exec = ExecConfig {
                threads,
                ..device.exec()
            };
            let device = Device::with_exec(device.profile().clone(), exec);
            let (_, counters) =
                run_ndrange_profiled(k.clone(), args.clone(), geom, device, false, true, None)
                    .unwrap();
            counters.expect("collect=true yields counters")
        };
        let w1 = run(1);
        let w4 = run(4);
        assert!(
            w1.totals.l1_hits + w1.totals.l1_misses > 0,
            "cached device must record cache traffic"
        );
        assert_eq!(
            w1.totals.l2_hits + w1.totals.l2_misses,
            w1.totals.l1_misses,
            "L2 sees exactly the L1 misses"
        );
        assert_eq!(w1, w4, "cache counters must not depend on the pool size");
    }
}
