//! Tests of the profiling subsystem (`oclsim::prof`): hand-computed
//! coalescing and bank-conflict ground truths, counter determinism across
//! worker counts and queue disciplines, OpenCL-style event stamps on
//! kernels and DMA transfers, and the Chrome trace exporter.
//!
//! The ground truths are computed against the Tesla C2050 profile: 32-wide
//! warps, 128-byte memory segments, 32 local-memory banks. A 4096-item
//! f32 range in 64-item groups is 128 warps.

mod common;

use common::Rig;
use oclsim::{
    chrome_trace, profile_launch, validate_chrome_trace, CommandQueue, Context, Device,
    DeviceProfile, ExecConfig, LaunchCounters, MemAccess, Program, TransferDir,
};

/// Tesla rig with a profiled in-order queue.
fn rig() -> Rig {
    let r = common::rig(DeviceProfile::tesla_c2050(), ExecConfig::from_env());
    r.queue.set_profiling(true);
    r
}

/// Build `name` from `src`, bind f32 buffers of `elems` elements as
/// (dst, src) and launch profiled over `n` items in groups of 64.
fn launch_counters(r: &Rig, src: &str, name: &str, n: usize, src_elems: usize) -> LaunchCounters {
    let p = Program::from_source(&r.ctx, src);
    p.build("").unwrap();
    let k = p.kernel(name).unwrap();
    let dst = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
    let input = r
        .ctx
        .create_buffer(4 * src_elems, MemAccess::ReadOnly)
        .unwrap();
    k.set_arg_buffer(0, &dst).unwrap();
    k.set_arg_buffer(1, &input).unwrap();
    let ev = r.queue.enqueue_ndrange(&k, &[n], Some(&[64])).unwrap();
    ev.counters().expect("queue is profiled")
}

const N: usize = 4096;
const WARPS: u64 = (N / 32) as u64;

#[test]
fn coalesced_copy_issues_one_transaction_per_warp() {
    let r = rig();
    let c = launch_counters(
        &r,
        "__kernel void copy(__global float* dst, __global const float* src) {
            int i = (int)get_global_id(0);
            dst[i] = src[i];
        }",
        "copy",
        N,
        N,
    );
    // each warp touches exactly one 128-byte segment per access: 32 lanes
    // x 4 contiguous bytes. One read + one write per warp.
    assert_eq!(c.totals.mem_transactions, 2 * WARPS);
    assert_eq!(c.totals.mem_transactions_min, 2 * WARPS);
    assert_eq!(c.coalescing_efficiency(), 1.0);
    assert_eq!(c.totals.global_bytes, 2 * N as u64 * 4);
    assert_eq!(c.divergence_fraction(), 0.0, "no branches, no divergence");
}

#[test]
fn strided_read_issues_one_transaction_per_lane() {
    let r = rig();
    let c = launch_counters(
        &r,
        "__kernel void strided(__global float* dst, __global const float* src) {
            int i = (int)get_global_id(0);
            dst[i] = src[i * 32];
        }",
        "strided",
        N,
        N * 32,
    );
    // reads: lane i touches byte 128*i — every lane its own segment, so 32
    // transactions per warp where 1 would suffice. Writes stay coalesced.
    assert_eq!(c.totals.mem_transactions, 32 * WARPS + WARPS);
    assert_eq!(c.totals.mem_transactions_min, 2 * WARPS);
    let eff = c.coalescing_efficiency();
    assert!(
        (eff - 2.0 / 33.0).abs() < 1e-12,
        "expected 2/33 efficiency, got {eff}"
    );
}

#[test]
fn divergent_gather_doubles_issued_transactions() {
    let r = rig();
    let c = launch_counters(
        &r,
        "__kernel void gather(__global float* dst, __global const float* src) {
            int i = (int)get_global_id(0);
            if (i % 2 == 0) { dst[i] = src[i]; } else { dst[i] = src[i + 4096]; }
        }",
        "gather",
        N,
        2 * N,
    );
    // each branch runs as a half-empty warp pass: the 16 even (odd) lanes
    // of a warp still fit one segment per access, but the two passes issue
    // separately — 4 transactions per warp where the straight-line copy
    // needs 2. Per-pass they are minimal, so coalescing stays 1.0; the
    // waste shows up as divergence instead.
    assert_eq!(c.totals.mem_transactions, 4 * WARPS);
    assert_eq!(c.coalescing_efficiency(), 1.0);
    assert!(
        c.divergence_fraction() > 0.2,
        "half the lanes idle in every branch pass: {}",
        c.divergence_fraction()
    );
}

#[test]
fn bank_conflicts_count_serialised_local_passes() {
    let r = rig();
    let src = "__kernel void bankc(__global float* out, const int stride) {
        __local float tile[2048];
        int l = (int)get_local_id(0);
        tile[l * stride] = (float)l;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[(int)get_global_id(0)] = tile[l * stride];
    }";
    let p = Program::from_source(&r.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("bankc").unwrap();
    let out = r.ctx.create_buffer(4 * 64, MemAccess::ReadWrite).unwrap();
    k.set_arg_buffer(0, &out).unwrap();

    // stride 32: every lane of a warp hits a distinct word of bank 0 — 32
    // words serialise into 31 extra passes, per warp, per access. One
    // group = 2 warps, one store + one load: 4 * 31 = 124.
    k.set_arg_scalar(1, 32i32).unwrap();
    let conflicted = r.queue.enqueue_ndrange(&k, &[64], Some(&[64])).unwrap();
    let c = conflicted.counters().unwrap();
    assert_eq!(c.totals.bank_conflicts, 124);
    assert_eq!(c.totals.local_accesses, 128, "64 lanes store + 64 load");
    assert_eq!(c.totals.barriers, 1, "one barrier statement, one group");

    // stride 1: word l maps to bank l % 32 — conflict-free.
    k.set_arg_scalar(1, 1i32).unwrap();
    let clean = r.queue.enqueue_ndrange(&k, &[64], Some(&[64])).unwrap();
    assert_eq!(clean.counters().unwrap().totals.bank_conflicts, 0);
}

#[test]
fn per_line_counters_attribute_transactions_to_their_statements() {
    // Two global-memory statements on two known source lines. Line 3 is a
    // fully coalesced copy; line 4 reads with a 32-element stride. The
    // per-line map must attribute each line its exact transaction count.
    let r = rig();
    let c = launch_counters(
        &r,
        "__kernel void twolines(__global float* dst, __global const float* src) {
            int i = (int)get_global_id(0);
            dst[i] = src[i];
            dst[i] = src[i * 32] + 1.0f;
        }",
        "twolines",
        N,
        N * 32,
    );
    // line 3: one read + one write segment per warp
    let l3 = c.lines.get(&3).expect("line 3 has counters");
    assert_eq!(l3.mem_transactions, 2 * WARPS);
    // line 4: 32 read segments per warp (each lane its own) + 1 write
    let l4 = c.lines.get(&4).expect("line 4 has counters");
    assert_eq!(l4.mem_transactions, 33 * WARPS);
    // line 2 (the id computation) touches no global memory
    assert_eq!(c.lines.get(&2).map_or(0, |l| l.mem_transactions), 0);
    // the strided line is the hot line
    let (hot_line, hot) = c.hot_line().expect("kernel issued transactions");
    assert_eq!(hot_line, 4);
    assert_eq!(hot.mem_transactions, 33 * WARPS);
    // and the two lines account for the whole launch
    assert_eq!(c.totals.mem_transactions, 35 * WARPS);
    assert_eq!(c.lines_sum(), c.totals);
}

#[test]
fn per_line_sums_equal_launch_totals() {
    // The invariant holds for control-flow-heavy kernels too: loops,
    // divergent branches, barriers, bank conflicts. Every counter delta
    // goes through the same per-line chokepoint as the totals.
    let (_, c) = counters_with_workers(3);
    assert_eq!(c.lines_sum(), c.totals);
    assert!(
        c.lines.len() > 3,
        "several lines attributed: {:?}",
        c.lines.keys()
    );

    let r = rig();
    let src = "__kernel void bankc2(__global float* out, const int stride) {
        __local float tile[2048];
        int l = (int)get_local_id(0);
        tile[l * stride] = (float)l;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[(int)get_global_id(0)] = tile[l * stride];
    }";
    let p = Program::from_source(&r.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("bankc2").unwrap();
    let out = r.ctx.create_buffer(4 * 64, MemAccess::ReadWrite).unwrap();
    k.set_arg_buffer(0, &out).unwrap();
    k.set_arg_scalar(1, 32i32).unwrap();
    let ev = r.queue.enqueue_ndrange(&k, &[64], Some(&[64])).unwrap();
    let c = ev.counters().unwrap();
    assert_eq!(c.lines_sum(), c.totals);
    // the barrier statement's stall cycles land on the barrier's line (5)
    let l5 = c.lines.get(&5).expect("barrier line has counters");
    assert_eq!(l5.barriers, 1);
    // bank conflicts split between the store (line 4) and the load (line 6)
    let store = c.lines.get(&4).map_or(0, |l| l.bank_conflicts);
    let load = c.lines.get(&6).map_or(0, |l| l.bank_conflicts);
    assert_eq!(store + load, c.totals.bank_conflicts);
    assert!(store > 0 && load > 0);
}

const DETERMINISM_SRC: &str = "__kernel void mix(__global float* dst, __global const float* src) {
    int i = (int)get_global_id(0);
    float a = src[i % 977];
    for (int j = 0; j < (i % 13); j++) { a = a * 1.01f + 0.5f; }
    if (i % 3 == 0) { a += src[(i * 7) % 977]; }
    dst[i] = a;
}";

fn counters_with_workers(workers: usize) -> (f64, LaunchCounters) {
    let r = common::rig(DeviceProfile::tesla_c2050(), common::claimers(workers));
    let p = Program::from_source(&r.ctx, DETERMINISM_SRC);
    p.build("").unwrap();
    let k = p.kernel("mix").unwrap();
    let dst = r.ctx.create_buffer(4 * N, MemAccess::ReadWrite).unwrap();
    let src = r.ctx.create_buffer(4 * 977, MemAccess::ReadOnly).unwrap();
    k.set_arg_buffer(0, &dst).unwrap();
    k.set_arg_buffer(1, &src).unwrap();
    let (timing, counters) = profile_launch(&k, &[N], Some(&[64]), &r.device).unwrap();
    (timing.device_seconds, counters)
}

#[test]
fn counters_are_identical_across_worker_counts() {
    let (t1, c1) = counters_with_workers(1);
    for workers in [2, 3, 4] {
        let (t, c) = counters_with_workers(workers);
        assert_eq!(
            format!("{c1:?}"),
            format!("{c:?}"),
            "counters must not depend on the host pool size ({workers} workers)"
        );
        assert_eq!(t1, t, "modeled time must not depend on the pool size");
    }
}

#[test]
fn counters_are_identical_in_order_vs_out_of_order() {
    let run = |out_of_order: bool| {
        let device = Device::new(DeviceProfile::tesla_c2050());
        let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
        let queue = if out_of_order {
            CommandQueue::new_out_of_order(&ctx, &device).unwrap()
        } else {
            CommandQueue::new(&ctx, &device).unwrap()
        };
        queue.set_profiling(true);
        let p = Program::from_source(&ctx, DETERMINISM_SRC);
        p.build("").unwrap();
        let k = p.kernel("mix").unwrap();
        let dst = ctx.create_buffer(4 * N, MemAccess::ReadWrite).unwrap();
        let src = ctx.create_buffer(4 * 977, MemAccess::ReadOnly).unwrap();
        k.set_arg_buffer(0, &dst).unwrap();
        k.set_arg_buffer(1, &src).unwrap();
        let ev = queue.enqueue_ndrange(&k, &[N], Some(&[64])).unwrap();
        format!("{:?}", ev.counters().unwrap())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn unprofiled_launches_skip_counters_but_model_identically() {
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let queue = CommandQueue::new(&ctx, &device).unwrap();
    let p = Program::from_source(&ctx, DETERMINISM_SRC);
    p.build("").unwrap();
    let k = p.kernel("mix").unwrap();
    let dst = ctx.create_buffer(4 * N, MemAccess::ReadWrite).unwrap();
    let src = ctx.create_buffer(4 * 977, MemAccess::ReadOnly).unwrap();
    k.set_arg_buffer(0, &dst).unwrap();
    k.set_arg_buffer(1, &src).unwrap();

    // profiling off (the default): no counters, no conformant stamps,
    // but the analytic timing is produced either way
    let plain = queue.enqueue_ndrange(&k, &[N], Some(&[64])).unwrap();
    assert!(!plain.is_profiled());
    assert!(plain.counters().is_none());
    assert!(plain.profiling_info().is_err());
    let plain_timing = plain.kernel_timing().unwrap();

    queue.set_profiling(true);
    let profiled = queue.enqueue_ndrange(&k, &[N], Some(&[64])).unwrap();
    assert!(profiled.is_profiled());
    assert!(profiled.counters().is_some());
    assert!(profiled.profiling_info().is_ok());
    assert_eq!(
        plain_timing.device_seconds,
        profiled.kernel_timing().unwrap().device_seconds,
        "collection must never perturb the model"
    );
}

#[test]
fn dma_transfers_carry_stamps_and_transfer_info() {
    let r = rig();
    let data = vec![1.25f32; 1 << 16];
    let a = r.ctx.create_buffer(4 << 16, MemAccess::ReadWrite).unwrap();
    let b = r.ctx.create_buffer(4 << 16, MemAccess::ReadWrite).unwrap();

    let write = r.queue.enqueue_write(&a, 0, &data).unwrap();
    let copy = r.queue.enqueue_copy(&a, &b, 0, 0, 4 << 16).unwrap();
    let (back, read) = r.queue.enqueue_read::<f32>(&b, 0, 1 << 16).unwrap();
    assert_eq!(back, data, "the profiled path must still move the data");

    for (ev, dir) in [
        (&write, TransferDir::HostToDevice),
        (&copy, TransferDir::DeviceToDevice),
        (&read, TransferDir::DeviceToHost),
    ] {
        let info = ev.transfer_info().expect("transfers report byte counts");
        assert_eq!(info.bytes, 4 << 16);
        assert_eq!(info.direction, dir);
        let stamps = ev.profiling_info().expect("queue is profiled");
        assert!(stamps.queued <= stamps.submitted);
        assert!(stamps.submitted <= stamps.started);
        assert!(
            stamps.started < stamps.ended,
            "a 256 KiB transfer takes modeled time"
        );
        assert!(ev.modeled_seconds() > 0.0);
    }
    // DMA stamps sit on one shared timeline: the copy cannot start before
    // the write ended, nor the read before the copy ended
    assert!(copy.profile().started >= write.profile().ended);
    assert!(read.profile().started >= copy.profile().ended);
}

#[test]
fn chrome_trace_of_a_real_run_validates() {
    let r = rig();
    let data = vec![0.5f32; N];
    let buf = r.ctx.create_buffer(4 * N, MemAccess::ReadWrite).unwrap();
    let src = r.ctx.create_buffer(4 * N, MemAccess::ReadOnly).unwrap();
    let write = r.queue.enqueue_write(&src, 0, &data).unwrap();
    let p = Program::from_source(
        &r.ctx,
        "__kernel void stream(__global float* dst, __global const float* src) {
            int i = (int)get_global_id(0);
            dst[i] = src[i] * 2.0f;
        }",
    );
    p.build("").unwrap();
    let k = p.kernel("stream").unwrap();
    k.set_arg_buffer(0, &buf).unwrap();
    k.set_arg_buffer(1, &src).unwrap();
    let launch = r.queue.enqueue_ndrange(&k, &[N], Some(&[64])).unwrap();
    let (_, read) = r.queue.enqueue_read::<f32>(&buf, 0, N).unwrap();

    let json = chrome_trace(&r.device, &[write, launch, read]);
    validate_chrome_trace(&json).expect("exporter must emit schema-valid JSON");
    assert!(json.contains("\"stream\""), "kernel slice must be named");
    assert!(
        json.contains("coalescing_pct"),
        "counter args must ride along"
    );
    assert!(json.contains("h2d") && json.contains("d2h"), "DMA slices");
}
