//! Invariant tests of the analytic timing model: the scaling laws the
//! evaluation figures rely on must hold structurally, independent of the
//! concrete calibration constants — nor of the engine that counted the
//! events: every test runs on the `wg` VM and on the `ref` oracle.

mod common;

use common::{engines, rig, Rig};
use oclsim::{DeviceProfile, MemAccess, Program, TimingBreakdown};

/// Launch an ALU-heavy kernel over `n` items; returns the timing.
fn run_compute(rig: &Rig, n: usize, iters: i32) -> TimingBreakdown {
    let src = "__kernel void work(__global float* out, const int iters) {
        int i = (int)get_global_id(0);
        float acc = 0.5f;
        for (int j = 0; j < iters; j++) {
            acc = acc * 1.0001f + 0.001f;
        }
        out[i] = acc;
    }";
    let p = Program::from_source(&rig.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("work").unwrap();
    let out = rig.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
    k.set_arg_buffer(0, &out).unwrap();
    k.set_arg_scalar(1, iters).unwrap();
    let ev = rig
        .queue
        .enqueue_ndrange(&k, &[n], Some(&[64.min(n)]))
        .unwrap();
    ev.kernel_timing().unwrap()
}

/// Launch a streaming (memory-bound) kernel over `n` items.
fn run_stream(rig: &Rig, n: usize) -> TimingBreakdown {
    let src = "__kernel void stream(__global float* dst, __global const float* src) {
        int i = (int)get_global_id(0);
        dst[i] = src[i];
    }";
    let p = Program::from_source(&rig.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("stream").unwrap();
    let a = rig.ctx.create_buffer(4 * n, MemAccess::ReadOnly).unwrap();
    let b = rig.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
    k.set_arg_buffer(0, &b).unwrap();
    k.set_arg_buffer(1, &a).unwrap();
    let ev = rig
        .queue
        .enqueue_ndrange(&k, &[n], Some(&[64.min(n)]))
        .unwrap();
    ev.kernel_timing().unwrap()
}

#[test]
fn compute_time_scales_linearly_with_iterations() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let t1 = run_compute(&rig, 1 << 14, 32);
        let t4 = run_compute(&rig, 1 << 14, 128);
        let ratio = t4.compute_seconds / t1.compute_seconds;
        assert!(
            (3.5..4.5).contains(&ratio),
            "4x iterations should be ~4x cycles, got {ratio}"
        );
    }
}

#[test]
fn compute_time_scales_with_items_once_device_is_full() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let t1 = run_compute(&rig, 1 << 14, 64);
        let t4 = run_compute(&rig, 1 << 16, 64);
        let ratio = t4.compute_seconds / t1.compute_seconds;
        assert!(
            (3.5..4.5).contains(&ratio),
            "4x items should be ~4x time, got {ratio}"
        );
    }
}

#[test]
fn streaming_kernel_is_memory_bound_on_gpu() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let t = run_stream(&rig, 1 << 18);
        assert!(
            t.memory_seconds > t.compute_seconds,
            "pure copy must be bandwidth-limited: mem {} vs compute {}",
            t.memory_seconds,
            t.compute_seconds
        );
        // the modeled bandwidth must be within 2x of the profile's peak
        let bytes = 2.0 * 4.0 * (1 << 18) as f64; // read + write
        let achieved = bytes / t.memory_seconds;
        let peak = 144.0e9;
        assert!(achieved <= peak * 1.01, "cannot beat peak bandwidth");
        assert!(
            achieved > peak / 2.0,
            "coalesced copy should approach peak, got {achieved:e}"
        );
    }
}

#[test]
fn alu_kernel_is_compute_bound_on_gpu() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let t = run_compute(&rig, 1 << 14, 256);
        assert!(t.compute_seconds > t.memory_seconds);
    }
}

#[test]
fn tesla_beats_quadro_proportionally_to_width() {
    for exec in engines() {
        let tesla = rig(DeviceProfile::tesla_c2050(), exec);
        let quadro = rig(DeviceProfile::quadro_fx380(), exec);
        let tt = run_compute(&tesla, 1 << 14, 64);
        let tq = run_compute(&quadro, 1 << 14, 64);
        let ratio = tq.compute_seconds / tt.compute_seconds;
        // 448 lanes @1.15GHz vs 16 lanes @0.7GHz = 46x raw; allow model slack
        assert!(
            (20.0..80.0).contains(&ratio),
            "Tesla should be roughly 46x faster on ALU work, got {ratio}"
        );
    }
}

#[test]
fn serial_cpu_runs_items_sequentially() {
    for exec in engines() {
        let cpu = rig(DeviceProfile::serial_cpu(), exec);
        let t1 = run_compute(&cpu, 1 << 10, 64);
        let t4 = run_compute(&cpu, 1 << 12, 64);
        let ratio = t4.compute_seconds / t1.compute_seconds;
        assert!(
            (3.5..4.5).contains(&ratio),
            "1 CU: 4x items = 4x time, got {ratio}"
        );
    }
}

#[test]
fn cpu_cache_makes_sequential_cheaper_than_scattered() {
    for exec in engines() {
        let cpu = rig(DeviceProfile::serial_cpu(), exec);
        let n = 1 << 14;
        let seq = run_stream(&cpu, n);

        // scatter with a large prime stride: every access a new cache line
        let src =
            "__kernel void scatter(__global float* dst, __global const float* src, const int n) {
        int i = (int)get_global_id(0);
        int j = (int)(((long)i * 7919) % (long)n);
        dst[j] = src[j];
    }";
        let p = Program::from_source(&cpu.ctx, src);
        p.build("").unwrap();
        let k = p.kernel("scatter").unwrap();
        let a = cpu.ctx.create_buffer(4 * n, MemAccess::ReadOnly).unwrap();
        let b = cpu.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &b).unwrap();
        k.set_arg_buffer(1, &a).unwrap();
        k.set_arg_scalar(2, n as i32).unwrap();
        let scat = cpu.queue.enqueue_ndrange(&k, &[n], Some(&[64])).unwrap();
        let scat = scat.kernel_timing().unwrap();

        assert!(
            scat.totals.mem_transactions > seq.totals.mem_transactions * 4,
            "scattered access must miss the segment cache: {} vs {}",
            scat.totals.mem_transactions,
            seq.totals.mem_transactions
        );
    }
}

#[test]
fn launch_overhead_dominates_tiny_kernels() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let t = run_compute(&rig, 64, 1);
        assert!(
            t.device_seconds >= oclsim::timing::LAUNCH_OVERHEAD_SECONDS,
            "every launch pays the dispatch overhead"
        );
        assert!(t.device_seconds < 2.0 * oclsim::timing::LAUNCH_OVERHEAD_SECONDS);
    }
}

#[test]
fn fp64_costs_double_on_tesla() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let srcs = [
        ("f32", "__kernel void k(__global float* o) { int i=(int)get_global_id(0); float a=0.5f; for (int j=0;j<128;j++) { a = a*1.5f + 0.25f; } o[i]=a; }"),
        ("f64", "__kernel void k(__global double* o) { int i=(int)get_global_id(0); double a=0.5; for (int j=0;j<128;j++) { a = a*1.5 + 0.25; } o[i]=(double)a; }"),
    ];
        let mut times = Vec::new();
        for (_, src) in srcs {
            let p = Program::from_source(&rig.ctx, src);
            p.build("").unwrap();
            let k = p.kernel("k").unwrap();
            let buf = rig
                .ctx
                .create_buffer(8 * 4096, MemAccess::ReadWrite)
                .unwrap();
            k.set_arg_buffer(0, &buf).unwrap();
            let ev = rig.queue.enqueue_ndrange(&k, &[4096], Some(&[64])).unwrap();
            times.push(ev.kernel_timing().unwrap().compute_seconds);
        }
        let ratio = times[1] / times[0];
        assert!(
            (1.3..2.2).contains(&ratio),
            "Fermi's fp64 is half-rate; f64 loop should cost ~1.5-2x, got {ratio}"
        );
    }
}

#[test]
fn group_imbalance_appears_in_makespan() {
    for exec in engines() {
        // one group loops far longer than the rest: the makespan (and thus the
        // modeled time) must track the slow group, not the average
        let rig = rig(DeviceProfile::quadro_fx380(), exec); // 2 CUs: imbalance visible
        let src = "__kernel void skew(__global float* out, const int heavy) {
        int g = (int)get_group_id(0);
        int iters = (g == 0) ? heavy : 16;
        float a = 0.5f;
        for (int j = 0; j < iters; j++) { a = a * 1.001f + 0.001f; }
        out[(int)get_global_id(0)] = a;
    }";
        let p = Program::from_source(&rig.ctx, src);
        p.build("").unwrap();
        let k = p.kernel("skew").unwrap();
        let buf = rig
            .ctx
            .create_buffer(4 * 1024, MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &buf).unwrap();

        k.set_arg_scalar(1, 16i32).unwrap();
        let balanced = rig.queue.enqueue_ndrange(&k, &[1024], Some(&[64])).unwrap();
        k.set_arg_scalar(1, 16_000i32).unwrap();
        let skewed = rig.queue.enqueue_ndrange(&k, &[1024], Some(&[64])).unwrap();

        let b = balanced.kernel_timing().unwrap().compute_seconds;
        let s = skewed.kernel_timing().unwrap().compute_seconds;
        assert!(
            s > b * 10.0,
            "one 1000x-slower group must dominate: {s} vs {b}"
        );
    }
}

#[test]
fn transfer_time_models_interconnect() {
    for exec in engines() {
        let rig = rig(DeviceProfile::tesla_c2050(), exec);
        let buf = rig
            .ctx
            .create_buffer(4 << 20, MemAccess::ReadWrite)
            .unwrap();
        let data = vec![0u8; 4 << 20];
        let mut bytes = vec![0u8; 4 << 20];
        bytes.copy_from_slice(&data);
        let small = rig.queue.enqueue_write(&buf, 0, &[0f32; 256]).unwrap();
        let big_data = vec![0f32; 1 << 20];
        let big = rig.queue.enqueue_write(&buf, 0, &big_data).unwrap();
        assert!(big.modeled_seconds() > small.modeled_seconds() * 10.0);
        // 4 MiB over 6 GB/s PCIe ~ 0.7 ms
        let expect = (4 << 20) as f64 / 6.0e9;
        assert!(
            (big.modeled_seconds() - expect).abs() / expect < 0.2,
            "{}",
            big.modeled_seconds()
        );
    }
}
