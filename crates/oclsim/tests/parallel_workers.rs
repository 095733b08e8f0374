//! Tests of the multi-threaded work-group executor: on a device built with
//! four claimers, work-groups run concurrently on the launching thread and
//! the device's worker pool, so these tests exercise `exec::pool`, the
//! shared atomic-word buffers, and cross-claimer error propagation.

mod common;

use common::{claimers, rig, Rig};
use oclsim::{DeviceProfile, Error, MemAccess, Program};

/// A Tesla-class rig whose launches are claimed by `n` host threads.
fn tesla(n: usize) -> Rig {
    rig(DeviceProfile::tesla_c2050(), claimers(n))
}

#[test]
fn many_groups_on_four_workers_compute_correctly() {
    let r = tesla(4);
    let src = "__kernel void f(__global int* out) {
        int i = (int)get_global_id(0);
        int acc = 0;
        for (int j = 0; j <= i % 37; j++) { acc += j; }
        out[i] = acc;
    }";
    let p = Program::from_source(&r.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("f").unwrap();
    let n = 8192; // 128 groups of 64
    let buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
    k.set_arg_buffer(0, &buf).unwrap();
    r.queue.enqueue_ndrange(&k, &[n], Some(&[64])).unwrap();
    let out = buf.read_vec::<i32>(0, n).unwrap();
    for (i, &v) in out.iter().enumerate() {
        let m = (i % 37) as i32;
        assert_eq!(v, m * (m + 1) / 2, "item {i}");
    }
}

#[test]
fn concurrent_groups_share_global_memory_through_atomics() {
    let r = tesla(4);
    let src = "__kernel void count(__global int* c) { atomic_add(c, 1); }";
    let p = Program::from_source(&r.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("count").unwrap();
    let buf = r
        .ctx
        .create_buffer_from(&[0i32], MemAccess::ReadWrite)
        .unwrap();
    k.set_arg_buffer(0, &buf).unwrap();
    let n = 4096;
    r.queue.enqueue_ndrange(&k, &[n], Some(&[64])).unwrap();
    assert_eq!(
        buf.read_vec::<i32>(0, 1).unwrap()[0],
        n as i32,
        "every work-item's atomic increment must land exactly once"
    );
}

#[test]
fn errors_propagate_from_any_worker() {
    let r = tesla(4);
    // only the very last group goes out of bounds
    let src = "__kernel void f(__global int* out, const int n) {
        int i = (int)get_global_id(0);
        int j = (i == n - 1) ? (n + 1000) : i;
        out[j] = i;
    }";
    let p = Program::from_source(&r.ctx, src);
    p.build("").unwrap();
    let k = p.kernel("f").unwrap();
    let n = 4096;
    let buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
    k.set_arg_buffer(0, &buf).unwrap();
    k.set_arg_scalar(1, n as i32).unwrap();
    let err = r.queue.enqueue_ndrange(&k, &[n], Some(&[64])).unwrap_err();
    assert!(matches!(err, Error::MemoryFault { .. }), "{err}");
}

#[test]
fn timing_is_deterministic_across_runs() {
    // the modeled time depends only on architectural events, never on how
    // many host threads simulated them or how they interleaved
    let run = |threads| {
        let r = tesla(threads);
        let src = "__kernel void f(__global float* out) {
            int i = (int)get_global_id(0);
            float a = 0.5f;
            for (int j = 0; j < 32; j++) { a = a * 1.25f + 0.125f; }
            out[i] = a;
        }";
        let p = Program::from_source(&r.ctx, src);
        p.build("").unwrap();
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4 * 4096, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let ev = r.queue.enqueue_ndrange(&k, &[4096], Some(&[64])).unwrap();
        let t = ev.kernel_timing().unwrap();
        (t.totals.cycles, t.totals.mem_transactions, t.device_seconds)
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.0, four.0, "cycle counts must be deterministic");
    assert_eq!(one.1, four.1, "transaction counts must be deterministic");
    assert_eq!(one.2, four.2, "modeled time must be deterministic");
}
