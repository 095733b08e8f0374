//! Tests of the multi-threaded work-group executor: with `OCLSIM_THREADS`
//! forced above 1, work-groups run concurrently on the launching thread
//! and the device's worker pool, so these tests exercise `exec::pool`, the
//! shared atomic-word buffers, and cross-claimer error propagation.
//!
//! `OCLSIM_THREADS` is read once per process and cached (see
//! `exec::launch::worker_threads`), so the harness pins it to 4 before the
//! first launch rather than varying it per test.
//! Invariance across pool sizes is covered by `ci.sh`, which runs the whole
//! suite under both `OCLSIM_THREADS=1` and `OCLSIM_THREADS=4`.

use std::sync::Mutex;

use oclsim::{CommandQueue, Context, Device, DeviceProfile, Error, MemAccess, Program};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("OCLSIM_THREADS", n.to_string());
    let r = f();
    std::env::remove_var("OCLSIM_THREADS");
    r
}

struct Rig {
    ctx: Context,
    queue: CommandQueue,
}

fn rig() -> Rig {
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let queue = CommandQueue::new(&ctx, &device).unwrap();
    Rig { ctx, queue }
}

#[test]
fn many_groups_on_four_workers_compute_correctly() {
    with_threads(4, || {
        let r = rig();
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
    });
}

#[test]
fn concurrent_groups_share_global_memory_through_atomics() {
    with_threads(4, || {
        let r = rig();
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
    });
}

#[test]
fn errors_propagate_from_any_worker() {
    with_threads(4, || {
        let r = rig();
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
    });
}

#[test]
fn timing_is_deterministic_across_runs() {
    // the modeled time depends only on architectural events, never on how
    // host threads interleaved while simulating them (cross-pool-size
    // invariance is checked by ci.sh running the suite under 1 and 4)
    let run = |threads| {
        with_threads(threads, || {
            let r = rig();
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
        })
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.0, four.0, "cycle counts must be deterministic");
    assert_eq!(one.1, four.1, "transaction counts must be deterministic");
    assert_eq!(one.2, four.2, "modeled time must be deterministic");
}
