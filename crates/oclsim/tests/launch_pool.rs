//! The persistent per-device worker pool (`exec::pool`) seen from outside
//! the crate: many host threads launching on one shared device, faults
//! under four claimers, and pool threads exiting with their device.
//!
//! Everything goes through [`profile_launch`] on devices built with an
//! explicit claimer count, so one process compares one claimer (zero help
//! tickets, the caller runs every group) against four.

mod common;

use common::{claimers, rig};
use oclsim::{
    profile_launch, Buffer, Context, Device, DeviceProfile, Error, Kernel, LaunchCounters,
    MemAccess, Program,
};

const N: usize = 512;
const LOCAL: usize = 32; // 16 groups a launch
const CHAIN: usize = 200;

/// Each item mixes its own cell with a far neighbour's, so every launch of
/// a chain depends on all of the previous one.
const STEP_SRC: &str = "__kernel void step(__global const uint* x, __global uint* y, uint n) {
    uint i = (uint)get_global_id(0);
    y[i] = x[i] * 1664525u + x[(i + 17u) % n] + 1013904223u;
}";

struct Chain {
    kernel: Kernel,
    bufs: [Buffer; 2],
}

fn chain(ctx: &Context, seed: u32) -> Chain {
    let p = Program::from_source(ctx, STEP_SRC);
    p.build("").unwrap();
    let init: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(seed) ^ seed).collect();
    let kernel = p.kernel("step").unwrap();
    kernel.set_arg_scalar(2, N as u32).unwrap();
    Chain {
        kernel,
        bufs: [
            ctx.create_buffer_from(&init, MemAccess::ReadWrite).unwrap(),
            ctx.create_buffer(4 * N, MemAccess::ReadWrite).unwrap(),
        ],
    }
}

/// Run the whole ping-pong chain; the final buffer and every launch's
/// counters.
fn run_chain(c: &Chain, device: &Device) -> (Vec<u32>, Vec<LaunchCounters>) {
    let mut counters = Vec::with_capacity(CHAIN);
    for step in 0..CHAIN {
        c.kernel.set_arg_buffer(0, &c.bufs[step % 2]).unwrap();
        c.kernel.set_arg_buffer(1, &c.bufs[(step + 1) % 2]).unwrap();
        let (_, lc) = profile_launch(&c.kernel, &[N], Some(&[LOCAL]), device).unwrap();
        counters.push(lc);
    }
    (c.bufs[CHAIN % 2].read_vec::<u32>(0, N).unwrap(), counters)
}

#[test]
fn eight_host_threads_on_one_device_match_the_single_claimer_run() {
    const HOSTS: u32 = 8;
    let one = rig(DeviceProfile::tesla_c2050_cached(), claimers(1));
    let expected: Vec<_> = (1..=HOSTS)
        .map(|seed| run_chain(&chain(&one.ctx, seed), &one.device))
        .collect();
    let four = rig(DeviceProfile::tesla_c2050_cached(), claimers(4));
    let (ctx, device) = (four.ctx, four.device);
    // all hosts launch at once on the shared device: more callers than the
    // pool has threads, so tickets are joined, revoked and contended
    let start = std::sync::Barrier::new(HOSTS as usize);
    std::thread::scope(|scope| {
        for (seed, want) in (1..=HOSTS).zip(&expected) {
            let (ctx, device, start) = (&ctx, &device, &start);
            scope.spawn(move || {
                let c = chain(ctx, seed);
                start.wait();
                let got = run_chain(&c, device);
                assert_eq!(got.0, want.0, "host {seed}: outputs");
                assert_eq!(
                    got.1, want.1,
                    "host {seed}: counters of all {CHAIN} launches"
                );
            });
        }
    });
}

#[test]
fn a_faulting_launch_reports_the_single_claimer_error_and_spares_the_pool() {
    // every group from the fourth on runs off the end of `y`, each at its
    // own offset: which error wins must not depend on who faults first
    let src = "__kernel void f(__global uint* y) {
        uint i = (uint)get_global_id(0);
        y[i < 96u ? i : i + 4096u] = i;
    }";
    let [one, four] = [1, 4].map(|n| rig(DeviceProfile::tesla_c2050(), claimers(n)));
    let fault = |r: &common::Rig| {
        let k = r.build(src).kernel("f").unwrap();
        let y = r.ctx.create_buffer(4 * N, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &y).unwrap();
        profile_launch(&k, &[N], Some(&[LOCAL]), &r.device)
            .expect_err("groups 3.. write out of bounds")
    };
    let single = fault(&one);
    assert!(matches!(single, Error::MemoryFault { .. }), "{single:?}");
    for _ in 0..50 {
        assert_eq!(fault(&four), single);
    }
    // the same pool, after fifty faulted launches, still helps correctly
    let after = |r: &common::Rig| run_chain(&chain(&r.ctx, 7), &r.device);
    assert_eq!(after(&four), after(&one));
}

/// Names (`comm`, cut to 15 bytes by the kernel) of this process's threads.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// Pool threads are detached, not joined, when their device is dropped;
/// this is the proof they exit. Only threads named after *this test's*
/// devices are counted: the harness runs sibling tests, with pools of their
/// own, on other threads of the process.
#[cfg(target_os = "linux")]
#[test]
fn pool_threads_exit_when_their_device_is_dropped() {
    use std::time::{Duration, Instant};
    // poll `count` until it reads `want`; threads name themselves as they
    // start and exit on their own schedule, so both ends need a moment
    let settle = |want: usize, what: &str, count: &dyn Fn() -> usize| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while count() != want {
            assert!(Instant::now() < deadline, "{what}: {} != {want}", count());
            std::thread::yield_now();
        }
    };
    let mut prefixes = Vec::new();
    for round in 0..200u32 {
        let device = Device::with_exec(DeviceProfile::tesla_c2050(), claimers(4));
        let prefix = format!("oclsim-dev{}-", device.id());
        let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
        let c = chain(&ctx, round + 1);
        c.kernel.set_arg_buffer(0, &c.bufs[0]).unwrap();
        c.kernel.set_arg_buffer(1, &c.bufs[1]).unwrap();
        profile_launch(&c.kernel, &[N], Some(&[LOCAL]), &device).unwrap();
        settle(3, "four claimers is three pool threads", &|| {
            let names = thread_names();
            names.iter().filter(|n| n.starts_with(&prefix)).count()
        });
        prefixes.push(prefix);
    }
    settle(0, "pool threads outlived their devices", &|| {
        let names = thread_names();
        names
            .iter()
            .filter(|n| prefixes.iter().any(|p| n.starts_with(p)))
            .count()
    });
}
