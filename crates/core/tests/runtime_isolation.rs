//! Two runtimes in one process share nothing an `eval` can observe: kernel
//! cache and provenance, kernel names, lints, transfer statistics, device
//! memory accounting and worker-pool threads all belong to the runtime.
//!
//! This file holds one test on purpose: it compares the process-wide
//! `oclsim_exec_pool_threads` gauge before and after, which only means
//! something while no sibling test launches kernels in the same process.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hpl::prelude::*;
use hpl::{Config, Runtime, LOCAL};

const N: usize = 8192;
const GROUP: usize = 64; // 128 groups a launch: every claimer gets work

/// Stages `x` through work-group scratchpad. The constant-index read sits on
/// a line of its own: at `-O1` the sanitizer proves it in bounds and says so
/// with a note-severity lint.
fn staged_copy(y: &Array<f32, 1>, x: &Array<f32, 1>) {
    let tile = Array::<f32, 1>::local([GROUP]);
    tile.at(lidx()).assign(x.at(idx()));
    barrier(LOCAL);
    let first = Float::new(0.0);
    first.assign(tile.at(0));
    y.at(idx()).assign(tile.at(lidx()) - first.v());
}

fn only_in_first(y: &Array<f32, 1>) {
    y.at(idx()).assign(2.0f32);
}

fn pool_threads() -> i64 {
    oclsim::telemetry::metrics().exec_pool_threads.get()
}

#[test]
fn two_runtimes_on_two_threads_share_nothing() {
    let threads_before = pool_threads();
    let config = Config {
        threads: 4,
        opt_level: oclsim::OptLevel::O1,
        ..Config::from_env()
    };
    let runtimes = [Runtime::new(config), Runtime::new(config)];
    // both threads run their first eval at the same moment
    let start = Barrier::new(2);
    let arrays = std::thread::scope(|scope| {
        let workers = [0, 1].map(|me| {
            let (rt, start) = (&runtimes[me], &start);
            scope.spawn(move || {
                let _scope = rt.enter();
                assert!(Arc::ptr_eq(&hpl::runtime(), rt));
                let x = Array::<f32, 1>::from_vec([N], (0..N).map(|i| i as f32).collect());
                let y = Array::<f32, 1>::new([N]);
                start.wait();
                for round in 0..3 {
                    let p = eval(staged_copy).local(&[GROUP]).run((&y, &x)).unwrap();
                    assert_eq!(p.cache_hit, round > 0, "runtime {me}, round {round}");
                }
                assert_eq!(y.get(N - 1), (GROUP - 1) as f32);
                if me == 0 {
                    eval(only_in_first).run((&y,)).unwrap();
                }
                (x, y)
            })
        });
        workers.map(|w| w.join().expect("worker panicked"))
    });

    // what each thread did is counted in its runtime and nowhere else; the
    // main thread entered neither and reads both
    for (me, rt) in runtimes.iter().enumerate() {
        let only_first = (me == 0) as u64;
        let stats = rt.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1 + only_first), "{me}");
        // both runtimes named their first kernel `_0`
        assert!(rt.kernel_provenance("hpl_staged_copy_0").is_some(), "{me}");
        // provenance resolves only where the kernel was built
        assert_eq!(
            rt.kernel_provenance("hpl_only_in_first_1").is_some(),
            me == 0
        );
        // x went up once and y came down once, whoever ran alongside
        let t = rt.transfer_stats();
        assert_eq!((t.h2d_count, t.d2h_count), (1, 1), "runtime {me}");
        assert_eq!((t.h2d_bytes, t.d2h_bytes), (4 * N as u64, 4 * N as u64));
        // the build's lints went to the runtime that built
        let lints = rt.take_kernel_lints();
        assert_eq!(lints.len(), 1, "runtime {me}: {lints:?}");
        assert_eq!(lints[0].kernel, "hpl_staged_copy_0");
        assert!(rt.take_kernel_lints().is_empty());
        // two arrays live on this runtime's Tesla
        let on = rt.entry(&rt.default_device());
        assert_eq!(on.context.allocated_bytes(), 2 * 4 * N as u64, "{me}");
    }
    assert_eq!(hpl::runtime().cache_stats().misses, 0, "default untouched");

    // clearing one cache does not evict the other's kernels
    let [first, second] = &runtimes;
    first.clear_kernel_cache();
    assert_eq!(first.kernel_cache_len(), 0);
    assert_eq!(second.kernel_cache_len(), 1);
    assert_eq!(second.cache_stats().evictions, 0);

    // arrays are not bound to a scope: dropped here, with none entered,
    // they return their buffers to the contexts that allocated them
    let contexts = runtimes
        .each_ref()
        .map(|rt| rt.entry(&rt.default_device()).context.clone());
    drop(arrays);
    for context in &contexts {
        assert_eq!(context.allocated_bytes(), 0);
    }
    drop(contexts);

    // four claimers a launch: each runtime's Tesla grew a pool of three,
    // which goes when the runtime does
    assert_eq!(pool_threads(), threads_before + 6);
    drop(runtimes);
    // pool threads are signalled, not joined, when their device is dropped
    let deadline = Instant::now() + Duration::from_secs(20);
    while pool_threads() != threads_before {
        assert!(
            Instant::now() < deadline,
            "{} pool threads outlived their runtimes",
            pool_threads() - threads_before
        );
        std::thread::yield_now();
    }
}
