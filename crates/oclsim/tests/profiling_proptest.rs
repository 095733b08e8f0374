//! Property test of counter determinism: for a random kernel shape
//! (grid, group size, access stride, divergence modulus, loop trip
//! count), the simulated hardware counters and the modeled time must be
//! bit-identical no matter how many host workers execute the work-groups
//! and no matter the queue discipline (in-order vs out-of-order). This is
//! the invariant that lets `crates/bench/tests/report_matrix.rs` require
//! byte-identical `report -- profile` output across claimer counts.
//!
//! Every run builds its own fresh device, so nothing leaks between cases.

mod common;

use common::claimers;
use oclsim::{
    profile_launch, CommandQueue, Context, Device, DeviceProfile, GroupCounters, Program,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SRC: &str = "__kernel void randk(__global float* dst, __global const float* src,
                    const int stride, const int modr, const int iters) {
    int i = (int)get_global_id(0);
    float a = src[i * stride];
    for (int j = 0; j < iters; j++) { a = a * 1.001f + 0.01f; }
    if (i % modr == 0) { a += src[i]; }
    dst[i] = a;
}";

/// One randomly-shaped launch.
#[derive(Debug, Clone, Copy)]
struct Shape {
    groups: usize,
    local: usize,
    stride: i32,
    modr: i32,
    iters: i32,
}

fn shape() -> impl Strategy<Value = Shape> {
    (1usize..32, 0usize..3, 1i32..34, 1i32..8, 0i32..48).prop_map(
        |(groups, local_sel, stride, modr, iters)| Shape {
            groups,
            local: [32, 64, 128][local_sel],
            stride,
            modr,
            iters,
        },
    )
}

/// Run `shape` through [`profile_launch`] on a fresh Tesla whose launches
/// `workers` host threads claim; returns the counters' debug rendering plus the modeled
/// seconds (bitwise, via to_bits).
fn run_with_workers(shape: Shape, workers: usize) -> (String, u64) {
    let device = Device::with_exec(DeviceProfile::tesla_c2050(), claimers(workers));
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let p = Program::from_source(&ctx, SRC);
    p.build("").unwrap();
    let k = p.kernel("randk").unwrap();
    let n = shape.groups * shape.local;
    let dst = ctx
        .create_buffer(4 * n, oclsim::MemAccess::ReadWrite)
        .unwrap();
    let src = ctx
        .create_buffer(4 * n * 34, oclsim::MemAccess::ReadOnly)
        .unwrap();
    k.set_arg_buffer(0, &dst).unwrap();
    k.set_arg_buffer(1, &src).unwrap();
    k.set_arg_scalar(2, shape.stride).unwrap();
    k.set_arg_scalar(3, shape.modr).unwrap();
    k.set_arg_scalar(4, shape.iters).unwrap();
    let (timing, counters) = profile_launch(&k, &[n], Some(&[shape.local]), &device).unwrap();
    (format!("{counters:?}"), timing.device_seconds.to_bits())
}

/// A kernel with real mid-end opportunities: a foldable constant, a
/// loop-invariant expression, and a repeated pure subexpression. Built at
/// `-O2` this exercises span preservation through the rewrites.
const OPT_SRC: &str = "__kernel void optk(__global float* dst, __global const float* src,
                    const int stride, const int modr, const int iters) {
    int i = (int)get_global_id(0);
    float bias = (float)(2 + 3) * 0.125f;
    float a = src[i * stride] + bias;
    for (int j = 0; j < iters; j++) {
        float h = (float)(stride + modr) * 0.5f;
        a = a * 1.001f + h;
    }
    if ((i + modr) * (i + modr) % modr == 0) { a += src[i]; }
    dst[i] = a;
}";

/// Like [`run_with_workers`] but building [`OPT_SRC`] at `-O2`; also
/// returns the line-table/totals pair and the mid-end rewrite count so the
/// caller can assert the per-line attribution survived the transforms.
fn run_optimized(shape: Shape, workers: usize) -> (String, u64, GroupCounters, GroupCounters, u64) {
    let device = Device::with_exec(DeviceProfile::tesla_c2050(), claimers(workers));
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let p = Program::from_source(&ctx, OPT_SRC);
    p.build("-O2").unwrap();
    let k = p.kernel("optk").unwrap();
    let n = shape.groups * shape.local;
    let dst = ctx
        .create_buffer(4 * n, oclsim::MemAccess::ReadWrite)
        .unwrap();
    let src = ctx
        .create_buffer(4 * n * 34, oclsim::MemAccess::ReadOnly)
        .unwrap();
    k.set_arg_buffer(0, &dst).unwrap();
    k.set_arg_buffer(1, &src).unwrap();
    k.set_arg_scalar(2, shape.stride).unwrap();
    k.set_arg_scalar(3, shape.modr).unwrap();
    k.set_arg_scalar(4, shape.iters).unwrap();
    let (timing, counters) = profile_launch(&k, &[n], Some(&[shape.local]), &device).unwrap();
    (
        format!("{counters:?}"),
        timing.device_seconds.to_bits(),
        counters.lines_sum(),
        counters.totals,
        p.pass_stats().total(),
    )
}

/// The same launch through a profiled queue of either discipline.
fn run_on_queue(shape: Shape, out_of_order: bool) -> String {
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let queue = if out_of_order {
        CommandQueue::new_out_of_order(&ctx, &device).unwrap()
    } else {
        CommandQueue::new(&ctx, &device).unwrap()
    };
    queue.set_profiling(true);
    let p = Program::from_source(&ctx, SRC);
    p.build("").unwrap();
    let k = p.kernel("randk").unwrap();
    let n = shape.groups * shape.local;
    let dst = ctx
        .create_buffer(4 * n, oclsim::MemAccess::ReadWrite)
        .unwrap();
    let src = ctx
        .create_buffer(4 * n * 34, oclsim::MemAccess::ReadOnly)
        .unwrap();
    k.set_arg_buffer(0, &dst).unwrap();
    k.set_arg_buffer(1, &src).unwrap();
    k.set_arg_scalar(2, shape.stride).unwrap();
    k.set_arg_scalar(3, shape.modr).unwrap();
    k.set_arg_scalar(4, shape.iters).unwrap();
    let ev = queue
        .enqueue_ndrange(&k, &[n], Some(&[shape.local]))
        .unwrap();
    format!("{:?}", ev.counters().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Counters and modeled time are invariant under the worker pool size.
    #[test]
    fn counters_invariant_under_worker_count(s in shape()) {
        let (c1, t1) = run_with_workers(s, 1);
        let (c4, t4) = run_with_workers(s, 4);
        prop_assert_eq!(&c1, &c4, "shape: {:?}", s);
        prop_assert_eq!(t1, t4, "modeled time drifted for {:?}", s);
    }

    /// The invariants survive the optimizing mid-end: at `-O2` the
    /// counters and modeled time are still worker-count invariant, and the
    /// per-line table still accounts for every counter — the transforms
    /// preserved source spans, or the attribution would leak to line 0.
    #[test]
    fn optimized_builds_stay_deterministic_and_fully_attributed(s in shape()) {
        let (c1, t1, lines1, totals1, rewrites) = run_optimized(s, 1);
        let (c4, t4, _, _, _) = run_optimized(s, 4);
        prop_assert!(rewrites > 0, "OPT_SRC gave the mid-end nothing to do");
        prop_assert_eq!(&c1, &c4, "-O2 counters drifted for {:?}", s);
        prop_assert_eq!(t1, t4, "-O2 modeled time drifted for {:?}", s);
        prop_assert_eq!(lines1, totals1, "per-line sums broke at -O2 for {:?}", s);
    }

    /// Counters are invariant under the queue discipline.
    #[test]
    fn counters_invariant_under_queue_discipline(s in shape()) {
        let in_order = run_on_queue(s, false);
        let out_of_order = run_on_queue(s, true);
        prop_assert_eq!(in_order, out_of_order, "shape: {:?}", s);
    }

    /// Merging per-line counter deltas into a line table is independent of
    /// the order the groups arrive in — the algebraic fact behind the
    /// `report -- annotate` byte-identity gate across `OCLSIM_THREADS`.
    #[test]
    fn per_line_merge_is_order_independent(
        deltas in proptest::collection::vec((1usize..16, 0u64..1000, 0u64..1000, 0u64..1000), 0..64)
    ) {
        let forward = merge_in_order(deltas.iter());
        let reverse = merge_in_order(deltas.iter().rev());
        prop_assert_eq!(&forward, &reverse, "reverse arrival order changed the line table");

        // Interleaved arrival: even-indexed groups first, then odd-indexed —
        // the pattern a two-worker pool produces.
        let interleaved = merge_in_order(
            deltas
                .iter()
                .step_by(2)
                .chain(deltas.iter().skip(1).step_by(2)),
        );
        prop_assert_eq!(&forward, &interleaved, "interleaved arrival changed the line table");

        // Hierarchical merge: each worker accumulates its own partial table
        // and the partials are folded together at the end (what
        // `profile_launch` does with a worker pool).
        let mid = deltas.len() / 2;
        let mut halves = merge_in_order(deltas[..mid].iter());
        for (line, gc) in merge_in_order(deltas[mid..].iter()) {
            halves.entry(line).or_default().merge(&gc);
        }
        prop_assert_eq!(&forward, &halves, "hierarchical merge changed the line table");
    }
}

/// Fold `(line, tx, bytes, conflicts)` deltas into a per-line table in the
/// given arrival order.
fn merge_in_order<'a, I>(deltas: I) -> BTreeMap<usize, GroupCounters>
where
    I: Iterator<Item = &'a (usize, u64, u64, u64)>,
{
    let mut table: BTreeMap<usize, GroupCounters> = BTreeMap::new();
    for &(line, tx, bytes, conflicts) in deltas {
        let delta = GroupCounters {
            mem_transactions: tx,
            global_bytes: bytes,
            bank_conflicts: conflicts,
            ..GroupCounters::default()
        };
        table.entry(line).or_default().merge(&delta);
    }
    table
}
