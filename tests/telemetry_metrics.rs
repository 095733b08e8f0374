//! Telemetry determinism: the canonical metrics snapshot is a pure
//! function of the workload, independent of scheduling.
//!
//! The same logical workload is run twice — once through the blocking
//! `run()` path (in-order queue) and once through `run_async()` (out-of-
//! order queue, all launches in flight before the first wait) — and the
//! canonical `metrics_text(true)` snapshots must be **byte-identical**:
//! every counter in the canonical set (cache lookups, coherence
//! decisions, transfer bytes, queue admissions, dispatch/retire totals)
//! is workload-determined, never timing-determined. Wall-clock metrics
//! (compile-time histograms, queue-depth gauges) are excluded by the
//! canonicalizer itself.
//!
//! `ci.sh` runs this whole suite under `OCLSIM_THREADS=1` and `=4`, and
//! additionally diffs `report -- metrics` output across thread counts, so
//! the same snapshots are also proven identical across dispatcher pools.

use hpl::prelude::*;
use hpl::telemetry;
use proptest::prelude::*;
use std::sync::Mutex;

/// Metrics are process-global; tests in this file must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn scale(y: &Array<f32, 1>, a: &Float) {
    y.at(idx()).assign(y.at(idx()) * a.v());
}

/// One workload: upload, `iters` dependent kernel launches, read back.
/// The kernel function is shared between modes, so both hit the same
/// cache entry once warm.
fn run_workload(sync: bool, len: usize, iters: usize) -> Vec<f32> {
    let y = Array::<f32, 1>::from_vec([len], vec![1.0; len]);
    let a = Float::new(1.5);
    if sync {
        for _ in 0..iters {
            eval(scale).run((&y, &a)).unwrap();
        }
    } else {
        let mut handles = Vec::with_capacity(iters);
        for _ in 0..iters {
            handles.push(eval(scale).run_async((&y, &a)).unwrap());
        }
        for h in handles {
            h.wait().unwrap();
        }
    }
    y.to_vec()
}

/// Warm the kernel cache so neither measured run records or compiles.
fn warm() {
    run_workload(true, 16, 1);
    run_workload(false, 16, 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// In-order and out-of-order execution of the same workload produce
    /// byte-identical canonical snapshots, for any size and launch count.
    #[test]
    fn canonical_snapshot_identical_sync_vs_async(
        len in 32usize..256,
        iters in 1usize..6,
    ) {
        let _guard = SERIAL.lock().unwrap();
        warm();

        telemetry::reset_metrics();
        let sync_result = run_workload(true, len, iters);
        let sync_snapshot = telemetry::metrics_text(true);

        telemetry::reset_metrics();
        let async_result = run_workload(false, len, iters);
        let async_snapshot = telemetry::metrics_text(true);

        prop_assert_eq!(sync_result, async_result);
        prop_assert_eq!(sync_snapshot, async_snapshot);
    }
}

#[test]
fn canonical_snapshot_reflects_the_workload() {
    let _guard = SERIAL.lock().unwrap();
    warm();
    telemetry::reset_metrics();
    let n = 64;
    run_workload(true, n, 3);
    let snap = telemetry::metrics_text(true);
    // steady state: 3 cache hits, no misses
    assert!(snap.contains("hpl_kernel_cache_hits_total 3"), "{snap}");
    assert!(snap.contains("hpl_kernel_cache_misses_total 0"), "{snap}");
    // one upload of n floats, one read-back, two coherence hits
    assert!(snap.contains("hpl_h2d_transfers_total 1"), "{snap}");
    assert!(
        snap.contains(&format!("hpl_h2d_bytes_total {}", 4 * n)),
        "{snap}"
    );
    assert!(snap.contains("hpl_d2h_transfers_total 1"), "{snap}");
    assert!(snap.contains("hpl_coherence_hits_total 2"), "{snap}");
    assert!(snap.contains("hpl_redundant_uploads_total 0"), "{snap}");
    // queue admissions: 1 write + 3 kernels + 1 read, all dispatched and
    // retired with no errors
    assert!(snap.contains("oclsim_enqueued_writes_total 1"), "{snap}");
    assert!(snap.contains("oclsim_enqueued_kernels_total 3"), "{snap}");
    assert!(snap.contains("oclsim_enqueued_reads_total 1"), "{snap}");
    assert!(snap.contains("oclsim_dispatched_total 5"), "{snap}");
    assert!(snap.contains("oclsim_retired_total 5"), "{snap}");
    assert!(snap.contains("oclsim_command_errors_total 0"), "{snap}");
    // the canonicalizer must exclude every wall-clock metric
    assert!(!snap.contains("oclsim_compile_us"), "{snap}");
    assert!(!snap.contains("queue_depth"), "{snap}");
}

/// The `oclsim_clc_dataflow_solves_total` counters show what the refined
/// sanitizer (the `-O1` build's) solves: the handwritten benchmark kernels
/// need no stored-value facts, so neither constant propagation nor
/// uniformity runs; a kernel whose race warning those facts demote solves
/// each exactly once.
#[test]
fn sanitizer_solves_stored_value_facts_only_on_demand() {
    use benchsuite::{ep, floyd, reduction, spmv, transpose};
    use oclsim::clc::analysis::analyze_source_refined;
    let _guard = SERIAL.lock().unwrap();
    let m = oclsim::telemetry::metrics();
    let solves = |src: &str| {
        let before = (m.solves_const_prop.get(), m.solves_uniformity.get());
        analyze_source_refined(src).unwrap();
        (
            m.solves_const_prop.get() - before.0,
            m.solves_uniformity.get() - before.1,
        )
    };
    for src in [
        ep::opencl_version::SOURCE,
        floyd::opencl_version::SOURCE,
        transpose::opencl_version::SOURCE,
        spmv::opencl_version::SOURCE,
        reduction::opencl_version::SOURCE,
    ] {
        assert_eq!(solves(src), (0, 0), "{src}");
    }
    let corpus = include_str!("../crates/oclsim/tests/lint_corpus/proved_safe.cl");
    let scatter_flag = corpus
        .split("__kernel void masked_mark")
        .next()
        .expect("scatter_flag comes first");
    assert_eq!(solves(scatter_flag), (1, 1));
    let text = oclsim::telemetry::metrics_text(true);
    assert!(
        text.contains("oclsim_clc_dataflow_solves_total{analysis=\"intervals\"}"),
        "{text}"
    );
    assert!(text.contains("oclsim_clc_cfg_builds_total"), "{text}");
}
