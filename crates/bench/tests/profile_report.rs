//! Tests of the `report -- profile` backend: the aggregated counter rows
//! must reproduce the paper-shaped performance findings with counter
//! evidence, HPL must add no redundant transfers on any benchmark, and
//! the DMA profiling stamps must reconstruct the overlap experiment's
//! modeled timeline.

use bench::profile;
use hpl::prelude::*;
use oclsim::{
    wait_for_events, CommandQueue, Context, Device, DeviceProfile, MemAccess, Program, TransferDir,
};

/// Figure-7-shaped findings out of the counter table: the reduction
/// streams coalesced and reaches a higher fraction of the bandwidth roof
/// than SpMV, whose CSR gather both diverges and wastes transactions.
#[test]
fn reduction_outruns_spmv_on_the_bandwidth_roof() {
    let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
    let device = bench::tesla();
    let spmv = profile::profile_one("spmv", true, &device).unwrap();
    let reduction = profile::profile_one("reduction", true, &device).unwrap();
    let s = &spmv.rows[0];
    let r = &reduction.rows[0];
    assert!(
        !s.roofline.compute_bound && !r.roofline.compute_bound,
        "both kernels sit under the bandwidth roof on the Tesla"
    );
    assert!(
        r.roofline.bandwidth_fraction > s.roofline.bandwidth_fraction,
        "reduction ({:.3}) must reach more of the roof than spmv ({:.3})",
        r.roofline.bandwidth_fraction,
        s.roofline.bandwidth_fraction
    );
    // the counter evidence for *why*: spmv's gather diverges and issues
    // non-minimal transactions; the reduction is fully coalesced
    assert_eq!(r.counters.coalescing_efficiency(), 1.0);
    assert!(s.counters.coalescing_efficiency() < 0.9);
    assert!(s.counters.divergence_fraction() > r.counters.divergence_fraction());
}

/// The paper's Figure 10 contrast with counter evidence: the naive
/// transpose is limited by uncoalesced accesses; the tiled version trades
/// them for (cheaper) local-memory traffic and a better coalescing ratio.
#[test]
fn naive_transpose_is_uncoalesced_where_tiled_is_not() {
    let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
    let device = bench::tesla();

    fn naive_transpose(dst: &Array<f32, 2>, src: &Array<f32, 2>) {
        dst.at((idx(), idy())).assign(src.at((idy(), idx())));
    }
    let n = 256usize;
    let src_data: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
    let src = Array::<f32, 2>::from_vec([n, n], src_data.clone());
    let dst = Array::<f32, 2>::new([n, n]);
    let ((), naive_rep) = hpl::profile(|| {
        eval(naive_transpose)
            .device(&device)
            .global(&[n, n])
            .local(&[16, 16])
            .run((&dst, &src))
            .unwrap();
    });
    let naive = naive_rep.launches[0].event.counters().unwrap();

    let cfg = benchsuite::transpose::TransposeConfig { rows: n, cols: n };
    let ((), tiled_rep) = hpl::profile(|| {
        benchsuite::transpose::hpl_version::run(&cfg, &src_data, &device).unwrap();
    });
    let tiled = tiled_rep.launches[0].event.counters().unwrap();

    assert!(
        naive.coalescing_efficiency() < 0.5 * tiled.coalescing_efficiency(),
        "naive ({:.3}) must waste transactions the tiled version ({:.3}) avoids",
        naive.coalescing_efficiency(),
        tiled.coalescing_efficiency()
    );
    assert!(
        naive.totals.mem_transactions > 2 * tiled.totals.mem_transactions,
        "the waste is visible as raw transaction counts: {} vs {}",
        naive.totals.mem_transactions,
        tiled.totals.mem_transactions
    );
    assert!(
        tiled.totals.local_accesses > 0 && naive.totals.local_accesses == 0,
        "the tiled kernel pays with scratchpad traffic instead"
    );
}

/// HPL's coherence analysis must not add redundant uploads on any of the
/// ten (benchmark, mode) runs. `bench::profile::render` reports the same
/// condition as a `[REDUNDANT]` failure, which `report_matrix.rs` asserts
/// never happens.
#[test]
fn no_benchmark_performs_redundant_transfers() {
    let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
    let device = bench::tesla();
    for &bench in profile::BENCHES {
        for sync in [true, false] {
            let p = profile::profile_one(bench, sync, &device).unwrap();
            assert!(
                p.transfers_minimal(),
                "{bench} ({}) performed {} h2d transfers, minimal is {}",
                p.mode,
                p.h2d_count,
                p.expected_h2d
            );
        }
    }
}

/// Per-array accounting: repeated evals over the same array reuse the
/// device copy, so the array records exactly one upload and only the
/// explicit read-back.
#[test]
fn arrays_upload_once_across_repeated_evals() {
    fn scale(y: &Array<f64, 1>, x: &Array<f64, 1>) {
        y.at(idx()).assign(x.at(idx()) * 2.0f64);
    }
    let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
    let x = Array::<f64, 1>::from_vec([512], vec![1.0; 512]);
    let y = Array::<f64, 1>::new([512]);
    for _ in 0..3 {
        eval(scale).run((&y, &x)).unwrap();
    }
    let _ = y.to_vec();
    let xs = x.transfer_stats();
    assert_eq!(xs.h2d_count, 1, "x must upload exactly once: {xs:?}");
    assert_eq!(xs.d2h_count, 0, "x is never read back");
    let ys = y.transfer_stats();
    assert_eq!(ys.h2d_count, 0, "y is write-only on the device: {ys:?}");
    assert_eq!(ys.d2h_count, 1, "one explicit read-back");
}

/// The DMA stamps on transfer events must reconstruct the overlap
/// experiment's timeline: chunked uploads proceed on the DMA channel while
/// earlier chunks' kernels run, and the last `ended` stamp is exactly the
/// device's modeled horizon.
#[test]
fn dma_stamps_reconstruct_the_overlap_timeline() {
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let queue = CommandQueue::new_out_of_order(&ctx, &device).unwrap();
    queue.set_profiling(true);
    let p = Program::from_source(
        &ctx,
        "__kernel void fma2(__global float* out, __global const float* in) {
            size_t i = get_global_id(0);
            out[i] = in[i] * 2.0f + 1.0f;
        }",
    );
    p.build("").unwrap();

    let elems = 1 << 15;
    let data = vec![1.5f32; elems];
    let mut writes = Vec::new();
    let mut launches = Vec::new();
    for _ in 0..8 {
        let input = ctx.create_buffer(elems * 4, MemAccess::ReadOnly).unwrap();
        let out = ctx.create_buffer(elems * 4, MemAccess::WriteOnly).unwrap();
        let kernel = p.kernel("fma2").unwrap();
        kernel.set_arg_buffer(0, &out).unwrap();
        kernel.set_arg_buffer(1, &input).unwrap();
        let w = queue.enqueue_write_async(&input, 0, &data, &[]).unwrap();
        let k = queue
            .enqueue_ndrange_async(&kernel, &[elems], None, std::slice::from_ref(&w))
            .unwrap();
        writes.push(w);
        launches.push(k);
    }
    let all: Vec<_> = writes.iter().chain(launches.iter()).cloned().collect();
    wait_for_events(&all).unwrap();

    for w in &writes {
        let info = w.transfer_info().unwrap();
        assert_eq!(info.direction, TransferDir::HostToDevice);
        assert_eq!(info.bytes, (elems * 4) as u64);
        assert!(w.profiling_info().is_ok());
    }

    // the stamps and the device timeline agree on the makespan
    let horizon = device.timeline_horizon();
    let last_end = all.iter().map(|e| e.profile().ended).fold(0.0f64, f64::max);
    assert!(
        (horizon - last_end).abs() < 1e-12,
        "stamps must tile the timeline: horizon {horizon}, last stamp {last_end}"
    );

    // overlap is visible in the stamps: some upload runs on the DMA
    // channel while an earlier chunk's kernel occupies the CUs
    let overlapped = writes.iter().any(|w| {
        let ws = w.profile();
        launches.iter().any(|k| {
            let ks = k.profile();
            ws.started < ks.ended && ks.started < ws.ended
        })
    });
    assert!(overlapped, "chunked pipeline must overlap DMA with compute");

    // and the overlapped makespan beats full serialisation
    let serial: f64 = all.iter().map(|e| e.modeled_seconds()).sum();
    let first_start = all
        .iter()
        .map(|e| e.profile().started)
        .fold(f64::INFINITY, f64::min);
    assert!(last_end - first_start < serial);
}
