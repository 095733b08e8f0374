//! `bulk_kernels` and `bulk_cached`: few large launches at the
//! paper-scaled sizes with a warm kernel cache — the `exec::wg` bytecode
//! VM does nearly all the work. `bulk_cached` runs the same passes on
//! `tesla_c2050_cached`, where every global transaction is also replayed
//! through `prof::cache`: the same engine used differently, so a VM gain
//! that costs the cache-model path (or the reverse) moves the two
//! workloads apart.

use std::time::{Duration, Instant};

use oclsim::Device;

use super::five::{Five, Mode, Scale, NAMES};
use crate::common::{facts, latency_buffer, repeat_setup, Cfg, EndToEnd, PassFacts, Tally};
use crate::json::{num, text};
use crate::stats;
use crate::trace::{ReplayCounters, Tracer};

struct Ready {
    five: Five,
    device: Device,
    per_pass: PassFacts,
}

fn device(cached: bool) -> Device {
    let rt = hpl::runtime();
    if cached {
        rt.device_named("48k")
            .expect("the runtime lists tesla_c2050_cached")
    } else {
        rt.default_device()
    }
}

/// One pass: the five benchmarks once each, verified. `on_request` sees
/// each benchmark's index and wall time.
fn pass(
    r: &Ready,
    tally: &mut Tally,
    mut on_request: impl FnMut(usize, Duration),
) -> Result<(), String> {
    for (which, name) in NAMES.iter().enumerate() {
        let t0 = Instant::now();
        let ok = r.five.request(which, Mode::Blocking, &r.device)?;
        on_request(which, t0.elapsed());
        tally.check(ok, || format!("{name} differs from its serial reference"));
    }
    Ok(())
}

/// Seeded inputs and serial references, then one verified pass under
/// `hpl::profile`: it compiles the five kernels and yields the exact
/// per-pass facts.
fn setup(cfg: &Cfg, cached: bool, tally: &mut Tally) -> Result<Ready, String> {
    let mut r = Ready {
        five: Five::new(cfg.seed, if cfg.small { Scale::Test } else { Scale::Paper }),
        device: device(cached),
        per_pass: PassFacts::default(),
    };
    let (done, report) = hpl::profile(|| pass(&r, tally, |_, _| ()));
    done?;
    r.per_pass = facts(&report, &r.device);
    Ok(r)
}

pub fn run(cfg: &Cfg, cached: bool) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let (r, setup_s) = repeat_setup(cfg.setup_reps, || setup(cfg, cached, &mut tally))?;

    // a request is one benchmark's warm run; one pass is five requests
    let mut request_ms = latency_buffer(cfg.seconds, 1_000.0);
    let mut passes = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < cfg.seconds {
        pass(&r, &mut tally, |_, wall| {
            request_ms.push(wall.as_secs_f64() * 1e3)
        })?;
        passes += 1;
    }
    let timed_wall_s = t0.elapsed().as_secs_f64();

    Ok(EndToEnd {
        setup_s,
        timed_wall_s,
        request_ms,
        passes,
        per_pass: r.per_pass,
        tally,
        info: vec![
            ("device", text(r.device.name())),
            (
                "sizes",
                text(if cfg.small {
                    "test-scale"
                } else {
                    "paper-scaled"
                }),
            ),
            ("requests_per_pass", num(NAMES.len() as f64)),
            (
                "input_digest",
                text(format!("{:016x}", r.five.input_digest())),
            ),
        ],
    })
}

// ---- the traced run -------------------------------------------------------------

const REQUEST_SPANS: [&str; 5] = [
    "request.ep",
    "request.transpose",
    "request.reduction",
    "request.spmv",
    "request.floyd",
];
const NS_PER_INSTR: [&str; 5] = [
    "exec.wg.ns_per_instr.ep",
    "exec.wg.ns_per_instr.transpose",
    "exec.wg.ns_per_instr.reduction",
    "exec.wg.ns_per_instr.spmv",
    "exec.wg.ns_per_instr.floyd",
];
const MODELED_KERNEL_S: [&str; 5] = [
    "timing.modeled_kernel_s.ep",
    "timing.modeled_kernel_s.transpose",
    "timing.modeled_kernel_s.reduction",
    "timing.modeled_kernel_s.spmv",
    "timing.modeled_kernel_s.floyd",
];

/// The traced run: set-up, the probes of the five benchmarks, then the
/// replay.
pub fn trace(cfg: &Cfg, cached: bool, tr: &mut Tracer) -> Result<(), String> {
    let r = tr
        .rec
        .span("workload.setup", 0, |_| setup(cfg, cached, &mut tr.tally))?;
    probe(tr, &r)?;
    replay(cfg, tr, &r)
}

/// The workload replayed with a span per benchmark, and its exact facts.
fn replay(cfg: &Cfg, tr: &mut Tracer, r: &Ready) -> Result<(), String> {
    let counters = ReplayCounters::begin();
    let passes = tr.replay(cfg.seconds, |tally, on| {
        pass(r, tally, |which, wall| on(REQUEST_SPANS[which], wall))
    })?;
    counters.finish(tr, passes, &r.per_pass);
    Ok(())
}

/// Three warm requests of benchmark `which` on `device`, each verified:
/// their median wall microseconds.
fn timed_requests(
    tr: &mut Tracer,
    r: &Ready,
    span: &'static str,
    which: usize,
    device: &Device,
) -> Result<f64, String> {
    let mut walls = Vec::new();
    for _ in 0..3 {
        let (us, ok) = tr.time_us(span, 1, || r.five.request(which, Mode::Blocking, device))?;
        tr.tally.check(ok, || {
            format!(
                "{} on {} differs from its serial reference",
                NAMES[which],
                device.name()
            )
        });
        walls.push(us);
    }
    Ok(stats::median(&walls))
}

/// The five benchmarks, one at a time: the handwritten OpenCL version
/// (verified; the denominator of the paper's Fig. 8 modeled ratio), the
/// warm HPL request timed from outside, and the same request under
/// `hpl::profile`, whose launch and transfer events carry the simulator's
/// own wall time per command — the VM's and the DMA path's share of a
/// request (the `budget.*` shares) — and the exact counts.
///
/// Modeled seconds of the handwritten versions are timeline differences,
/// whose last bits depend on what the device ran before: this probe runs
/// before the time-boxed replay, after a set-up every traced run repeats
/// exactly.
fn probe(tr: &mut Tracer, r: &Ready) -> Result<(), String> {
    tr.rec.open("bench.probe.five_benchmarks", 0);
    let mut total = PassFacts::default();
    let (mut pass_us, mut profiled_us) = (0.0, 0.0);
    let mut ratios = Vec::new();
    for (which, name) in NAMES.iter().enumerate() {
        let (_, (opencl_kernel_s, ok)) = tr.time_us("request.opencl_version", 1, || {
            r.five.opencl(which, &r.device)
        })?;
        tr.tally.check(ok, || {
            format!("handwritten {name} differs from its serial reference")
        });

        let request_us = timed_requests(tr, r, REQUEST_SPANS[which], which, &r.device)?;
        pass_us += request_us;

        let (us, (ok, report)) = tr.time_us("request.profiled", 1, || {
            let (ok, report) = hpl::profile(|| r.five.request(which, Mode::Blocking, &r.device));
            ok.map(|ok| (ok, report))
        })?;
        tr.tally.check(ok, || {
            format!("profiled {name} differs from its serial reference")
        });
        profiled_us += us;
        let f = facts(&report, &r.device);
        tr.layers
            .set(NS_PER_INSTR[which], request_us * 1e3 / f.sim_instr as f64);
        tr.set_exact(MODELED_KERNEL_S[which], f.modeled_kernel_s);
        ratios.push(f.modeled_kernel_s / opencl_kernel_s);
        total.add(&f);
    }
    tr.rec.close();
    let counts = |f: &PassFacts| {
        (
            f.launches,
            f.sim_instr,
            f.mem_tx,
            f.barriers,
            f.h2d_bytes,
            f.d2h_bytes,
        )
    };
    tr.tally.check(counts(&total) == counts(&r.per_pass), || {
        "the exact counts of a pass changed between set-up and the probe".into()
    });
    tr.set_exact(
        "timing.modeled_hpl_vs_opencl_ratio",
        stats::geomean(&ratios),
    );
    tr.layers.set(
        "prof.counters.collect_overhead_ratio",
        profiled_us / pass_us,
    );
    tr.layers.set(
        "hpl.array.upload_us_per_mb",
        total.h2d_wall_s * 1e6 / (total.h2d_bytes as f64 / 1e6),
    );
    tr.layers
        .set("budget.exec_share", total.exec_wall_s * 1e6 / profiled_us);
    tr.layers.set(
        "budget.transfer_share",
        total.dma_wall_s * 1e6 / profiled_us,
    );

    // a raw blocking upload on the device's queue
    tr.rec.open("bench.probe.dma", 0);
    let entry = hpl::runtime().entry(&r.device);
    let words = total.h2d_bytes as usize / total.h2d_count.max(1) as usize / 4;
    let host = vec![1.0f32; words];
    let buffer = entry
        .context
        .create_buffer(words * 4, oclsim::MemAccess::ReadWrite)
        .map_err(|e| e.to_string())?;
    let (write_us, _) = tr.time_us("queue.enqueue_write", 5, || {
        entry.queue.enqueue_write(&buffer, 0, &host)
    })?;
    let back = buffer
        .read_vec::<f32>(0, words)
        .map_err(|e| e.to_string())?;
    tr.tally.check(back == host, || {
        "a blocking enqueue_write did not land in the buffer".into()
    });
    tr.layers
        .set("sched.dma_us_per_mb", write_us / (words as f64 * 4.0 / 1e6));
    entry.context.release_buffer(buffer);
    tr.rec.close();

    if r.device.profile().cache.is_some() {
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        tr.set_exact(
            "prof.cache.l1_hit_ratio",
            ratio(total.l1_hits, total.l1_misses),
        );
        tr.set_exact(
            "prof.cache.l2_hit_ratio",
            ratio(total.l2_hits, total.l2_misses),
        );
        // the same kernels on the plain Tesla: what replaying every global
        // transaction through the cache model costs the host
        tr.rec.open("bench.probe.plain_device", 0);
        let plain = device(false);
        let mut plain_us = 0.0;
        for (which, name) in NAMES.iter().enumerate() {
            // the first call compiles for this device
            let (_, ok) = tr.time_us("request.plain_device.first", 1, || {
                r.five.request(which, Mode::Blocking, &plain)
            })?;
            tr.tally.check(ok, || {
                format!("{name} on the plain device differs from its reference")
            });
            plain_us += timed_requests(tr, r, "request.plain_device", which, &plain)?;
        }
        tr.layers
            .set("prof.cache.host_overhead_ratio", pass_us / plain_us);
        tr.rec.close();
    }
    Ok(())
}
