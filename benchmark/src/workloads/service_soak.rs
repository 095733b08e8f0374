//! `service_soak`: `oclsim::serve::Service` with the default Tesla+Quadro
//! pair under `min(nproc, 2)` tenant threads. Each tenant runs a seeded
//! mix at test-scale sizes inside an `hpl::enter_tenant` scope: the five
//! benchmarks alternating blocking and asynchronous HPL, and after every
//! ten of those a `Session::submit_partitioned` saxpy over both devices,
//! rotating Static/Dynamic/HGuided. `serve` (shared binary cache hits,
//! sessions, partitioner), the async side of `sched` and the always-on
//! `obs` request tracing do most of the work. With one simulator worker
//! the work-groups run inline on the tenant thread, so no thread-spawn
//! cost appears: a win here is not the win `launch_chain` sees. Quotas
//! are unlimited, so nothing is rejected by design.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use oclsim::serve::{
    run_reference, JobArg, LaunchJob, PartitionOutcome, PartitionStrategy, Service, ServiceConfig,
    Session, TenantQuota,
};
use oclsim::{Device, Value};

use super::five::{Five, Mode, Scale, NAMES};
use crate::common::{digest, facts, latency_buffer, repeat_setup, Cfg, EndToEnd, PassFacts, Tally};
use crate::json::{num, text};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats;
use crate::trace::{ReplayCounters, Tracer};

/// Work-items of the partitioned saxpy (16-item groups: 1 024 groups).
const SAXPY_N: usize = 16 * 1024;
const SAXPY_A: f32 = 2.0;

/// Enough arithmetic per item that the split is worth its launches.
const SAXPY_SRC: &str = r#"
__kernel void saxpy_heavy(__global float* y, __global const float* x, float a) {
    size_t i = get_global_id(0);
    float acc = y[i];
    for (int k = 0; k < 64; k++) {
        acc = acc * 0.5f + a * x[i] * 0.25f;
    }
    y[i] = acc;
}
"#;

const STRATEGIES: [(&str, PartitionStrategy); 3] = [
    ("static", PartitionStrategy::Static),
    ("dynamic", PartitionStrategy::Dynamic { chunk_groups: 128 }),
    (
        "hguided",
        PartitionStrategy::HGuided {
            min_chunk_groups: 64,
        },
    ),
];

/// One tenant request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Request {
    Bench { which: usize, mode: Mode },
    Partitioned { strategy: usize },
}

struct Ready {
    service: Service,
    device: Device,
    five: Five,
    job: LaunchJob,
    /// Single-device outputs of `job` (`run_reference`).
    reference: Vec<Vec<u8>>,
    /// The run's seed: every tenant draws its request orders from it.
    seed: u64,
    /// The pass the warm-up tenant ran.
    mix: Vec<Request>,
    per_pass: PassFacts,
}

/// One pass: three rounds, each the ten benchmark requests (five
/// benchmarks, blocking and asynchronous) and one partitioned submit (the
/// round's strategy) in an order drawn from `rng`. Every pass holds the
/// same requests, so its exact facts do not depend on the order. The
/// partitioned submit is shuffled in with the rest: at a fixed place in
/// the round, two tenants' long submits stay in (or out of) phase for a
/// whole run, and throughput takes one of two values.
fn draw_pass(rng: &mut Rng) -> Vec<Request> {
    let mut mix = Vec::with_capacity(ROUND * STRATEGIES.len());
    for strategy in 0..STRATEGIES.len() {
        let mut round: Vec<Request> = (0..NAMES.len())
            .flat_map(|which| {
                [Mode::Blocking, Mode::Async].map(|mode| Request::Bench { which, mode })
            })
            .collect();
        round.push(Request::Partitioned { strategy });
        rng.shuffle(&mut round);
        mix.extend(round);
    }
    mix
}

/// Requests of one round.
const ROUND: usize = 11;

fn saxpy_job(rng: &mut Rng) -> (LaunchJob, Vec<f32>) {
    let x: Vec<f32> = (0..SAXPY_N)
        .map(|_| rng.below(1 << 12) as f32 * 0.125)
        .collect();
    let y: Vec<f32> = (0..SAXPY_N).map(|_| rng.below(1 << 8) as f32).collect();
    // the same arithmetic in Rust: every operation is one IEEE f32 op
    let expected = x
        .iter()
        .zip(&y)
        .map(|(&x, &y)| (0..64).fold(y, |acc, _| acc * 0.5 + SAXPY_A * x * 0.25))
        .collect();
    let bytes = |v: &[f32]| v.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<u8>>();
    let job = LaunchJob {
        source: SAXPY_SRC.to_string(),
        kernel: "saxpy_heavy".to_string(),
        build_options: String::new(),
        args: vec![
            JobArg::InOut(bytes(&y)),
            JobArg::In(bytes(&x)),
            JobArg::Scalar(Value::F32(SAXPY_A)),
        ],
        global: vec![SAXPY_N],
        local: Some(vec![16]),
    };
    (job, expected)
}

impl Ready {
    /// Issue one request on `session` (whose tenant scope is active on
    /// this thread) and verify it. A partitioned submit also returns its
    /// outcome.
    fn request(
        &self,
        session: &Session,
        req: Request,
    ) -> Result<(bool, Option<PartitionOutcome>), String> {
        match req {
            Request::Bench { which, mode } => {
                Ok((self.five.request(which, mode, &self.device)?, None))
            }
            Request::Partitioned { strategy } => {
                let outcome = session
                    .submit_partitioned(&self.job, STRATEGIES[strategy].1)
                    .map_err(|e| format!("partitioned submit ({}): {e}", STRATEGIES[strategy].0))?;
                Ok((outcome.outputs == self.reference, Some(outcome)))
            }
        }
    }

    /// One pass over `mix`. `on_request` sees each request, its wall time
    /// and a partitioned submit's outcome.
    fn pass(
        &self,
        session: &Session,
        mix: &[Request],
        tally: &mut Tally,
        mut on_request: impl FnMut(Request, Duration, Option<PartitionOutcome>),
    ) -> Result<(), String> {
        for &req in mix {
            let t0 = Instant::now();
            let (ok, outcome) = self.request(session, req)?;
            on_request(req, t0.elapsed(), outcome);
            tally.check(ok, || format!("{req:?} mis-verified"));
        }
        // the completed-trace sink is process-wide and only bounded at 64 Ki
        // traces; a tenant that never reads its traces would grow the
        // process for the whole run
        drop(oclsim::obs::drain_request_traces());
        Ok(())
    }
}

/// A fresh service, seeded inputs with their references, and the warm-up
/// tenant: it runs one verified pass under `hpl::profile`, so every
/// capture, codegen and backend build lands on it and the soak tenants
/// can only hit the shared binary cache.
fn setup(cfg: &Cfg, tally: &mut Tally) -> Result<Ready, String> {
    let service = Service::new(ServiceConfig::default()).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(cfg.seed);
    let five = Five::new(rng.next_u64(), Scale::Soak);
    let (job, expected) = saxpy_job(&mut rng);

    let targets = service.partition_targets(&job).map_err(|e| e.to_string())?;
    let reference = run_reference(&targets[0], &job)
        .map_err(|e| e.to_string())?
        .outputs;
    let expected_bytes: Vec<u8> = expected.iter().flat_map(|f| f.to_le_bytes()).collect();
    tally.check(reference == [expected_bytes], || {
        "run_reference of the saxpy differs from the same arithmetic in Rust".into()
    });

    let mix = draw_pass(&mut rng);

    let mut r = Ready {
        service,
        device: hpl::runtime().default_device(),
        five,
        job,
        reference,
        seed: cfg.seed,
        mix,
        per_pass: PassFacts::default(),
    };

    let session = Arc::new(r.service.session("_warmup", TenantQuota::unlimited()));
    let _scope = hpl::enter_tenant(Arc::clone(&session));
    let mut partitioned = PassFacts::default();
    let (done, report) = hpl::profile(|| {
        r.pass(&session, &r.mix, tally, |_, _, outcome| {
            for chunk in outcome.iter().flat_map(|o| &o.chunks) {
                partitioned.launches += 1;
                partitioned.modeled_kernel_s += chunk.modeled_seconds;
            }
        })
    });
    done?;
    // simulated instruction counts cover the HPL launches only: a
    // partitioned submit returns modeled seconds per chunk, not counts
    r.per_pass = facts(&report, &r.device);
    r.per_pass.add(&partitioned);
    Ok(r)
}

/// What one tenant thread brings back: its per-request state, whole
/// passes completed, and verification tally.
type TenantResult<S> = Result<(S, u64, Tally), String>;

/// The soak itself: `cfg.clients` tenant threads, each its own tenant of
/// `r.service` inside an `hpl::enter_tenant` scope, start together and run
/// whole passes for `seconds`. `state(t)` makes tenant `t`'s per-request
/// state, `on_request` updates it after every request.
fn tenants<S: Send>(
    r: &Ready,
    cfg: &Cfg,
    seconds: f64,
    state: impl Fn(usize) -> S + Sync,
    on_request: impl Fn(&mut S, Request, Duration) + Sync,
) -> Result<Vec<(S, u64, Tally)>, String> {
    let start = Barrier::new(cfg.clients);
    let results: Vec<TenantResult<S>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|t| {
                let (start, state, on_request) = (&start, &state, &on_request);
                scope.spawn(move || -> TenantResult<S> {
                    let session = Arc::new(
                        r.service
                            .session(&format!("tenant{t}"), TenantQuota::unlimited()),
                    );
                    let _scope = hpl::enter_tenant(Arc::clone(&session));
                    let mut tally = Tally::default();
                    let mut state = state(t);
                    // each tenant draws its own order for every pass, so
                    // the tenants do not march through the mix in lockstep
                    let mut rng =
                        Rng::new(r.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut passes = 0u64;
                    start.wait();
                    let t0 = Instant::now();
                    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
                        let mix = draw_pass(&mut rng);
                        r.pass(&session, &mix, &mut tally, |req, wall, _| {
                            on_request(&mut state, req, wall)
                        })?;
                        passes += 1;
                    }
                    Ok((state, passes, tally))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a tenant thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect()
}

/// The checks that close a soak: the warm-up tenant compiled everything,
/// so a soak tenant that built a kernel means the shared cache did not
/// share; and nothing may have failed into a postmortem dump.
fn closing_checks(cfg: &Cfg, tally: &mut Tally) {
    let stats = oclsim::telemetry::metrics().tenant_stats();
    for t in 0..cfg.clients {
        let misses = stats
            .get(&format!("tenant{t}"))
            .map_or(0, |s| s.cache_misses);
        tally.check(misses == 0, || {
            format!("tenant{t} compiled {misses} kernel(s) the warm-up should have left resident")
        });
    }
    let postmortems = oclsim::take_postmortems().len();
    tally.check(postmortems == 0, || {
        format!("{postmortems} postmortem dump(s) in a soak where nothing may fail")
    });
}

pub fn run(cfg: &Cfg) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let (r, setup_s) = repeat_setup(cfg.setup_reps, || setup(cfg, &mut tally))?;

    let t0 = Instant::now();
    let per_tenant = tenants(
        &r,
        cfg,
        cfg.seconds,
        |_| latency_buffer(cfg.seconds, 2_000.0),
        |ms: &mut Vec<f64>, _, wall| ms.push(wall.as_secs_f64() * 1e3),
    )?;
    let timed_wall_s = t0.elapsed().as_secs_f64();

    let mut request_ms = Vec::new();
    let mut passes = 0u64;
    for (ms, p, t) in per_tenant {
        request_ms.extend(ms);
        passes += p;
        tally.absorb(t);
    }
    closing_checks(cfg, &mut tally);

    Ok(EndToEnd {
        setup_s,
        timed_wall_s,
        request_ms,
        passes,
        per_pass: r.per_pass,
        tally,
        info: vec![
            ("tenants", num(cfg.clients as f64)),
            ("requests_per_pass", num(r.mix.len() as f64)),
            ("saxpy_items", num(SAXPY_N as f64)),
            (
                "input_digest",
                text(format!(
                    "{:016x}",
                    digest(
                        [r.five.input_digest()]
                            .into_iter()
                            .chain(r.reference[0].iter().map(|&b| b as u64))
                    )
                )),
            ),
        ],
    })
}

// ---- the traced run -------------------------------------------------------------

fn span_name(req: Request) -> &'static str {
    const BLOCKING: [&str; 5] = [
        "request.ep.blocking",
        "request.transpose.blocking",
        "request.reduction.blocking",
        "request.spmv.blocking",
        "request.floyd.blocking",
    ];
    const ASYNC: [&str; 5] = [
        "request.ep.async",
        "request.transpose.async",
        "request.reduction.async",
        "request.spmv.async",
        "request.floyd.async",
    ];
    match req {
        Request::Bench {
            which,
            mode: Mode::Blocking,
        } => BLOCKING[which],
        Request::Bench {
            which,
            mode: Mode::Async,
        } => ASYNC[which],
        Request::Partitioned { .. } => "request.partitioned",
    }
}

/// The traced run: set-up, the serve-layer probes, then the replay.
pub fn trace(cfg: &Cfg, tr: &mut Tracer) -> Result<(), String> {
    let r = tr
        .rec
        .span("workload.setup", 0, |_| setup(cfg, &mut tr.tally))?;
    probe(tr, &r)?;
    replay(cfg, tr, &r)
}

/// The soak replayed — untraced, then with a span per request on every
/// tenant thread (a recorder each, on the run's epoch) — and its exact
/// facts.
fn replay(cfg: &Cfg, tr: &mut Tracer, r: &Ready) -> Result<(), String> {
    let counters = ReplayCounters::begin();

    tr.rec.open("workload.untraced_replay", 0);
    let t0 = Instant::now();
    let untraced = tenants(r, cfg, cfg.seconds * 0.2, |_| 0u64, |n, _, _| *n += 1)?;
    let untraced_wall = t0.elapsed();
    tr.rec.close();
    tr.rec.open("workload.tenant_threads", 0);
    let epoch = tr.epoch;
    let t0 = Instant::now();
    let traced = tenants(
        r,
        cfg,
        cfg.seconds * 0.3,
        |t| (Recorder::new(epoch), Vec::new(), t as u64 + 1),
        |(rec, walls, tenant): &mut (Recorder, Vec<f64>, u64), req, wall| {
            rec.closed(span_name(req), *tenant, wall);
            walls.push(wall.as_secs_f64() * 1e3);
        },
    )?;
    let traced_wall = t0.elapsed();
    tr.rec.close();

    let (mut untraced_requests, mut passes) = (0, 0);
    for (n, p, t) in untraced {
        untraced_requests += n;
        passes += p;
        tr.tally.absorb(t);
    }
    let mut request_ms: Vec<f64> = Vec::new();
    for ((rec, ms, _), p, t) in traced {
        passes += p;
        tr.rec.absorb(rec);
        request_ms.extend(ms);
        tr.tally.absorb(t);
    }
    tr.set_trace_overhead(
        (traced_wall, request_ms.len() as u64),
        (untraced_wall, untraced_requests),
    );
    tr.set_request_tail(request_ms);
    closing_checks(cfg, &mut tr.tally);

    counters.finish(tr, passes, &r.per_pass);
    Ok(())
}

/// The serve layer, one call at a time on a probe tenant: a small
/// `Session::submit`, each partition strategy, one pass of the mix under
/// `hpl::profile` (the VM's and the DMA path's share: the `budget.*`
/// shares), and the overlap pipeline.
///
/// A partitioned submit's modeled seconds are timeline differences, whose
/// last bits depend on what the service's devices ran before: this probe
/// runs before the time-boxed replay, after a set-up every traced run
/// repeats exactly.
fn probe(tr: &mut Tracer, r: &Ready) -> Result<(), String> {
    tr.rec.open("bench.probe.serve", 0);
    let session = Arc::new(r.service.session("tenant_probe", TenantQuota::unlimited()));
    let small = LaunchJob {
        global: vec![1024],
        args: match &r.job.args[..] {
            [JobArg::InOut(y), JobArg::In(x), a] => {
                vec![
                    JobArg::InOut(y[..4096].to_vec()),
                    JobArg::In(x[..4096].to_vec()),
                    a.clone(),
                ]
            }
            _ => return Err("the saxpy job changed shape".into()),
        },
        ..r.job.clone()
    };
    let mut submit_us = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..200 {
        // a rejection is counted, not passed on: `serve.session.rejected`
        // reports it and fails the run's verdict
        let (us, outcome) = tr.time_us("serve.session.submit", 1, || {
            Ok::<_, String>(session.submit(0, &small))
        })?;
        submit_us.push(us);
        let ok = match outcome {
            Ok(o) => o.outputs[0][..] == r.reference[0][..4096],
            Err(oclsim::Error::AdmissionRejected { .. }) => {
                rejected += 1;
                false
            }
            Err(_) => false,
        };
        tr.tally.check(ok, || {
            "a small Session::submit failed or mis-verified".into()
        });
    }
    submit_us.sort_by(f64::total_cmp);
    tr.layers.set(
        "serve.session.submit_us_p50",
        stats::percentile(&submit_us, 50.0),
    );
    tr.layers.set(
        "serve.session.submit_us_p99",
        stats::percentile(&submit_us, 99.0),
    );
    tr.set_exact("serve.session.rejected", rejected as f64);
    let mut partition_us = Vec::new();
    for (strategy, exact) in [
        "serve.partition.static_makespan_modeled_s",
        "serve.partition.dynamic_makespan_modeled_s",
        "serve.partition.hguided_makespan_modeled_s",
    ]
    .into_iter()
    .enumerate()
    {
        for _ in 0..5 {
            let (us, (ok, o)) = tr.time_us("serve.session.submit_partitioned", 1, || {
                r.request(&session, Request::Partitioned { strategy })
            })?;
            partition_us.push(us);
            tr.tally.check(ok, || {
                format!(
                    "partitioned ({}) differs from run_reference",
                    STRATEGIES[strategy].0
                )
            });
            tr.set_exact(exact, o.map_or(0.0, |o| o.makespan_seconds));
        }
    }
    tr.layers.set(
        "serve.partition.wall_ms",
        stats::median(&partition_us) / 1e3,
    );
    tr.rec.close();

    tr.rec.open("bench.probe.profiled_pass", 0);
    let scope = hpl::enter_tenant(Arc::clone(&session));
    let mut profiled = Tally::default();
    let mut partitioned_wall = Duration::ZERO;
    let (pass_us, report) = tr.time_us("pass.profiled", 1, || {
        let (done, report) = hpl::profile(|| {
            r.pass(&session, &r.mix, &mut profiled, |req, wall, _| {
                if matches!(req, Request::Partitioned { .. }) {
                    partitioned_wall += wall;
                }
            })
        });
        done.map(|()| report)
    })?;
    drop(scope);
    tr.tally.absorb(profiled);
    let p = facts(&report, &r.device);
    tr.layers
        .set("budget.exec_share", p.exec_wall_s * 1e6 / pass_us);
    tr.layers
        .set("budget.transfer_share", p.dma_wall_s * 1e6 / pass_us);
    tr.layers.set(
        "budget.serve_share",
        partitioned_wall.as_secs_f64() * 1e6 / pass_us,
    );
    tr.rec.close();

    // transfers overlapping kernels on the modeled timeline, outside any
    // tenant: makespan over the serialised sum
    tr.rec.open("bench.probe.overlap_pipeline", 0);
    let rt = hpl::runtime();
    let devices = [
        rt.default_device(),
        rt.device_named("xeon").ok_or("no CPU device")?,
    ];
    let (_, outcome) = tr.time_us("benchsuite.pipeline.run", 1, || {
        benchsuite::pipeline::run(&benchsuite::pipeline::PipelineConfig::default(), &devices)
    })?;
    tr.tally.check(outcome.verified, || {
        "the overlap pipeline mis-verified".into()
    });
    tr.set_exact(
        "sched.overlap_ratio_modeled",
        outcome.makespan_seconds / outcome.sum_command_seconds,
    );
    tr.set_exact("obs.postmortems", oclsim::take_postmortems().len() as f64);
    tr.rec.close();
    Ok(())
}
