//! `launch_chain`: warm Floyd–Warshall on 64 nodes, driven launch by
//! launch through `hpl::eval(..).run(..)` — 64 dependent launches of 4 096
//! work-items per pass with the matrix resident on the device. The VM does
//! little per launch and the compiler nothing, so the fixed per-launch
//! cost (kernel-cache hit, argument binding and coherence, scheduler
//! enqueue→dispatch, `exec::launch` spawning its worker scope) dominates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use benchsuite::floyd::{self, FloydConfig};
use hpl::prelude::*;
use oclsim::serve::{Service, ServiceConfig, TenantQuota};
use oclsim::{Device, MemAccess, Program};

use crate::common::{digest, facts, latency_buffer, repeat_setup, Cfg, EndToEnd, PassFacts, Tally};
use crate::json::{num, text};
use crate::stats;
use crate::trace::{ReplayCounters, Tracer};

const NODES: usize = 64;
const LOCAL: usize = 16;

/// One Floyd–Warshall pass over intermediate vertex `k`, as the AMD APP
/// SDK writes it: the store happens only where the path through `k` is
/// shorter, so the executed instruction count depends on the graph.
/// (benchsuite's own kernel is `pub(super)`; it uses an unconditional
/// `min`.)
pub fn floyd_pass(dist: &Array<u32, 2>, k: &Int) {
    let x = Int::new(0);
    let y = Int::new(0);
    x.assign(idx());
    y.assign(idy());
    let through = Uint::new(0);
    through.assign(dist.at((y.v(), k.v())) + dist.at((k.v(), x.v())));
    if_(through.v().lt(dist.at((y.v(), x.v()))), || {
        dist.at((y.v(), x.v())).assign(through.v());
    });
}

/// The seeded graph and its serial shortest paths.
struct Inputs {
    graph: Vec<u32>,
    reference: Vec<u32>,
}

fn inputs(seed: u64) -> Inputs {
    let graph = floyd::generate_graph(&FloydConfig { nodes: NODES, seed });
    let reference = floyd::serial(&graph, NODES);
    Inputs { graph, reference }
}

/// Device-side state of a set-up workload.
struct Ready {
    device: Device,
    dist: Array<u32, 2>,
    k: Int,
    per_pass: PassFacts,
}

/// One launch of the chain.
fn launch(r: &Ready, k: usize) -> Result<hpl::EvalProfile, hpl::Error> {
    r.k.set(k as i32);
    eval(floyd_pass)
        .device(&r.device)
        .global(&[NODES, NODES])
        .local(&[LOCAL, LOCAL])
        .run((&r.dist, &r.k))
}

/// One pass: fresh graph to the device (uploaded by the first launch),
/// `NODES` dependent launches, result back and compared with the serial
/// reference. `on_launch` sees every launch's `k` and wall time.
fn pass(
    inp: &Inputs,
    r: &Ready,
    mut on_launch: impl FnMut(usize, Duration),
) -> Result<bool, String> {
    r.dist.write_from(&inp.graph);
    for k in 0..NODES {
        let t0 = Instant::now();
        launch(r, k).map_err(|e| format!("launch {k}: {e}"))?;
        on_launch(k, t0.elapsed());
    }
    Ok(r.dist.to_vec() == inp.reference)
}

/// Build the inputs, compile the kernel (first pass) and run one verified
/// pass under `hpl::profile` for the exact per-pass facts.
fn setup(seed: u64, tally: &mut Tally) -> Result<(Inputs, Ready), String> {
    let inp = inputs(seed);
    let mut r = Ready {
        device: hpl::runtime().default_device(),
        dist: Array::from_vec([NODES, NODES], inp.graph.clone()),
        k: Int::new(0),
        per_pass: PassFacts::default(),
    };
    let (ok, report) = hpl::profile(|| pass(&inp, &r, |_, _| ()));
    tally.check(ok?, || "set-up pass differs from floyd::serial".into());
    r.per_pass = facts(&report, &r.device);
    Ok((inp, r))
}

pub fn run(cfg: &Cfg) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let ((inp, r), setup_s) = repeat_setup(cfg.setup_reps, || setup(cfg.seed, &mut tally))?;

    let mut request_ms = latency_buffer(cfg.seconds, 20_000.0);
    let mut passes = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < cfg.seconds {
        let ok = pass(&inp, &r, |_, wall| {
            request_ms.push(wall.as_secs_f64() * 1e3)
        })?;
        tally.check(ok, || format!("pass {passes} differs from floyd::serial"));
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
            ("floyd_nodes", num(NODES as f64)),
            ("local", num(LOCAL as f64)),
            ("requests_per_pass", num(NODES as f64)),
            (
                "input_digest",
                text(format!(
                    "{:016x}",
                    digest(inp.graph.iter().map(|&w| w as u64))
                )),
            ),
        ],
    })
}

// ---- the traced run -------------------------------------------------------------

/// A no-op kernel: what a launch costs before the VM executes anything.
const NOOP_SRC: &str = "__kernel void noop(__global uint* p) { }\n";

/// One hardware warp.
const WARP: usize = 32;

/// Passes (of `NODES` launches) each launch-path probe measures.
const PROBE_PASSES: usize = 10;

/// The traced run: set-up, the launch-path probes, then the replay.
pub fn trace(cfg: &Cfg, tr: &mut Tracer) -> Result<(), String> {
    let (inp, r) = tr
        .rec
        .span("workload.setup", 0, |_| setup(cfg.seed, &mut tr.tally))?;
    probe(tr, &inp, &r)?;
    replay(cfg, tr, &inp, &r)
}

/// The workload replayed with a span per launch, and its exact facts.
fn replay(cfg: &Cfg, tr: &mut Tracer, inp: &Inputs, r: &Ready) -> Result<(), String> {
    let counters = ReplayCounters::begin();
    let passes = tr.replay(cfg.seconds, |tally, on| {
        let ok = pass(inp, r, |_, wall| on("hpl.eval.run", wall))?;
        tally.check(ok, || "replayed pass differs from floyd::serial".into());
        Ok(())
    })?;
    counters.finish(tr, passes, &r.per_pass);
    Ok(())
}

/// The launch path, one layer at a time: the launches through `hpl::eval`,
/// then a blocking `CommandQueue::enqueue_ndrange` of the same built kernel
/// on a resident buffer, then a no-op kernel of the same geometry — so the
/// warm-eval overhead, the fixed launch cost and the VM's instruction time
/// come apart by differencing (the `budget.*` shares). Then the oracle
/// engine, the asynchronous side of the scheduler, and what telemetry spans
/// and tenant request tracing add to a pass.
fn probe(tr: &mut Tracer, inp: &Inputs, r: &Ready) -> Result<(), String> {
    let err = |e: oclsim::Error| e.to_string();
    tr.rec.open("bench.probe.launch_path", 0);
    // through hpl: host write, first launch (uploads), the other 63, download
    let (mut write_us, mut first_us, mut eval_us, mut download_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for p in 0..PROBE_PASSES {
        let (us, ()) = tr.time_us("hpl.array.write_from", 1, || {
            r.dist.write_from(&inp.graph);
            Ok::<_, String>(())
        })?;
        write_us.push(us);
        first_us.push(tr.time_us("hpl.eval.run.first", 1, || launch(r, 0))?.0);
        for k in 1..NODES {
            eval_us.push(tr.time_us("hpl.eval.run", 1, || launch(r, k))?.0);
        }
        let (us, got) = tr.time_us("hpl.array.to_vec", 1, || Ok::<_, String>(r.dist.to_vec()))?;
        download_us.push(us);
        tr.tally.check(got == inp.reference, || {
            format!("probe pass {p} through hpl::eval differs from floyd::serial")
        });
    }
    let eval_us = stats::median(&eval_us);

    // the same built kernel, geometry and resident buffer through the queue
    let source = launch(r, 0).map_err(|e| e.to_string())?.source;
    let entry = hpl::runtime().entry(&r.device);
    let program = Program::from_source(&entry.context, source.as_str());
    program.build(hpl::opt_level().flag()).map_err(err)?;
    let names = program.kernel_names().map_err(err)?;
    let kernel = program
        .kernel(names.first().ok_or("no kernel in the generated source")?)
        .map_err(err)?;
    if kernel.num_args() != 4 {
        return Err(format!(
            "generated kernel takes {} arguments, expected (dist, k, d0, d1)",
            kernel.num_args()
        ));
    }
    let buffer = entry
        .context
        .create_buffer_from(&inp.graph, MemAccess::ReadWrite)
        .map_err(err)?;
    kernel.set_arg_buffer(0, &buffer).map_err(err)?;
    kernel.set_arg_scalar(2, NODES as i32).map_err(err)?;
    kernel.set_arg_scalar(3, NODES as i32).map_err(err)?;
    let direct = |k: usize| -> Result<(), oclsim::Error> {
        kernel.set_arg_scalar(1, k as i32)?;
        entry
            .queue
            .enqueue_ndrange(&kernel, &[NODES, NODES], Some(&[LOCAL, LOCAL]))
            .map(drop)
    };
    // one chain of `NODES` direct launches from the seeded graph, each
    // timed; the result must be the serial reference's
    let direct_chain = |tr: &mut Tracer, span: &'static str| -> Result<Vec<f64>, String> {
        buffer.write_slice(0, &inp.graph).map_err(err)?;
        let us = (0..NODES)
            .map(|k| Ok(tr.time_us(span, 1, || direct(k))?.0))
            .collect::<Result<Vec<f64>, String>>()?;
        let got = buffer.read_vec::<u32>(0, NODES * NODES).map_err(err)?;
        tr.tally.check(got == inp.reference, || {
            format!("{span}: the chain differs from floyd::serial")
        });
        Ok(us)
    };
    let mut direct_us = Vec::new();
    for _ in 0..PROBE_PASSES {
        direct_us.extend(direct_chain(tr, "queue.enqueue_ndrange")?);
    }
    let direct_us = stats::median(&direct_us);

    // a no-op kernel of the same geometry, then of one and of 4 096 one-warp
    // groups
    let noop_program = Program::from_source(&entry.context, NOOP_SRC);
    noop_program.build("").map_err(err)?;
    let noop = noop_program.kernel("noop").map_err(err)?;
    noop.set_arg_buffer(0, &buffer).map_err(err)?;
    let (same_geometry_us, _) =
        tr.time_us("queue.enqueue_ndrange.noop", PROBE_PASSES * NODES, || {
            entry
                .queue
                .enqueue_ndrange(&noop, &[NODES, NODES], Some(&[LOCAL, LOCAL]))
        })?;
    let (one_group_us, _) = tr.time_us("queue.enqueue_ndrange.noop_1_group", 500, || {
        entry.queue.enqueue_ndrange(&noop, &[WARP], Some(&[WARP]))
    })?;
    let (many_groups_us, _) = tr.time_us("queue.enqueue_ndrange.noop_4096_groups", 50, || {
        entry
            .queue
            .enqueue_ndrange(&noop, &[WARP * 4096], Some(&[WARP]))
    })?;
    tr.rec.close();

    let instr_per_launch = r.per_pass.sim_instr as f64 / r.per_pass.launches as f64;
    tr.layers
        .set("hpl.eval.warm_overhead_us", eval_us - direct_us);
    tr.layers.set("exec.launch.empty_launch_us", one_group_us);
    tr.layers.set(
        "exec.launch.us_per_group",
        (many_groups_us - one_group_us) / 4095.0,
    );
    // where one pass goes: 64 × (eval − direct) is hpl's, 64 × the no-op
    // launch is sched + exec::launch, the rest of the direct launch the
    // VM; the first launch's surplus and both host copies the transfers
    let n = NODES as f64;
    let transfer_us = (stats::median(&first_us) - eval_us).max(0.0)
        + stats::median(&write_us)
        + stats::median(&download_us);
    let pass_us = n * eval_us + transfer_us;
    tr.layers.set(
        "budget.hpl_eval_share",
        n * (eval_us - direct_us).max(0.0) / pass_us,
    );
    tr.layers
        .set("budget.launch_fixed_share", n * same_geometry_us / pass_us);
    tr.layers.set(
        "budget.exec_share",
        n * (direct_us - same_geometry_us).max(0.0) / pass_us,
    );
    tr.layers
        .set("budget.transfer_share", transfer_us / pass_us);

    tr.rec.open("bench.probe.engines", 0);
    // the oracle engine on the same launches (process-global switch:
    // restored at once, also when a launch fails)
    oclsim::set_backend(oclsim::Backend::Ref);
    let interp_us = direct_chain(tr, "queue.enqueue_ndrange.ref_backend");
    oclsim::set_backend(oclsim::Backend::Wg);
    tr.layers.set(
        "exec.interp.ns_per_instr",
        stats::median(&interp_us?) * 1e3 / instr_per_launch,
    );

    // the asynchronous side of the scheduler: enqueue return time, and a
    // chain of dependent no-op launches on the out-of-order queue
    let (async_us, _) = tr.time_us("queue.enqueue_ndrange_async", 200, || {
        entry
            .async_queue
            .enqueue_ndrange_async(&noop, &[WARP], Some(&[WARP]), &[])
    })?;
    entry.async_queue.finish();
    tr.layers.set("sched.async_enqueue_us", async_us);
    const CHAIN: usize = 256;
    let (chain_us, _) = tr.time_us("queue.dependent_chain", 5, || {
        let mut wait: Vec<oclsim::Event> = Vec::new();
        for _ in 0..CHAIN {
            wait = vec![entry.async_queue.enqueue_ndrange_async(
                &noop,
                &[WARP],
                Some(&[WARP]),
                &wait,
            )?];
        }
        entry.async_queue.finish();
        Ok::<_, oclsim::Error>(())
    })?;
    tr.layers
        .set("sched.chain_us_per_cmd", chain_us / CHAIN as f64);
    tr.rec.close();

    tr.rec.open("bench.probe.instrumentation", 0);
    let timed_pass = |tr: &mut Tracer, name: &'static str| -> Result<f64, String> {
        let (us, ok) = tr.time_us(name, 1, || pass(inp, r, |_, _| ()))?;
        tr.tally
            .check(ok, || format!("{name}: pass differs from floyd::serial"));
        Ok(us)
    };
    // telemetry spans on / off, alternating
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        off.push(timed_pass(tr, "pass.telemetry_off")?);
        hpl::telemetry::set_enabled(true);
        let with_spans = timed_pass(tr, "pass.telemetry_on");
        hpl::telemetry::set_enabled(false);
        drop(hpl::telemetry::drain_spans());
        on.push(with_spans?);
    }
    tr.layers.set(
        "telemetry.spans_overhead_ratio",
        stats::median(&on) / stats::median(&off),
    );
    // inside a tenant scope every eval is a traced request
    let service = Service::new(ServiceConfig::default()).map_err(err)?;
    let session = Arc::new(service.session("trace_probe", TenantQuota::unlimited()));
    let (mut outside, mut inside) = (Vec::new(), Vec::new());
    {
        let _scope = hpl::enter_tenant(Arc::clone(&session));
        timed_pass(tr, "pass.tenant_warmup")?;
    }
    for _ in 0..5 {
        outside.push(timed_pass(tr, "pass.no_tenant")?);
        let _scope = hpl::enter_tenant(Arc::clone(&session));
        inside.push(timed_pass(tr, "pass.in_tenant")?);
        drop(oclsim::obs::drain_request_traces());
    }
    tr.layers.set(
        "obs.tenant_trace_overhead_ratio",
        stats::median(&inside) / stats::median(&outside),
    );
    tr.set_exact("obs.postmortems", oclsim::take_postmortems().len() as f64);
    tr.rec.close();
    Ok(())
}
