//! The `report -- postmortem` experiment: end-to-end causal tracing and
//! the flight recorder, demonstrated on the kernel service.
//!
//! Three deterministic scenarios against one fresh [`oclsim::serve::Service`]:
//!
//! 1. a **successful** partitioned launch, whose finished
//!    [`oclsim::RequestTrace`] shows the full span tree — session →
//!    admission → cache → DMA → sched → partition chunks → exec launches
//!    — every node tagged with the request's [`oclsim::TraceId`];
//! 2. a **poisoned** partitioned launch (a pre-failed user event gates
//!    every chunk from index 1 on), whose [`oclsim::Postmortem`] carries
//!    the causal `DependencyFailed` chain down to the injected root
//!    cause, the failed span tree, the tenant's flight-recorder tail and
//!    the cache/quota state at the moment of failure;
//! 3. a **quota rejection** (launch quota of 1, second submit bounced by
//!    admission control), whose postmortem chains the admission error to
//!    the structured quota error.
//!
//! Everything printed is the *canonical* rendering — trace ids and
//! modeled seconds are pure functions of the workload, wall-clock fields
//! are omitted — so the whole text ([`render`]) and the merged Chrome
//! trace it writes are byte-identical across claimer counts, engines and
//! opt levels; `tests/sink_matrix.rs` compares them in one process.

use std::path::Path;

use oclsim::serve::{JobArg, LaunchJob, PartitionStrategy, TenantQuota};
use oclsim::{Error, Event, Postmortem, RequestTrace, Value};

use crate::outln;

/// The demo kernel; identical to the postmortem integration tests so the
/// rendered trees match what the test suite pins down.
const SAXPY: &str = r#"
__kernel void saxpy(__global float* y, __global const float* x, float a) {
    size_t i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"#;

fn saxpy_job(n: usize) -> LaunchJob {
    let x: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let y: Vec<u8> = (0..n)
        .flat_map(|i| ((i % 7) as f32).to_le_bytes())
        .collect();
    LaunchJob {
        source: SAXPY.to_string(),
        kernel: "saxpy".to_string(),
        build_options: String::new(),
        args: vec![
            JobArg::InOut(y),
            JobArg::In(x),
            JobArg::Scalar(Value::F32(2.0)),
        ],
        global: vec![n],
        // 256 items / 32 per group = 8 groups -> 4 dynamic chunks of 2
        local: Some(vec![32]),
    }
}

/// Everything `report -- postmortem` prints and gates on.
pub struct PostmortemReport {
    /// The successful partitioned request's span tree.
    pub success: RequestTrace,
    /// The poisoned partitioned launch's dump.
    pub poison: Postmortem,
    /// The quota rejection's dump.
    pub quota: Postmortem,
    /// Device timeline + poisoned span tree, one Chrome trace.
    pub merged_trace: String,
}

fn find_postmortem(tenant: &str) -> Result<Postmortem, String> {
    oclsim::take_postmortems()
        .into_iter()
        .find(|p| p.tenant == tenant)
        .ok_or_else(|| format!("no postmortem emitted for tenant `{tenant}`"))
}

/// Run the three scenarios. Self-contained: drains the completed-trace
/// and postmortem sinks first, uses its own tenants and a service that
/// executes like the calling thread's runtime.
pub fn compute() -> Result<PostmortemReport, String> {
    let service = crate::service()?;
    let _reader = oclsim::obs::collect_request_traces();
    drop(oclsim::obs::drain_request_traces());
    drop(oclsim::take_postmortems());

    // 1. the happy path: a dynamic partitioned launch across the
    // service's heterogeneous devices, traced end to end
    let s = service.session("demo-ok", TenantQuota::unlimited());
    s.submit_partitioned(
        &saxpy_job(256),
        PartitionStrategy::Dynamic { chunk_groups: 2 },
    )
    .map_err(|e| format!("successful partitioned launch failed: {e}"))?;
    let success = oclsim::obs::drain_request_traces()
        .into_iter()
        .find(|t| t.tenant == "demo-ok")
        .ok_or("the successful launch left no completed request trace")?;
    if success.failed {
        return Err("the successful launch's trace is marked failed".into());
    }

    // 2. the poisoned chain: chunks from index 1 on wait on a user event
    // the host has already failed, so they skip as DependencyFailed and
    // the root cause is the injected error
    let s = service.session("demo-poison", TenantQuota::unlimited());
    let gate = Event::user();
    gate.set_error(Error::InvalidOperation("injected poison".into()))
        .map_err(|e| e.to_string())?;
    let err = s
        .submit_partitioned_with(
            &saxpy_job(256),
            PartitionStrategy::Dynamic { chunk_groups: 2 },
            Some((1, gate)),
        )
        .err()
        .ok_or("the poisoned launch unexpectedly succeeded")?;
    if !matches!(err, Error::DependencyFailed { .. }) {
        return Err(format!("poisoned launch failed the wrong way: {err}"));
    }
    let poison = find_postmortem("demo-poison")?;

    // 3. admission rejection: a quota of one launch, blown on the second
    let s = service.session(
        "demo-quota",
        TenantQuota {
            max_launches: Some(1),
            ..TenantQuota::default()
        },
    );
    s.submit(0, &saxpy_job(32)).map_err(|e| e.to_string())?;
    let err = s
        .submit(0, &saxpy_job(32))
        .err()
        .ok_or("the over-quota launch unexpectedly succeeded")?;
    if !matches!(err, Error::AdmissionRejected { .. }) {
        return Err(format!("over-quota launch failed the wrong way: {err}"));
    }
    let quota = find_postmortem("demo-quota")?;

    // The merged export: the poisoned request's span tree spliced into a
    // Chrome trace alongside the device tracks. Both time bases are
    // modeled/synthetic, so the file is byte-stable across thread counts
    // and backends.
    let device = service
        .devices()
        .into_iter()
        .next()
        .ok_or("service has no devices")?;
    let merged_trace = oclsim::prof::splice_chrome_events(
        &oclsim::chrome_trace(&device, &[]),
        &poison.chrome_trace_events(),
    );
    oclsim::validate_chrome_trace(&merged_trace)
        .map_err(|e| format!("merged postmortem trace is invalid: {e}"))?;

    Ok(PostmortemReport {
        success,
        poison,
        quota,
        merged_trace,
    })
}

/// The report's invariants: the poisoned dump's causal chain reaches the
/// injection, both dumps carry their tenants' recorder tails, every span
/// line of every tree is tagged with its request's trace id, and the
/// merged trace holds the poisoned request's spans.
pub fn violations(r: &PostmortemReport) -> Vec<String> {
    let mut v = Vec::new();
    if !r
        .poison
        .error_chain
        .last()
        .is_some_and(|e| e.contains("injected poison"))
    {
        v.push(format!(
            "poison chain does not end at the injected root cause: {:?}",
            r.poison.error_chain
        ));
    }
    if r.poison.error_chain.len() < 2 {
        v.push("poison chain is not causal (fewer than two links)".into());
    }
    if !r
        .quota
        .error_chain
        .last()
        .is_some_and(|e| e.contains("quota exceeded"))
    {
        v.push(format!(
            "quota chain does not reach the structured quota error: {:?}",
            r.quota.error_chain
        ));
    }
    for (what, trace) in [
        ("success", &r.success),
        ("poison", &r.poison.request),
        ("quota", &r.quota.request),
    ] {
        let id = trace.trace.to_string();
        for line in trace.render(true).lines() {
            if !line.contains(&id) {
                v.push(format!("{what} span line missing trace id: {line}"));
            }
        }
    }
    for (what, pm) in [("poison", &r.poison), ("quota", &r.quota)] {
        if pm.recorder_tail.is_empty() {
            v.push(format!("{what} dump has an empty flight-recorder tail"));
        }
        if !pm
            .recorder_tail
            .iter()
            .any(|e| e.stage == "session.submit" && e.trace == Some(pm.trace))
        {
            v.push(format!(
                "{what} recorder tail lacks the originating submission"
            ));
        }
    }
    // the merged file carries the spliced postmortem span events, tagged
    // with the poisoned request's trace id, next to the device tracks
    if !(r.merged_trace.contains("\"session.submit\"")
        && r.merged_trace.contains(&r.poison.trace.to_string()))
    {
        v.push("merged trace lacks the poisoned request's span events".into());
    }
    // the success tree spans the full pipeline
    for stage in [
        "admission",
        "cache.lookup",
        "sched.dma",
        "sched.enqueue",
        "partition.chunk",
        "exec.launch",
    ] {
        if r.success.nodes_with_stage(stage).is_empty() {
            v.push(format!("success trace has no `{stage}` node"));
        }
    }
    v
}

/// `report -- postmortem`: the success tree and both dumps, canonically
/// rendered, with the merged device+postmortem Chrome trace written to
/// `dir` as `postmortem-trace.json`. Gates: [`violations`], and the
/// canonical renderings carry no wall-clock field.
pub fn render(dir: &Path) -> crate::Rendered {
    let mut r = crate::Rendered::titled(
        "Postmortem — causal tracing + flight recorder on the kernel service",
    );
    let report = match compute() {
        Ok(report) => report,
        Err(e) => {
            r.failures.push(format!("postmortem demo failed: {e}"));
            return r;
        }
    };
    let success = report.success.render(true);
    let poison = report.poison.render(true);
    let quota = report.quota.render(true);
    if [&success, &poison, &quota]
        .iter()
        .any(|text| text.contains("wall"))
    {
        r.failures
            .push("a canonical rendering carries a wall-clock field".into());
    }
    outln!(
        r.text,
        "--- successful partitioned launch: request span tree ---"
    );
    r.text.push_str(&success);
    outln!(
        r.text,
        "\n--- poisoned partitioned launch: postmortem dump ---"
    );
    r.text.push_str(&poison);
    outln!(r.text, "\n--- quota rejection: postmortem dump ---");
    r.text.push_str(&quota);
    let out = dir.join("postmortem-trace.json");
    match crate::write_artifact(&out, &report.merged_trace) {
        Ok(()) => outln!(
            r.text,
            "\nmerged device+postmortem trace written: {}",
            out.display()
        ),
        Err(e) => r
            .failures
            .push(format!("could not write {}: {e}", out.display())),
    }
    r.failures.extend(violations(&report));
    r
}
