//! Postmortem dumps for poisoned dependency chains: the serve layer must
//! emit a self-contained dump — full causal `Error::DependencyFailed`
//! chain, span tree, flight-recorder tail, cache/quota state — for sync
//! (partitioned) and async submissions, on both execution backends, and
//! the canonical rendering must not depend on the backend.

use std::sync::Mutex;

mod common;

use oclsim::serve::{JobArg, LaunchJob, PartitionStrategy, Service, ServiceConfig, TenantQuota};
use oclsim::{take_postmortems, Backend, Error, Event, ExecConfig, Postmortem};

/// The default two-GPU service with its devices executing as `exec` says.
fn service(exec: ExecConfig) -> Service {
    Service::new(ServiceConfig {
        exec,
        ..ServiceConfig::default()
    })
    .unwrap()
}

/// `(engine, tenant-name suffix)` for the tests that cover both engines.
fn engines() -> [(ExecConfig, &'static str); 2] {
    common::engines().map(|exec| (exec, exec.backend.name()))
}

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
            JobArg::Scalar(2.0f32.into()),
        ],
        global: vec![n],
        // explicit local size so partitioned launches split into several
        // work-group chunks (256 items -> 8 groups)
        local: Some(vec![32]),
    }
}

/// A user event pre-failed from the host: the deterministic poison every
/// test injects (no exec-layer fault races, no backend-specific text).
fn poisoned_gate() -> Event {
    let gate = Event::user();
    gate.set_error(Error::InvalidOperation("injected poison".into()))
        .unwrap();
    gate
}

/// Tests here drain the process-global postmortem sink; serialize them.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn find_postmortem(tenant: &str) -> Postmortem {
    take_postmortems()
        .into_iter()
        .find(|p| p.tenant == tenant)
        .unwrap_or_else(|| panic!("no postmortem emitted for tenant {tenant}"))
}

fn run_poisoned_partitioned(exec: ExecConfig, tenant: &str) -> Postmortem {
    let svc = service(exec);
    let s = svc.session(tenant, TenantQuota::unlimited());
    let err = s
        .submit_partitioned_with(
            &saxpy_job(256),
            // fixed-size chunks so several are issued (8 groups -> 4
            // chunks) and the gate poisons everything from chunk 1 on
            PartitionStrategy::Dynamic { chunk_groups: 2 },
            Some((1, poisoned_gate())),
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::DependencyFailed { .. }),
        "gated chunk must fail as a poisoned dependency, got: {err}"
    );
    assert!(
        matches!(err.root_cause(), Error::InvalidOperation(_)),
        "root cause must be the injected host error, got: {}",
        err.root_cause()
    );
    find_postmortem(tenant)
}

#[test]
fn sync_partitioned_poison_emits_causal_postmortem_on_both_backends() {
    let _g = lock();
    for (exec, engine) in engines() {
        let pm = run_poisoned_partitioned(exec, &format!("pm-sync-{engine}"));
        // the full causal chain, outermost first, down to the injection
        assert!(pm.error_chain.len() >= 2, "{:?}", pm.error_chain);
        assert!(
            pm.error_chain[0].contains("dependency failed"),
            "{:?}",
            pm.error_chain
        );
        assert!(
            pm.error_chain.last().unwrap().contains("injected poison"),
            "{:?}",
            pm.error_chain
        );
        // the span tree covers session → admission → cache → sched →
        // partition chunk → exec launch, every node tagged with the id
        let rendered = pm.render(true);
        for stage in [
            "session.submit",
            "admission",
            "cache.lookup",
            "sched.dma",
            "sched.enqueue",
            "partition.chunk",
            "exec.launch",
        ] {
            assert!(rendered.contains(stage), "missing {stage} in:\n{rendered}");
        }
        assert!(rendered.contains("(gated)"), "{rendered}");
        let id = pm.trace.to_string();
        for line in pm.request.render(true).lines() {
            assert!(line.contains(&id), "span node missing trace id: {line}");
        }
        // the flight-recorder tail contains the originating submission
        // and the failure, attributed to this request
        assert!(
            pm.recorder_tail
                .iter()
                .any(|e| e.stage == "session.submit" && e.trace == Some(pm.trace)),
            "tail lacks the originating submission: {rendered}"
        );
        assert!(
            pm.recorder_tail
                .iter()
                .any(|e| e.stage == "error" && e.detail.contains("injected poison")),
            "tail lacks the failure event: {rendered}"
        );
    }
}

#[test]
fn async_poisoned_dependency_emits_postmortem_at_wait_on_both_backends() {
    let _g = lock();
    for (exec, engine) in engines() {
        let tenant = &format!("pm-async-{engine}");
        let s = service(exec).session(tenant, TenantQuota::unlimited());
        let pending = s
            .submit_async(0, &saxpy_job(64), &[poisoned_gate()])
            .unwrap();
        let trace = pending.trace();
        let err = pending.wait().unwrap_err();
        assert!(matches!(err, Error::DependencyFailed { .. }), "{err}");
        assert!(
            matches!(err.root_cause(), Error::InvalidOperation(_)),
            "{}",
            err.root_cause()
        );
        let pm = find_postmortem(tenant);
        assert_eq!(pm.trace, trace, "dump belongs to the waited request");
        assert!(
            pm.error_chain.last().unwrap().contains("injected poison"),
            "{:?}",
            pm.error_chain
        );
        let rendered = pm.render(true);
        assert!(rendered.contains("external dep(s)"), "{rendered}");
        assert!(
            rendered.contains("sched.enqueue") && rendered.contains("!error"),
            "the enqueue node must carry the poisoning error:\n{rendered}"
        );
        assert!(
            pm.recorder_tail
                .iter()
                .any(|e| e.stage == "session.submit" && e.trace == Some(trace)),
            "tail lacks the originating async submission"
        );
    }
}

#[test]
fn quota_rejection_emits_postmortem_with_admission_chain() {
    let _g = lock();
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session(
        "pm-quota",
        TenantQuota {
            max_launches: Some(1),
            ..TenantQuota::default()
        },
    );
    s.submit(0, &saxpy_job(32)).unwrap();
    let err = s.submit(0, &saxpy_job(32)).unwrap_err();
    assert!(matches!(err, Error::AdmissionRejected { .. }), "{err}");
    let pm = find_postmortem("pm-quota");
    assert!(
        pm.error_chain.last().unwrap().contains("quota exceeded"),
        "{:?}",
        pm.error_chain
    );
    let rendered = pm.render(true);
    assert!(
        rendered.contains("admission") && rendered.contains("!error"),
        "the admission node must carry the rejection:\n{rendered}"
    );
    assert!(rendered.contains("quota: launches 1/1"), "{rendered}");
}

/// Canonicalize the tenant-identity parts of a dump so two runs of the
/// same scenario under *different tenant names* (hence different trace-id
/// hashes) can be byte-compared.
fn canonicalized(pm: &Postmortem) -> String {
    let hash_prefix: String = pm.trace.to_string().chars().take(9).collect();
    pm.render(true)
        .replace(&hash_prefix, "tXXXXXXXX")
        .replace(&pm.tenant, "TENANT")
}

#[test]
fn postmortem_content_is_identical_across_backends() {
    let _g = lock();
    let on = |backend| ExecConfig {
        backend,
        ..ExecConfig::from_env()
    };
    let ref_pm = run_poisoned_partitioned(on(Backend::Ref), "pm-diff-ref");
    let wg_pm = run_poisoned_partitioned(on(Backend::Wg), "pm-diff-wg");
    assert_eq!(
        canonicalized(&ref_pm),
        canonicalized(&wg_pm),
        "canonical postmortem content must not depend on the exec backend"
    );
    // the chrome export is deterministic too (modeled-time timeline only)
    oclsim::prof::validate_chrome_trace(&ref_pm.chrome_trace()).unwrap();
    assert_eq!(
        ref_pm
            .chrome_trace()
            .replace(&ref_pm.trace.to_string(), "T")
            .replace("pm-diff-ref", "TENANT"),
        wg_pm
            .chrome_trace()
            .replace(&wg_pm.trace.to_string(), "T")
            .replace("pm-diff-wg", "TENANT"),
    );
}
