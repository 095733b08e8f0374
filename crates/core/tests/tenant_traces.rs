//! The request traces and postmortem dumps of HPL evals inside a tenant
//! scope, pinned. A fresh `hpl::Runtime` and a fresh `serve::Service` make
//! every string deterministic: kernel names restart at `_0`, each tenant's
//! trace ids at `-001`, and the shared binary cache starts empty. Four
//! request shapes are covered, each by a tenant of its own:
//!
//! - a blocking eval that misses every cache, then the same eval hitting;
//! - `run_async` + `wait`;
//! - an eval rejected by the launch quota;
//! - an eval rejected by the compile-byte quota.
//!
//! The canonical renderings (`RequestTrace::render(true)`,
//! `Postmortem::render(true)`) must equal the committed
//! `tenant_traces.txt` byte for byte. To re-capture after an intended
//! change, copy the `actual` file the failure message names over it and
//! review the diff.
//!
//! This file holds one test on purpose: it drains the process-wide
//! completed-trace and postmortem sinks.

use std::sync::Arc;

use hpl::prelude::*;
use hpl::{Config, Runtime};
use oclsim::serve::{Service, ServiceConfig, TenantQuota};
use oclsim::OptLevel;

const EXPECTED: &str = include_str!("tenant_traces.txt");

fn saxpy(y: &Array<f32, 1>, x: &Array<f32, 1>, a: &Float) {
    y.at(idx()).assign(a.v() * x.at(idx()) + y.at(idx()));
}

fn scale(y: &Array<f32, 1>, a: &Float) {
    y.at(idx()).assign(y.at(idx()) * a.v());
}

fn bump(y: &Array<f32, 1>) {
    y.at(idx()).assign(y.at(idx()) + 1.0f32);
}

/// Every completed trace and postmortem of the four scenarios, canonically
/// rendered in the order the sinks received them.
fn render() -> String {
    let rt = Runtime::new(Config {
        opt_level: OptLevel::O1,
        ..Config::from_env()
    });
    let _rt = rt.enter();
    let service = Service::new(ServiceConfig::default()).expect("service");
    let _reader = oclsim::obs::collect_request_traces();
    drop(oclsim::obs::drain_request_traces());
    drop(oclsim::take_postmortems());

    let n = 256;
    let y = Array::<f32, 1>::from_vec([n], (0..n).map(|i| i as f32).collect());
    let x = Array::<f32, 1>::from_vec([n], vec![1.0; n]);
    let a = Float::new(2.0);

    // 1. blocking: a miss everywhere, then the same eval hitting
    {
        let s = Arc::new(service.session("golden-blocking", TenantQuota::unlimited()));
        let _scope = hpl::enter_tenant(s);
        eval(saxpy).run((&y, &x, &a)).expect("first blocking eval");
        eval(saxpy).run((&y, &x, &a)).expect("second blocking eval");
    }
    // 2. run_async + wait
    {
        let s = Arc::new(service.session("golden-async", TenantQuota::unlimited()));
        let _scope = hpl::enter_tenant(s);
        let pending = eval(scale).run_async((&y, &a)).expect("async eval");
        pending.wait().expect("async wait");
    }
    // 3. the launch quota: one launch allowed, the second rejected
    {
        let s = Arc::new(service.session(
            "golden-launches",
            TenantQuota {
                max_launches: Some(1),
                ..TenantQuota::default()
            },
        ));
        let _scope = hpl::enter_tenant(s);
        eval(saxpy).run((&y, &x, &a)).expect("in-quota eval");
        let err = eval(saxpy).run((&y, &x, &a)).unwrap_err();
        assert!(
            matches!(
                err,
                hpl::Error::Backend(oclsim::Error::AdmissionRejected { .. })
            ),
            "{err}"
        );
    }
    // 4. the compile-byte quota: a kernel nobody has built yet
    {
        let s = Arc::new(service.session(
            "golden-compile",
            TenantQuota {
                max_compile_bytes: Some(8),
                ..TenantQuota::default()
            },
        ));
        let _scope = hpl::enter_tenant(s);
        let err = eval(bump).run((&y,)).unwrap_err();
        assert!(
            matches!(
                err,
                hpl::Error::Backend(oclsim::Error::AdmissionRejected { .. })
            ),
            "{err}"
        );
    }

    let mut out = String::new();
    for trace in oclsim::obs::drain_request_traces() {
        if trace.tenant.starts_with("golden-") {
            out.push_str(&format!("=== request of \"{}\"\n", trace.tenant));
            out.push_str(&trace.render(true));
        }
    }
    for pm in oclsim::take_postmortems() {
        if pm.tenant.starts_with("golden-") {
            out.push_str(&pm.render(true));
        }
    }
    out
}

#[test]
fn tenant_scope_traces_and_postmortems_match_the_committed_renderings() {
    let actual = render();
    if actual == EXPECTED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tenant_traces.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual renderings");
    let (n, (a, e)) = actual
        .lines()
        .chain(std::iter::repeat("<end of renderings>"))
        .zip(
            EXPECTED
                .lines()
                .chain(std::iter::repeat("<end of renderings>")),
        )
        .enumerate()
        .find(|(_, (a, e))| a != e)
        .expect("the renderings differ, so some line does");
    panic!(
        "renderings differ from tests/tenant_traces.txt at line {}:\n  expected: {e}\n  \
         actual:   {a}\nthe whole actual text is in {}",
        n + 1,
        path.display()
    );
}
