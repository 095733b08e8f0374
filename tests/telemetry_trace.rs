//! Unified host+device traces: telemetry spans injected into the Chrome
//! trace exporter next to the modeled device tracks.
//!
//! `hpl::telemetry::collect` captures the host-side span tree of an eval
//! pipeline while `hpl::profile` captures the backend events of the same
//! work; `chrome_trace_with_host` merges both into one `trace_event`
//! JSON. These tests hold that merged trace to the same schema validator
//! the PR 3 device-only traces pass, and check the host spans themselves
//! are well-nested.

use hpl::prelude::*;
use hpl::telemetry;
use oclsim::prof::json::{parse, Value};
use oclsim::prof::trace::HOST_PID;
use oclsim::{chrome_trace_with_host, validate_chrome_trace, Event};
use std::sync::Mutex;

/// The span sink is process-global and the tests below drain it, so they
/// must not interleave. (The kernel cache is not: each test runs under a
/// runtime of its own.)
static SERIAL: Mutex<()> = Mutex::new(());

fn saxpy(y: &Array<f64, 1>, x: &Array<f64, 1>, a: &Double) {
    y.at(idx()).assign(a.v() * x.at(idx()) + y.at(idx()));
}

/// Run a small workload under both collectors at once: spans from
/// telemetry, backend events from the profile scope.
fn collect_workload() -> (Vec<Event>, Vec<telemetry::SpanRecord>) {
    let ((_, report), spans) = telemetry::collect(|| {
        hpl::profile(|| {
            let y = Array::<f64, 1>::from_vec([128], vec![1.0; 128]);
            let x = Array::<f64, 1>::from_vec([128], vec![2.0; 128]);
            let a = Double::new(3.0);
            eval(saxpy).run((&y, &x, &a)).unwrap();
            eval(saxpy).run((&y, &x, &a)).unwrap();
            let _ = y.to_vec();
        })
    });
    let mut events: Vec<Event> = report.launches.iter().map(|l| l.event.clone()).collect();
    events.extend(report.transfers.iter().filter_map(|t| t.event.clone()));
    (events, spans)
}

#[test]
fn host_device_trace_passes_the_schema_validator() {
    let _guard = SERIAL.lock().unwrap();
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let device = rt.default_device();
    let (events, spans) = collect_workload();
    assert!(!events.is_empty(), "the profile scope saw backend events");
    assert!(!spans.is_empty(), "the telemetry layer saw host spans");

    let json = chrome_trace_with_host(&device, &events, &spans);
    validate_chrome_trace(&json).expect("host+device trace passes the PR 3 schema validator");

    // the host track is present: X slices under the synthetic host pid,
    // carrying the span categories of the eval pipeline
    let root = parse(&json).expect("trace parses");
    let trace_events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let host_slices: Vec<&Value> = trace_events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("pid").and_then(Value::as_num) == Some(HOST_PID as f64)
        })
        .collect();
    assert!(!host_slices.is_empty(), "host spans appear as X slices");
    let cats: Vec<&str> = host_slices
        .iter()
        .filter_map(|e| e.get("cat").and_then(Value::as_str))
        .collect();
    for expected in ["hpl", "coherence", "sched"] {
        assert!(
            cats.contains(&expected),
            "host track covers category `{expected}`: {cats:?}"
        );
    }
    // device tracks survive the injection: at least one slice under a
    // non-host pid (the CU/DMA tracks of the modeled device)
    assert!(
        trace_events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("pid").and_then(Value::as_num) != Some(HOST_PID as f64)
        }),
        "device slices still present in the merged trace"
    );
}

#[test]
fn host_span_nesting_is_well_formed() {
    let _guard = SERIAL.lock().unwrap();
    // a fresh runtime runs a cold pipeline, so recording, codegen and the
    // clc stages all appear in the tree
    let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
    let (_, spans) = collect_workload();
    telemetry::check_nesting(&spans).expect("span tree is well-nested");

    // the eval pipeline produced the expected hierarchy: a cache_lookup
    // span, and clc stages nested (transitively) under the hpl build
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"cache_lookup"), "{names:?}");
    assert!(names.contains(&"parse"), "{names:?}");
    // every parent a span names is a span of the same thread that
    // contains it in wall time — stricter than check_nesting's partial-
    // drain tolerance, valid here because collect() drained a full tree
    for s in &spans {
        if let Some(parent_id) = s.parent {
            let parent = spans
                .iter()
                .find(|p| p.id == parent_id)
                .unwrap_or_else(|| panic!("span `{}` has a drained parent", s.name));
            assert_eq!(parent.thread, s.thread, "parented across threads: {s:?}");
            assert!(
                parent.wall_start_us <= s.wall_start_us && s.wall_end_us <= parent.wall_end_us,
                "span `{}` escapes its parent `{}`",
                s.name,
                parent.name
            );
        }
    }
}
