//! The `report` experiments that read the process-wide sinks — the
//! metrics registry, the completed-trace sink and the postmortem sink —
//! rendered under every configuration in one process and compared in
//! memory.
//!
//! `metrics`, `soak` and `postmortem` reset or drain those sinks, so this
//! binary holds exactly one `#[test]`: nothing else in the process touches
//! them while a cell runs. Each cell is a fresh [`hpl::Runtime`]; the soak
//! and the postmortem demo build their kernel service with that runtime's
//! claimer count and engine, and every service mints its own tenants'
//! trace ids, so cell N renders what cell 1 rendered.

use bench::soak::{SoakConfig, SoakReport};
use hpl::prelude::*;
use hpl::{Config, Runtime};
use oclsim::{Backend, OptLevel};

fn cell(threads: usize, backend: Backend, opt_level: OptLevel) -> Config {
    Config {
        threads,
        backend,
        opt_level,
    }
}

/// One and four claimers on the `wg` engine at the default level.
fn claimer_cells() -> Vec<Config> {
    [1, 4]
        .map(|threads| cell(threads, Backend::Wg, OptLevel::default()))
        .to_vec()
}

/// Run `render` (text, gate failures) under a fresh runtime per cell;
/// every cell passes its gates and yields the text the first cell did.
fn assert_invariant(
    what: &str,
    cells: &[Config],
    render: impl Fn() -> (String, Vec<String>),
) -> String {
    let mut first: Option<String> = None;
    for config in cells {
        let _scope = Runtime::new(*config).enter();
        let (text, failures) = render();
        assert!(
            failures.is_empty(),
            "{what} gates under {config:?}: {failures:?}"
        );
        let reference = first.get_or_insert_with(|| text.clone());
        // not assert_eq: a mismatch would print two whole reports
        if *reference != text {
            let (a, b) = reference
                .lines()
                .zip(text.lines())
                .find(|(a, b)| a != b)
                .unwrap_or(("<one text is a prefix of the other>", ""));
            panic!(
                "{what} under {config:?} differs from {:?}:\n  {a}\n  {b}",
                cells[0]
            );
        }
    }
    first.expect("at least one cell")
}

/// The soak's per-tenant rows: every soak tenant was served from the
/// shared cache and completed all its requests; only the greedy tenant's
/// rejected request failed.
fn soak_row_failures(report: &SoakReport, config: &SoakConfig) -> Vec<String> {
    let mut v = report.healthy();
    if report.total_launches == 0 || report.resident_binaries == 0 {
        v.push("the soak launched nothing".into());
    }
    if report.tenant_rows.len() != config.tenants + 2 {
        v.push(format!(
            "{} tenant rows, want warm-up + {} tenants + greedy",
            report.tenant_rows.len(),
            config.tenants
        ));
    }
    for row in &report.tenant_rows {
        let s = &row.stats;
        if row.tenant.starts_with("tenant")
            && (s.cache_misses != 0 || s.cache_hits == 0 || s.launches == 0)
        {
            v.push(format!("{}: {s:?}", row.tenant));
        }
    }
    for t in 0..config.tenants {
        let name = format!("tenant{t}");
        match report.latency_rows.iter().find(|r| r.tenant == name) {
            Some(r)
                if r.requests > 0 && r.failed == 0 && r.p50_ms <= r.p99_ms && r.per_sec > 0.0 => {}
            other => v.push(format!("{name} latency row: {other:?}")),
        }
    }
    match report.latency_rows.iter().find(|r| r.tenant == "greedy") {
        Some(r) if r.failed == 1 => {}
        other => v.push(format!("greedy latency row, want one failure: {other:?}")),
    }
    for needle in [
        "oclsim_serve_launches_total",
        "oclsim_serve_tenant_launches_total{tenant=\"tenant0\"}",
    ] {
        if !report.metrics_snapshot.contains(needle) {
            v.push(format!("snapshot lacks {needle}"));
        }
    }
    v
}

#[test]
fn sink_reports_are_invariant_across_threads_engines_and_opt_levels() {
    // metrics: every steady-state run cached, and the whole text — the
    // canonical snapshot included — independent of the claimer count
    let metrics = assert_invariant("metrics", &claimer_cells(), || {
        let r = bench::runtime_metrics::render();
        (r.text, r.failures)
    });
    assert_eq!(
        metrics.matches("[cached]").count(),
        2 * bench::profile::BENCHES.len(),
        "{metrics}"
    );

    // soak: healthy, and its canonical snapshot independent of the
    // claimer count
    let config = SoakConfig {
        tenants: 4,
        iterations: 1,
        greedy_launches: 3,
    };
    assert_invariant("soak snapshot", &claimer_cells(), || {
        let report = bench::soak::compute(&bench::tesla(), &config).expect("soak runs");
        let failures = soak_row_failures(&report, &config);
        (report.metrics_snapshot, failures)
    });

    // postmortem: text and merged trace independent of the claimer count,
    // the engine and the mid-end level (the raw serve path never reads it);
    // written into a checkout that has no `target/` yet
    let checkout = std::env::temp_dir().join(format!("hpl-sink-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&checkout);
    let dir = checkout.join("target");
    let mut cells = Vec::new();
    for backend in [Backend::Wg, Backend::Ref] {
        for threads in [1, 4] {
            cells.push(cell(threads, backend, OptLevel::default()));
        }
    }
    cells.push(cell(4, Backend::Wg, OptLevel::O2));
    let both = assert_invariant("postmortem", &cells, || {
        let r = bench::postmortem::render(&dir);
        let trace = std::fs::read_to_string(dir.join("postmortem-trace.json")).unwrap_or_default();
        (format!("{}\n{trace}", r.text), r.failures)
    });
    assert!(
        both.contains("postmortem t") && both.contains("\"traceEvents\""),
        "{both}"
    );
    let _ = std::fs::remove_dir_all(&checkout);

    // a plain eval (no tenant scope) that faults is a request of the
    // runtime's own session, dumped like any tenant's
    let failures = assert_invariant("plain-eval postmortem", &claimer_cells(), || {
        let rt = hpl::runtime();
        drop(oclsim::take_postmortems());
        let y = Array::<f32, 1>::new([64]);
        let err = eval(out_of_bounds).run((&y,)).unwrap_err();
        let mut v = Vec::new();
        let fault = |e: &oclsim::Error| matches!(e.root_cause(), oclsim::Error::MemoryFault { .. });
        if !matches!(&err, hpl::Error::Backend(e) if fault(e)) {
            v.push(format!("plain eval failed the wrong way: {err}"));
        }
        let dumps = oclsim::take_postmortems();
        let [pm] = &dumps[..] else {
            return (String::new(), vec![format!("{} dumps", dumps.len())]);
        };
        if pm.tenant != hpl::runtime::DEFAULT_TENANT || pm.trace.seq() != 1 {
            v.push(format!("dump of {} {}", pm.tenant, pm.trace));
        }
        if pm.quota.launches != 1 || pm.cache.resident != rt.session().binary_cache().len() {
            v.push(format!("{:?} {:?}", pm.quota, pm.cache));
        }
        // the stages, without the fault's own wording
        let stages: Vec<String> = pm
            .request
            .root
            .children
            .iter()
            .map(|n| format!("{} {} {}", n.stage, n.detail, n.error.is_some()))
            .collect();
        (stages.join("\n"), v)
    });
    for stage in [
        "admission ok (launch 1) false",
        "cache.lookup hpl kernel cache: miss (capture + codegen) (`hpl_out_of_bounds_0`) false",
        "sched.enqueue ndrange global [64] true",
    ] {
        assert!(failures.contains(stage), "{stage}:\n{failures}");
    }
}

/// Every work item writes one past the end of `y`: a device fault.
fn out_of_bounds(y: &Array<f32, 1>) {
    y.at(szx()).assign(1.0f32);
}
