//! The `report` subcommands whose output must not depend on how the
//! simulator is configured, rendered under every configuration in one
//! process and compared in memory.
//!
//! `ci.sh` used to run `report -- profile|annotate|cache` twelve times under
//! `OCLSIM_THREADS` / `OCLSIM_BACKEND` / `HPL_OPT_LEVEL` / `HPL_TELEMETRY`
//! and `diff` the files. Here each configuration is a fresh
//! [`hpl::Runtime`]; the text comes from the library functions the binary
//! prints from ([`bench::profile::render`], [`bench::annotate::render`],
//! [`bench::cachemodel::render`]), and their gate failures — what makes the
//! subcommand exit 1 (a redundant upload, an invalid Chrome trace, per-line
//! sums off the launch totals, a cache-model invariant) — must be empty in
//! every cell.

use std::path::PathBuf;

use bench::Rendered;
use hpl::{Config, Runtime};
use oclsim::{Backend, OptLevel};

/// Claimer counts × engines at `opt_level`, `wg` with one claimer first.
fn cells(opt_level: OptLevel) -> Vec<Config> {
    let mut out = Vec::new();
    for backend in [Backend::Wg, Backend::Ref] {
        for threads in [1, 4] {
            out.push(Config {
                threads,
                backend,
                opt_level,
            });
        }
    }
    out
}

/// A directory for the files the subcommands write next to their text. One
/// per test, shared by its cells: the path is part of the rendered text.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpl-report-matrix-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Render under a fresh runtime per cell; every cell passes its gates and
/// prints what the first cell printed.
fn assert_invariant(what: &str, cells: &[Config], render: impl Fn() -> Rendered) -> String {
    let mut first: Option<String> = None;
    for config in cells {
        let _scope = Runtime::new(*config).enter();
        let r = render();
        assert!(
            r.failures.is_empty(),
            "{what} gates under {config:?}: {:?}",
            r.failures
        );
        let reference = first.get_or_insert_with(|| r.text.clone());
        // not assert_eq: a mismatch would print two whole reports
        if *reference != r.text {
            let (a, b) = reference
                .lines()
                .zip(r.text.lines())
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

#[test]
fn profile_is_invariant_across_threads_engines_and_telemetry() {
    let dir = scratch("profile");
    let quiet = assert_invariant("profile", &cells(OptLevel::O1), || {
        bench::profile::render(&dir)
    });
    assert!(quiet.contains("[minimal]") && quiet.contains("l1.hit"));
    // telemetry observes the runtime, it never perturbs it: the same
    // report with span collection on
    let (traced, spans) = hpl::telemetry::collect(|| {
        assert_invariant("profile, telemetry on", &cells(OptLevel::O1)[..1], || {
            bench::profile::render(&dir)
        })
    });
    assert!(!spans.is_empty(), "telemetry was on");
    assert!(
        traced == quiet,
        "span collection changed the profile report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn annotate_is_invariant_across_threads_and_engines_at_o1_and_o2() {
    let dir = scratch("annotate");
    let mut texts = Vec::new();
    for level in [OptLevel::O1, OptLevel::O2] {
        // attribution survives the mid-end: DCE/CSE/LICM rewrite the IR but
        // every statement keeps its source span
        let text = assert_invariant("annotate", &cells(level), || bench::annotate::render(&dir));
        assert!(text.contains("hot lines across the corpus"));
        texts.push(text);
    }
    assert!(
        texts[0] != texts[1],
        "-O2 must show up in the listings' counters"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_is_invariant_across_threads_and_engines() {
    let text = assert_invariant("cache", &cells(OptLevel::O1), bench::cachemodel::render);
    assert!(text.contains("all hold"));
}
