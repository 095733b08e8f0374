//! Sanitizer precision on the real benchmark kernels: the
//! IR-dataflow-refined analysis, run over all ten sources (five
//! handwritten, five HPL-generated) plus the lint corpus, must strictly
//! reduce the conservative warning count versus the unrefined analysis
//! while leaving every error-severity finding untouched, and must produce
//! positive proved-safe verdicts on the benchmark kernels themselves.
//! Fewer false alarms, zero lost true alarms — measured on the kernels the
//! paper's figures are built from, not just synthetic cases.

use benchsuite::{ep, floyd, reduction, spmv, transpose};
use oclsim::clc::analysis::{self, DiagKind, Severity};
use oclsim::clc::{parser, pp, sema};
use oclsim::{Context, Program};

/// The corpus file whose conservative race warnings the dataflow facts
/// discharge — included here so the suite-wide warning total measurably
/// drops (the benchmark kernels are warning-clean to begin with).
const PROVED_SAFE_CORPUS: &str = include_str!("../../oclsim/tests/lint_corpus/proved_safe.cl");

fn tesla() -> oclsim::Device {
    hpl::runtime()
        .device_named("tesla")
        .expect("default platform has a Tesla-class GPU")
}

/// The ten benchmark kernel sources: (label, source text).
fn bench_sources(device: &oclsim::Device) -> Vec<(String, String)> {
    let hand = [
        ("ep.cl", ep::opencl_version::SOURCE),
        ("floyd.cl", floyd::opencl_version::SOURCE),
        ("transpose.cl", transpose::opencl_version::SOURCE),
        ("spmv.cl", spmv::opencl_version::SOURCE),
        ("reduction.cl", reduction::opencl_version::SOURCE),
    ];
    let gen = [
        ("ep (hpl)", ep::hpl_version::generated_source(device)),
        ("floyd (hpl)", floyd::hpl_version::generated_source(device)),
        (
            "transpose (hpl)",
            transpose::hpl_version::generated_source(device),
        ),
        ("spmv (hpl)", spmv::hpl_version::generated_source(device)),
        (
            "reduction (hpl)",
            reduction::hpl_version::generated_source(device),
        ),
    ];
    hand.iter()
        .map(|&(l, s)| (l.to_string(), s.to_string()))
        .chain(
            gen.into_iter()
                .map(|(l, s)| (l.to_string(), s.expect("HPL source generation"))),
        )
        .collect()
}

fn warnings(a: &analysis::Analysis) -> usize {
    a.diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count()
}

fn errors(a: &analysis::Analysis) -> Vec<(oclsim::clc::ast::Span, DiagKind, String)> {
    a.diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| (d.span, d.kind, d.message.clone()))
        .collect()
}

#[test]
fn refined_lint_is_strictly_more_precise_on_benchmark_kernels() {
    let device = tesla();
    let mut sources = bench_sources(&device);
    assert_eq!(sources.len(), 10);
    sources.push(("corpus".to_string(), PROVED_SAFE_CORPUS.to_string()));

    let mut total_warnings_before = 0usize;
    let mut total_warnings_after = 0usize;
    let mut bench_proved_notes = 0usize;
    for (label, src) in &sources {
        let plain = analysis::analyze_source(src)
            .unwrap_or_else(|e| panic!("{label}: unrefined lint failed: {e}"));
        let refined = analysis::analyze_source_refined(src)
            .unwrap_or_else(|e| panic!("{label}: refined lint failed: {e}"));

        // no error-severity finding may appear or disappear: the
        // refinement only demotes warnings and adds notes
        assert_eq!(
            errors(&plain),
            errors(&refined),
            "{label}: refinement changed error findings"
        );

        // warnings never increase per source
        let before = warnings(&plain);
        let after = warnings(&refined);
        assert!(
            after <= before,
            "{label}: refinement added warnings ({before} -> {after})"
        );
        total_warnings_before += before;
        total_warnings_after += after;

        if label != "corpus" {
            // the real kernels are warning-free before and after — the
            // refinement must not disturb that
            assert_eq!(before, 0, "{label}: benchmark kernel grew a warning");
            assert_eq!(after, 0, "{label}: refinement warned on a clean kernel");
            bench_proved_notes += refined
                .diagnostics
                .iter()
                .filter(|d| d.kind == DiagKind::ProvedSafe)
                .count();
        }
    }

    // across the suite the conservative-warning count strictly drops: the
    // corpus' demotable race warnings are discharged by the dataflow facts
    assert!(
        total_warnings_after < total_warnings_before,
        "no conservative warning was discharged \
         ({total_warnings_before} -> {total_warnings_after})"
    );
    // and the benchmark kernels get positive verdicts, not just silence:
    // EP's private annulus histogram, spmv's and reduction's fixed-extent
    // accumulators are all proved in bounds (handwritten and generated)
    assert!(
        bench_proved_notes >= 6,
        "expected proved-safe notes on the benchmark kernels, got {bench_proved_notes}"
    );
}

/// Every kernel of the lint corpus.
const LINT_CORPUS: [(&str, &str); 6] = [
    (
        "divergent_barrier.cl",
        include_str!("../../oclsim/tests/lint_corpus/divergent_barrier.cl"),
    ),
    (
        "oob_fixed_array.cl",
        include_str!("../../oclsim/tests/lint_corpus/oob_fixed_array.cl"),
    ),
    (
        "oob_launch.cl",
        include_str!("../../oclsim/tests/lint_corpus/oob_launch.cl"),
    ),
    ("proved_safe.cl", PROVED_SAFE_CORPUS),
    (
        "racy_transpose.cl",
        include_str!("../../oclsim/tests/lint_corpus/racy_transpose.cl"),
    ),
    (
        "uniform_addr_race.cl",
        include_str!("../../oclsim/tests/lint_corpus/uniform_addr_race.cl"),
    ),
];

/// An analysis as comparable data: the diagnostics and, per kernel, the
/// launch-time access records.
fn verdicts(a: &analysis::Analysis) -> (Vec<analysis::Diagnostic>, Vec<(String, String)>) {
    let mut launch: Vec<(String, String)> = a
        .kernels
        .iter()
        .map(|(k, s)| (k.clone(), format!("{:?}", s.launch_accesses)))
        .collect();
    launch.sort();
    (a.diagnostics.clone(), launch)
}

/// The refined sanitizer solves its stored-value facts only when a race
/// verdict reads them, and its interval facts only for kernels with a
/// fixed-extent array. Neither may change a verdict: on every corpus and
/// benchmark kernel it agrees with the oracle that solves everything up
/// front, called directly and inside `-O1` / `-O2` builds.
#[test]
fn on_demand_sanitizer_facts_match_the_eager_oracle() {
    let device = tesla();
    let context = Context::new(std::slice::from_ref(&device)).unwrap();
    let mut sources: Vec<(String, String)> = LINT_CORPUS
        .iter()
        .map(|&(l, s)| (l.to_string(), s.to_string()))
        .collect();
    sources.extend(bench_sources(&device));
    for (label, src) in &sources {
        let text = pp::preprocess(src, &Default::default()).unwrap();
        let tu = parser::parse(&text).unwrap();
        let module = sema::analyze(&tu).unwrap();
        let eager = verdicts(&analysis::analyze_tu_eager(&tu, &module));
        let lazy = verdicts(&analysis::analyze_tu_refined(&tu, &module));
        assert_eq!(lazy, eager, "{label}: on-demand facts changed a verdict");
        for level in ["-O1", "-O2"] {
            let p = Program::from_source(&context, src.as_str());
            // the lint corpus carries definite errors: build under Warn
            p.build(level).unwrap();
            let lints: Vec<_> = p
                .diagnostics()
                .into_iter()
                .filter(|d| d.kind != DiagKind::BackendFallback)
                .collect();
            assert_eq!(lints, eager.0, "{label} {level}: build lints differ");
        }
    }
}
