//! Green-path lint assertions: every handwritten benchmark kernel must
//! pass the static sanitizer without findings, and running the HPL
//! versions — sync and async — must leave the kernel-lint sink empty (the
//! sanitizer checks every HPL-generated kernel as part of the backend
//! build).

use oclsim::clc::analysis::analyze_source;
use oclsim::Severity;

fn assert_clean(name: &str, src: &str) {
    let analysis = analyze_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bad: Vec<String> = analysis.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        bad.is_empty(),
        "{name} should lint clean:\n{}",
        bad.join("\n")
    );
}

#[test]
fn ep_kernel_lints_clean() {
    assert_clean("ep.cl", include_str!("../src/kernels/ep.cl"));
}

#[test]
fn floyd_kernel_lints_clean() {
    assert_clean("floyd.cl", include_str!("../src/kernels/floyd.cl"));
}

#[test]
fn reduction_kernel_lints_clean() {
    assert_clean("reduction.cl", include_str!("../src/kernels/reduction.cl"));
}

#[test]
fn spmv_kernel_lints_clean() {
    assert_clean("spmv.cl", include_str!("../src/kernels/spmv.cl"));
}

#[test]
fn transpose_kernel_lints_clean() {
    assert_clean("transpose.cl", include_str!("../src/kernels/transpose.cl"));
}

#[test]
fn hpl_benchmarks_lint_clean_in_sync_and_async_versions() {
    use benchsuite::{ep, floyd, reduction, spmv, transpose};
    // the lint sink belongs to the runtime: a fresh one holds exactly what
    // the ten runs below put there
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let device = rt.default_device();

    let ep_cfg = ep::EpConfig::default();
    ep::hpl_version::run(&ep_cfg, &device).unwrap();
    ep::async_version::run(&ep_cfg, &device).unwrap();

    let f_cfg = floyd::FloydConfig { nodes: 16, seed: 2 };
    let graph = floyd::generate_graph(&f_cfg);
    floyd::hpl_version::run(&f_cfg, &graph, &device).unwrap();
    floyd::async_version::run(&f_cfg, &graph, &device).unwrap();

    let r_cfg = reduction::ReductionConfig {
        n: reduction::CHUNK * 2,
    };
    let data = reduction::generate_input(&r_cfg);
    reduction::hpl_version::run(&r_cfg, &data, &device).unwrap();
    reduction::async_version::run(&r_cfg, &data, &device).unwrap();

    let s_cfg = benchsuite::spmv::SpmvConfig {
        n: 64,
        ..Default::default()
    };
    let problem = spmv::generate(&s_cfg);
    spmv::hpl_version::run(&s_cfg, &problem, &device).unwrap();
    spmv::async_version::run(&s_cfg, &problem, &device).unwrap();

    let t_cfg = transpose::TransposeConfig { rows: 32, cols: 32 };
    let matrix = transpose::generate_matrix(&t_cfg);
    transpose::hpl_version::run(&t_cfg, &matrix, &device).unwrap();
    transpose::async_version::run(&t_cfg, &matrix, &device).unwrap();

    // every per-device build above ran the sanitizer; all ten runs (five
    // benchmarks, sync + async) must leave the lint sink free of warnings
    // and errors — note-severity "proved safe" verdicts from the dataflow
    // refinement are positive findings, not lint failures
    let lints = rt.take_kernel_lints();
    let bad: Vec<String> = lints
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .map(|d| d.to_string())
        .collect();
    assert!(
        bad.is_empty(),
        "HPL-generated benchmark kernels must lint clean:\n{}",
        bad.join("\n")
    );
    // the default O1 build runs the refined sanitizer, which proves the
    // reduction/spmv __local scratch accesses in bounds. At -O0
    // (`HPL_OPT_LEVEL=-O0`) builds run the unrefined reference analysis, so
    // no positive verdicts are expected there.
    if rt.config().opt_level != oclsim::OptLevel::O0 {
        assert!(
            lints
                .iter()
                .any(|d| d.severity == Severity::Note && d.kind == oclsim::DiagKind::ProvedSafe),
            "expected proved-safe notes from the refined sanitizer"
        );
    }
}
