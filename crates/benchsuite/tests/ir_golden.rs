//! The compiler's IR for the benchmark kernels, pinned. For each of the
//! ten sources (five handwritten, five HPL-generated) and each opt level,
//! the front end and mid-end output rendered by `clc::opt::dump`, headed
//! by the mid-end's per-pass rewrite counts, must equal the committed
//! `ir_golden.txt` byte for byte. A refactor of `sema` or `opt` that
//! changes no IR leaves this test green; one that moves a single node
//! fails it with the first differing line.
//!
//! To re-capture after an intended IR change, copy the `actual` file the
//! failure message names over `tests/ir_golden.txt` and review its diff.

use std::collections::HashMap;

use benchsuite::{ep, floyd, reduction, spmv, transpose};
use oclsim::clc::{opt, parser, pp, sema};
use oclsim::OptLevel;

const EXPECTED: &str = include_str!("ir_golden.txt");

/// The ten benchmark kernel sources: (label, source text). The HPL
/// versions are generated under a runtime of this test's own, so kernel
/// names restart at `_0` whatever else runs in the process.
fn sources() -> Vec<(&'static str, String)> {
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let device = hpl::runtime()
        .device_named("tesla")
        .expect("default platform has a Tesla-class GPU");
    let gen = |r: Result<String, hpl::Error>| r.expect("HPL source generation");
    vec![
        ("ep.cl", ep::opencl_version::SOURCE.to_string()),
        ("floyd.cl", floyd::opencl_version::SOURCE.to_string()),
        (
            "transpose.cl",
            transpose::opencl_version::SOURCE.to_string(),
        ),
        ("spmv.cl", spmv::opencl_version::SOURCE.to_string()),
        (
            "reduction.cl",
            reduction::opencl_version::SOURCE.to_string(),
        ),
        ("ep (hpl)", gen(ep::hpl_version::generated_source(&device))),
        (
            "floyd (hpl)",
            gen(floyd::hpl_version::generated_source(&device)),
        ),
        (
            "transpose (hpl)",
            gen(transpose::hpl_version::generated_source(&device)),
        ),
        (
            "spmv (hpl)",
            gen(spmv::hpl_version::generated_source(&device)),
        ),
        (
            "reduction (hpl)",
            gen(reduction::hpl_version::generated_source(&device)),
        ),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for (label, source) in sources() {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let src = pp::preprocess(&source, &HashMap::new()).expect("preprocess");
            let tu = parser::parse(&src).expect("parse");
            let mut module = sema::analyze(&tu).expect("sema");
            let stats = opt::optimize(&mut module, level);
            out.push_str(&format!("== {label} {}\n{stats:?}\n", level.flag()));
            for f in &module.funcs {
                out.push_str(&opt::dump(f));
            }
        }
    }
    out
}

#[test]
fn benchmark_kernel_ir_matches_the_committed_dumps() {
    let actual = render();
    if actual == EXPECTED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ir_golden.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual dump");
    let (n, (a, e)) = actual
        .lines()
        .chain(std::iter::repeat("<end of dump>"))
        .zip(EXPECTED.lines().chain(std::iter::repeat("<end of dump>")))
        .enumerate()
        .find(|(_, (a, e))| a != e)
        .expect("the dumps differ, so some line does");
    panic!(
        "IR dump differs from tests/ir_golden.txt at line {}:\n  expected: {e}\n  actual:   {a}\n\
         the whole actual dump is in {}",
        n + 1,
        path.display()
    );
}
