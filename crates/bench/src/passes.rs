//! `report -- passes` — the optimizing mid-end's per-pass delta table.
//!
//! For every benchmark and every [`OptLevel`] this module builds the
//! handwritten and HPL-generated kernels at that level, collects the
//! per-pass rewrite counters the mid-end reports ([`PassStats`]), and runs
//! the full benchmark (tiny `Scale::Test` instances) to measure the
//! modeled device time. The report renders the deltas against the `-O0`
//! baseline and requires a strict reduction (executed instructions or
//! modeled time) on at least three of the five benchmarks at `-O2`.
//!
//! Each level is measured under a runtime of its own ([`crate::at_level`]),
//! so every run really compiles at its level and the caller's runtime —
//! its level, its kernel cache, its lint sink — is left as it was.

use benchsuite::{ep, floyd, reduction, spmv, transpose};
use oclsim::{Device, OptLevel, PassStats};

use crate::fig7::{self, Scale};

/// Pass counters and modeled times for one benchmark at one level.
#[derive(Debug, Clone)]
pub struct PassRow {
    /// Benchmark name (paper naming, matches [`fig7`]).
    pub bench: String,
    pub level: OptLevel,
    /// Mid-end counters for the handwritten OpenCL source.
    pub opencl_stats: PassStats,
    /// Mid-end counters for the HPL-generated source.
    pub hpl_stats: PassStats,
    /// Modeled device seconds of the handwritten version's kernels.
    pub opencl_modeled_s: f64,
    /// Modeled device seconds of the HPL version's kernels.
    pub hpl_modeled_s: f64,
    /// Executed instructions of the handwritten kernels (profiled
    /// counters at annotate's tiny scale). Unlike the roofline-modeled
    /// seconds this is sensitive to ALU savings on memory-bound kernels.
    pub opencl_instructions: u64,
}

/// All rows, grouped by benchmark in [`OptLevel`] order.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    pub rows: Vec<PassRow>,
}

impl PassReport {
    /// The `-O0` row for `bench`.
    pub fn baseline(&self, bench: &str) -> Option<&PassRow> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.level == OptLevel::O0)
    }

    /// Benchmarks whose handwritten version at `level` strictly beats the
    /// `-O0` baseline — fewer executed instructions, or less modeled
    /// device time (the roofline hides pure-ALU wins on memory-bound
    /// kernels, so either counter counts as a reduction).
    pub fn reduced_benches(&self, level: OptLevel) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.level == level)
            .filter(|r| {
                self.baseline(&r.bench).is_some_and(|b| {
                    r.opencl_instructions < b.opencl_instructions
                        || r.opencl_modeled_s < b.opencl_modeled_s - 1e-12
                })
            })
            .map(|r| r.bench.as_str())
            .collect()
    }
}

fn handwritten_source(bench: &str) -> Option<&'static str> {
    match bench {
        "EP" => Some(ep::opencl_version::SOURCE),
        "Floyd" => Some(floyd::opencl_version::SOURCE),
        "transpose" => Some(transpose::opencl_version::SOURCE),
        "spmv" => Some(spmv::opencl_version::SOURCE),
        "reduction" => Some(reduction::opencl_version::SOURCE),
        _ => None,
    }
}

fn generated_source(bench: &str, device: &Device) -> Result<String, String> {
    let gen = |r: Result<String, hpl::Error>| r.map_err(|e| e.to_string());
    match bench {
        "EP" => gen(ep::hpl_version::generated_source(device)),
        "Floyd" => gen(floyd::hpl_version::generated_source(device)),
        "transpose" => gen(transpose::hpl_version::generated_source(device)),
        "spmv" => gen(spmv::hpl_version::generated_source(device)),
        "reduction" => gen(reduction::hpl_version::generated_source(device)),
        other => Err(format!("unknown benchmark {other}")),
    }
}

fn stats_for(device: &Device, source: &str, level: OptLevel) -> Result<PassStats, String> {
    let (program, _ctx, _queue, _build) =
        benchsuite::common::build_for(device, source, level.flag()).map_err(|e| e.to_string())?;
    Ok(program.pass_stats())
}

/// Run every benchmark at `-O0`, `-O1` and `-O2` on (each level's
/// counterpart of) `device` and collect the rows.
pub fn compute(device: &Device) -> Result<PassReport, String> {
    let mut report = PassReport::default();
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        crate::at_level(level, device, |device| {
            measure_level(level, device, &mut report)
        })?;
    }
    Ok(report)
}

/// One level's rows; runs under that level's runtime.
fn measure_level(level: OptLevel, device: &Device, report: &mut PassReport) -> Result<(), String> {
    let runs = fig7::compute(device, Scale::Test).map_err(|e| e.to_string())?;
    for r in &runs {
        let Some(hand) = handwritten_source(r.name) else {
            continue;
        };
        let generated = generated_source(r.name, device)?;
        report.rows.push(PassRow {
            bench: r.name.to_string(),
            level,
            opencl_stats: stats_for(device, hand, level)?,
            hpl_stats: stats_for(device, &generated, level)?,
            opencl_modeled_s: r.opencl.kernel_modeled_seconds,
            hpl_modeled_s: r.hpl.kernel_modeled_seconds,
            opencl_instructions: crate::annotate::handwritten_instructions(
                &r.name.to_lowercase(),
                device,
            )?,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_report_shows_o2_reductions_and_leaves_the_caller_alone() {
        let rt = hpl::Runtime::new(hpl::Config::from_env());
        let _scope = rt.enter();
        let report = compute(&crate::tesla()).expect("passes report");
        let mine = rt.cache_stats();
        assert_eq!(
            (mine.misses, mine.evictions),
            (0, 0),
            "every level ran under a runtime of its own"
        );

        // five benchmarks x three levels
        assert_eq!(report.rows.len(), 15, "{report:?}");
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            assert_eq!(report.rows.iter().filter(|r| r.level == level).count(), 5);
        }
        // -O0 must not rewrite anything
        for r in report.rows.iter().filter(|r| r.level == OptLevel::O0) {
            assert_eq!(r.opencl_stats.total(), 0, "{}: -O0 rewrote", r.bench);
            assert_eq!(r.hpl_stats.total(), 0, "{}: -O0 rewrote", r.bench);
        }
        // the acceptance bar: at -O2, a strict reduction (executed
        // instructions or modeled time) on at least three of the five
        // benchmarks
        let reduced = report.reduced_benches(OptLevel::O2);
        assert!(
            reduced.len() >= 3,
            "expected >=3 benchmarks reduced at -O2, got {reduced:?}"
        );
        // and the counters explain why: every reduced benchmark's mid-end
        // reported rewrites (transpose/spmv are already minimal — the
        // sanitizer finding nothing there is the honest result)
        for r in report.rows.iter().filter(|r| r.level == OptLevel::O2) {
            if reduced.contains(&r.bench.as_str()) {
                assert!(
                    r.opencl_stats.total() > 0,
                    "{}: reduced with no rewrites",
                    r.bench
                );
            }
        }
        // instruction counts never regress under optimization
        for r in report.rows.iter().filter(|r| r.level != OptLevel::O0) {
            let base = report.baseline(&r.bench).expect("baseline row");
            assert!(
                r.opencl_instructions <= base.opencl_instructions,
                "{} at {}: {} instructions vs {} at -O0",
                r.bench,
                r.level,
                r.opencl_instructions,
                base.opencl_instructions
            );
        }
    }
}
