//! The `report -- profile` experiment: run the five paper benchmarks —
//! synchronous and asynchronous HPL versions — under [`hpl::profile`](fn@hpl::profile) and
//! aggregate the simulated hardware counters per kernel.
//!
//! Everything the table reports derives from counters and the analytic
//! timing model, never from wall clocks or scheduler interleavings, so
//! the rendered output ([`render`]) is byte-identical across claimer
//! counts, engines and telemetry settings — which is exactly what
//! `tests/report_matrix.rs` asserts. The modeled timeline (which
//! *does* depend on dispatch interleaving for out-of-order queues) goes
//! into the Chrome trace files instead.

use std::collections::BTreeMap;
use std::path::Path;

use oclsim::{
    chrome_trace, roofline, validate_chrome_trace, Device, Event, GroupCounters, LaunchCounters,
    RooflinePoint, TimingBreakdown,
};

/// The benchmarks profiled, in report order.
pub const BENCHES: &[&str] = &["ep", "floyd", "transpose", "spmv", "reduction"];

/// Aggregated counters for one kernel of one benchmark run.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name with HPL's uniquifying counter stripped
    /// (`hpl_floyd_kernel_17` → `hpl_floyd_kernel`), so the table does not
    /// depend on how many kernels the runtime captured before.
    pub kernel: String,
    /// Launches merged into this row (Floyd launches once per pass).
    pub launches: usize,
    /// Counters summed over all launches (additive merge).
    pub counters: LaunchCounters,
    /// Modeled device seconds summed over all launches.
    pub modeled_seconds: f64,
    /// Mean achieved CU occupancy across launches, percent.
    pub occupancy_pct: f64,
    /// Roofline placement of the aggregate.
    pub roofline: RooflinePoint,
}

/// One (benchmark, sync/async) run's profile.
#[derive(Debug, Clone)]
pub struct ModeProfile {
    /// Benchmark name (see [`BENCHES`]).
    pub bench: &'static str,
    /// `"sync"` (blocking `run`) or `"async"` (`run_async`).
    pub mode: &'static str,
    /// Per-kernel counter rows, sorted by kernel name.
    pub rows: Vec<KernelRow>,
    /// Host→device transfers the run performed.
    pub h2d_count: usize,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host transfers (result read-back).
    pub d2h_count: usize,
    /// The minimal upload count for this benchmark: one per distinct
    /// array its kernels read. Floyd reads one matrix across n passes, so
    /// anything above 1 would be a redundant transfer HPL's coherence
    /// analysis failed to avoid.
    pub expected_h2d: usize,
    /// Every profiled event of the run (kernel launches + transfers), for
    /// the Chrome trace export.
    pub events: Vec<Event>,
}

impl ModeProfile {
    /// True when HPL performed exactly the minimal number of uploads.
    pub fn transfers_minimal(&self) -> bool {
        self.h2d_count == self.expected_h2d
    }

    /// Modeled device seconds summed over the run's kernels.
    fn modeled_seconds(&self) -> f64 {
        self.rows.iter().map(|r| r.modeled_seconds).sum()
    }
}

/// The minimal host→device upload count: the number of distinct arrays
/// the benchmark's kernels read (spmv reads the CSR triplet plus the
/// vector; the others read one input, and written-only outputs need none).
fn expected_h2d(bench: &str) -> usize {
    match bench {
        "spmv" => 4,
        _ => 1,
    }
}

/// Strip HPL's kernel-name counter suffix (`_<digits>`).
pub(crate) fn base_name(kernel: &str) -> String {
    match kernel.rfind('_') {
        Some(i) if i + 1 < kernel.len() && kernel[i + 1..].chars().all(|c| c.is_ascii_digit()) => {
            kernel[..i].to_string()
        }
        _ => kernel.to_string(),
    }
}

/// Run one benchmark at test scale through its HPL version. Also used by
/// the `metrics` and `soak` experiments, which need the same workloads
/// without a profile scope around them. `warm` selects the `run_warm`
/// entry points, which leave the kernel cache intact so repeated runs
/// reach the cache's steady state; the plain entry points reproduce the
/// paper's cold-cache measurement by clearing it first.
pub(crate) fn run_bench(
    bench: &str,
    sync: bool,
    warm: bool,
    device: &Device,
) -> Result<(), benchsuite::Error> {
    use benchsuite::{ep, floyd, reduction, spmv, transpose};
    match bench {
        "ep" => {
            let cfg = ep::EpConfig::class(ep::EpClass::S);
            match (sync, warm) {
                (true, false) => {
                    ep::hpl_version::run(&cfg, device)?;
                }
                (true, true) => {
                    ep::hpl_version::run_warm(&cfg, device)?;
                }
                (false, false) => {
                    ep::async_version::run(&cfg, device)?;
                }
                (false, true) => {
                    ep::async_version::run_warm(&cfg, device)?;
                }
            }
        }
        "floyd" => {
            let cfg = floyd::FloydConfig::default();
            let graph = floyd::generate_graph(&cfg);
            match (sync, warm) {
                (true, false) => {
                    floyd::hpl_version::run(&cfg, &graph, device)?;
                }
                (true, true) => {
                    floyd::hpl_version::run_warm(&cfg, &graph, device)?;
                }
                (false, false) => {
                    floyd::async_version::run(&cfg, &graph, device)?;
                }
                (false, true) => {
                    floyd::async_version::run_warm(&cfg, &graph, device)?;
                }
            }
        }
        "transpose" => {
            let cfg = transpose::TransposeConfig::default();
            let data = transpose::generate_matrix(&cfg);
            match (sync, warm) {
                (true, false) => {
                    transpose::hpl_version::run(&cfg, &data, device)?;
                }
                (true, true) => {
                    transpose::hpl_version::run_warm(&cfg, &data, device)?;
                }
                (false, false) => {
                    transpose::async_version::run(&cfg, &data, device)?;
                }
                (false, true) => {
                    transpose::async_version::run_warm(&cfg, &data, device)?;
                }
            }
        }
        "spmv" => {
            let cfg = spmv::SpmvConfig::default();
            let p = spmv::generate(&cfg);
            match (sync, warm) {
                (true, false) => {
                    spmv::hpl_version::run(&cfg, &p, device)?;
                }
                (true, true) => {
                    spmv::hpl_version::run_warm(&cfg, &p, device)?;
                }
                (false, false) => {
                    spmv::async_version::run(&cfg, &p, device)?;
                }
                (false, true) => {
                    spmv::async_version::run_warm(&cfg, &p, device)?;
                }
            }
        }
        "reduction" => {
            let cfg = reduction::ReductionConfig::default();
            let data = reduction::generate_input(&cfg);
            match (sync, warm) {
                (true, false) => {
                    reduction::hpl_version::run(&cfg, &data, device)?;
                }
                (true, true) => {
                    reduction::hpl_version::run_warm(&cfg, &data, device)?;
                }
                (false, false) => {
                    reduction::async_version::run(&cfg, &data, device)?;
                }
                (false, true) => {
                    reduction::async_version::run_warm(&cfg, &data, device)?;
                }
            }
        }
        other => panic!("unknown benchmark `{other}`"),
    }
    Ok(())
}

/// Run one benchmark in one mode under a profile scope and aggregate.
pub fn profile_one(
    bench: &'static str,
    sync: bool,
    device: &Device,
) -> Result<ModeProfile, benchsuite::Error> {
    let (result, report) = hpl::profile(|| run_bench(bench, sync, false, device));
    result?;

    // (launches, merged counters, modeled seconds, occupancy sum)
    let mut agg: BTreeMap<String, (usize, LaunchCounters, f64, f64)> = BTreeMap::new();
    for launch in &report.launches {
        let counters = launch
            .event
            .counters()
            .expect("queues are profiled inside hpl::profile");
        let timing = launch
            .event
            .kernel_timing()
            .expect("kernel events carry modeled timing");
        let entry = agg.entry(base_name(&launch.kernel)).or_insert_with(|| {
            let empty = LaunchCounters {
                totals: GroupCounters::default(),
                lines: BTreeMap::new(),
                num_groups: 0,
                total_cycles: 0,
                cu_occupancy: Vec::new(),
            };
            (0, empty, 0.0, 0.0)
        });
        entry.0 += 1;
        entry.1.totals.merge(&counters.totals);
        for (line, c) in &counters.lines {
            entry.1.lines.entry(*line).or_default().merge(c);
        }
        entry.1.num_groups += counters.num_groups;
        entry.1.total_cycles += counters.total_cycles;
        entry.2 += timing.device_seconds;
        entry.3 += counters.mean_occupancy();
    }
    let rows: Vec<KernelRow> = agg
        .into_iter()
        .map(|(kernel, (launches, counters, seconds, occ_sum))| {
            let timing = TimingBreakdown {
                device_seconds: seconds,
                ..Default::default()
            };
            let point = roofline(&kernel, device.profile(), &timing, &counters);
            KernelRow {
                kernel,
                launches,
                occupancy_pct: 100.0 * occ_sum / launches as f64,
                modeled_seconds: seconds,
                roofline: point,
                counters,
            }
        })
        .collect();

    let mut events: Vec<Event> = report.launches.iter().map(|l| l.event.clone()).collect();
    events.extend(report.transfers.iter().filter_map(|t| t.event.clone()));

    Ok(ModeProfile {
        bench,
        mode: if sync { "sync" } else { "async" },
        rows,
        h2d_count: report.h2d_count(),
        h2d_bytes: report.h2d_bytes(),
        d2h_count: report.d2h_count(),
        expected_h2d: expected_h2d(bench),
        events,
    })
}

/// Profile all five benchmarks, sync then async, on `device`.
pub fn compute(device: &Device) -> Result<Vec<ModeProfile>, benchsuite::Error> {
    let mut out = Vec::with_capacity(2 * BENCHES.len());
    for &bench in BENCHES {
        for sync in [true, false] {
            out.push(profile_one(bench, sync, device)?);
        }
    }
    Ok(out)
}

/// Write one Chrome `trace_event` JSON per benchmark (sync + async events
/// combined) into `dir` as `trace-<bench>.json`, schema-validating each.
/// Returns `(path, event count)` per file.
pub fn write_traces(
    device: &Device,
    profiles: &[ModeProfile],
    dir: &Path,
) -> std::io::Result<Vec<(String, usize)>> {
    let mut written = Vec::new();
    for &bench in BENCHES {
        let events: Vec<Event> = profiles
            .iter()
            .filter(|p| p.bench == bench)
            .flat_map(|p| p.events.iter().cloned())
            .collect();
        let json = chrome_trace(device, &events);
        validate_chrome_trace(&json)
            .map_err(|e| std::io::Error::other(format!("invalid trace for {bench}: {e}")))?;
        let path = dir.join(format!("trace-{bench}.json"));
        crate::write_artifact(&path, &json)?;
        written.push((path.display().to_string(), events.len()));
    }
    Ok(written)
}

/// `report -- profile`: the per-kernel counter table of every benchmark on
/// the plain Tesla, the transfer-minimality verdicts, the Chrome traces
/// (written to `dir` as `trace-<bench>.json`), and the same table on the
/// cached Tesla variant. Gates: no redundant host→device transfer, the
/// async version of every benchmark models exactly the sync version's
/// device seconds, every trace schema-valid.
pub fn render(dir: &Path) -> crate::Rendered {
    use crate::outln;
    let mut r = crate::Rendered::titled(
        "Profile — simulated hardware counters per kernel, all benchmarks (Tesla, test scale)",
    );
    let device = crate::tesla();
    let profiles = match compute(&device) {
        Ok(p) => p,
        Err(e) => {
            r.failures.push(format!("profile failed: {e}"));
            return r;
        }
    };
    render_table(&mut r.text, &profiles);
    outln!(
        r.text,
        "\ntransfer minimality (HPL must not add redundant uploads):"
    );
    for p in &profiles {
        let minimal = p.transfers_minimal();
        outln!(
            r.text,
            "  {:<10} {:<6} h2d {} of {} minimal ({} B), d2h {}  {}",
            p.bench,
            p.mode,
            p.h2d_count,
            p.expected_h2d,
            p.h2d_bytes,
            p.d2h_count,
            if minimal { "[minimal]" } else { "[REDUNDANT]" }
        );
        if !minimal {
            r.failures
                .push(format!("{} {}: redundant upload", p.bench, p.mode));
        }
    }
    // `compute` yields each benchmark sync then async: the same kernels on
    // the same data, so the same modeled device time to the bit
    for pair in profiles.chunks(2) {
        if let [sync, asynch] = pair {
            if sync.modeled_seconds() != asynch.modeled_seconds() {
                r.failures.push(format!(
                    "{}: async models {:.9} s of device time, sync {:.9} s",
                    sync.bench,
                    asynch.modeled_seconds(),
                    sync.modeled_seconds()
                ));
            }
        }
    }
    match write_traces(&device, &profiles, dir) {
        Ok(written) => {
            for (path, events) in written {
                outln!(r.text, "trace written: {path} ({events} events)");
            }
        }
        Err(e) => r.failures.push(format!("trace export failed: {e}")),
    }
    // The same corpus on the cache-capable variant: identical roofline,
    // plus L1/L2 hit-rate columns fed by the simulated tag arrays.
    outln!(
        r.text,
        "\nsame corpus on the cached Tesla variant (48K L1 / 768K L2):"
    );
    match compute(&crate::tesla_cached()) {
        Ok(cached) => render_table(&mut r.text, &cached),
        Err(e) => r
            .failures
            .push(format!("cached-device profile failed: {e}")),
    }
    r
}

/// The per-kernel counter table. When any row carries simulated cache
/// activity (cache-capable device profile), two extra hit-rate columns
/// appear; roofline-only profiles render exactly as before the cache model
/// existed.
fn render_table(out: &mut String, profiles: &[ModeProfile]) {
    use crate::outln;
    let cache = profiles.iter().any(|p| {
        p.rows
            .iter()
            .any(|r| r.counters.totals.l1_hits + r.counters.totals.l1_misses > 0)
    });
    let cache_hdr = if cache { "   l1.hit  l2.hit" } else { "" };
    outln!(
        out,
        "{:<10} {:<6} {:<24} {:>4} {:>7} {:>10} {:>9} {:>6} {:>6} {:>7} {:>6} {:>7} {:>9} {:>6} {:>6}{cache_hdr}  bound",
        "bench",
        "mode",
        "kernel",
        "n",
        "groups",
        "instr",
        "mem-txn",
        "coal%",
        "occ%",
        "stall%",
        "div%",
        "bankcf",
        "flop/B",
        "roof%",
        "bw%"
    );
    for p in profiles {
        for r in &p.rows {
            let cache_cells = if cache {
                let cell = |rate: Option<f64>| match rate {
                    Some(v) => format!("{:.1}%", 100.0 * v),
                    None => "-".to_string(),
                };
                format!(
                    "  {:>7} {:>7}",
                    cell(r.counters.l1_hit_rate()),
                    cell(r.counters.l2_hit_rate())
                )
            } else {
                String::new()
            };
            outln!(
                out,
                "{:<10} {:<6} {:<24} {:>4} {:>7} {:>10} {:>9} {:>6.1} {:>6.1} {:>7.1} {:>6.1} {:>7} {:>9.3} {:>6.1} {:>6.1}{cache_cells}  {}",
                p.bench,
                p.mode,
                r.kernel,
                r.launches,
                r.counters.num_groups,
                r.counters.totals.instr.total(),
                r.counters.totals.mem_transactions,
                100.0 * r.counters.coalescing_efficiency(),
                r.occupancy_pct,
                100.0 * r.counters.stall_fraction(),
                100.0 * r.counters.divergence_fraction(),
                r.counters.totals.bank_conflicts,
                r.roofline.arithmetic_intensity,
                100.0 * r.roofline.fraction_of_roof,
                100.0 * r.roofline.bandwidth_fraction,
                if r.roofline.compute_bound {
                    "compute"
                } else {
                    "memory"
                }
            );
        }
    }
}
