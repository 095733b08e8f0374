//! # bench — the paper's evaluation, regenerated
//!
//! One module per experiment of the paper's §V. Each `compute*` function
//! returns the rows of the corresponding table or figure; the `report`
//! binary prints them next to the paper's published values. Wall-clock
//! performance is measured by the `hplbench` benchmark (`benchmark/`).
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (SLOC) | [`table1::compute`] |
//! | Figure 6 (EP speedup vs class) | [`fig6::compute`] |
//! | Figure 7 (speedups, 5 benchmarks) | [`fig7::compute`] |
//! | Figure 8 (HPL slowdown vs OpenCL) | [`fig8::derive`] |
//! | Figure 9 (portability: Tesla vs Quadro) | [`fig9::compute`] |
//! | §V-B kernel-cache behaviour | [`caching::compute`] |
//! | Ablations (DESIGN.md) | [`ablation`] |
//! | Hardware-counter profile (`report -- profile`) | [`profile::compute`] |
//! | Per-line source annotation (`report -- annotate`) | [`annotate::compute`] |
//! | Telemetry registry snapshot (`report -- metrics`) | [`runtime_metrics::compute`] |
//! | Multi-tenant service soak (`report -- soak`) | [`soak::compute`] |
//! | Mid-end pass deltas (`report -- passes`) | [`passes::compute`] |
//! | Cache-hierarchy hit rates (`report -- cache`) | [`cachemodel::compute`] |
//! | Causal tracing + flight recorder (`report -- postmortem`) | [`postmortem::compute`] |

pub mod annotate;
pub mod cachemodel;
pub mod passes;
pub mod postmortem;
pub mod profile;
pub mod runtime_metrics;
pub mod soak;

use oclsim::serve::{Service, ServiceConfig};
use oclsim::{Device, ExecConfig};

/// What one `report` subcommand produces: the text it prints on stdout and
/// the gate failures it reports on stderr (any failure is exit status 1).
///
/// The subcommands whose output must not depend on the configuration
/// (`profile`, `annotate`, `cache`, `metrics`, `postmortem`) are rendered
/// by library functions, so `tests/report_matrix.rs` and
/// `tests/sink_matrix.rs` compare them in memory across configurations
/// with the same code the binary prints from.
#[derive(Debug)]
pub struct Rendered {
    /// Everything for stdout, banner included.
    pub text: String,
    /// One line per failed gate; empty means the subcommand succeeds.
    pub failures: Vec<String>,
}

impl Rendered {
    pub(crate) fn titled(title: &str) -> Rendered {
        Rendered {
            text: format!("\n=== {title} ===\n"),
            failures: Vec::new(),
        }
    }
}

/// `println!` into a `String`.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}
pub(crate) use outln;

/// Enter a runtime of the calling test's own: the experiments clear the
/// kernel cache, look kernels up by generated name and difference
/// runtime-wide statistics, so a test that asserts on their results must
/// not share a runtime with its siblings.
#[cfg(test)]
pub(crate) fn fresh_runtime() -> hpl::RuntimeScope {
    hpl::Runtime::new(hpl::Config::from_env()).enter()
}

/// A kernel service over the default two-GPU box whose devices execute
/// like the calling thread's runtime: its claimer count and engine.
pub(crate) fn service() -> Result<Service, String> {
    let config = hpl::runtime().config();
    Service::new(ServiceConfig {
        exec: ExecConfig {
            threads: config.threads,
            backend: config.backend,
        },
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// The Tesla-class device of the calling thread's runtime.
pub fn tesla() -> Device {
    hpl::runtime()
        .device_named("tesla")
        .expect("default platform has a Tesla-class GPU")
}

/// The Quadro-class device of the calling thread's runtime.
pub fn quadro() -> Device {
    hpl::runtime()
        .device_named("quadro")
        .expect("default platform has a Quadro-class GPU")
}

/// The cache-capable Tesla variant (48K L1 / 768K shared L2). Same
/// roofline as [`tesla`], plus the simulated cache hierarchy — launches
/// on it produce L1/L2 hit/miss counters and cache-aware modeled time.
pub fn tesla_cached() -> Device {
    hpl::runtime()
        .device_named("48k")
        .expect("default platform has the 48K-L1 cached Tesla variant")
}

/// The small-L1 Tesla variant (16K L1, 4-way). Differs from
/// [`tesla_cached`] only in L1 geometry — the pair makes cache pressure
/// visible as a hit-rate (and modeled-time) delta at identical rooflines.
pub fn tesla_small_l1() -> Device {
    hpl::runtime()
        .device_named("16k")
        .expect("default platform has the 16K-L1 cached Tesla variant")
}

/// Run `f` under a fresh runtime configured like the calling thread's except
/// that it compiles at `level`. `f` gets that runtime's counterpart of
/// `device`; nothing it builds, caches or counts reaches the caller's
/// runtime.
pub fn at_level<R>(level: oclsim::OptLevel, device: &Device, f: impl FnOnce(&Device) -> R) -> R {
    let rt = hpl::Runtime::new(hpl::Config {
        opt_level: level,
        ..hpl::runtime().config()
    });
    let _scope = rt.enter();
    let device = rt
        .device_named(device.name())
        .expect("every runtime has the default platform's devices");
    f(&device)
}

/// Table I: SLOC of the OpenCL and HPL versions of the five benchmarks.
pub mod table1 {
    use sloc::{count, strip_rust_tests, Language};

    /// One row of Table I.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: &'static str,
        /// SLOC of the hand-written OpenCL version (host + kernel source).
        pub opencl_sloc: usize,
        /// SLOC of the HPL version.
        pub hpl_sloc: usize,
        /// The paper's published SLOCs, for side-by-side reporting.
        pub paper_opencl: usize,
        /// The paper's published HPL SLOCs.
        pub paper_hpl: usize,
    }

    impl Row {
        /// "Reduction in SLOCs due to the usage of HPL" (Table I's last
        /// column).
        pub fn reduction_percent(&self) -> f64 {
            (1.0 - self.hpl_sloc as f64 / self.opencl_sloc as f64) * 100.0
        }

        /// The paper's reduction column.
        pub fn paper_reduction_percent(&self) -> f64 {
            (1.0 - self.paper_hpl as f64 / self.paper_opencl as f64) * 100.0
        }

        /// OpenCL-to-HPL size ratio ("3 to 10 times shorter").
        pub fn ratio(&self) -> f64 {
            self.opencl_sloc as f64 / self.hpl_sloc as f64
        }
    }

    struct Sources {
        benchmark: &'static str,
        opencl_host: &'static str,
        opencl_kernel: &'static str,
        hpl: &'static str,
        paper_opencl: usize,
        paper_hpl: usize,
    }

    const SOURCES: &[Sources] = &[
        Sources {
            benchmark: "EP",
            opencl_host: include_str!("../../benchsuite/src/ep/opencl_version.rs"),
            opencl_kernel: include_str!("../../benchsuite/src/kernels/ep.cl"),
            hpl: include_str!("../../benchsuite/src/ep/hpl_version.rs"),
            paper_opencl: 1151,
            paper_hpl: 281,
        },
        Sources {
            benchmark: "Floyd-Warshall",
            opencl_host: include_str!("../../benchsuite/src/floyd/opencl_version.rs"),
            opencl_kernel: include_str!("../../benchsuite/src/kernels/floyd.cl"),
            hpl: include_str!("../../benchsuite/src/floyd/hpl_version.rs"),
            paper_opencl: 1170,
            paper_hpl: 107,
        },
        Sources {
            benchmark: "Matrix transpose",
            opencl_host: include_str!("../../benchsuite/src/transpose/opencl_version.rs"),
            opencl_kernel: include_str!("../../benchsuite/src/kernels/transpose.cl"),
            hpl: include_str!("../../benchsuite/src/transpose/hpl_version.rs"),
            paper_opencl: 455,
            paper_hpl: 52,
        },
        Sources {
            benchmark: "Spmv",
            opencl_host: include_str!("../../benchsuite/src/spmv/opencl_version.rs"),
            opencl_kernel: include_str!("../../benchsuite/src/kernels/spmv.cl"),
            hpl: include_str!("../../benchsuite/src/spmv/hpl_version.rs"),
            paper_opencl: 1637,
            paper_hpl: 517,
        },
        Sources {
            benchmark: "Reduction",
            opencl_host: include_str!("../../benchsuite/src/reduction/opencl_version.rs"),
            opencl_kernel: include_str!("../../benchsuite/src/kernels/reduction.cl"),
            hpl: include_str!("../../benchsuite/src/reduction/hpl_version.rs"),
            paper_opencl: 773,
            paper_hpl: 218,
        },
    ];

    /// Count the five benchmarks. The OpenCL side counts the host driver
    /// plus the `.cl` kernel; the HPL side counts the single Rust file.
    /// Test modules are excluded on both sides.
    pub fn compute() -> Vec<Row> {
        SOURCES
            .iter()
            .map(|s| Row {
                benchmark: s.benchmark,
                opencl_sloc: count(&strip_rust_tests(s.opencl_host), Language::Rust)
                    + count(s.opencl_kernel, Language::CFamily),
                hpl_sloc: count(&strip_rust_tests(s.hpl), Language::Rust),
                paper_opencl: s.paper_opencl,
                paper_hpl: s.paper_hpl,
            })
            .collect()
    }
}

/// Figure 6: EP speedups over the serial CPU for classes W/A/B/C.
pub mod fig6 {
    use benchsuite::ep::{run, EpClass, EpConfig};

    /// One class's bars.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Class name (W/A/B/C).
        pub class: &'static str,
        /// Scaled pair count actually run.
        pub pairs: usize,
        /// OpenCL speedup over serial CPU.
        pub opencl_speedup: f64,
        /// HPL speedup over serial CPU.
        pub hpl_speedup: f64,
        /// HPL slowdown vs OpenCL in percent (the paper quotes 20.5% /
        /// 5.7% / 2.3% / 1.1% for W/A/B/C).
        pub hpl_slowdown_percent: f64,
        /// All versions verified against the reference.
        pub verified: bool,
    }

    /// Run EP for every class on `device`.
    pub fn compute(device: &oclsim::Device) -> Result<Vec<Row>, benchsuite::Error> {
        [EpClass::W, EpClass::A, EpClass::B, EpClass::C]
            .into_iter()
            .map(|class| {
                let cfg = EpConfig::class(class);
                let report = run(&cfg, device)?;
                Ok(Row {
                    class: class.name(),
                    pairs: class.pairs(),
                    opencl_speedup: report.opencl_speedup(),
                    hpl_speedup: report.hpl_speedup(),
                    hpl_slowdown_percent: report.hpl_slowdown_percent(),
                    verified: report.verified,
                })
            })
            .collect()
    }
}

/// Figure 7: speedups of all five benchmarks over the serial CPU
/// (and, derived from the same runs, Figure 8's slowdown bars).
pub mod fig7 {
    use benchsuite::common::BenchReport;
    use benchsuite::{ep, floyd, reduction, spmv, transpose};

    /// Problem-size selection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scale {
        /// The scaled counterparts of the paper's Figure 7 sizes.
        Paper,
        /// The reduced sizes of the §V-C portability experiment (Fig. 9).
        PaperSmall,
        /// Tiny sizes for tests.
        Test,
    }

    /// Run the five benchmarks on `device`. EP is simply absent from the
    /// result when the device lacks fp64, reproducing the paper's §V-C
    /// exclusion.
    pub fn compute(
        device: &oclsim::Device,
        scale: Scale,
    ) -> Result<Vec<BenchReport>, benchsuite::Error> {
        let mut out = Vec::with_capacity(5);
        if device.supports_fp64() {
            let cfg = match scale {
                Scale::Paper => ep::EpConfig::class(ep::EpClass::C),
                Scale::PaperSmall => ep::EpConfig::class(ep::EpClass::A),
                Scale::Test => ep::EpConfig::class(ep::EpClass::S),
            };
            out.push(ep::run(&cfg, device)?);
        }
        let cfg = match scale {
            Scale::Paper => floyd::FloydConfig::paper_scaled(),
            Scale::PaperSmall => floyd::FloydConfig::paper_scaled_small(),
            Scale::Test => floyd::FloydConfig::default(),
        };
        out.push(floyd::run(&cfg, device)?);
        let cfg = match scale {
            Scale::Paper => transpose::TransposeConfig::paper_scaled(),
            Scale::PaperSmall => transpose::TransposeConfig::paper_scaled_small(),
            Scale::Test => transpose::TransposeConfig::default(),
        };
        out.push(transpose::run(&cfg, device)?);
        let cfg = match scale {
            Scale::Paper => spmv::SpmvConfig::paper_scaled(),
            Scale::PaperSmall => spmv::SpmvConfig::paper_scaled_small(),
            Scale::Test => spmv::SpmvConfig::default(),
        };
        out.push(spmv::run(&cfg, device)?);
        let cfg = match scale {
            Scale::Paper => reduction::ReductionConfig::paper_scaled(),
            Scale::PaperSmall => reduction::ReductionConfig::paper_scaled_small(),
            Scale::Test => reduction::ReductionConfig::default(),
        };
        out.push(reduction::run(&cfg, device)?);
        Ok(out)
    }

    /// The paper's Figure 7 OpenCL speedups (read off the chart), for
    /// side-by-side reporting.
    pub fn paper_speedup(name: &str) -> Option<f64> {
        match name {
            "EP" => Some(257.0),
            "Floyd" => Some(45.0),
            "transpose" => Some(55.0),
            "spmv" => Some(5.4),
            "reduction" => Some(25.0),
            _ => None,
        }
    }
}

/// Figure 8 is derived from the Figure 7 runs: HPL's slowdown with respect
/// to OpenCL per benchmark ("typical degradation below 4%").
pub mod fig8 {
    use benchsuite::common::BenchReport;

    /// One slowdown bar.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: &'static str,
        /// HPL slowdown vs OpenCL, percent.
        pub slowdown_percent: f64,
        /// The same including modeled transfers (the paper's transpose
        /// observation: with transfers included the overhead shrinks).
        pub slowdown_with_transfers_percent: f64,
    }

    /// Derive the Figure 8 rows from Figure 7 reports.
    pub fn derive(reports: &[BenchReport]) -> Vec<Row> {
        reports
            .iter()
            .map(|r| Row {
                benchmark: r.name,
                slowdown_percent: r.hpl_slowdown_percent(),
                slowdown_with_transfers_percent: (r.hpl.paper_seconds_with_transfers()
                    / r.opencl.paper_seconds_with_transfers()
                    - 1.0)
                    * 100.0,
            })
            .collect()
    }
}

/// Figure 9: HPL overhead on the Tesla and the Quadro FX 380 (EP excluded
/// on the Quadro — no fp64; reduced problem sizes per §V-C), extended
/// with the two cache-capable Tesla variants so portability is shown
/// across cache-differing device profiles too: the same source runs
/// unchanged whether the profile models a 48K L1, a 16K L1, or no cache
/// at all, and HPL's overhead stays in the same band on each.
pub mod fig9 {
    use super::fig7::{self, Scale};

    /// One benchmark's overhead on all four devices.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: &'static str,
        /// HPL overhead on the Tesla-class GPU, percent.
        pub tesla_percent: f64,
        /// HPL overhead on the Quadro-class GPU, percent.
        pub quadro_percent: f64,
        /// HPL overhead on the 48K-L1 cached Tesla variant, percent —
        /// modeled time here includes the cache-aware memory term.
        pub tesla48_percent: f64,
        /// HPL overhead on the 16K-L1 cached Tesla variant, percent.
        pub tesla16_percent: f64,
    }

    /// Run the portability experiment.
    pub fn compute() -> Result<Vec<Row>, benchsuite::Error> {
        let tesla = super::tesla();
        let quadro = super::quadro();
        let on_tesla = fig7::compute(&tesla, Scale::PaperSmall)?;
        let on_quadro = fig7::compute(&quadro, Scale::PaperSmall)?;
        let on_t48 = fig7::compute(&super::tesla_cached(), Scale::PaperSmall)?;
        let on_t16 = fig7::compute(&super::tesla_small_l1(), Scale::PaperSmall)?;
        // EP is present on the Teslas only; align by name over the common
        // set (the Quadro run, which has no fp64)
        Ok(on_quadro
            .iter()
            .map(|q| {
                let find = |set: &[benchsuite::common::BenchReport]| {
                    set.iter()
                        .find(|t| t.name == q.name)
                        .expect("benchmark sets align by name")
                        .hpl_slowdown_percent()
                };
                Row {
                    benchmark: q.name,
                    tesla_percent: find(&on_tesla),
                    quadro_percent: q.hpl_slowdown_percent(),
                    tesla48_percent: find(&on_t48),
                    tesla16_percent: find(&on_t16),
                }
            })
            .collect())
    }
}

/// §V-B kernel-cache behaviour: "second and later invocations of an HPL
/// kernel do not incur in overheads of analysis, backend code generation
/// and compilation".
pub mod caching {
    use benchsuite::ep::{hpl_version, EpClass, EpConfig};

    /// First- vs later-invocation timings.
    #[derive(Debug, Clone)]
    pub struct Report {
        /// Total paper-metric seconds of the first invocation.
        pub first_seconds: f64,
        /// Front-end (capture + codegen + build) share of the first.
        pub first_front_seconds: f64,
        /// Total of the second invocation (cache hit).
        pub second_seconds: f64,
        /// Front-end share of the second (should be ~0).
        pub second_front_seconds: f64,
    }

    /// Run the cache experiment on `device` with EP class W.
    pub fn compute(device: &oclsim::Device) -> Result<Report, benchsuite::Error> {
        hpl::clear_kernel_cache();
        let cfg = EpConfig::class(EpClass::W);
        let (_, first) = hpl_version::launch(&cfg, device).map_err(benchsuite::Error::Hpl)?;
        let (_, second) = hpl_version::launch(&cfg, device).map_err(benchsuite::Error::Hpl)?;
        Ok(Report {
            first_seconds: first.paper_seconds(),
            first_front_seconds: first.capture_seconds
                + first.codegen_seconds
                + first.build_seconds,
            second_seconds: second.paper_seconds(),
            second_front_seconds: second.capture_seconds
                + second.codegen_seconds
                + second.build_seconds,
        })
    }
}

/// Ablation studies called out in DESIGN.md.
pub mod ablation {
    use benchsuite::floyd::{generate_graph, hpl_version, FloydConfig};
    use hpl::eval;
    use hpl::prelude::*;

    /// Transfer-minimisation ablation on Floyd–Warshall: HPL's coherence
    /// tracking uploads the matrix once for n passes; the "naive" variant
    /// forces a re-upload before every pass (what a runtime without the
    /// analysis would do).
    #[derive(Debug, Clone)]
    pub struct TransferAblation {
        /// Host→device transfer count with minimisation (expected: 1).
        pub minimised_h2d: u64,
        /// Host→device transfer count without (expected: n).
        pub naive_h2d: u64,
        /// Modeled transfer seconds with minimisation.
        pub minimised_seconds: f64,
        /// Modeled transfer seconds without.
        pub naive_seconds: f64,
    }

    /// Run the transfer ablation.
    pub fn transfers(device: &oclsim::Device) -> Result<TransferAblation, benchsuite::Error> {
        let cfg = FloydConfig { nodes: 64, seed: 3 };
        let graph = generate_graph(&cfg);

        hpl::runtime().reset_transfer_stats();
        let _ = hpl_version::run(&cfg, &graph, device).map_err(benchsuite::Error::Hpl)?;
        let minimised = hpl::runtime().transfer_stats();

        // naive: invalidate the device copy before each pass by rewriting
        // the host data, forcing the upload a transfer-oblivious runtime
        // would perform
        hpl::runtime().reset_transfer_stats();
        let n = cfg.nodes;
        let dist = Array::<u32, 2>::from_vec([n, n], graph.clone());
        let k = Int::new(0);
        fn floyd_kernel(dist: &Array<u32, 2>, k: &Int) {
            let x = Int::new(0);
            let y = Int::new(0);
            x.assign(idx());
            y.assign(idy());
            let direct = dist.at((y.v(), x.v()));
            let through = dist.at((y.v(), k.v())) + dist.at((k.v(), x.v()));
            dist.at((y.v(), x.v())).assign(math::min(direct, through));
        }
        for pass in 0..n {
            k.set(pass as i32);
            let snapshot = dist.to_vec(); // reads back (d2h)
            dist.write_from(&snapshot); // invalidates the device copy
            eval(floyd_kernel)
                .device(device)
                .global(&[n, n])
                .local(&[16, 16])
                .run((&dist, &k))
                .map_err(benchsuite::Error::Hpl)?;
        }
        let _ = dist.to_vec();
        let naive = hpl::runtime().transfer_stats();

        Ok(TransferAblation {
            minimised_h2d: minimised.h2d_count,
            naive_h2d: naive.h2d_count,
            minimised_seconds: minimised.modeled_seconds,
            naive_seconds: naive.modeled_seconds,
        })
    }

    /// Coalescing ablation: the paper's footnote 1 distinguishes the tiled
    /// transpose (benchmarked) from the naive one of Figure 10. Returns
    /// (naive, tiled) modeled kernel seconds for the same matrix.
    pub fn transpose_naive_vs_tiled(
        device: &oclsim::Device,
    ) -> Result<(f64, f64), benchsuite::Error> {
        use benchsuite::transpose::{generate_matrix, TransposeConfig};

        let cfg = TransposeConfig {
            rows: 256,
            cols: 256,
        };
        let data = generate_matrix(&cfg);

        // naive: Figure 10(b) — uncoalesced writes
        fn naive_transpose(dst: &Array<f32, 2>, src: &Array<f32, 2>) {
            dst.at((idx(), idy())).assign(src.at((idy(), idx())));
        }
        let src = Array::<f32, 2>::from_vec([cfg.rows, cfg.cols], data.clone());
        let dst = Array::<f32, 2>::new([cfg.cols, cfg.rows]);
        let naive = eval(naive_transpose)
            .device(device)
            .global(&[cfg.cols, cfg.rows])
            .local(&[16, 16])
            .run((&dst, &src))
            .map_err(benchsuite::Error::Hpl)?
            .kernel_modeled_seconds;

        let (_, tiled) = benchsuite::transpose::hpl_version::run(&cfg, &data, device)
            .map_err(benchsuite::Error::Hpl)?;
        Ok((naive, tiled.kernel_modeled_seconds))
    }
}

/// Overlap experiment: the asynchronous scheduler's modeled timeline on a
/// chunked transfer/compute pipeline (see `benchsuite::pipeline`).
pub mod overlap {
    use oclsim::{CommandQueue, Context, Device, DeviceProfile, MemAccess, Program};

    /// One row of the overlap report.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// What was run.
        pub label: String,
        /// Modeled makespan across all devices (fresh timelines).
        pub makespan_seconds: f64,
        /// Sum of the individual commands' modeled times — what a fully
        /// serialised schedule on one device would take.
        pub sum_seconds: f64,
        /// Results verified (hpl row) / events all completed (oclsim rows).
        pub verified: bool,
    }

    impl Row {
        /// makespan / sum: < 1.0 means the schedule overlapped commands.
        pub fn ratio(&self) -> f64 {
            self.makespan_seconds / self.sum_seconds
        }
    }

    const CHUNK_SRC: &str = r#"
        __kernel void fma2(__global float* out, __global const float* in) {
            size_t i = get_global_id(0);
            out[i] = in[i] * 2.0f + 1.0f;
        }
    "#;

    /// Stream `chunks` independent upload+kernel chunks over `ndev` fresh
    /// Tesla-class devices (round-robin) through out-of-order queues;
    /// returns (makespan, sum of command times). Fresh devices give a
    /// quiet timeline regardless of what else the process ran.
    fn oclsim_pipeline(ndev: usize, chunks: usize, elems: usize) -> oclsim::Result<(f64, f64)> {
        let devices: Vec<Device> = (0..ndev)
            .map(|_| Device::new(DeviceProfile::tesla_c2050()))
            .collect();
        let mut rigs = Vec::new();
        for d in &devices {
            let ctx = Context::new(std::slice::from_ref(d))?;
            let queue = CommandQueue::new_out_of_order(&ctx, d)?;
            let program = Program::from_source(&ctx, CHUNK_SRC);
            program.build("")?;
            rigs.push((ctx, queue, program));
        }
        let data = vec![1.5f32; elems];
        let mut events = Vec::new();
        for c in 0..chunks {
            let (ctx, queue, program) = &rigs[c % ndev];
            let input = ctx.create_buffer(elems * 4, MemAccess::ReadOnly)?;
            let out = ctx.create_buffer(elems * 4, MemAccess::WriteOnly)?;
            let kernel = program.kernel("fma2")?;
            kernel.set_arg_buffer(0, &out)?;
            kernel.set_arg_buffer(1, &input)?;
            let write = queue.enqueue_write_async(&input, 0, &data, &[])?;
            let launch = queue.enqueue_ndrange_async(
                &kernel,
                &[elems],
                None,
                std::slice::from_ref(&write),
            )?;
            events.push(write);
            events.push(launch);
        }
        oclsim::wait_for_events(&events)?;
        let sum: f64 = events.iter().map(|e| e.modeled_seconds()).sum();
        let makespan = devices
            .iter()
            .map(Device::timeline_horizon)
            .fold(0.0f64, f64::max);
        Ok((makespan, sum))
    }

    /// All rows of the overlap experiment: the HPL `run_async` pipeline on
    /// the runtime's Tesla, then the oclsim-level pipeline on one and two
    /// fresh Tesla-class devices.
    pub fn compute() -> Result<Vec<Row>, benchsuite::Error> {
        let mut rows = Vec::new();

        let cfg = benchsuite::pipeline::PipelineConfig::default();
        let tesla = super::tesla();
        let hpl_run = benchsuite::pipeline::run(&cfg, &[tesla]).map_err(benchsuite::Error::Hpl)?;
        rows.push(Row {
            label: format!(
                "hpl run_async, {} chunks x {} elems, 1 Tesla",
                cfg.chunks, cfg.chunk_elems
            ),
            makespan_seconds: hpl_run.makespan_seconds,
            sum_seconds: hpl_run.sum_command_seconds,
            verified: hpl_run.verified,
        });

        let (m1, s1) = oclsim_pipeline(1, 8, 1 << 15)?;
        rows.push(Row {
            label: "oclsim out-of-order, 8 chunks, 1 Tesla".into(),
            makespan_seconds: m1,
            sum_seconds: s1,
            verified: true,
        });
        let (m2, s2) = oclsim_pipeline(2, 8, 1 << 15)?;
        rows.push(Row {
            label: "oclsim out-of-order, 8 chunks, 2 Teslas".into(),
            makespan_seconds: m2,
            sum_seconds: s2,
            verified: true,
        });
        Ok(rows)
    }
}

/// Kernel-sanitizer sweep over the whole benchmark corpus: the handwritten
/// OpenCL C of every benchmark plus the OpenCL C that HPL generates for
/// its version, statically analyzed for barrier divergence, data races and
/// out-of-bounds accesses. The `report -- lint` subcommand prints a
/// per-kernel verdict table from these rows; `ci.sh` fails the build if
/// any kernel is not clean (Deny-mode gate).
pub mod lint {
    use oclsim::clc::analysis::analyze_source;
    use oclsim::{Device, Severity};

    /// The sanitizer's verdict for one kernel of one source.
    #[derive(Debug)]
    pub struct KernelVerdict {
        /// Benchmark name (paper naming).
        pub benchmark: &'static str,
        /// `"handwritten"` (kernels/*.cl) or `"generated"` (HPL codegen).
        pub variant: &'static str,
        /// Kernel function name inside the source.
        pub kernel: String,
        /// Number of warning-severity findings.
        pub warnings: usize,
        /// Number of error-severity findings.
        pub errors: usize,
        /// Rendered diagnostics, in source order, each with the offending
        /// source line and a caret under the span (the same snippet
        /// renderer `report -- annotate` uses for its listings).
        pub messages: Vec<String>,
    }

    impl KernelVerdict {
        /// True when the sanitizer found nothing at all.
        pub fn clean(&self) -> bool {
            self.warnings == 0 && self.errors == 0
        }
    }

    fn lint_source(
        benchmark: &'static str,
        variant: &'static str,
        source: &str,
        rows: &mut Vec<KernelVerdict>,
    ) -> Result<(), String> {
        let analysis = analyze_source(source)
            .map_err(|e| format!("{benchmark} ({variant}) failed to compile: {e}"))?;
        // which kernels the compiled work-group backend declines (notes;
        // they never make a kernel "dirty")
        let fallbacks = oclsim::exec::wg::fallback_report(source)
            .map_err(|e| format!("{benchmark} ({variant}) failed to plan: {e}"))?;
        let mut names: Vec<&String> = analysis.kernels.keys().collect();
        names.sort();
        for name in names {
            let diags: Vec<_> = analysis
                .diagnostics
                .iter()
                .filter(|d| &d.kernel == name)
                .collect();
            let mut messages: Vec<String> =
                diags.iter().map(|d| d.render_with_source(source)).collect();
            for (kernel, line, reason) in &fallbacks {
                if kernel == name {
                    messages.push(format!(
                        "note[backend-fallback] kernel `{kernel}`, line {line}: runs on the                          reference interpreter: {reason}"
                    ));
                }
            }
            rows.push(KernelVerdict {
                benchmark,
                variant,
                kernel: name.clone(),
                warnings: diags
                    .iter()
                    .filter(|d| d.severity == Severity::Warning)
                    .count(),
                errors: diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count(),
                messages,
            });
        }
        Ok(())
    }

    /// Lint both versions of all five paper benchmarks. `device` is only
    /// used to capture the HPL-generated sources (tiny instances).
    pub fn compute(device: &Device) -> Result<Vec<KernelVerdict>, String> {
        use benchsuite::{ep, floyd, reduction, spmv, transpose};
        let gen = |r: Result<String, hpl::Error>| r.map_err(|e| e.to_string());
        let mut rows = Vec::new();
        lint_source("EP", "handwritten", ep::opencl_version::SOURCE, &mut rows)?;
        let src = gen(ep::hpl_version::generated_source(device))?;
        lint_source("EP", "generated", &src, &mut rows)?;
        lint_source(
            "Floyd",
            "handwritten",
            floyd::opencl_version::SOURCE,
            &mut rows,
        )?;
        let src = gen(floyd::hpl_version::generated_source(device))?;
        lint_source("Floyd", "generated", &src, &mut rows)?;
        lint_source(
            "reduction",
            "handwritten",
            reduction::opencl_version::SOURCE,
            &mut rows,
        )?;
        let src = gen(reduction::hpl_version::generated_source(device))?;
        lint_source("reduction", "generated", &src, &mut rows)?;
        lint_source(
            "spmv",
            "handwritten",
            spmv::opencl_version::SOURCE,
            &mut rows,
        )?;
        let src = gen(spmv::hpl_version::generated_source(device))?;
        lint_source("spmv", "generated", &src, &mut rows)?;
        lint_source(
            "transpose",
            "handwritten",
            transpose::opencl_version::SOURCE,
            &mut rows,
        )?;
        let src = gen(transpose::hpl_version::generated_source(device))?;
        lint_source("transpose", "generated", &src, &mut rows)?;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shows_large_hpl_reduction() {
        let rows = table1::compute();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.opencl_sloc > 0 && r.hpl_sloc > 0);
            assert!(
                r.hpl_sloc < r.opencl_sloc,
                "{}: HPL ({}) must be smaller than OpenCL ({})",
                r.benchmark,
                r.hpl_sloc,
                r.opencl_sloc
            );
            assert!(
                r.reduction_percent() > 20.0,
                "{}: only {:.0}%",
                r.benchmark,
                r.reduction_percent()
            );
        }
    }

    #[test]
    fn devices_resolvable() {
        assert!(tesla().supports_fp64());
        assert!(!quadro().supports_fp64());
    }

    #[test]
    fn benchmark_corpus_lints_clean() {
        let _rt = fresh_runtime();
        let rows = lint::compute(&tesla()).unwrap();
        assert!(
            rows.len() >= 10,
            "5 benchmarks x 2 variants, at least one kernel each: {rows:?}"
        );
        for r in &rows {
            assert!(
                r.clean(),
                "{} ({}) kernel `{}` is not clean: {:?}",
                r.benchmark,
                r.variant,
                r.kernel,
                r.messages
            );
        }
    }
}
