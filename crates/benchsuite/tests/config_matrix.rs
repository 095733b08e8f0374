//! The configuration matrix, in one process: claimer count × execution
//! engine × mid-end level must not change what a program computes, and at
//! equal level the first two must not change what it is modeled to cost.
//!
//! For `threads ∈ {1, 4}` × `backend ∈ {wg, ref}` × `opt ∈ {O0, O1, O2}` a
//! fresh [`hpl::Runtime`] runs the five benchmarks — the handwritten OpenCL
//! version and the synchronous and event-graph HPL versions — on the plain
//! Tesla and on its cache-capable variant.
//!
//! * **Outputs** are bit-identical across all twelve configurations (floats
//!   compared through their bit patterns, never with a tolerance).
//! * **Costs** are identical across the four threads × engine cells of each
//!   level: every HPL launch's kernel name, whole [`LaunchCounters`]
//!   (instruction mix, transactions, bank conflicts, barrier stalls, L1/L2
//!   hits and misses, and the per-line maps `report -- annotate` renders),
//!   modeled seconds, and the runtime's transfer statistics.
//!
//! This is what `ci.sh` used to establish by re-running the whole suite
//! under `OCLSIM_BACKEND=ref`, `HPL_OPT_LEVEL=-O0` and `-O2`. One fixed
//! test-scale instance runs the full matrix; a property test repeats it on
//! generated problem shapes.

use benchsuite::{ep, floyd, reduction, spmv, transpose};
use hpl::{Config, Runtime, TransferStats};
use oclsim::prof::LaunchCounters;
use oclsim::{Backend, Device, OptLevel};
use proptest::prelude::*;

struct Inputs {
    e_cfg: ep::EpConfig,
    f_cfg: floyd::FloydConfig,
    graph: Vec<u32>,
    t_cfg: transpose::TransposeConfig,
    matrix: Vec<f32>,
    s_cfg: spmv::SpmvConfig,
    problem: spmv::CsrProblem,
    r_cfg: reduction::ReductionConfig,
    data: Vec<f32>,
}

impl Inputs {
    fn new(
        e_cfg: ep::EpConfig,
        f_cfg: floyd::FloydConfig,
        t_cfg: transpose::TransposeConfig,
        s_cfg: spmv::SpmvConfig,
        r_cfg: reduction::ReductionConfig,
    ) -> Inputs {
        Inputs {
            graph: floyd::generate_graph(&f_cfg),
            matrix: transpose::generate_matrix(&t_cfg),
            problem: spmv::generate(&s_cfg),
            data: reduction::generate_input(&r_cfg),
            e_cfg,
            f_cfg,
            t_cfg,
            s_cfg,
            r_cfg,
        }
    }
}

fn bits32(v: Vec<f32>) -> Vec<u32> {
    v.into_iter().map(f32::to_bits).collect()
}

/// What one configuration computed on one device: per benchmark, the raw
/// bits of the handwritten OpenCL, the sync HPL and the async HPL result.
#[derive(Debug, PartialEq)]
struct Outputs {
    ep: [(Vec<i64>, u64, u64); 3],
    floyd: [Vec<u32>; 3],
    transpose: [Vec<u32>; 3],
    spmv: [Vec<u32>; 3],
    reduction: [u32; 3],
}

fn run_all(inp: &Inputs, device: &Device) -> Outputs {
    let ep_bits = |r: ep::EpResult| (r.q.to_vec(), r.sx.to_bits(), r.sy.to_bits());
    Outputs {
        ep: [
            ep::opencl_version::run(&inp.e_cfg, device).unwrap().0,
            ep::hpl_version::run(&inp.e_cfg, device).unwrap().0,
            ep::async_version::run(&inp.e_cfg, device).unwrap().0,
        ]
        .map(ep_bits),
        floyd: [
            floyd::opencl_version::run(&inp.f_cfg, &inp.graph, device)
                .unwrap()
                .0,
            floyd::hpl_version::run(&inp.f_cfg, &inp.graph, device)
                .unwrap()
                .0,
            floyd::async_version::run(&inp.f_cfg, &inp.graph, device)
                .unwrap()
                .0,
        ],
        transpose: [
            transpose::opencl_version::run(&inp.t_cfg, &inp.matrix, device)
                .unwrap()
                .0,
            transpose::hpl_version::run(&inp.t_cfg, &inp.matrix, device)
                .unwrap()
                .0,
            transpose::async_version::run(&inp.t_cfg, &inp.matrix, device)
                .unwrap()
                .0,
        ]
        .map(bits32),
        spmv: [
            spmv::opencl_version::run(&inp.s_cfg, &inp.problem, device)
                .unwrap()
                .0,
            spmv::hpl_version::run(&inp.s_cfg, &inp.problem, device)
                .unwrap()
                .0,
            spmv::async_version::run(&inp.s_cfg, &inp.problem, device)
                .unwrap()
                .0,
        ]
        .map(bits32),
        reduction: [
            reduction::opencl_version::run(&inp.r_cfg, &inp.data, device)
                .unwrap()
                .0,
            reduction::hpl_version::run(&inp.r_cfg, &inp.data, device)
                .unwrap()
                .0,
            reduction::async_version::run(&inp.r_cfg, &inp.data, device)
                .unwrap()
                .0,
        ]
        .map(f32::to_bits),
    }
}

/// One HPL kernel launch as the model saw it: generated kernel name (a
/// fresh runtime counts names from `_0`, so they repeat across
/// configurations), counters, modeled device seconds.
type Launch = (String, LaunchCounters, f64);

/// What one configuration produced on one device.
struct OnDevice {
    name: String,
    outputs: Outputs,
    launches: Vec<Launch>,
}

/// Everything one configuration produced: the plain Tesla's and the cached
/// Tesla's share, and the runtime's transfer statistics over both.
struct Cell {
    devices: [OnDevice; 2],
    transfers: TransferStats,
}

fn run_cell(config: Config, inp: &Inputs) -> Cell {
    let rt = Runtime::new(config);
    let _scope = rt.enter();
    let cached = rt.device_named("48k").expect("the cached Tesla variant");
    let devices = [rt.default_device(), cached].map(|device| {
        let (outputs, report) = hpl::profile(|| run_all(inp, &device));
        let launches: Vec<Launch> = report
            .launches
            .iter()
            .map(|l| {
                let counters = l.event.counters().expect("profiled inside hpl::profile");
                let timing = l.event.kernel_timing().expect("a resolved kernel launch");
                (l.kernel.clone(), counters, timing.device_seconds)
            })
            .collect();
        // the comparison must actually cover the cache model on the cached
        // device — and cover its absence on the plain one
        let cache_traffic: u64 = launches
            .iter()
            .map(|(_, c, _)| c.totals.l1_hits + c.totals.l1_misses)
            .sum();
        assert_eq!(
            cache_traffic > 0,
            device.profile().cache.is_some(),
            "cache traffic on `{}` under {config:?}",
            device.name()
        );
        OnDevice {
            name: device.name().to_string(),
            outputs,
            launches,
        }
    });
    Cell {
        devices,
        transfers: rt.transfer_stats(),
    }
}

/// Run the whole matrix on `inp`, then compare every cell's outputs with the
/// first cell's and its costs with those of the first cell of its level.
fn check_matrix(inp: &Inputs) {
    let mut cells: Vec<(Config, Cell)> = Vec::new();
    for opt_level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        for backend in [Backend::Wg, Backend::Ref] {
            for threads in [1, 4] {
                let config = Config {
                    threads,
                    backend,
                    opt_level,
                };
                cells.push((config, run_cell(config, inp)));
            }
        }
    }
    let (_, first) = &cells[0];
    for (config, cell) in &cells {
        let (_, level) = cells
            .iter()
            .find(|(c, _)| c.opt_level == config.opt_level)
            .expect("the cell itself is of its level");
        // piecewise, so that a failure names what diverged instead of
        // printing every buffer of the suite
        for (d, got) in cell.devices.iter().enumerate() {
            let on = format!("on `{}` under {config:?}", got.name);
            assert!(
                got.outputs == first.devices[d].outputs,
                "outputs diverged {on}"
            );
            let want = &level.devices[d].launches;
            assert_eq!(got.launches.len(), want.len(), "launch count {on}");
            for (g, w) in got.launches.iter().zip(want) {
                assert_eq!(g.0, w.0, "launch order {on}");
                assert_eq!(g.1, w.1, "counters of `{}` {on}", g.0);
                assert_eq!(g.2, w.2, "modeled seconds of `{}` {on}", g.0);
            }
        }
        assert_eq!(cell.transfers, level.transfers, "{config:?}");
    }
}

/// The instance `report -- profile`, `annotate` and `cache` run.
#[test]
fn test_scale_suite_is_invariant_across_the_matrix() {
    check_matrix(&Inputs::new(
        ep::EpConfig::class(ep::EpClass::S),
        floyd::FloydConfig::default(),
        transpose::TransposeConfig::default(),
        spmv::SpmvConfig::default(),
        reduction::ReductionConfig::default(),
    ));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// The same on generated shapes: graph size, transpose tiling, CSR
    /// gather pattern, reduction length and EP chunking all vary, so the
    /// property covers many NDRange geometries (strided, coalesced and
    /// data-dependent transaction streams), not one golden instance.
    #[test]
    fn generated_shapes_are_invariant_across_the_matrix(
        seed in any::<u64>(),
        nf in 1usize..3,
        rf in 1usize..4,
        cf in 1usize..4,
        rc in 1usize..5,
        pairs in 1usize..4,
        rows_sp in 2usize..8,
        dens in 5u64..40,
    ) {
        check_matrix(&Inputs::new(
            ep::EpConfig { class: ep::EpClass::S, pairs_per_thread: pairs },
            floyd::FloydConfig { nodes: 16 * nf, seed },
            transpose::TransposeConfig { rows: 16 * rf, cols: 16 * cf },
            spmv::SpmvConfig { n: 8 * rows_sp, density: dens as f64 / 100.0, seed },
            reduction::ReductionConfig { n: reduction::CHUNK * rc },
        ));
    }
}
