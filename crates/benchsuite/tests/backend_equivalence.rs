//! Backend equivalence: the compiled work-group bytecode VM (`wg`) must be
//! observationally identical to the reference SIMT interpreter (`ref`).
//!
//! Every benchmark runs under both backends at `-O0` and `-O2`, in the
//! synchronous and the event-graph (async) HPL variants, and the outputs
//! must match **bit for bit** — floats compared through their bit
//! patterns, never with a tolerance. On top of the outputs, the profiled
//! [`LaunchCounters`] of every kernel launch (totals, per-line map, group
//! count, modeled cycles) must be byte-identical between backends, which
//! is what keeps `report -- annotate` and the trajectory gate
//! backend-agnostic.
//!
//! The backend knob is process-global (like the opt level), so tests in
//! this binary serialize on one mutex and restore the previous backend on
//! exit. `ci.sh` runs the whole suite under `OCLSIM_BACKEND=ref` and
//! `OCLSIM_BACKEND=wg` (and under `OCLSIM_THREADS=1` and `4`), so both
//! engines also face every *other* test in the tree.

use benchsuite::{ep, floyd, reduction, spmv, transpose};
use oclsim::prof::LaunchCounters;
use oclsim::{Backend, OptLevel};
use proptest::prelude::*;

fn tesla() -> oclsim::Device {
    hpl::runtime()
        .device_named("tesla")
        .expect("default platform has a Tesla-class GPU")
}

fn tesla_cached() -> oclsim::Device {
    hpl::runtime()
        .device_named("48k")
        .expect("default platform has the 48K-L1 cached Tesla variant")
}

/// Backend and opt level are process-global; tests in this binary must
/// not race on them.
static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with the process-global backend and opt level pinned, clearing
/// the kernel cache on entry and exit so no binary built under one
/// configuration leaks into another.
fn with_knobs<T>(backend: Backend, level: OptLevel, f: impl FnOnce() -> T) -> T {
    let prev_backend = oclsim::backend();
    let prev_level = hpl::opt_level();
    oclsim::set_backend(backend);
    hpl::set_opt_level(level);
    hpl::clear_kernel_cache();
    let out = f();
    oclsim::set_backend(prev_backend);
    hpl::set_opt_level(prev_level);
    hpl::clear_kernel_cache();
    out
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything one (backend, level) configuration produced: the five
/// benchmark outputs (sync + async variants) as raw bits.
#[derive(Debug, PartialEq)]
struct Outputs {
    ep_sync: (Vec<i64>, u64, u64),
    ep_async: (Vec<i64>, u64, u64),
    floyd_sync: Vec<u32>,
    floyd_async: Vec<u32>,
    transpose_sync: Vec<u32>,
    transpose_async: Vec<u32>,
    spmv_sync: Vec<u32>,
    spmv_async: Vec<u32>,
    reduction_sync: u32,
    reduction_async: u32,
}

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

fn run_all(inp: &Inputs, device: &oclsim::Device) -> Outputs {
    let ep_bits = |r: &ep::EpResult| (r.q.to_vec(), r.sx.to_bits(), r.sy.to_bits());
    let (es, _) = ep::hpl_version::run(&inp.e_cfg, device).unwrap();
    let (ea, _) = ep::async_version::run(&inp.e_cfg, device).unwrap();
    let (fs, _) = floyd::hpl_version::run(&inp.f_cfg, &inp.graph, device).unwrap();
    let (fa, _) = floyd::async_version::run(&inp.f_cfg, &inp.graph, device).unwrap();
    let (ts, _) = transpose::hpl_version::run(&inp.t_cfg, &inp.matrix, device).unwrap();
    let (ta, _) = transpose::async_version::run(&inp.t_cfg, &inp.matrix, device).unwrap();
    let (ss, _) = spmv::hpl_version::run(&inp.s_cfg, &inp.problem, device).unwrap();
    let (sa, _) = spmv::async_version::run(&inp.s_cfg, &inp.problem, device).unwrap();
    let (rs, _) = reduction::hpl_version::run(&inp.r_cfg, &inp.data, device).unwrap();
    let (ra, _) = reduction::async_version::run(&inp.r_cfg, &inp.data, device).unwrap();
    Outputs {
        ep_sync: ep_bits(&es),
        ep_async: ep_bits(&ea),
        floyd_sync: fs,
        floyd_async: fa,
        transpose_sync: bits32(&ts),
        transpose_async: bits32(&ta),
        spmv_sync: bits32(&ss),
        spmv_async: bits32(&sa),
        reduction_sync: rs.to_bits(),
        reduction_async: ra.to_bits(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn wg_backend_matches_ref_bitwise(
        seed in any::<u64>(),
        nf in 1usize..3,
        rf in 1usize..3,
        cf in 1usize..3,
        rc in 1usize..4,
        rows_sp in 2usize..6,
        dens in 5u64..30,
    ) {
        let _serial = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let device = tesla();

        let f_cfg = floyd::FloydConfig { nodes: 16 * nf, seed };
        let t_cfg = transpose::TransposeConfig { rows: 16 * rf, cols: 16 * cf };
        let s_cfg = spmv::SpmvConfig { n: 8 * rows_sp, density: dens as f64 / 100.0, seed };
        let r_cfg = reduction::ReductionConfig { n: reduction::CHUNK * rc };
        let inp = Inputs {
            e_cfg: ep::EpConfig { class: ep::EpClass::S, pairs_per_thread: 1 },
            graph: floyd::generate_graph(&f_cfg),
            f_cfg,
            matrix: transpose::generate_matrix(&t_cfg),
            t_cfg,
            problem: spmv::generate(&s_cfg),
            s_cfg,
            data: reduction::generate_input(&r_cfg),
            r_cfg,
        };

        for level in [OptLevel::O0, OptLevel::O2] {
            let reference = with_knobs(Backend::Ref, level, || run_all(&inp, &device));
            let compiled = with_knobs(Backend::Wg, level, || run_all(&inp, &device));
            prop_assert_eq!(&reference, &compiled, "outputs diverged at {}", level);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Cache-model determinism over randomized launch geometries: the
    /// simulated L1/L2 hit/miss counters (per-launch totals and per-line
    /// maps) must be byte-identical between the `wg` VM and the `ref`
    /// interpreter. Transpose varies the 2D tiling, SpMV varies the
    /// gather pattern — between them they cover strided, coalesced and
    /// data-dependent transaction streams.
    #[test]
    fn cache_counters_identical_across_backends_randomized(
        seed in any::<u64>(),
        rf in 1usize..4,
        cf in 1usize..4,
        rows_sp in 2usize..8,
        dens in 5u64..40,
    ) {
        let _serial = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let device = tesla_cached();
        let t_cfg = transpose::TransposeConfig { rows: 16 * rf, cols: 16 * cf };
        let matrix = transpose::generate_matrix(&t_cfg);
        let s_cfg = spmv::SpmvConfig { n: 8 * rows_sp, density: dens as f64 / 100.0, seed };
        let problem = spmv::generate(&s_cfg);
        let run = || {
            let (_, report) = hpl::profile(|| {
                transpose::hpl_version::run(&t_cfg, &matrix, &device).unwrap();
                spmv::hpl_version::run(&s_cfg, &problem, &device).unwrap();
            });
            report
                .launches
                .iter()
                .map(|l| (base_name(&l.kernel), l.event.counters()))
                .collect::<Vec<_>>()
        };
        let reference = with_knobs(Backend::Ref, OptLevel::O2, run);
        let compiled = with_knobs(Backend::Wg, OptLevel::O2, run);
        prop_assert_eq!(&reference, &compiled);
        let traffic: u64 = reference
            .iter()
            .filter_map(|(_, c)| c.as_ref())
            .map(|c| c.totals.l1_hits + c.totals.l1_misses)
            .sum();
        prop_assert!(traffic > 0, "randomized geometry produced no cache traffic");
    }
}

/// Per-launch profiled counters of a full benchmark run, keyed by launch
/// order. `None` for launches whose event carried no counters.
fn profiled_counters(
    inp: &Inputs,
    device: &oclsim::Device,
) -> Vec<(String, Option<LaunchCounters>)> {
    let (result, report) = hpl::profile(|| run_all(inp, device));
    let _ = result;
    report
        .launches
        .iter()
        .map(|l| (base_name(&l.kernel), l.event.counters()))
        .collect()
}

/// Kernel names carry a process-global codegen counter suffix
/// (`hpl_ep_kernel_17`); strip it so launch identity is stable across
/// repeated runs in one process.
fn base_name(kernel: &str) -> String {
    match kernel.rfind('_') {
        Some(i) if kernel[i + 1..].chars().all(|c| c.is_ascii_digit()) => kernel[..i].to_string(),
        _ => kernel.to_string(),
    }
}

/// The stronger property behind `report -- annotate` backend-agnosticism:
/// every launch's counter snapshot — instruction-class totals, memory
/// transactions, bank conflicts, barrier stalls, simulated L1/L2 cache
/// hits and misses, and the per-line map — is byte-identical between
/// backends on all five benchmarks, on both the roofline-only Tesla and
/// its cache-capable variant.
#[test]
fn launch_counters_identical_across_backends() {
    let _serial = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for device in [tesla(), tesla_cached()] {
        launch_counters_on(&device);
    }
}

fn launch_counters_on(device: &oclsim::Device) {
    let f_cfg = floyd::FloydConfig { nodes: 32, seed: 7 };
    let t_cfg = transpose::TransposeConfig { rows: 32, cols: 16 };
    let s_cfg = spmv::SpmvConfig {
        n: 32,
        density: 0.2,
        seed: 7,
    };
    let r_cfg = reduction::ReductionConfig {
        n: reduction::CHUNK * 2,
    };
    let inp = Inputs {
        e_cfg: ep::EpConfig {
            class: ep::EpClass::S,
            pairs_per_thread: 1,
        },
        graph: floyd::generate_graph(&f_cfg),
        f_cfg,
        matrix: transpose::generate_matrix(&t_cfg),
        t_cfg,
        problem: spmv::generate(&s_cfg),
        s_cfg,
        data: reduction::generate_input(&r_cfg),
        r_cfg,
    };

    let has_cache = device.profile().cache.is_some();
    for level in [OptLevel::O0, OptLevel::O2] {
        let reference = with_knobs(Backend::Ref, level, || profiled_counters(&inp, device));
        let compiled = with_knobs(Backend::Wg, level, || profiled_counters(&inp, device));
        assert_eq!(
            reference.len(),
            compiled.len(),
            "launch count diverged at {level}"
        );
        let mut cache_traffic = 0u64;
        for ((rk, rc), (ck, cc)) in reference.iter().zip(&compiled) {
            assert_eq!(rk, ck, "launch order diverged at {level}");
            assert_eq!(
                rc, cc,
                "counters for `{rk}` diverged between backends at {level}"
            );
            if let Some(c) = rc {
                cache_traffic += c.totals.l1_hits + c.totals.l1_misses;
            }
        }
        // the comparison above must actually cover the cache model on the
        // cached device — and must cover its absence on the plain one
        assert_eq!(
            cache_traffic > 0,
            has_cache,
            "cache traffic mismatch on `{}` at {level}",
            device.name()
        );
    }
}

// ---- memory instructions on generated address patterns ------------------------

/// One kernel of the address-pattern table: OpenCL C source (entry point
/// `k(out, in, lut, n)`), launch geometry, and whether it must fault.
struct MemCase {
    name: String,
    src: String,
    global: Vec<usize>,
    local: Vec<usize>,
    faults: bool,
}

const MEM_ITEMS: usize = 256;

/// Every index shape × element width the `wg` VM's memory-op function
/// distinguishes: what its regular path takes (unit stride, broadcast,
/// two rows of a 16×16 tile, `__local`, a private array) and what it
/// declines or sorts (strides past a segment, descending and permuted
/// lanes, sub-word elements, partial masks), as loads and as stores.
fn mem_cases() -> Vec<MemCase> {
    let sig = |ty: &str| {
        format!("(__global {ty}* out, __global const {ty}* in, __constant {ty}* lut, int n)")
    };
    let linear = |name: String, ty: &str, body: &str| MemCase {
        name,
        src: format!(
            "__kernel void k{} {{\n    int i = (int)get_global_id(0);\n{body}\n}}",
            sig(ty)
        ),
        global: vec![MEM_ITEMS],
        local: vec![64],
        faults: false,
    };
    let mut cases = Vec::new();
    let loads = [
        ("unit", "i"),
        ("broadcast", "0"),
        ("stride2", "i * 2"),
        ("stride33", "i * 33"),
        ("descending", "n - 1 - i"),
        ("permuted", "(i * 7) % n"),
    ];
    for ty in ["int", "float", "double", "ulong", "char", "short"] {
        for (pattern, idx) in loads {
            let body = format!("    out[i] = in[{idx}];");
            cases.push(linear(format!("load {pattern} {ty}"), ty, &body));
        }
        // the index maps work-items one to one, so the stores do not race
        for (pattern, idx) in &loads[2..] {
            let body = format!("    out[{idx}] = in[i];");
            cases.push(linear(format!("store {pattern} {ty}"), ty, &body));
        }
    }
    cases.push(MemCase {
        name: "two rows of a 16x16 tile".into(),
        src: format!(
            "__kernel void k{} {{
                 int x = (int)get_global_id(0);
                 int y = (int)get_global_id(1);
                 out[y * 32 + x] = in[y * 64 + x] + in[y * 64] + in[x];
             }}",
            sig("float")
        ),
        global: vec![32, 32],
        local: vec![16, 16],
        faults: false,
    });
    let special = [
        (
            "__constant operands",
            "    out[i] = lut[i % 16] + lut[0] + lut[(i * 5) % 64];",
        ),
        (
            "__local operands with bank conflicts",
            "    __local int tile[64];
                 int l = (int)get_local_id(0);
                 tile[l] = in[i];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[i] = tile[63 - l] + tile[(l * 2) % 64] + tile[0];",
        ),
        (
            "partial masks under a divergent if",
            "    if (i % 3 == 0) { out[i] = in[i * 2]; }
                 else { if (i % 5 == 1) { out[i] = in[n - 1 - i]; } else { out[i] = in[i] + in[0]; } }",
        ),
        (
            "partial masks inside a divergent loop",
            "    int acc = 0;
                 for (int j = 0; j < i % 7; j++) { acc += in[i + j * 5]; }
                 out[i] = acc;",
        ),
        (
            "private array indexed by a lane-varying value",
            "    int tmp[8];
                 for (int j = 0; j < 8; j++) { tmp[j] = in[i + j]; }
                 tmp[i % 8] += 1;
                 out[i] = tmp[i % 8] + tmp[(i * 3) % 8];",
        ),
    ];
    for (name, body) in special {
        cases.push(linear(name.into(), "int", body));
    }
    cases.push(MemCase {
        name: "helper function that loads".into(),
        src: format!(
            "int fetch(__global const int* p, int at) {{ return p[at] + p[at ^ 1]; }}
             __kernel void k{} {{
                 int i = (int)get_global_id(0);
                 out[i] = fetch(in, i) + fetch(in, n - 1 - i);
             }}",
            sig("int")
        ),
        global: vec![MEM_ITEMS],
        local: vec![64],
        faults: false,
    });
    cases.push(MemCase {
        faults: true,
        ..linear(
            "one lane out of bounds".into(),
            "int",
            "    out[i] = in[i == 77 ? 1 << 20 : i];",
        )
    });
    cases
}

/// What one engine made of one case: the three buffers' bytes and the
/// launch's counters, or the error.
type MemOutcome = Result<(Vec<Vec<u8>>, LaunchCounters), oclsim::Error>;

fn run_mem_case(case: &MemCase, profile: oclsim::DeviceProfile, workers: usize) -> MemOutcome {
    use oclsim::{Context, Device, MemAccess, Program};
    // a device, context and buffers of its own: nothing is shared with the
    // other engine's run
    let device = Device::new(profile);
    let ctx = Context::new(std::slice::from_ref(&device))?;
    let program = Program::from_source(&ctx, &case.src);
    program
        .build("")
        .unwrap_or_else(|e| panic!("{}: {e}\n{}", case.name, case.src));
    let kernel = program.kernel("k")?;
    // every byte distinct from its neighbours; small enough values that
    // float and double patterns stay finite is not needed: bits are bits
    let bytes = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 37 + i / 251) as u8).collect() };
    let out = ctx.create_buffer(128 << 10, MemAccess::ReadWrite)?;
    let input = ctx.create_buffer_from(&bytes(128 << 10), MemAccess::ReadOnly)?;
    let lut = ctx.create_buffer_from(&bytes(4 << 10), MemAccess::ReadOnly)?;
    kernel.set_arg_buffer(0, &out)?;
    kernel.set_arg_buffer(1, &input)?;
    kernel.set_arg_buffer(2, &lut)?;
    kernel.set_arg_scalar(3, MEM_ITEMS as i32)?;
    let (_, counters) =
        oclsim::profile_launch(&kernel, &case.global, Some(&case.local), &device, workers)?;
    let contents = [&out, &input, &lut]
        .iter()
        .map(|b| b.read_vec::<u8>(0, b.len_bytes()))
        .collect::<Result<_, _>>()?;
    Ok((contents, counters))
}

/// The memory-op slice of generated-kernel differential testing: on every
/// case of [`mem_cases`] the `wg` VM reproduces the reference interpreter's
/// buffer contents and its whole [`LaunchCounters`] — totals and per-line
/// maps of `mem_transactions`, `mem_transactions_min`, `global_bytes`,
/// `local_accesses`, `bank_conflicts`, and on the cached device the L1/L2
/// hits — with one claimer and with four, and a faulting lane yields the
/// same `MemoryFault` from both.
#[test]
fn memory_ops_match_on_generated_address_patterns() {
    let _serial = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let paths = || {
        let m = oclsim::telemetry::metrics();
        (m.exec_wg_mem_regular.get(), m.exec_wg_mem_generic.get())
    };
    let before = paths();
    for case in mem_cases() {
        for profile in [
            oclsim::DeviceProfile::tesla_c2050(),
            oclsim::DeviceProfile::tesla_c2050_cached(),
        ] {
            let on = format!("`{}` on {}", case.name, profile.name);
            let reference = with_knobs(Backend::Ref, OptLevel::O1, || {
                run_mem_case(&case, profile.clone(), 1)
            });
            match &reference {
                Ok((_, c)) => {
                    assert!(!case.faults, "{on}: expected a fault");
                    assert!(c.totals.mem_transactions > 0, "{on}: no global traffic");
                    assert_eq!(c.lines_sum(), c.totals, "{on}: per-line sums");
                    assert_eq!(
                        c.totals.l1_hits + c.totals.l1_misses > 0,
                        profile.cache.is_some(),
                        "{on}: cache traffic"
                    );
                }
                Err(e) => {
                    assert!(case.faults, "{on}: {e}");
                    assert!(
                        matches!(
                            e,
                            oclsim::Error::MemoryFault {
                                space: "global",
                                len: 4,
                                ..
                            }
                        ),
                        "{on}: {e}"
                    );
                }
            }
            for workers in [1, 4] {
                let compiled = with_knobs(Backend::Wg, OptLevel::O1, || {
                    run_mem_case(&case, profile.clone(), workers)
                });
                // piecewise, so that a failure names what diverged instead
                // of printing three buffers
                let on = format!("{on}, {workers} workers");
                match (&compiled, &reference) {
                    (Ok((bytes, counters)), Ok((ref_bytes, ref_counters))) => {
                        assert_eq!(counters, ref_counters, "{on}: counters");
                        assert!(bytes == ref_bytes, "{on}: buffer contents");
                    }
                    (wg, reference) => {
                        assert_eq!(wg.as_ref().err(), reference.as_ref().err(), "{on}")
                    }
                }
            }
        }
    }
    // the table reached both sides of the regular/generic split
    let after = paths();
    assert!(after.0 > before.0, "no access took the regular path");
    assert!(after.1 > before.1, "no access took the generic path");
}
