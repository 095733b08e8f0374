//! Backend equivalence on generated kernels: the compiled work-group
//! bytecode VM (`wg`) must be observationally identical to the reference
//! SIMT interpreter (`ref`) on every address pattern its memory-op function
//! distinguishes — buffer contents and whole [`LaunchCounters`], floats
//! compared through their bit patterns, never with a tolerance.
//!
//! Each run builds a device of its own with the engine and claimer count it
//! wants ([`ExecConfig`]); nothing is process-global. The five benchmarks
//! face both engines in `config_matrix.rs`.

use oclsim::prof::LaunchCounters;
use oclsim::{Backend, ExecConfig};

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

fn run_mem_case(case: &MemCase, profile: oclsim::DeviceProfile, exec: ExecConfig) -> MemOutcome {
    use oclsim::{Context, Device, MemAccess, Program};
    // a device, context and buffers of its own: nothing is shared with the
    // other engine's run
    let device = Device::with_exec(profile, exec);
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
    let (_, counters) = oclsim::profile_launch(&kernel, &case.global, Some(&case.local), &device)?;
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
            let oracle = ExecConfig {
                threads: 1,
                backend: Backend::Ref,
            };
            let reference = run_mem_case(&case, profile.clone(), oracle);
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
            for threads in [1, 4] {
                let vm = ExecConfig {
                    threads,
                    backend: Backend::Wg,
                };
                let compiled = run_mem_case(&case, profile.clone(), vm);
                // piecewise, so that a failure names what diverged instead
                // of printing three buffers
                let on = format!("{on}, {threads} claimers");
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
