//! The seeded synthetic OpenCL C family of `cold_compile`: straight-line
//! unsigned arithmetic, nested `for`/`if` (the `if`s diverge across
//! work-items), and one `__local` array with a uniform barrier. Each
//! kernel comes with the output an independent Rust evaluation of the
//! same statement tree produces, so a cold build can be executed once and
//! checked without trusting the simulator.

use std::fmt::Write;

use crate::rng::Rng;

/// Work-items of the one work-group a synthetic kernel is checked on.
pub const ITEMS: usize = 16;
/// Statement counts of the family; the spread exposes super-linear passes.
pub const SIZES: [usize; 3] = [16, 64, 256];
pub const KERNEL_NAME: &str = "syn";
const VARS: usize = 4;
const MAX_DEPTH: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Operand {
    Var(usize),
    Const(u32),
    /// Counter of the enclosing loop at this nesting depth.
    Loop(usize),
    Lane,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    Xor,
    And,
    Or,
    Shl,
    Shr,
}

#[derive(Debug, Clone)]
enum Stmt {
    /// `v[dst] = v[dst] (+|^) (lhs op rhs)`: accumulating keeps the
    /// variables from collapsing to constants over long chains.
    Assign {
        dst: usize,
        xor: bool,
        lhs: Operand,
        op: Op,
        rhs: Operand,
    },
    If {
        var: usize,
        bit: u32,
        then: Vec<Stmt>,
        otherwise: Vec<Stmt>,
    },
    For {
        trips: u32,
        body: Vec<Stmt>,
    },
    /// `tile[lid] = v0; barrier; v1 += tile[(lid + 1) & 15]; barrier` —
    /// top level only, so the barrier is uniform.
    Exchange,
}

pub struct Synth {
    pub source: String,
    /// `out[0..ITEMS]` for `in = input`.
    pub expected: Vec<u32>,
}

/// The two random streams of a kernel. `shape` depends on the statement
/// count alone and draws the structure (which statements nest where, trip
/// counts, what kind each operand is), so every seed compiles a kernel of
/// the same shape and a run's cost does not depend on its seed; `fill`
/// depends on the seed and draws the contents (operators, variables,
/// constants, tested bits), so every seed computes something else.
struct Draw {
    shape: Rng,
    fill: Rng,
}

/// Generate the kernel with `statements` statements for `seed`, and
/// evaluate it on `input` (`ITEMS` words).
pub fn generate(seed: u64, statements: usize, input: &[u32]) -> Synth {
    assert!(statements >= 2 && input.len() == ITEMS);
    let mut rng = Draw {
        shape: Rng::new((statements as u64).wrapping_mul(0x9E37_79B9)),
        fill: Rng::new(seed ^ (statements as u64).wrapping_mul(0x9E37_79B9)),
    };
    let mut body = block(&mut rng, statements - 1, 0);
    let at = rng.shape.below(body.len() as u64 + 1) as usize;
    body.insert(at, Stmt::Exchange);
    assert_eq!(
        count(&body),
        statements,
        "the generator spends exactly its budget"
    );
    Synth {
        source: emit(&body),
        expected: evaluate(&body, input),
    }
}

fn count(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::If {
                then, otherwise, ..
            } => 1 + count(then) + count(otherwise),
            Stmt::For { body, .. } => 1 + count(body),
            _ => 1,
        })
        .sum()
}

/// A block of exactly `budget` statements (nested ones included) at loop
/// nesting `depth`.
fn block(rng: &mut Draw, mut budget: usize, depth: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    while budget > 0 {
        let kind = rng.shape.below(10);
        if budget >= 3 && depth < MAX_DEPTH && kind < 2 {
            let inner = (2 + rng.shape.below(5) as usize).min(budget - 1);
            let then_n = 1 + rng.shape.below(inner as u64 - 1) as usize;
            out.push(Stmt::If {
                var: rng.fill.below(VARS as u64) as usize,
                bit: 1 << rng.fill.below(8),
                then: block(rng, then_n, depth),
                otherwise: block(rng, inner - then_n, depth),
            });
            budget -= 1 + inner;
        } else if budget >= 3 && depth < MAX_DEPTH && kind < 4 {
            let inner = (1 + rng.shape.below(5) as usize).min(budget - 1);
            out.push(Stmt::For {
                trips: 2 + rng.shape.below(3) as u32,
                body: block(rng, inner, depth + 1),
            });
            budget -= 1 + inner;
        } else {
            out.push(assign(rng, depth));
            budget -= 1;
        }
    }
    out
}

fn assign(rng: &mut Draw, depth: usize) -> Stmt {
    // the shape decides between the operator families (constant shift,
    // constant mask, free operand), the fill picks within one
    let (op, rhs) = match rng.shape.below(4) {
        0 => (
            [Op::Shl, Op::Shr][rng.fill.below(2) as usize],
            Operand::Const(1 + rng.fill.below(31) as u32),
        ),
        // keep AND/OR from collapsing every variable to 0 / all-ones
        1 if rng.fill.below(2) == 0 => (
            Op::And,
            Operand::Const(rng.fill.next_u64() as u32 | 0x0101_0101),
        ),
        1 => (
            Op::Or,
            Operand::Const(rng.fill.next_u64() as u32 & 0x0F0F_0F0F),
        ),
        _ => (
            [Op::Add, Op::Sub, Op::Mul, Op::Xor][rng.fill.below(4) as usize],
            operand(rng, depth),
        ),
    };
    Stmt::Assign {
        dst: rng.fill.below(VARS as u64) as usize,
        xor: rng.fill.below(2) == 0,
        lhs: Operand::Var(rng.fill.below(VARS as u64) as usize),
        op,
        rhs,
    }
}

fn operand(rng: &mut Draw, depth: usize) -> Operand {
    match rng.shape.below(8) {
        0 => Operand::Lane,
        1 if depth > 0 => Operand::Loop(rng.fill.below(depth as u64) as usize),
        2 | 3 => Operand::Const(rng.fill.next_u64() as u32),
        _ => Operand::Var(rng.fill.below(VARS as u64) as usize),
    }
}

// ---- OpenCL C --------------------------------------------------------------

fn emit(body: &[Stmt]) -> String {
    let mut s = String::new();
    s.push_str("__kernel void syn(__global uint* out, __global const uint* in) {\n");
    s.push_str("    __local uint tile[16];\n");
    s.push_str("    uint lid = (uint)get_local_id(0);\n");
    s.push_str("    uint gid = (uint)get_global_id(0);\n");
    s.push_str("    uint v0 = in[gid];\n");
    s.push_str("    uint v1 = gid * 2654435761u;\n");
    s.push_str("    uint v2 = v0 ^ 2654435769u;\n");
    s.push_str("    uint v3 = gid + 1u;\n");
    emit_block(body, 1, 0, &mut s);
    s.push_str("    out[gid] = ((v0 ^ v1) + v2) ^ v3;\n}\n");
    s
}

fn emit_operand(o: Operand) -> String {
    match o {
        Operand::Var(v) => format!("v{v}"),
        Operand::Const(c) => format!("{c}u"),
        Operand::Loop(d) => format!("i{d}"),
        Operand::Lane => "gid".into(),
    }
}

/// `depth` is the loop nesting (it names the counters); `indent` also
/// counts `if` nesting.
fn emit_block(stmts: &[Stmt], indent: usize, depth: usize, s: &mut String) {
    let pad = "    ".repeat(indent);
    for st in stmts {
        match st {
            Stmt::Assign {
                dst,
                xor,
                lhs,
                op,
                rhs,
            } => {
                let acc = if *xor { "^" } else { "+" };
                let sym = match op {
                    Op::Add => "+",
                    Op::Sub => "-",
                    Op::Mul => "*",
                    Op::Xor => "^",
                    Op::And => "&",
                    Op::Or => "|",
                    Op::Shl => "<<",
                    Op::Shr => ">>",
                };
                writeln!(
                    s,
                    "{pad}v{dst} = v{dst} {acc} ({} {sym} {});",
                    emit_operand(*lhs),
                    emit_operand(*rhs)
                )
                .unwrap();
            }
            Stmt::If {
                var,
                bit,
                then,
                otherwise,
            } => {
                writeln!(s, "{pad}if ((v{var} & {bit}u) != 0u) {{").unwrap();
                emit_block(then, indent + 1, depth, s);
                writeln!(s, "{pad}}} else {{").unwrap();
                emit_block(otherwise, indent + 1, depth, s);
                writeln!(s, "{pad}}}").unwrap();
            }
            Stmt::For { trips, body } => {
                writeln!(
                    s,
                    "{pad}for (uint i{depth} = 0u; i{depth} < {trips}u; i{depth}++) {{"
                )
                .unwrap();
                emit_block(body, indent + 1, depth + 1, s);
                writeln!(s, "{pad}}}").unwrap();
            }
            Stmt::Exchange => {
                writeln!(s, "{pad}tile[lid] = v0;").unwrap();
                writeln!(s, "{pad}barrier(CLK_LOCAL_MEM_FENCE);").unwrap();
                writeln!(s, "{pad}v1 = v1 + tile[(lid + 1u) & 15u];").unwrap();
                writeln!(s, "{pad}barrier(CLK_LOCAL_MEM_FENCE);").unwrap();
            }
        }
    }
}

// ---- the independent evaluation ----------------------------------------------

struct Lane {
    v: [u32; VARS],
    gid: u32,
    loops: Vec<u32>,
}

fn value(o: Operand, lane: &Lane) -> u32 {
    match o {
        Operand::Var(v) => lane.v[v],
        Operand::Const(c) => c,
        Operand::Loop(d) => lane.loops[d],
        Operand::Lane => lane.gid,
    }
}

fn exec(stmts: &[Stmt], lane: &mut Lane) {
    for st in stmts {
        match st {
            Stmt::Assign {
                dst,
                xor,
                lhs,
                op,
                rhs,
            } => {
                let (a, b) = (value(*lhs, lane), value(*rhs, lane));
                let e = match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Sub => a.wrapping_sub(b),
                    Op::Mul => a.wrapping_mul(b),
                    Op::Xor => a ^ b,
                    Op::And => a & b,
                    Op::Or => a | b,
                    Op::Shl => a << b,
                    Op::Shr => a >> b,
                };
                lane.v[*dst] = if *xor {
                    lane.v[*dst] ^ e
                } else {
                    lane.v[*dst].wrapping_add(e)
                };
            }
            Stmt::If {
                var,
                bit,
                then,
                otherwise,
            } => {
                exec(
                    if lane.v[*var] & bit != 0 {
                        then
                    } else {
                        otherwise
                    },
                    lane,
                );
            }
            Stmt::For { trips, body } => {
                for i in 0..*trips {
                    lane.loops.push(i);
                    exec(body, lane);
                    lane.loops.pop();
                }
            }
            Stmt::Exchange => unreachable!("the exchange is handled at top level"),
        }
    }
}

fn evaluate(body: &[Stmt], input: &[u32]) -> Vec<u32> {
    let mut lanes: Vec<Lane> = (0..ITEMS as u32)
        .map(|gid| {
            let v0 = input[gid as usize];
            Lane {
                v: [
                    v0,
                    gid.wrapping_mul(2_654_435_761),
                    v0 ^ 2_654_435_769,
                    gid + 1,
                ],
                gid,
                loops: Vec::new(),
            }
        })
        .collect();
    // all work-items run up to the (single, top-level) barrier, exchange,
    // then run on
    for segment in body.split(|s| matches!(s, Stmt::Exchange)).enumerate() {
        let (i, stmts) = segment;
        if i > 0 {
            let tile: Vec<u32> = lanes.iter().map(|l| l.v[0]).collect();
            for (lid, lane) in lanes.iter_mut().enumerate() {
                lane.v[1] = lane.v[1].wrapping_add(tile[(lid + 1) & (ITEMS - 1)]);
            }
        }
        for lane in &mut lanes {
            exec(stmts, lane);
        }
    }
    lanes
        .iter()
        .map(|l| ((l.v[0] ^ l.v[1]).wrapping_add(l.v[2])) ^ l.v[3])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oclsim::{CommandQueue, Context, MemAccess, Platform, Program};

    fn input(seed: u64) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        (0..ITEMS).map(|_| rng.next_u64() as u32).collect()
    }

    #[test]
    fn generation_is_a_function_of_seed_and_size() {
        let inp = input(1);
        for n in SIZES {
            let a = generate(5, n, &inp);
            assert_eq!(a.source, generate(5, n, &inp).source);
            assert_ne!(a.source, generate(6, n, &inp).source);
            assert_ne!(a.expected, generate(5, n, &input(2)).expected);
        }
    }

    /// Every size builds clean at every level with no wg fallback, and the
    /// simulator's output equals the independent evaluation.
    #[test]
    fn every_size_builds_at_every_level_and_matches_the_evaluation() {
        let device = Platform::default_platform().default_accelerator().unwrap();
        let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
        let queue = CommandQueue::new(&ctx, &device).unwrap();
        for seed in [1u64, 2, 3, 99] {
            let inp = input(seed);
            let inbuf = ctx.create_buffer_from(&inp, MemAccess::ReadOnly).unwrap();
            let out = ctx.create_buffer(ITEMS * 4, MemAccess::ReadWrite).unwrap();
            for n in SIZES {
                let syn = generate(seed, n, &inp);
                for level in ["-O0", "-O1", "-O2"] {
                    let program = Program::from_source(&ctx, syn.source.as_str());
                    program
                        .build(level)
                        .unwrap_or_else(|e| panic!("{level} n={n}: {e}\n{}", syn.source));
                    assert!(
                        !program.build_log().contains("reference interpreter"),
                        "wg fallback at {level} n={n}: {}",
                        program.build_log()
                    );
                    let kernel = program.kernel(KERNEL_NAME).unwrap();
                    kernel.set_arg_buffer(0, &out).unwrap();
                    kernel.set_arg_buffer(1, &inbuf).unwrap();
                    queue
                        .enqueue_ndrange(&kernel, &[ITEMS], Some(&[ITEMS]))
                        .unwrap();
                    let got = out.read_vec::<u32>(0, ITEMS).unwrap();
                    assert_eq!(
                        got, syn.expected,
                        "seed {seed} n={n} {level}\n{}",
                        syn.source
                    );
                }
            }
        }
    }
}
