//! Property-based tests of the OpenCL C compiler + interpreter: randomly
//! generated C expressions are compiled and executed on the simulated
//! device — by the `wg` VM and by the `ref` oracle — and compared against a
//! direct host evaluation with C semantics. The same expressions, stored
//! through an index the sanitizer cannot prove disjoint, check its
//! on-demand dataflow facts against the eager oracle.

mod common;

use common::{rig, tesla_per_engine};
use oclsim::clc::{analysis, parser, sema};
use oclsim::{DeviceProfile, DiagKind, ExecConfig, MemAccess, Program};
use proptest::prelude::*;

/// A generated C expression over one `int` variable `x`, paired with a
/// host evaluator implementing the same wrapping semantics.
#[derive(Debug, Clone)]
enum CExpr {
    X,
    Lit(i16),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Xor(Box<CExpr>, Box<CExpr>),
    Shl(Box<CExpr>, u8),
    Shr(Box<CExpr>, u8),
    Neg(Box<CExpr>),
    Not(Box<CExpr>),
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    fn to_c(&self) -> String {
        match self {
            CExpr::X => "x".into(),
            CExpr::Lit(v) => {
                if *v < 0 {
                    format!("({v})")
                } else {
                    format!("{v}")
                }
            }
            CExpr::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            CExpr::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            CExpr::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            CExpr::And(a, b) => format!("({} & {})", a.to_c(), b.to_c()),
            CExpr::Or(a, b) => format!("({} | {})", a.to_c(), b.to_c()),
            CExpr::Xor(a, b) => format!("({} ^ {})", a.to_c(), b.to_c()),
            CExpr::Shl(a, s) => format!("({} << {s})", a.to_c()),
            CExpr::Shr(a, s) => format!("({} >> {s})", a.to_c()),
            CExpr::Neg(a) => format!("(-{})", a.to_c()),
            CExpr::Not(a) => format!("(~{})", a.to_c()),
            CExpr::Ternary(l, r, t, f) => {
                format!(
                    "(({} < {}) ? {} : {})",
                    l.to_c(),
                    r.to_c(),
                    t.to_c(),
                    f.to_c()
                )
            }
        }
    }

    fn eval(&self, x: i32) -> i32 {
        match self {
            CExpr::X => x,
            CExpr::Lit(v) => *v as i32,
            CExpr::Add(a, b) => a.eval(x).wrapping_add(b.eval(x)),
            CExpr::Sub(a, b) => a.eval(x).wrapping_sub(b.eval(x)),
            CExpr::Mul(a, b) => a.eval(x).wrapping_mul(b.eval(x)),
            CExpr::And(a, b) => a.eval(x) & b.eval(x),
            CExpr::Or(a, b) => a.eval(x) | b.eval(x),
            CExpr::Xor(a, b) => a.eval(x) ^ b.eval(x),
            // OpenCL shift semantics: amount modulo the type width
            CExpr::Shl(a, s) => a.eval(x).wrapping_shl((*s % 32) as u32),
            CExpr::Shr(a, s) => a.eval(x).wrapping_shr((*s % 32) as u32),
            CExpr::Neg(a) => a.eval(x).wrapping_neg(),
            CExpr::Not(a) => !a.eval(x),
            CExpr::Ternary(l, r, t, f) => {
                if l.eval(x) < r.eval(x) {
                    t.eval(x)
                } else {
                    f.eval(x)
                }
            }
        }
    }
}

fn c_expr() -> impl Strategy<Value = CExpr> {
    let leaf = prop_oneof![Just(CExpr::X), any::<i16>().prop_map(CExpr::Lit)];
    leaf.prop_recursive(5, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| CExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| CExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| CExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| CExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| CExpr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| CExpr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), 0u8..31).prop_map(|(a, s)| CExpr::Shl(Box::new(a), s)),
            (inner.clone(), 0u8..31).prop_map(|(a, s)| CExpr::Shr(Box::new(a), s)),
            inner.clone().prop_map(|a| CExpr::Neg(Box::new(a))),
            inner.clone().prop_map(|a| CExpr::Not(Box::new(a))),
            (inner.clone(), inner.clone(), inner.clone(), inner).prop_map(|(l, r, t, f)| {
                CExpr::Ternary(Box::new(l), Box::new(r), Box::new(t), Box::new(f))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Compile a random int expression and compare against host semantics
    /// over a batch of inputs.
    #[test]
    fn compiled_expressions_match_c_semantics(
        tree in c_expr(),
        inputs in proptest::collection::vec(any::<i32>(), 4..32),
    ) {
        for r in tesla_per_engine() {
            let src = format!(
                "__kernel void f(__global int* out, __global const int* in) {{\n\
                     int i = (int)get_global_id(0);\n\
                     int x = in[i];\n\
                     out[i] = {};\n\
                 }}",
                tree.to_c()
            );
            let program = Program::from_source(&r.ctx, &src);
            program.build("").unwrap_or_else(|e| panic!("build failed: {e}\n{src}"));
            let kernel = program.kernel("f").unwrap();

            let n = inputs.len();
            let in_buf = r.ctx.create_buffer_from(&inputs, MemAccess::ReadOnly).unwrap();
            let out_buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
            kernel.set_arg_buffer(0, &out_buf).unwrap();
            kernel.set_arg_buffer(1, &in_buf).unwrap();
            r.queue.enqueue_ndrange(&kernel, &[n], None).unwrap();

            let got = out_buf.read_vec::<i32>(0, n).unwrap();
            for (i, &x) in inputs.iter().enumerate() {
                prop_assert_eq!(got[i], tree.eval(x), "input {} expr {}", x, tree.to_c());
            }
        }
    }

    /// A generated value scattered through `(i * 7 + 3) % n`: the race
    /// check asks the dataflow facts whether every work-item stores the
    /// same value — yes when it depends only on the uniform `n`, no when it
    /// reads the item's input. The on-demand answer, directly and in `-O1`
    /// / `-O2` builds, must be the eager oracle's.
    #[test]
    fn on_demand_sanitizer_facts_match_the_eager_oracle(
        tree in c_expr(),
        per_item in any::<bool>(),
    ) {
        let x = if per_item { "in[i]" } else { "n" };
        let src = format!(
            "__kernel void f(__global int* out, __global const int* in, const int n) {{\n\
                 int i = (int)get_global_id(0);\n\
                 int x = {x};\n\
                 out[(i * 7 + 3) % n] = {};\n\
             }}",
            tree.to_c()
        );
        let tu = parser::parse(&src).unwrap();
        let module = sema::analyze(&tu).unwrap();
        let eager = analysis::analyze_tu_eager(&tu, &module);
        let lazy = analysis::analyze_tu_refined(&tu, &module);
        prop_assert_eq!(&lazy.diagnostics, &eager.diagnostics, "{}", src);
        prop_assert_eq!(
            format!("{:?}", lazy.kernels["f"].launch_accesses),
            format!("{:?}", eager.kernels["f"].launch_accesses)
        );
        let r = rig(DeviceProfile::tesla_c2050(), ExecConfig::from_env());
        for level in ["-O1", "-O2"] {
            let program = Program::from_source(&r.ctx, &src);
            program.build(level).unwrap();
            let lints: Vec<_> = program
                .diagnostics()
                .into_iter()
                .filter(|d| d.kind != DiagKind::BackendFallback)
                .collect();
            prop_assert_eq!(&lints, &eager.diagnostics, "{} {}", level, src);
        }
    }

    /// Unsigned arithmetic wraps modulo 2^32 exactly like Rust's u32.
    #[test]
    fn uint_arithmetic_wraps(a in any::<u32>(), b in any::<u32>()) {
        for r in tesla_per_engine() {
            let src = "__kernel void f(__global uint* out, uint a, uint b) {
                out[0] = a + b;
                out[1] = a - b;
                out[2] = a * b;
                out[3] = a ^ b;
            }";
            let program = Program::from_source(&r.ctx, src);
            program.build("").unwrap();
            let kernel = program.kernel("f").unwrap();
            let out = r.ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
            kernel.set_arg_buffer(0, &out).unwrap();
            kernel.set_arg_scalar(1, a).unwrap();
            kernel.set_arg_scalar(2, b).unwrap();
            r.queue.enqueue_ndrange(&kernel, &[1], None).unwrap();
            let got = out.read_vec::<u32>(0, 4).unwrap();
            prop_assert_eq!(got[0], a.wrapping_add(b));
            prop_assert_eq!(got[1], a.wrapping_sub(b));
            prop_assert_eq!(got[2], a.wrapping_mul(b));
            prop_assert_eq!(got[3], a ^ b);
        }
    }

    /// f32 arithmetic matches Rust's f32 bit-for-bit for + - * /.
    #[test]
    fn f32_arithmetic_is_ieee(a in any::<f32>(), b in any::<f32>()) {
        prop_assume!(a.is_finite() && b.is_finite());
        for r in tesla_per_engine() {
            let src = "__kernel void f(__global float* out, float a, float b) {
                out[0] = a + b;
                out[1] = a - b;
                out[2] = a * b;
                out[3] = a / b;
            }";
            let program = Program::from_source(&r.ctx, src);
            program.build("").unwrap();
            let kernel = program.kernel("f").unwrap();
            let out = r.ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
            kernel.set_arg_buffer(0, &out).unwrap();
            kernel.set_arg_scalar(1, a).unwrap();
            kernel.set_arg_scalar(2, b).unwrap();
            r.queue.enqueue_ndrange(&kernel, &[1], None).unwrap();
            let got = out.read_vec::<f32>(0, 4).unwrap();
            prop_assert_eq!(got[0].to_bits(), (a + b).to_bits());
            prop_assert_eq!(got[1].to_bits(), (a - b).to_bits());
            prop_assert_eq!(got[2].to_bits(), (a * b).to_bits());
            prop_assert_eq!(got[3].to_bits(), (a / b).to_bits());
        }
    }

    /// A buffer round-trip through device copy-in/copy-out kernels
    /// preserves arbitrary bytes (as i32 words).
    #[test]
    fn copy_kernel_preserves_all_bit_patterns(
        words in proptest::collection::vec(any::<i32>(), 1..128),
    ) {
        for r in tesla_per_engine() {
            let src = "__kernel void copy(__global int* dst, __global const int* src) {
                int i = (int)get_global_id(0);
                dst[i] = src[i];
            }";
            let program = Program::from_source(&r.ctx, src);
            program.build("").unwrap();
            let kernel = program.kernel("copy").unwrap();
            let n = words.len();
            let src_buf = r.ctx.create_buffer_from(&words, MemAccess::ReadOnly).unwrap();
            let dst_buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
            kernel.set_arg_buffer(0, &dst_buf).unwrap();
            kernel.set_arg_buffer(1, &src_buf).unwrap();
            r.queue.enqueue_ndrange(&kernel, &[n], None).unwrap();
            prop_assert_eq!(dst_buf.read_vec::<i32>(0, n).unwrap(), words);
        }
    }
}
