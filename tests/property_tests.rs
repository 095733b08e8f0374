//! Property-based tests across the whole stack: randomly generated
//! expressions recorded through HPL, compiled by oclsim, executed on the
//! simulated device, and compared against a host-side evaluation of the
//! same expression tree.

use hpl::prelude::*;
use hpl::Expr;
use proptest::prelude::*;

/// A little expression language we can both record as HPL IR and evaluate
/// directly on the host.
#[derive(Debug, Clone)]
enum TinyExpr {
    /// The element `input[idx]`.
    Input,
    /// An i32 literal (kept small to avoid overflow traps in products).
    Lit(i8),
    Add(Box<TinyExpr>, Box<TinyExpr>),
    Sub(Box<TinyExpr>, Box<TinyExpr>),
    Mul(Box<TinyExpr>, Box<TinyExpr>),
    /// `cond ? t : f` driven by a comparison of two sub-expressions.
    Select(Box<TinyExpr>, Box<TinyExpr>, Box<TinyExpr>, Box<TinyExpr>),
}

impl TinyExpr {
    fn eval_host(&self, x: i32) -> i32 {
        match self {
            TinyExpr::Input => x,
            TinyExpr::Lit(v) => *v as i32,
            TinyExpr::Add(a, b) => a.eval_host(x).wrapping_add(b.eval_host(x)),
            TinyExpr::Sub(a, b) => a.eval_host(x).wrapping_sub(b.eval_host(x)),
            TinyExpr::Mul(a, b) => a.eval_host(x).wrapping_mul(b.eval_host(x)),
            TinyExpr::Select(l, r, t, f) => {
                if l.eval_host(x) < r.eval_host(x) {
                    t.eval_host(x)
                } else {
                    f.eval_host(x)
                }
            }
        }
    }

    fn record(&self, x: &Expr<i32>) -> Expr<i32> {
        match self {
            TinyExpr::Input => x.clone(),
            TinyExpr::Lit(v) => (*v as i32).into_expr(),
            TinyExpr::Add(a, b) => a.record(x) + b.record(x),
            TinyExpr::Sub(a, b) => a.record(x) - b.record(x),
            TinyExpr::Mul(a, b) => a.record(x) * b.record(x),
            TinyExpr::Select(l, r, t, f) => {
                l.record(x).lt(r.record(x)).select(t.record(x), f.record(x))
            }
        }
    }
}

use hpl::IntoExpr;

fn tiny_expr() -> impl Strategy<Value = TinyExpr> {
    let leaf = prop_oneof![Just(TinyExpr::Input), any::<i8>().prop_map(TinyExpr::Lit),];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TinyExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TinyExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TinyExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone(), inner).prop_map(|(l, r, t, f)| {
                TinyExpr::Select(Box::new(l), Box::new(r), Box::new(t), Box::new(f))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Any expression of the tiny language computes the same value through
    /// capture -> OpenCL C -> compile -> SIMT execution as on the host.
    #[test]
    fn recorded_expressions_match_host_eval(
        tree in tiny_expr(),
        inputs in proptest::collection::vec(-100i32..100, 8..64),
    ) {
        let n = inputs.len();
        let input = Array::<i32, 1>::from_vec([n], inputs.clone());
        let out = Array::<i32, 1>::new([n]);

        // the closure must be Copy + 'static to serve as a kernel
        // function, so it captures a leaked shared reference to the tree;
        // every case shares the closure's TypeId, so each runs under a
        // fresh runtime, whose empty cache forces a capture of this case's
        // tree
        let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
        let tree_ref: &'static TinyExpr = Box::leak(Box::new(tree.clone()));
        let kernel = move |out: &Array<i32, 1>, input: &Array<i32, 1>| {
            let x = Int::new(0);
            x.assign(input.at(idx()));
            out.at(idx()).assign(tree_ref.record(&x.v()));
        };
        eval(kernel).run((&out, &input)).unwrap();

        let got = out.to_vec();
        for (i, &x) in inputs.iter().enumerate() {
            prop_assert_eq!(got[i], tree.eval_host(x), "input {}", x);
        }
    }

    /// patterns::reduce_sum equals the host sum for arbitrary exact inputs.
    #[test]
    fn reduce_sum_matches_host(
        values in proptest::collection::vec(-512i32..512, 1..700),
    ) {
        let data: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let arr = Array::<f64, 1>::from_vec([data.len()], data.clone());
        let device_sum = hpl::patterns::reduce_sum(&arr).unwrap();
        let host_sum: f64 = data.iter().sum();
        prop_assert_eq!(device_sum, host_sum);
    }

    /// Transposing twice on the device is the identity.
    #[test]
    fn transpose_involution(
        rows_t in 1usize..6,
        cols_t in 1usize..6,
        seed in any::<u32>(),
    ) {
        let (h, w) = (rows_t * 16, cols_t * 16);
        let data: Vec<f32> = (0..h * w).map(|i| ((i as u32).wrapping_mul(seed) % 1000) as f32).collect();

        fn tr(dst: &Array<f32, 2>, src: &Array<f32, 2>) {
            // global domain is (w, h): idx spans src columns = dst rows
            dst.at((idx(), idy())).assign(src.at((idy(), idx())));
        }

        let a = Array::<f32, 2>::from_vec([h, w], data.clone());
        let b = Array::<f32, 2>::new([w, h]);
        let c = Array::<f32, 2>::new([h, w]);
        eval(tr).global(&[w, h]).run((&b, &a)).unwrap();
        eval(tr).global(&[h, w]).run((&c, &b)).unwrap();
        prop_assert_eq!(c.to_vec(), data);
    }

    /// The device map pattern equals the host map for an affine function.
    #[test]
    fn map_matches_host(
        values in proptest::collection::vec(-1000i32..1000, 1..300),
        scale in -8i32..8,
    ) {
        let data: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let src = Array::<f64, 1>::from_vec([data.len()], data.clone());
        let dst = Array::<f64, 1>::new([data.len()]);
        let s = scale as f64;
        // closure captures `s` by value: same TypeId across cases, so the
        // cached kernel would keep the first `s` — bake it via a scalar arg
        fn affine(dst: &Array<f64, 1>, src: &Array<f64, 1>, s: &Double) {
            dst.at(idx()).assign(src.at(idx()) * s.v() + 1.0);
        }
        let sv = Double::new(s);
        eval(affine).run((&dst, &src, &sv)).unwrap();
        let got = dst.to_vec();
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(got[i], x * s + 1.0);
        }
    }
}
