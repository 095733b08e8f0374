//! End-to-end coverage of the HPL kernel DSL: every control-flow
//! construct, predefined variable, math function, cast, and datatype is
//! exercised through the full capture → codegen → compile → execute path
//! and checked against host-computed expectations.

use hpl::prelude::*;

#[test]
fn while_loop_collatz_steps() {
    fn collatz(out: &Array<i32, 1>, input: &Array<i32, 1>) {
        let x = Int::new(0);
        let steps = Int::new(0);
        x.assign(input.at(idx()));
        while_(x.v().gt(1), || {
            if_else(
                (x.v() % 2).eq_(0),
                || x.assign(x.v() / 2),
                || x.assign(3 * x.v() + 1),
            );
            steps.assign(steps.v() + 1);
        });
        out.at(idx()).assign(steps.v());
    }

    let inputs: Vec<i32> = (1..=32).collect();
    let input = Array::<i32, 1>::from_vec([32], inputs.clone());
    let out = Array::<i32, 1>::new([32]);
    eval(collatz).run((&out, &input)).unwrap();

    for (i, &n) in inputs.iter().enumerate() {
        let mut x = n;
        let mut steps = 0;
        while x > 1 {
            x = if x % 2 == 0 { x / 2 } else { 3 * x + 1 };
            steps += 1;
        }
        assert_eq!(out.get(i), steps, "collatz({n})");
    }
}

#[test]
fn for_var_with_non_unit_bounds() {
    fn strided(out: &Array<i32, 1>, lo: &Int, hi: &Int) {
        let j = Int::var();
        let acc = Int::new(0);
        for_var(&j, lo.v(), hi.v(), 3, || {
            acc.assign_add(j.v());
        });
        out.at(idx()).assign(acc.v());
    }
    let out = Array::<i32, 1>::new([4]);
    let lo = Int::new(2);
    let hi = Int::new(20);
    eval(strided).run((&out, &lo, &hi)).unwrap();
    let expect: i32 = (2..20).step_by(3).sum();
    assert_eq!(out.get(0), expect);
}

#[test]
fn early_return_skips_rest_of_work_item() {
    fn guarded(out: &Array<i32, 1>, n: &Int) {
        if_(idx().ge(n.v()), || {
            return_();
        });
        out.at(idx()).assign(idx() + 100);
    }
    let out = Array::<i32, 1>::new([8]);
    let n = Int::new(3);
    eval(guarded).run((&out, &n)).unwrap();
    assert_eq!(out.to_vec(), vec![100, 101, 102, 0, 0, 0, 0, 0]);
}

#[test]
fn deeply_nested_control_flow() {
    fn nested(out: &Array<i32, 1>) {
        let acc = Int::new(0);
        for_(0, 4, |i| {
            let i2 = i.clone();
            if_((i.clone() % 2).eq_(0), || {
                for_(0, 3, |j| {
                    let c = Int::new(0);
                    c.assign(i2.clone() * 10 + j);
                    while_(c.v().gt(0), || {
                        acc.assign_add(1);
                        c.assign(c.v() - 7);
                    });
                });
            });
        });
        out.at(idx()).assign(acc.v());
    }
    let out = Array::<i32, 1>::new([2]);
    eval(nested).run((&out,)).unwrap();

    // host replication
    let mut acc = 0;
    for i in 0..4 {
        if i % 2 == 0 {
            for j in 0..3 {
                let mut c = i * 10 + j;
                while c > 0 {
                    acc += 1;
                    c -= 7;
                }
            }
        }
    }
    assert_eq!(out.get(0), acc);
}

#[test]
fn math_functions_match_rust_f64() {
    fn m(out: &Array<f64, 1>, x: &Array<f64, 1>) {
        out.at(0).assign(math::sqrt(x.at(0)));
        out.at(1).assign(math::exp(x.at(1)));
        out.at(2).assign(math::log(x.at(2)));
        out.at(3).assign(math::sin(x.at(3)));
        out.at(4).assign(math::cos(x.at(4)));
        out.at(5).assign(math::fabs(-x.at(5)));
        out.at(6).assign(math::pow(x.at(6), 3.0f64));
        out.at(7).assign(math::fmax(x.at(7), 2.5f64));
        out.at(8).assign(math::fmin(x.at(8), 2.5f64));
        out.at(9).assign(math::floor(x.at(9)));
        out.at(10).assign(math::ceil(x.at(10)));
        out.at(11).assign(math::rsqrt(x.at(11)));
    }
    // `.into()` on literals needs the trait in scope; give the values
    let vals: Vec<f64> = vec![2.0, 0.5, 3.0, 1.2, 0.7, 4.5, 2.0, 1.0, 9.0, 2.7, 2.2, 4.0];
    let x = Array::<f64, 1>::from_vec([12], vals.clone());
    let out = Array::<f64, 1>::new([12]);
    eval(m).global(&[1]).run((&out, &x)).unwrap();

    let expect = [
        2.0f64.sqrt(),
        0.5f64.exp(),
        3.0f64.ln(),
        1.2f64.sin(),
        0.7f64.cos(),
        4.5f64,
        8.0,
        2.5,
        2.5,
        2.0,
        3.0,
        1.0 / 4.0f64.sqrt(),
    ];
    for (i, &e) in expect.iter().enumerate() {
        assert!(
            (out.get(i) - e).abs() < 1e-12,
            "slot {i}: {} vs {e}",
            out.get(i)
        );
    }
}

use hpl::IntoExpr;

#[test]
fn casts_between_every_scalar_pair_used_in_kernels() {
    fn casts(out_i: &Array<i32, 1>, out_f: &Array<f32, 1>, out_u: &Array<u64, 1>) {
        let d = Double::new(3.9);
        out_i.at(0).assign(d.v().cast::<i32>());
        let f = Float::new(-2.7);
        out_i.at(1).assign(f.v().cast::<i32>());
        let i = Int::new(-1);
        out_u.at(0).assign(i.v().cast::<u64>());
        let u = Ulong::new(1u64 << 40);
        out_f.at(0).assign(u.v().cast::<f32>());
        out_f.at(1).assign(7i32.into_expr().cast::<f32>() / 2.0f32);
    }
    let out_i = Array::<i32, 1>::new([2]);
    let out_f = Array::<f32, 1>::new([2]);
    let out_u = Array::<u64, 1>::new([1]);
    eval(casts)
        .global(&[1])
        .run((&out_i, &out_f, &out_u))
        .unwrap();
    assert_eq!(out_i.get(0), 3, "trunc toward zero");
    assert_eq!(out_i.get(1), -2);
    assert_eq!(out_u.get(0), u64::MAX, "-1 as u64");
    assert_eq!(out_f.get(0), (1u64 << 40) as f32);
    assert_eq!(out_f.get(1), 3.5);
}

#[test]
fn three_dimensional_arrays_and_domains() {
    fn vol(out: &Array<i32, 3>) {
        out.at((idz(), idy(), idx()))
            .assign(idz() * 100 + idy() * 10 + idx());
    }
    let out = Array::<i32, 3>::new([2, 3, 4]);
    // global (x=4, y=3, z=2): idx over dim0 of the launch
    eval(vol).global(&[4, 3, 2]).run((&out,)).unwrap();
    for z in 0..2 {
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(
                    out.get((z, y, x)),
                    (z * 100 + y * 10 + x) as i32,
                    "element ({z},{y},{x})"
                );
            }
        }
    }
}

#[test]
fn unsigned_64bit_arithmetic() {
    fn u64ops(out: &Array<u64, 1>, a: &Ulong, b: &Ulong) {
        out.at(0).assign(a.v() + b.v());
        out.at(1).assign(a.v() * b.v());
        out.at(2).assign(a.v() >> 3u64);
        out.at(3).assign((a.v() & b.v()) | 1u64);
        out.at(4).assign(a.v() % b.v());
    }
    let a = Ulong::new(0xDEAD_BEEF_CAFE_1234);
    let b = Ulong::new(0x1234_5678);
    let out = Array::<u64, 1>::new([5]);
    eval(u64ops).global(&[1]).run((&out, &a, &b)).unwrap();
    let (av, bv) = (0xDEAD_BEEF_CAFE_1234u64, 0x1234_5678u64);
    assert_eq!(out.get(0), av.wrapping_add(bv));
    assert_eq!(out.get(1), av.wrapping_mul(bv));
    assert_eq!(out.get(2), av >> 3);
    assert_eq!(out.get(3), (av & bv) | 1);
    assert_eq!(out.get(4), av % bv);
}

#[test]
fn select_and_logical_operators() {
    fn classify(out: &Array<i32, 1>, x: &Array<i32, 1>) {
        let v = Int::new(0);
        v.assign(x.at(idx()));
        let in_range = v.v().ge(10).and(v.v().le(20));
        let special = v.v().eq_(0).or(v.v().eq_(99));
        out.at(idx())
            .assign(in_range.select(1, special.select(2, 0)));
    }
    let data = vec![5, 10, 15, 20, 25, 0, 99, -3];
    let x = Array::<i32, 1>::from_vec([8], data.clone());
    let out = Array::<i32, 1>::new([8]);
    eval(classify).run((&out, &x)).unwrap();
    let expect: Vec<i32> = data
        .iter()
        .map(|&v| {
            if (10..=20).contains(&v) {
                1
            } else if v == 0 || v == 99 {
                2
            } else {
                0
            }
        })
        .collect();
    assert_eq!(out.to_vec(), expect);
}

#[test]
fn eight_argument_kernel() {
    #[allow(clippy::too_many_arguments)] // eight arguments is the point of the test
    fn k8(
        out: &Array<f64, 1>,
        a: &Array<f64, 1>,
        b: &Array<f64, 1>,
        c: &Array<f64, 1>,
        s1: &Double,
        s2: &Double,
        s3: &Int,
        s4: &Int,
    ) {
        out.at(idx()).assign(
            a.at(idx()) * s1.v()
                + b.at(idx()) * s2.v()
                + c.at(idx()) * (s3.v() + s4.v()).cast::<f64>(),
        );
    }
    let n = 16;
    let mk = |v: f64| Array::<f64, 1>::from_vec([n], vec![v; n]);
    let (out, a, b, c) = (Array::<f64, 1>::new([n]), mk(1.0), mk(2.0), mk(3.0));
    let s1 = Double::new(10.0);
    let s2 = Double::new(100.0);
    let s3 = Int::new(4);
    let s4 = Int::new(6);
    eval(k8)
        .run((&out, &a, &b, &c, &s1, &s2, &s3, &s4))
        .unwrap();
    assert_eq!(out.get(0), 10.0 + 200.0 + 30.0);
}

#[test]
fn private_array_histogram_per_work_item() {
    fn hist(out: &Array<i32, 1>, data: &Array<i32, 1>, chunk: &Int) {
        let counts = Array::<i32, 1>::new([4]); // private
        for_(0, 4, |b| counts.at(b).assign(0));
        for_(0, chunk.v(), |j| {
            let v = Int::new(0);
            v.assign(data.at(idx() * chunk.v() + j) & 3);
            counts.at(v.v()).assign_add(1);
        });
        for_(0, 4, |b| {
            out.at(idx() * 4 + b.clone()).assign(counts.at(b));
        });
    }
    let threads = 8;
    let chunk = 16;
    let data: Vec<i32> = (0..threads * chunk).map(|i| (i * 7 + 3) as i32).collect();
    let d = Array::<i32, 1>::from_vec([threads * chunk], data.clone());
    let out = Array::<i32, 1>::new([threads * 4]);
    let c = Int::new(chunk as i32);
    eval(hist).global(&[threads]).run((&out, &d, &c)).unwrap();

    for t in 0..threads {
        let mut expect = [0i32; 4];
        for j in 0..chunk {
            expect[(data[t * chunk + j] & 3) as usize] += 1;
        }
        for (b, &want) in expect.iter().enumerate() {
            assert_eq!(out.get(t * 4 + b), want, "thread {t} bin {b}");
        }
    }
}

#[test]
fn generated_source_is_stable_across_captures() {
    fn stable(out: &Array<f32, 1>) {
        out.at(idx()).assign(math::sqrt(2.0f32.into_expr()) + 1.0);
    }
    let out = Array::<f32, 1>::new([4]);
    // a fresh runtime captures from scratch and counts kernel names from 0,
    // so even the kernel-name line repeats
    let capture = || {
        let _rt = hpl::Runtime::new(hpl::Config::from_env()).enter();
        eval(stable).run((&out,)).unwrap().source
    };
    assert_eq!(capture(), capture(), "codegen must be deterministic");
}

#[test]
fn local_and_global_barrier_flags_generate() {
    fn sync_both(out: &Array<f32, 1>) {
        let tile = Array::<f32, 1>::local([16]);
        tile.at(lidx()).assign(out.at(idx()));
        barrier(LOCAL | GLOBAL);
        out.at(idx()).assign(tile.at(lidx()) + 1.0f32);
    }
    let out = Array::<f32, 1>::from_vec([32], vec![5.0; 32]);
    let p = eval(sync_both)
        .global(&[32])
        .local(&[16])
        .run((&out,))
        .unwrap();
    assert!(
        p.source
            .contains("CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE"),
        "{}",
        p.source
    );
    assert_eq!(out.get(0), 6.0);
}

#[test]
fn kernels_compose_through_rust_helper_functions() {
    // HPL kernels build abstractions with plain Rust functions over Expr —
    // inlined at capture (paper: kernels "use only standard C++ features")
    fn horner(x: hpl::Expr<f64>, coeffs: &[f64]) -> hpl::Expr<f64> {
        let mut acc: hpl::Expr<f64> = coeffs[0].into_expr();
        for &c in &coeffs[1..] {
            acc = acc * x.clone() + c;
        }
        acc
    }
    fn poly(out: &Array<f64, 1>, input: &Array<f64, 1>) {
        let x = Double::new(0.0);
        x.assign(input.at(idx()));
        out.at(idx()).assign(horner(x.v(), &[2.0, -3.0, 1.0, 5.0]));
    }
    let xs: Vec<f64> = (0..8).map(|i| i as f64 / 2.0).collect();
    let input = Array::<f64, 1>::from_vec([8], xs.clone());
    let out = Array::<f64, 1>::new([8]);
    eval(poly).run((&out, &input)).unwrap();
    for (i, &x) in xs.iter().enumerate() {
        let expect = ((2.0 * x - 3.0) * x + 1.0) * x + 5.0;
        assert_eq!(out.get(i), expect);
    }
}
