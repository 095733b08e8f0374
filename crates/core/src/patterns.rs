//! Convenience functions for typical patterns of computation.
//!
//! The paper's §VII names this as the first planned extension: "we are
//! working to add new features to HPL in order to improve further the
//! programmability by providing functions for typical patterns of
//! computation". This module provides device-executed `fill`, `map`,
//! `zip_map` and a two-stage tree `reduce_sum` built entirely on the
//! public kernel DSL.
//!
//! Each call site gets its own cached kernel: the user's closure type keys
//! HPL's kernel cache, so a pattern used in a loop compiles exactly once.

use crate::array::Array;
use crate::error::Result;
use crate::eval::eval;
use crate::expr::{Expr, IntoExpr};
use crate::kernel::{barrier, if_, if_else, while_, LOCAL};
use crate::math::HplFloat;
use crate::predef::szx;
use crate::predef::{gidx, idx, lidx};
use crate::scalar::{HplScalar, Int, Scalar};

/// Set every element of `dst` to `value`, on the device.
pub fn fill<T: HplScalar>(dst: &Array<T, 1>, value: T) -> Result<()> {
    let v = Scalar::new(value);
    fn fill_kernel<T: HplScalar>(dst: &Array<T, 1>, v: &Scalar<T>) {
        dst.at(idx()).assign(v.v());
    }
    eval(fill_kernel::<T>).run((dst, &v))?;
    Ok(())
}

/// `dst[i] = g(src[i])` on the device. `g` builds the per-element
/// expression from the source element.
pub fn map<T, G>(dst: &Array<T, 1>, src: &Array<T, 1>, g: G) -> Result<()>
where
    T: HplScalar,
    G: Fn(Expr<T>) -> Expr<T> + Copy + 'static,
{
    assert_eq!(dst.len(), src.len(), "map requires equally-sized arrays");
    let kernel = move |dst: &Array<T, 1>, src: &Array<T, 1>| {
        dst.at(idx()).assign(g(src.at(idx())));
    };
    eval(kernel).run((dst, src))?;
    Ok(())
}

/// `dst[i] = g(a[i], b[i])` on the device.
pub fn zip_map<T, G>(dst: &Array<T, 1>, a: &Array<T, 1>, b: &Array<T, 1>, g: G) -> Result<()>
where
    T: HplScalar,
    G: Fn(Expr<T>, Expr<T>) -> Expr<T> + Copy + 'static,
{
    assert_eq!(dst.len(), a.len(), "zip_map requires equally-sized arrays");
    assert_eq!(a.len(), b.len(), "zip_map requires equally-sized arrays");
    let kernel = move |dst: &Array<T, 1>, a: &Array<T, 1>, b: &Array<T, 1>| {
        dst.at(idx()).assign(g(a.at(idx()), b.at(idx())));
    };
    eval(kernel).run((dst, a, b))?;
    Ok(())
}

/// Work-group size used by [`reduce_sum`]'s device stage.
const REDUCE_GROUP: usize = 64;

/// Sum all elements of `src` using a device-side tree reduction per
/// work-group (the efficient variant the paper's dot-product example
/// alludes to) followed by a host-side sum of the partials.
pub fn reduce_sum<T: HplFloat + std::ops::Add<Output = T>>(src: &Array<T, 1>) -> Result<T> {
    let n = src.len();
    let main = (n / REDUCE_GROUP) * REDUCE_GROUP;
    let mut total = T::default();

    if main > 0 {
        let groups = main / REDUCE_GROUP;
        let partials = Array::<T, 1>::new([groups]);

        fn reduce_kernel<T: HplFloat>(partials: &Array<T, 1>, src: &Array<T, 1>) {
            let shared = Array::<T, 1>::local([REDUCE_GROUP]);
            shared.at(lidx()).assign(src.at(idx()));
            barrier(LOCAL);
            let s = Int::new((REDUCE_GROUP / 2) as i32);
            while_(s.v().gt(0), || {
                if_(lidx().lt(s.v()), || {
                    shared
                        .at(lidx())
                        .assign(shared.at(lidx()) + shared.at(lidx() + s.v()));
                });
                barrier(LOCAL);
                s.assign(s.v() >> 1);
            });
            if_(lidx().eq_(0), || {
                partials.at(gidx()).assign(shared.at(0));
            });
        }

        eval(reduce_kernel::<T>)
            .global(&[main])
            .local(&[REDUCE_GROUP])
            .run((&partials, src))?;

        total = partials.with_data(|d| {
            let mut acc = T::default();
            for &x in d {
                acc = acc + x;
            }
            acc
        });
    }
    // tail that does not fill a whole group: summed on the host
    if main < n {
        total = src.with_data(|d| {
            let mut acc = total;
            for &x in &d[main..] {
                acc = acc + x;
            }
            acc
        });
    }
    Ok(total)
}

/// `dst[i] = g(src[i-1], src[i], src[i+1])` with clamped boundaries — the
/// 3-point stencil shape of explicit finite-difference schemes.
pub fn stencil3<T, G>(dst: &Array<T, 1>, src: &Array<T, 1>, g: G) -> Result<()>
where
    T: HplScalar,
    G: Fn(Expr<T>, Expr<T>, Expr<T>) -> Expr<T> + Copy + 'static,
{
    assert_eq!(
        dst.len(),
        src.len(),
        "stencil3 requires equally-sized arrays"
    );
    let kernel = move |dst: &Array<T, 1>, src: &Array<T, 1>| {
        let i = Int::new(0);
        i.assign(idx());
        let left = Int::new(0);
        let right = Int::new(0);
        left.assign(crate::math::max(i.v() - 1, 0));
        right.assign(crate::math::min(i.v() + 1, szx() - 1));
        dst.at(i.v())
            .assign(g(src.at(left.v()), src.at(i.v()), src.at(right.v())));
    };
    eval(kernel).run((dst, src))?;
    Ok(())
}

/// Work-group size used by [`exclusive_scan`]'s device stage.
const SCAN_GROUP: usize = 128;

/// Exclusive prefix sum of `src` into `dst` (`dst[0] = 0`,
/// `dst[i] = src[0] + ... + src[i-1]`): per-group Hillis–Steele scan in
/// local memory, then host-side carry propagation across groups — the
/// classic two-phase GPU scan.
pub fn exclusive_scan<T>(dst: &Array<T, 1>, src: &Array<T, 1>) -> Result<()>
where
    T: HplFloat + std::ops::Add<Output = T>,
{
    assert_eq!(
        dst.len(),
        src.len(),
        "exclusive_scan requires equally-sized arrays"
    );
    let n = src.len();
    let main = (n / SCAN_GROUP) * SCAN_GROUP;

    fn scan_kernel<T: HplFloat>(dst: &Array<T, 1>, sums: &Array<T, 1>, src: &Array<T, 1>) {
        let a = Array::<T, 1>::local([SCAN_GROUP]);
        let b = Array::<T, 1>::local([SCAN_GROUP]);
        let lid = Int::new(0);
        lid.assign(lidx());
        a.at(lid.v()).assign(src.at(idx()));
        barrier(LOCAL);
        // Hillis-Steele inclusive scan, ping-ponging between two tiles
        let stride = Int::new(1);
        let flip = Int::new(0);
        while_(stride.v().lt(SCAN_GROUP as i32), || {
            if_else(
                flip.v().eq_(0),
                || {
                    if_else(
                        lid.v().ge(stride.v()),
                        || {
                            b.at(lid.v())
                                .assign(a.at(lid.v()) + a.at(lid.v() - stride.v()))
                        },
                        || b.at(lid.v()).assign(a.at(lid.v())),
                    );
                },
                || {
                    if_else(
                        lid.v().ge(stride.v()),
                        || {
                            a.at(lid.v())
                                .assign(b.at(lid.v()) + b.at(lid.v() - stride.v()))
                        },
                        || a.at(lid.v()).assign(b.at(lid.v())),
                    );
                },
            );
            barrier(LOCAL);
            flip.assign(1 - flip.v());
            stride.assign(stride.v() * 2);
        });
        // `flip` tracks which tile the next round would read: after the
        // loop, flip == 1 means the last round wrote into `b`, flip == 0
        // means it wrote into `a`
        let last = Int::new(0);
        last.assign(flip.v());
        // exclusive output: shift right by one
        if_else(
            lid.v().eq_(0),
            || dst.at(idx()).assign(T::default().into_expr()),
            || {
                if_else(
                    last.v().eq_(1),
                    || dst.at(idx()).assign(b.at(lid.v() - 1)),
                    || dst.at(idx()).assign(a.at(lid.v() - 1)),
                );
            },
        );
        // group total for the carry pass
        if_(lid.v().eq_((SCAN_GROUP - 1) as i32), || {
            if_else(
                last.v().eq_(1),
                || sums.at(gidx()).assign(b.at(lid.v())),
                || sums.at(gidx()).assign(a.at(lid.v())),
            );
        });
    }

    let mut carry = T::default();
    if main > 0 {
        let groups = main / SCAN_GROUP;
        let sums = Array::<T, 1>::new([groups]);
        eval(scan_kernel::<T>)
            .global(&[main])
            .local(&[SCAN_GROUP])
            .run((dst, &sums, src))?;
        // carry propagation on the host
        let group_sums = sums.to_vec();
        let partial = dst.to_vec();
        let mut adjusted = partial;
        let mut offset = T::default();
        for (g, &sum) in group_sums.iter().enumerate().take(groups) {
            if g > 0 {
                for a in &mut adjusted[g * SCAN_GROUP..(g + 1) * SCAN_GROUP] {
                    *a = *a + offset;
                }
            }
            offset = offset + sum;
        }
        carry = offset;
        dst.write_from(&adjusted);
    }
    // tail on the host
    if main < n {
        let src_tail = src.with_data(|d| d[main..].to_vec());
        let mut acc = carry;
        let mut tail = Vec::with_capacity(n - main);
        for v in src_tail {
            tail.push(acc);
            acc = acc + v;
        }
        let mut full = dst.to_vec();
        full[main..].copy_from_slice(&tail);
        dst.write_from(&full);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_sets_every_element() {
        let a = Array::<f32, 1>::new([100]);
        fill(&a, 7.5).unwrap();
        assert!(a.to_vec().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn map_applies_expression() {
        let src = Array::<f64, 1>::from_vec([64], (0..64).map(|i| i as f64).collect());
        let dst = Array::<f64, 1>::new([64]);
        map(&dst, &src, |x| x * 2.0 + 1.0).unwrap();
        for i in 0..64 {
            assert_eq!(dst.get(i), 2.0 * i as f64 + 1.0);
        }
    }

    #[test]
    fn zip_map_combines_two_arrays() {
        let a = Array::<f32, 1>::from_vec([32], (0..32).map(|i| i as f32).collect());
        let b = Array::<f32, 1>::from_vec([32], vec![10.0; 32]);
        let dst = Array::<f32, 1>::new([32]);
        zip_map(&dst, &a, &b, |x, y| x * y).unwrap();
        assert_eq!(dst.get(3), 30.0);
        assert_eq!(dst.get(31), 310.0);
    }

    #[test]
    fn reduce_sum_exact_multiple() {
        let src = Array::<f64, 1>::from_vec([256], vec![0.5; 256]);
        assert_eq!(reduce_sum(&src).unwrap(), 128.0);
    }

    #[test]
    fn reduce_sum_with_tail() {
        let n = 200; // 3 groups of 64 + tail of 8
        let src = Array::<f64, 1>::from_vec([n], (1..=n).map(|i| i as f64).collect());
        let want = (n * (n + 1) / 2) as f64;
        assert_eq!(reduce_sum(&src).unwrap(), want);
    }

    #[test]
    fn reduce_sum_smaller_than_one_group() {
        let src = Array::<f64, 1>::from_vec([5], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(reduce_sum(&src).unwrap(), 15.0);
    }

    #[test]
    fn stencil3_averages_with_clamped_boundaries() {
        let src = Array::<f64, 1>::from_vec([8], vec![0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0]);
        let dst = Array::<f64, 1>::new([8]);
        stencil3(&dst, &src, |l, c, r| (l + c + r) / 3.0).unwrap();
        let host: Vec<f64> = (0..8)
            .map(|i: usize| {
                let l = src.get(i.saturating_sub(1));
                let c = src.get(i);
                let r = src.get((i + 1).min(7));
                (l + c + r) / 3.0
            })
            .collect();
        assert_eq!(dst.to_vec(), host);
    }

    #[test]
    fn exclusive_scan_matches_host_prefix_sum() {
        for n in [5usize, 128, 200, 384, 1000] {
            let data: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
            let src = Array::<f64, 1>::from_vec([n], data.clone());
            let dst = Array::<f64, 1>::new([n]);
            exclusive_scan(&dst, &src).unwrap();
            let mut acc = 0.0;
            let host: Vec<f64> = data
                .iter()
                .map(|&v| {
                    let out = acc;
                    acc += v;
                    out
                })
                .collect();
            assert_eq!(dst.to_vec(), host, "n = {n}");
        }
    }

    #[test]
    fn patterns_reuse_cached_kernels() {
        let _rt = crate::runtime::fresh_scope();
        let a = Array::<f32, 1>::new([64]);
        fill(&a, 1.0).unwrap();
        fill(&a, 2.0).unwrap();
        fill(&a, 3.0).unwrap();
        let cached = crate::runtime().kernel_cache_len();
        assert_eq!(cached, 1, "one kernel per pattern");
        assert_eq!(a.get(0), 3.0);
    }
}
