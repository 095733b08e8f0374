//! End-to-end tests of OpenCL C compilation + SIMT execution: control
//! flow, divergence, barriers, local/private/constant memory, helper
//! functions, atomics, and multi-dimensional launches. Every test runs on
//! the `wg` VM and on the `ref` oracle.

mod common;

use common::tesla_per_engine;
use oclsim::{Error, MemAccess, Program, Value};

#[test]
fn saxpy_f32() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void saxpy(__global float* y, __global const float* x, float a) {
             int i = get_global_id(0);
             y[i] = a * x[i] + y[i];
         }",
        );
        let k = p.kernel("saxpy").unwrap();
        let n = 1000;
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        let x = r.ctx.create_buffer_from(&xs, MemAccess::ReadOnly).unwrap();
        let y = r.ctx.create_buffer_from(&ys, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &y).unwrap();
        k.set_arg_buffer(1, &x).unwrap();
        k.set_arg_scalar(2, 3.0f32).unwrap();
        r.queue.enqueue_ndrange(&k, &[n], None).unwrap();
        let out = y.read_vec::<f32>(0, n).unwrap();
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, 3.0 * i as f32 + 2.0 * i as f32);
        }
    }
}

#[test]
fn divergent_if_else() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out) {
             int i = get_global_id(0);
             if (i % 3 == 0) { out[i] = 100 + i; }
             else if (i % 3 == 1) { out[i] = 200 + i; }
             else { out[i] = 300 + i; }
         }",
        );
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4 * 64, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[64], Some(&[64])).unwrap();
        let out = buf.read_vec::<i32>(0, 64).unwrap();
        for (i, v) in out.iter().enumerate() {
            let want = match i % 3 {
                0 => 100 + i as i32,
                1 => 200 + i as i32,
                _ => 300 + i as i32,
            };
            assert_eq!(*v, want, "lane {i}");
        }
    }
}

#[test]
fn per_lane_loop_trip_counts() {
    // each lane loops a different number of times (classic divergence)
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out) {
             int i = get_global_id(0);
             int acc = 0;
             for (int j = 0; j < i; j++) { acc += j; }
             out[i] = acc;
         }",
        );
        let k = p.kernel("f").unwrap();
        let n = 37;
        let buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[n], Some(&[n])).unwrap();
        let out = buf.read_vec::<i32>(0, n).unwrap();
        for (i, &o) in out.iter().enumerate() {
            let want: i32 = (0..i as i32).sum();
            assert_eq!(o, want, "lane {i}");
        }
    }
}

#[test]
fn break_and_continue() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out) {
             int i = get_global_id(0);
             int acc = 0;
             for (int j = 0; j < 100; j++) {
                 if (j == i) { continue; }
                 if (j > 10 + i) { break; }
                 acc += 1;
             }
             out[i] = acc;
         }",
        );
        let k = p.kernel("f").unwrap();
        let n = 16;
        let buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[n], Some(&[n])).unwrap();
        let out = buf.read_vec::<i32>(0, n).unwrap();
        for (i, &o) in out.iter().enumerate() {
            // j runs 0..=10+i, skipping j==i: (10+i+1) - 1 iterations counted
            assert_eq!(o, 10 + i as i32, "lane {i}");
        }
    }
}

#[test]
fn while_and_do_while() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out, __global int* out2) {
             int i = get_global_id(0);
             int x = i;
             while (x > 0) { x = x / 2; out[i] = out[i] + 1; }
             int y = 0;
             do { y += 1; } while (y < i);
             out2[i] = y;
         }",
        );
        let k = p.kernel("f").unwrap();
        let n = 10;
        let a = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
        let b = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &a).unwrap();
        k.set_arg_buffer(1, &b).unwrap();
        r.queue.enqueue_ndrange(&k, &[n], Some(&[n])).unwrap();
        let ha = a.read_vec::<i32>(0, n).unwrap();
        let hb = b.read_vec::<i32>(0, n).unwrap();
        for i in 0..n {
            let mut steps = 0;
            let mut x = i;
            while x > 0 {
                x /= 2;
                steps += 1;
            }
            assert_eq!(ha[i], steps, "while lane {i}");
            assert_eq!(
                hb[i],
                (i as i32).max(1),
                "do-while runs at least once, lane {i}"
            );
        }
    }
}

#[test]
fn local_memory_reduction_with_barrier() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void reduce(__global const float* in, __global float* out) {
             __local float sdata[64];
             int lid = get_local_id(0);
             int gid = get_global_id(0);
             sdata[lid] = in[gid];
             barrier(CLK_LOCAL_MEM_FENCE);
             for (int s = 32; s > 0; s = s >> 1) {
                 if (lid < s) { sdata[lid] += sdata[lid + s]; }
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             if (lid == 0) { out[get_group_id(0)] = sdata[0]; }
         }",
        );
        let k = p.kernel("reduce").unwrap();
        let n = 256;
        let data: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let input = r
            .ctx
            .create_buffer_from(&data, MemAccess::ReadOnly)
            .unwrap();
        let out = r
            .ctx
            .create_buffer(4 * (n / 64), MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &input).unwrap();
        k.set_arg_buffer(1, &out).unwrap();
        r.queue.enqueue_ndrange(&k, &[n], Some(&[64])).unwrap();
        let partials = out.read_vec::<f32>(0, n / 64).unwrap();
        for (g, p) in partials.iter().enumerate() {
            let want: f32 = data[g * 64..(g + 1) * 64].iter().sum();
            assert_eq!(*p, want, "group {g}");
        }
    }
}

#[test]
fn divergent_barrier_is_trapped() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void bad(__global int* out) {
             if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
             out[get_global_id(0)] = 1;
         }",
        );
        let k = p.kernel("bad").unwrap();
        let buf = r.ctx.create_buffer(4 * 8, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = r.queue.enqueue_ndrange(&k, &[8], Some(&[8])).unwrap_err();
        assert!(matches!(err, Error::BarrierDivergence(_)), "{err}");
    }
}

#[test]
fn barrier_in_uniform_group_of_one_is_fine() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void ok(__global int* out) {
             barrier(CLK_LOCAL_MEM_FENCE);
             out[get_global_id(0)] = 7;
         }",
        );
        let k = p.kernel("ok").unwrap();
        let buf = r.ctx.create_buffer(4 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], Some(&[1])).unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 4).unwrap(), vec![7; 4]);
    }
}

#[test]
fn private_arrays_are_per_lane() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out) {
             int scratch[8];
             int i = get_global_id(0);
             for (int j = 0; j < 8; j++) { scratch[j] = i * 10 + j; }
             int acc = 0;
             for (int j = 0; j < 8; j++) { acc += scratch[j]; }
             out[i] = acc;
         }",
        );
        let k = p.kernel("f").unwrap();
        let n = 32;
        let buf = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[n], Some(&[n])).unwrap();
        let out = buf.read_vec::<i32>(0, n).unwrap();
        for (i, &o) in out.iter().enumerate() {
            let want: i32 = (0..8).map(|j| i as i32 * 10 + j).sum();
            assert_eq!(o, want, "lane {i} private data must not leak across lanes");
        }
    }
}

#[test]
fn helper_functions_and_recursion_guard() {
    for r in tesla_per_engine() {
        let p = r.build(
            "float square(float x) { return x * x; }
         float hypot2(float a, float b) { return square(a) + square(b); }
         __kernel void f(__global float* out) {
             int i = get_global_id(0);
             out[i] = hypot2((float)i, 2.0f);
         }",
        );
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4 * 8, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[8], None).unwrap();
        let out = buf.read_vec::<f32>(0, 8).unwrap();
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, (i * i) as f32 + 4.0);
        }

        // direct recursion must be trapped, not overflow the host stack
        let p = Program::from_source(
            &r.ctx,
            "int down(int x) { if (x > 0) { return down(x - 1); } return 0; }
         __kernel void f(__global int* out) { out[0] = down(1000); }",
        );
        p.build("").unwrap();
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = r.queue.enqueue_ndrange(&k, &[1], None).unwrap_err();
        assert!(err.to_string().contains("recursion"), "{err}");
    }
}

#[test]
fn early_return_disables_lanes() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out, int n) {
             int i = get_global_id(0);
             if (i >= n) { return; }
             out[i] = i + 1;
         }",
        );
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4 * 8, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_scalar(1, 5i32).unwrap();
        r.queue.enqueue_ndrange(&k, &[8], Some(&[8])).unwrap();
        let out = buf.read_vec::<i32>(0, 8).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 0, 0, 0]);
    }
}

#[test]
fn two_dimensional_launch_transpose() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void transpose(__global float* dst, __global const float* src,
                                  int h, int w) {
             int x = get_global_id(0);
             int y = get_global_id(1);
             dst[x * h + y] = src[y * w + x];
         }",
        );
        let k = p.kernel("transpose").unwrap();
        let (h, w) = (8, 16);
        let src_data: Vec<f32> = (0..h * w).map(|i| i as f32).collect();
        let src = r
            .ctx
            .create_buffer_from(&src_data, MemAccess::ReadOnly)
            .unwrap();
        let dst = r
            .ctx
            .create_buffer(4 * h * w, MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &dst).unwrap();
        k.set_arg_buffer(1, &src).unwrap();
        k.set_arg_scalar(2, h as i32).unwrap();
        k.set_arg_scalar(3, w as i32).unwrap();
        r.queue.enqueue_ndrange(&k, &[w, h], Some(&[4, 4])).unwrap();
        let out = dst.read_vec::<f32>(0, h * w).unwrap();
        for y in 0..h {
            for x in 0..w {
                assert_eq!(out[x * h + y], src_data[y * w + x]);
            }
        }
    }
}

#[test]
fn geometry_builtins_report_launch_shape() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void probe(__global int* out) {
             if (get_global_id(0) == 0 && get_global_id(1) == 0) {
                 out[0] = (int)get_global_size(0);
                 out[1] = (int)get_global_size(1);
                 out[2] = (int)get_local_size(0);
                 out[3] = (int)get_local_size(1);
                 out[4] = (int)get_num_groups(0);
                 out[5] = (int)get_num_groups(1);
                 out[6] = (int)get_work_dim();
             }
         }",
        );
        let k = p.kernel("probe").unwrap();
        let buf = r.ctx.create_buffer(4 * 7, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[8, 6], Some(&[2, 3])).unwrap();
        assert_eq!(
            buf.read_vec::<i32>(0, 7).unwrap(),
            vec![8, 6, 2, 3, 4, 2, 2]
        );
    }
}

#[test]
fn atomic_global_counter() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void count(__global int* c, __global const int* data) {
             int i = get_global_id(0);
             if (data[i] > 5) { atomic_add(c, 1); }
         }",
        );
        let k = p.kernel("count").unwrap();
        let data: Vec<i32> = (0..100).map(|i| i % 10).collect();
        let dbuf = r
            .ctx
            .create_buffer_from(&data, MemAccess::ReadOnly)
            .unwrap();
        let cbuf = r
            .ctx
            .create_buffer_from(&[0i32], MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &cbuf).unwrap();
        k.set_arg_buffer(1, &dbuf).unwrap();
        r.queue.enqueue_ndrange(&k, &[100], None).unwrap();
        let want = data.iter().filter(|&&x| x > 5).count() as i32;
        assert_eq!(cbuf.read_vec::<i32>(0, 1).unwrap()[0], want);
    }
}

#[test]
fn constant_memory_read() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void scale(__global float* out, __constant float* coeff) {
             int i = get_global_id(0);
             out[i] = coeff[i % 4] * 2.0f;
         }",
        );
        let k = p.kernel("scale").unwrap();
        let coeff = r
            .ctx
            .create_buffer_from(&[1.0f32, 2.0, 3.0, 4.0], MemAccess::ReadOnly)
            .unwrap();
        let out = r.ctx.create_buffer(4 * 8, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &out).unwrap();
        k.set_arg_buffer(1, &coeff).unwrap();
        r.queue.enqueue_ndrange(&k, &[8], None).unwrap();
        assert_eq!(
            out.read_vec::<f32>(0, 8).unwrap(),
            vec![2.0, 4.0, 6.0, 8.0, 2.0, 4.0, 6.0, 8.0]
        );
    }
}

#[test]
fn math_builtins_f64() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global double* out, __global const double* in) {
             int i = get_global_id(0);
             out[i] = sqrt(in[i]) + log(in[i]) + pow(in[i], 2.0);
         }",
        );
        let k = p.kernel("f").unwrap();
        let data = [1.0f64, 2.0, 4.0, 9.0];
        let input = r
            .ctx
            .create_buffer_from(&data, MemAccess::ReadOnly)
            .unwrap();
        let out = r.ctx.create_buffer(8 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &out).unwrap();
        k.set_arg_buffer(1, &input).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], None).unwrap();
        let got = out.read_vec::<f64>(0, 4).unwrap();
        for (i, &x) in data.iter().enumerate() {
            let want = x.sqrt() + x.ln() + x.powf(2.0);
            assert!((got[i] - want).abs() < 1e-12, "{} vs {want}", got[i]);
        }
    }
}

#[test]
fn integer_division_by_zero_trapped() {
    for r in tesla_per_engine() {
        let p = r
            .build("__kernel void f(__global int* out, int d) { out[get_global_id(0)] = 10 / d; }");
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_scalar(1, 0i32).unwrap();
        let err = r.queue.enqueue_ndrange(&k, &[4], None).unwrap_err();
        assert!(matches!(err, Error::ArithmeticFault(_)));
        k.set_arg_scalar(1, Value::I32(5)).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], None).unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 4).unwrap(), vec![2; 4]);
    }
}

#[test]
fn pointer_arithmetic_and_deref() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global float* data, int n) {
             int i = get_global_id(0);
             __global float* p = data + i;
             *(p + n) = *p * 2.0f;
         }",
        );
        let k = p.kernel("f").unwrap();
        let init: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        let buf = r
            .ctx
            .create_buffer_from(&init, MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_scalar(1, 4i32).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], None).unwrap();
        assert_eq!(
            buf.read_vec::<f32>(0, 8).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]
        );
    }
}

#[test]
fn short_circuit_guards_out_of_bounds() {
    // the && guard must prevent the out-of-bounds load on the last lane
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out, __global const int* in, int n) {
             int i = get_global_id(0);
             if (i + 1 < n && in[i + 1] > 0) { out[i] = in[i + 1]; }
             else { out[i] = -1; }
         }",
        );
        let k = p.kernel("f").unwrap();
        let input = r
            .ctx
            .create_buffer_from(&[5i32, 6, 7, 8], MemAccess::ReadOnly)
            .unwrap();
        let out = r.ctx.create_buffer(4 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &out).unwrap();
        k.set_arg_buffer(1, &input).unwrap();
        k.set_arg_scalar(2, 4i32).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], None).unwrap();
        assert_eq!(out.read_vec::<i32>(0, 4).unwrap(), vec![6, 7, 8, -1]);
    }
}

#[test]
fn timing_larger_launch_costs_more() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void work(__global float* out) {
             int i = get_global_id(0);
             float acc = 0.0f;
             for (int j = 0; j < 64; j++) { acc += (float)j * 0.5f; }
             out[i] = acc;
         }",
        );
        let k = p.kernel("work").unwrap();
        let big = r
            .ctx
            .create_buffer(4 * 65536, MemAccess::ReadWrite)
            .unwrap();
        k.set_arg_buffer(0, &big).unwrap();
        let small_ev = r.queue.enqueue_ndrange(&k, &[1024], Some(&[64])).unwrap();
        let big_ev = r.queue.enqueue_ndrange(&k, &[65536], Some(&[64])).unwrap();
        // 64x the work, minus the fixed launch-overhead floor on the small run
        assert!(
            big_ev.modeled_seconds() > small_ev.modeled_seconds() * 8.0,
            "64x the work must model much slower: {} vs {}",
            big_ev.modeled_seconds(),
            small_ev.modeled_seconds()
        );
    }
}

#[test]
fn coalesced_access_cheaper_than_strided() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void copy_coalesced(__global float* dst, __global const float* src) {
             int i = get_global_id(0);
             dst[i] = src[i];
         }
         __kernel void copy_strided(__global float* dst, __global const float* src, int stride) {
             int i = get_global_id(0);
             dst[i] = src[(i * stride) % (int)get_global_size(0)];
         }",
        );
        let n = 16384usize;
        let src_data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let src = r
            .ctx
            .create_buffer_from(&src_data, MemAccess::ReadOnly)
            .unwrap();
        let dst = r.ctx.create_buffer(4 * n, MemAccess::ReadWrite).unwrap();

        let k1 = p.kernel("copy_coalesced").unwrap();
        k1.set_arg_buffer(0, &dst).unwrap();
        k1.set_arg_buffer(1, &src).unwrap();
        let e1 = r.queue.enqueue_ndrange(&k1, &[n], Some(&[128])).unwrap();

        let k2 = p.kernel("copy_strided").unwrap();
        k2.set_arg_buffer(0, &dst).unwrap();
        k2.set_arg_buffer(1, &src).unwrap();
        k2.set_arg_scalar(2, 97i32).unwrap();
        let e2 = r.queue.enqueue_ndrange(&k2, &[n], Some(&[128])).unwrap();

        let t1 = e1.kernel_timing().unwrap().totals.mem_transactions;
        let t2 = e2.kernel_timing().unwrap().totals.mem_transactions;
        assert!(
            t2 > t1 * 4,
            "strided gather must generate far more transactions ({t2} vs {t1})"
        );
    }
}

#[test]
fn uchar_and_short_memory_layout() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void widen(__global int* out, __global const uchar* bytes,
                             __global const short* shorts) {
             int i = get_global_id(0);
             out[i] = (int)bytes[i] + (int)shorts[i];
         }",
        );
        let k = p.kernel("widen").unwrap();
        let bytes = r
            .ctx
            .create_buffer_from(&[10u8, 20, 255, 7], MemAccess::ReadOnly)
            .unwrap();
        let shorts = r
            .ctx
            .create_buffer_from(&[-5i16, 100, -300, 40], MemAccess::ReadOnly)
            .unwrap();
        let out = r.ctx.create_buffer(4 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &out).unwrap();
        k.set_arg_buffer(1, &bytes).unwrap();
        k.set_arg_buffer(2, &shorts).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], None).unwrap();
        assert_eq!(out.read_vec::<i32>(0, 4).unwrap(), vec![5, 120, -45, 47]);
    }
}

#[test]
fn ternary_select() {
    for r in tesla_per_engine() {
        let p = r.build(
            "__kernel void f(__global int* out) {
             int i = get_global_id(0);
             out[i] = i % 2 == 0 ? i * 10 : -i;
         }",
        );
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4 * 6, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[6], None).unwrap();
        assert_eq!(
            buf.read_vec::<i32>(0, 6).unwrap(),
            vec![0, -1, 20, -3, 40, -5]
        );
    }
}

#[test]
fn read_only_buffer_write_rejected_at_launch() {
    for r in tesla_per_engine() {
        let p = r.build("__kernel void f(__global float* out) { out[get_global_id(0)] = 1.0f; }");
        let k = p.kernel("f").unwrap();
        let ro = r.ctx.create_buffer(64, MemAccess::ReadOnly).unwrap();
        k.set_arg_buffer(0, &ro).unwrap();
        let err = r.queue.enqueue_ndrange(&k, &[4], None).unwrap_err();
        assert!(matches!(err, Error::InvalidArg { .. }), "{err}");
    }
}

#[test]
fn preprocessor_driven_kernel() {
    for r in tesla_per_engine() {
        let p = Program::from_source(
            &r.ctx,
            "#define SCALE 3
         #ifdef USE_OFFSET
         #define OFFSET 100
         #else
         #define OFFSET 0
         #endif
         __kernel void f(__global int* out) {
             int i = get_global_id(0);
             out[i] = i * SCALE + OFFSET;
         }",
        );
        p.build("-D USE_OFFSET").unwrap();
        let k = p.kernel("f").unwrap();
        let buf = r.ctx.create_buffer(4 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        r.queue.enqueue_ndrange(&k, &[4], None).unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 4).unwrap(), vec![100, 103, 106, 109]);
    }
}
