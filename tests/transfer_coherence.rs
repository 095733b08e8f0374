//! Cross-crate tests of HPL's automatic buffer/transfer management — the
//! machinery the paper's §VI highlights against EPGPU ("the aim of that
//! analysis currently being the minimization of the data transfers").

use hpl::prelude::*;
use proptest::prelude::*;

fn scale(y: &Array<f64, 1>, a: &Double) {
    y.at(idx()).assign(y.at(idx()) * a.v());
}

fn fill_from(dst: &Array<f64, 1>, src: &Array<f64, 1>) {
    dst.at(idx()).assign(src.at(idx()));
}

#[test]
fn repeated_evals_do_not_retransfer() {
    let y = Array::<f64, 1>::from_vec([512], vec![1.0; 512]);
    let a = Double::new(2.0);
    let device = hpl::runtime().default_device();

    let p1 = eval(scale).device(&device).run((&y, &a)).unwrap();
    assert!(p1.transfer_modeled_seconds > 0.0, "first eval uploads");
    for _ in 0..5 {
        let p = eval(scale).device(&device).run((&y, &a)).unwrap();
        assert_eq!(
            p.transfer_modeled_seconds, 0.0,
            "resident data must not re-upload"
        );
    }
    assert_eq!(y.get(0), 64.0, "2^6 scalings applied");
}

#[test]
fn host_write_invalidates_device_copy() {
    let y = Array::<f64, 1>::from_vec([128], vec![1.0; 128]);
    let a = Double::new(3.0);
    let device = hpl::runtime().default_device();

    eval(scale).device(&device).run((&y, &a)).unwrap();
    assert!(y.device_copy_valid(&device));

    y.set(5, 100.0); // host write invalidates the device copy
    assert!(!y.device_copy_valid(&device));

    let p = eval(scale).device(&device).run((&y, &a)).unwrap();
    assert!(
        p.transfer_modeled_seconds > 0.0,
        "stale device copy must re-upload"
    );
    assert_eq!(y.get(5), 300.0);
    assert_eq!(y.get(6), 9.0);
}

#[test]
fn read_only_input_stays_host_valid() {
    let src = Array::<f64, 1>::from_vec([64], vec![7.0; 64]);
    let dst = Array::<f64, 1>::new([64]);
    let device = hpl::runtime().default_device();

    eval(fill_from).device(&device).run((&dst, &src)).unwrap();
    assert!(
        src.host_copy_valid(),
        "kernel only read src: host copy still valid"
    );
    assert!(
        !dst.host_copy_valid(),
        "kernel wrote dst: host copy stale until synced"
    );
    assert_eq!(dst.get(0), 7.0);
    assert!(dst.host_copy_valid(), "get() synchronised the host copy");
}

#[test]
fn write_only_output_is_not_uploaded() {
    let src = Array::<f64, 1>::from_vec([4096], vec![1.0; 4096]);
    let dst = Array::<f64, 1>::from_vec([4096], vec![9.0; 4096]);
    // transfer statistics are per runtime: a fresh one counts this test only
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let device = rt.default_device();

    eval(fill_from).device(&device).run((&dst, &src)).unwrap();
    let stats = rt.transfer_stats();
    assert_eq!(
        stats.h2d_bytes,
        4096 * 8,
        "only src (read) must be uploaded, not dst (write-only)"
    );
}

#[test]
fn data_migrates_between_devices_through_host() {
    let tesla = hpl::runtime().device_named("tesla").unwrap();
    let quadro = hpl::runtime().device_named("quadro").unwrap();

    fn bump(y: &Array<f32, 1>) {
        y.at(idx()).assign(y.at(idx()) + 1.0f32);
    }

    let y = Array::<f32, 1>::from_vec([64], vec![0.0; 64]);
    eval(bump).device(&tesla).run((&y,)).unwrap();
    assert!(y.device_copy_valid(&tesla));
    assert!(!y.device_copy_valid(&quadro));

    // running on the other device must see the Tesla's result
    eval(bump).device(&quadro).run((&y,)).unwrap();
    assert!(y.device_copy_valid(&quadro));
    assert!(
        !y.device_copy_valid(&tesla),
        "quadro's write invalidates the tesla copy"
    );
    assert_eq!(y.get(0), 2.0, "both increments visible");
}

#[test]
fn constant_arrays_bind_to_constant_memory() {
    fn apply(out: &Array<f32, 1>, coeff: &Array<f32, 1>) {
        out.at(idx()).assign(coeff.at(idx() % 4) * 10.0f32);
    }
    // note: `coeff` must be declared Constant at creation
    let coeff = Array::<f32, 1>::constant([4]);
    coeff.write_from(&[1.0, 2.0, 3.0, 4.0]);
    let out = Array::<f32, 1>::new([16]);
    let p = eval(apply).run((&out, &coeff)).unwrap();
    assert!(p.source.contains("__constant"), "{}", p.source);
    assert_eq!(out.get(0), 10.0);
    assert_eq!(out.get(5), 20.0);
}

#[test]
fn scalar_arguments_reread_each_eval() {
    let y = Array::<f64, 1>::from_vec([16], vec![1.0; 16]);
    let a = Double::new(2.0);
    eval(scale).run((&y, &a)).unwrap();
    a.set(5.0);
    eval(scale).run((&y, &a)).unwrap();
    assert_eq!(y.get(0), 10.0, "1 * 2 * 5");
}

#[test]
fn async_eval_keeps_coherence_flags_honest() {
    let y = Array::<f64, 1>::from_vec([256], vec![1.0; 256]);
    let a = Double::new(2.0);
    let device = hpl::runtime().default_device();

    let h = eval(scale).device(&device).run_async((&y, &a)).unwrap();
    // flags flip at enqueue time: the device copy is the authoritative one
    // even while the command may still be in flight
    assert!(y.device_copy_valid(&device));
    assert!(!y.host_copy_valid());
    h.wait().unwrap();
    assert_eq!(y.get(0), 2.0, "get() settles and syncs");
    assert!(y.host_copy_valid());
}

#[test]
fn sync_access_settles_pending_async_writers() {
    let y = Array::<f64, 1>::from_vec([128], vec![1.0; 128]);
    let a = Double::new(3.0);
    let device = hpl::runtime().default_device();

    // never wait on the handles: the host read below must do it
    let _h1 = eval(scale).device(&device).run_async((&y, &a)).unwrap();
    let _h2 = eval(scale).device(&device).run_async((&y, &a)).unwrap();
    assert_eq!(
        y.get(0),
        9.0,
        "both async scalings visible to the host read"
    );
}

#[test]
fn mixed_async_and_sync_evals_stay_coherent() {
    let y = Array::<f64, 1>::from_vec([64], vec![1.0; 64]);
    let a = Double::new(2.0);
    let device = hpl::runtime().default_device();

    let h = eval(scale).device(&device).run_async((&y, &a)).unwrap();
    // the blocking eval must order itself after the pending async write
    eval(scale).device(&device).run((&y, &a)).unwrap();
    h.wait().unwrap();
    // host write invalidates; the next async run re-uploads before launch
    y.set(0, 100.0);
    assert!(!y.device_copy_valid(&device));
    let h2 = eval(scale).device(&device).run_async((&y, &a)).unwrap();
    h2.wait().unwrap();
    assert_eq!(y.get(0), 200.0);
    assert_eq!(y.get(1), 8.0, "1 * 2 * 2 * 2");
}

#[test]
fn async_chain_reuses_resident_data() {
    let y = Array::<f64, 1>::from_vec([512], vec![1.0; 512]);
    let a = Double::new(2.0);
    let device = hpl::runtime().default_device();

    let h1 = eval(scale).device(&device).run_async((&y, &a)).unwrap();
    assert!(
        h1.wait().unwrap().transfer_modeled_seconds > 0.0,
        "first eval uploads"
    );
    for _ in 0..3 {
        let h = eval(scale).device(&device).run_async((&y, &a)).unwrap();
        let p = h.wait().unwrap();
        assert_eq!(
            p.transfer_modeled_seconds, 0.0,
            "resident data must not re-upload"
        );
    }
    assert_eq!(y.get(0), 16.0, "2^4 scalings applied");
}

#[test]
fn transfer_stats_track_bytes() {
    let n = 1024;
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let y = Array::<f64, 1>::from_vec([n], vec![1.0; n]);
    let a = Double::new(2.0);
    eval(scale).run((&y, &a)).unwrap();
    let _ = y.get(0);
    let stats = rt.transfer_stats();
    assert_eq!(stats.h2d_count, 1);
    assert_eq!(stats.h2d_bytes, (n * 8) as u64);
    assert_eq!(stats.d2h_count, 1);
    assert_eq!(stats.d2h_bytes, (n * 8) as u64);
    assert!(stats.modeled_seconds > 0.0);
}

// ---- blocking is async + wait ---------------------------------------------------

fn add_into(y: &Array<f64, 1>, x: &Array<f64, 1>) {
    y.at(idx()).assign(y.at(idx()) + x.at(idx()));
}

fn halve_plus_one(y: &Array<f64, 1>) {
    y.at(idx()).assign(y.at(idx()) * 0.5f64 + 1.0f64);
}

/// One step of a generated program over three arrays.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `fill_from(dst, src)`: write-only `dst`, read-only `src`.
    Fill(usize, usize),
    /// `add_into(y, x)`: read-write `y`, read-only `x`; `(x, x)` when the
    /// two are the same array.
    Add(usize, usize),
    /// `halve_plus_one(y)`: read-write `y`.
    Halve(usize),
    /// Host `get` of one element.
    Get(usize, usize),
    /// Host write of one element through `data_mut`.
    Poke(usize, usize),
}

fn step((kind, i, j): (u8, usize, usize)) -> Step {
    match kind {
        0 => Step::Fill(i, if i == j { (i + 1) % 3 } else { j }),
        1 => Step::Add(i, j),
        2 => Step::Halve(i),
        3 => Step::Get(i, j * 7),
        _ => Step::Poke(i, j * 5),
    }
}

/// What a run leaves behind: every host read, each array's final contents
/// and its transfer counts.
type Observed = (Vec<f64>, Vec<Vec<f64>>, Vec<hpl::ArrayTransferStats>);

/// Run `steps` on a runtime of its own; evals whose flag is set go through
/// `run_async` and are waited on only at the end.
fn run_program(steps: &[(Step, bool)]) -> Observed {
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let n = 32;
    let arrays: Vec<Array<f64, 1>> = (0..3)
        .map(|a| Array::from_vec([n], (0..n).map(|i| (a * 100 + i) as f64).collect()))
        .collect();
    let mut reads = Vec::new();
    let mut pending = Vec::new();
    for &(step, asynchronous) in steps {
        let launched = match step {
            Step::Fill(d, s) => {
                let e = eval(fill_from);
                let args = (&arrays[d], &arrays[s]);
                if asynchronous {
                    e.run_async(args).map(Some)
                } else {
                    e.run(args).map(|_| None)
                }
            }
            Step::Add(y, x) => {
                let e = eval(add_into);
                let args = (&arrays[y], &arrays[x]);
                if asynchronous {
                    e.run_async(args).map(Some)
                } else {
                    e.run(args).map(|_| None)
                }
            }
            Step::Halve(y) => {
                let e = eval(halve_plus_one);
                let args = (&arrays[y],);
                if asynchronous {
                    e.run_async(args).map(Some)
                } else {
                    e.run(args).map(|_| None)
                }
            }
            Step::Get(a, i) => {
                reads.push(arrays[a].get(i));
                Ok(None)
            }
            Step::Poke(a, i) => {
                arrays[a].data_mut()[i] += 1.0;
                Ok(None)
            }
        };
        pending.extend(launched.unwrap());
    }
    for h in pending {
        h.wait().unwrap();
    }
    let contents = arrays.iter().map(Array::to_vec).collect();
    let stats = arrays.iter().map(Array::transfer_stats).collect();
    (reads, contents, stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Any interleaving of blocking and asynchronous evals with host reads
    /// and writes leaves the host data and the transfers of the same
    /// program run all-blocking: one coherence state machine serves both.
    #[test]
    fn mixed_blocking_and_async_programs_match_all_blocking(
        raw in proptest::collection::vec((0u8..5, 0usize..3, 0usize..3, any::<bool>()), 8..17),
    ) {
        let mixed: Vec<(Step, bool)> =
            raw.iter().map(|&(k, i, j, a)| (step((k, i, j)), a)).collect();
        let blocking: Vec<(Step, bool)> = mixed.iter().map(|&(s, _)| (s, false)).collect();
        prop_assert_eq!(run_program(&mixed), run_program(&blocking));
    }
}

#[test]
fn blocking_run_after_a_failed_async_writer_is_poisoned() {
    use hpl::predef::szx;
    fn oob(y: &Array<f64, 1>) {
        // every work item writes y[szx], one past the end: trapped
        y.at(szx()).assign(1.0f64);
    }
    let y = Array::<f64, 1>::new([32]);
    let z = Array::<f64, 1>::new([32]);
    let writer = eval(oob).run_async((&y,)).unwrap();
    let Err(hpl::Error::Backend(err)) = eval(fill_from).run((&z, &y)) else {
        panic!("the blocking reader of a failed writer must fail in the backend");
    };
    assert!(
        matches!(err, oclsim::Error::DependencyFailed { .. }),
        "fails through dependency poisoning, got: {err}"
    );
    let Err(hpl::Error::Backend(cause)) = writer.wait() else {
        panic!("the out-of-bounds writer must fail");
    };
    assert!(
        matches!(cause, oclsim::Error::MemoryFault { .. }),
        "{cause}"
    );
    assert_eq!(err.root_cause().to_string(), cause.root_cause().to_string());
    // the blocking call returned the failure: both arrays stay usable
    let _ = y.to_vec();
    eval(fill_from).run((&z, &y)).unwrap();
    assert_eq!(z.to_vec(), y.to_vec());
}

#[test]
fn blocking_uploads_are_modeled_like_async_ones() {
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let device = rt.default_device();
    let bytes = 512 * 8;
    let expected = oclsim::timing::model_transfer(device.profile(), bytes);
    let y = Array::<f64, 1>::new([512]);
    // enough launches first that the uploads start late on the timeline
    for _ in 0..8 {
        eval(halve_plus_one).run((&y,)).unwrap();
    }
    let x = Array::<f64, 1>::from_vec([512], vec![1.0; 512]);
    let blocking = eval(add_into).run((&y, &x)).unwrap();
    let x = Array::<f64, 1>::from_vec([512], vec![1.0; 512]);
    let queued = eval(add_into).run_async((&y, &x)).unwrap().wait().unwrap();
    assert_eq!(blocking.transfer_modeled_seconds, expected);
    assert_eq!(queued.transfer_modeled_seconds, expected);
}
