//! Cross-crate tests of HPL's automatic buffer/transfer management — the
//! machinery the paper's §VI highlights against EPGPU ("the aim of that
//! analysis currently being the minimization of the data transfers").

use hpl::prelude::*;

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
