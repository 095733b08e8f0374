//! Host access to an array whose current copy lives on the device.
//! `Array::data` is read-only (a write through it does not compile; see
//! its doc example), and a host write through `Array::data_mut` is what
//! the next kernel reads, not the device copy uploaded before it.

use hpl::prelude::*;

fn copy(y: &Array<i32, 1>, x: &Array<i32, 1>) {
    y.at(idx()).assign(x.at(idx()));
}

#[test]
fn host_writes_reach_the_next_eval_and_host_reads_cost_no_transfer() {
    let rt = hpl::Runtime::new(hpl::Config::from_env());
    let _scope = rt.enter();
    let x = Array::<i32, 1>::from_vec([4], vec![1, 2, 3, 4]);
    let y = Array::<i32, 1>::new([4]);
    eval(copy).run((&y, &x)).unwrap();
    assert_eq!(y.to_vec(), [1, 2, 3, 4]);

    // a read neither invalidates the device copy nor uploads it again
    assert_eq!(&*x.data(), &[1, 2, 3, 4]);
    let uploads = rt.transfer_stats().h2d_count;
    eval(copy).run((&y, &x)).unwrap();
    assert_eq!(
        rt.transfer_stats().h2d_count,
        uploads,
        "x is still resident"
    );

    // a write goes through data_mut, and the next eval reads it
    x.data_mut()[0] = 100;
    assert_eq!(x.get(0), 100);
    eval(copy).run((&y, &x)).unwrap();
    assert_eq!(y.to_vec(), [100, 2, 3, 4], "the stale device copy was used");
}
