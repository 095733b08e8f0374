//! The default runtime builds its device binaries into
//! `oclsim::serve::global_binary_cache()`: clearing that cache and the
//! kernel cache makes the next default-runtime eval compile from nothing.
//! hplbench's `cold_compile` workload clears both before every HPL request
//! and rests on this. A runtime of its own keeps its binaries out of the
//! global cache.
//!
//! This file holds one test on purpose: it clears the default runtime's
//! caches under any sibling that would use them.

use hpl::prelude::*;
use hpl::{Config, Runtime};
use oclsim::serve::global_binary_cache;

fn default_probe(y: &Array<f32, 1>) {
    y.at(idx()).assign(y.at(idx()) + 1.0f32);
}

fn own_probe(y: &Array<f32, 1>) {
    y.at(idx()).assign(y.at(idx()) * 2.0f32);
}

#[test]
fn clearing_both_caches_makes_the_next_default_eval_cold() {
    let y = Array::<f32, 1>::from_vec([64], vec![1.0; 64]);
    eval(default_probe).run((&y,)).unwrap();
    let warm = eval(default_probe).run((&y,)).unwrap();
    assert!(warm.cache_hit && warm.build_seconds == 0.0, "{warm:?}");
    assert_eq!(global_binary_cache().devices_built(&warm.source), 1);

    hpl::clear_kernel_cache();
    global_binary_cache().clear();
    let cold = eval(default_probe).run((&y,)).unwrap();
    assert!(!cold.cache_hit, "the kernel cache was cleared");
    assert!(cold.build_seconds > 0.0, "the binary cache was cleared");
    assert_eq!(global_binary_cache().devices_built(&cold.source), 1);
    assert_eq!(y.get(0), 4.0);

    let rt = Runtime::new(Config::from_env());
    let own = {
        let _scope = rt.enter();
        eval(own_probe).run((&y,)).unwrap()
    };
    assert!(!own.cache_hit && own.build_seconds > 0.0, "{own:?}");
    assert_eq!(
        global_binary_cache().devices_built(&own.source),
        0,
        "a runtime of its own builds into its own cache"
    );
    let [entry] = &rt.cache_stats().entries[..] else {
        panic!("one kernel, one entry");
    };
    assert_eq!(entry.devices_built, 1);
    assert_eq!(y.get(0), 8.0);
}
