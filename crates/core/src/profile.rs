//! `hpl::profile` — scoped profiling of HPL activity.
//!
//! [`profile`] runs a closure with backend profiling enabled on every queue
//! of the calling thread's [`runtime`] and returns, alongside the closure's
//! value, a [`ProfileReport`] listing each kernel launch and each
//! host↔device transfer the closure caused on this thread. The launches
//! carry their backend [`Event`]s, so after the report is in hand the
//! caller can read modeled timeline stamps ([`Event::profiling_info`]) and
//! simulated hardware counters ([`Event::counters`]) from them.
//!
//! Enabling is refcounted per runtime (nested or concurrent [`profile`]
//! scopes keep its queues' profiling flags on until the outermost scope
//! ends), but *collection* is per-thread: a scope only records the
//! launches and transfers made by its own thread, so concurrently running
//! tests do not pollute each other's reports. A panic inside the closure
//! propagates, but the scope's refcount and thread-local stack entry are
//! released by a drop guard on the way out — a failing benchmark cannot
//! leave profiling enabled (or a stale scope collecting) for later users
//! of the runtime.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use oclsim::{Device, Event, TransferDir};

use crate::runtime::{runtime, Runtime};

/// One kernel launch observed by a [`profile`] scope.
#[derive(Debug, Clone)]
pub struct ProfiledLaunch {
    /// The generated kernel's name (e.g. `hpl_saxpy_0`).
    pub kernel: String,
    /// The device it ran on.
    pub device: Device,
    /// The backend event: completed for synchronous launches, possibly
    /// still pending for asynchronous ones. Its
    /// [`counters`](Event::counters) and
    /// [`profiling_info`](Event::profiling_info) are available once
    /// complete, because the scope enabled queue profiling.
    pub event: Event,
}

/// One host↔device transfer observed by a [`profile`] scope.
#[derive(Debug, Clone)]
pub struct ProfiledTransfer {
    /// Which way the data moved.
    pub direction: TransferDir,
    /// Bytes moved.
    pub bytes: u64,
    /// The transfer's backend event, when the transfer ran through a
    /// queue command HPL kept a handle to (`None` for the synchronous
    /// read path, which consumes its event internally).
    pub event: Option<Event>,
}

/// Everything one [`profile`] scope observed.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Kernel launches, in enqueue order.
    pub launches: Vec<ProfiledLaunch>,
    /// Host↔device transfers, in enqueue order.
    pub transfers: Vec<ProfiledTransfer>,
}

impl ProfileReport {
    /// Total host→device bytes moved in the scope.
    pub fn h2d_bytes(&self) -> u64 {
        self.dir_bytes(TransferDir::HostToDevice)
    }

    /// Number of host→device transfers in the scope.
    pub fn h2d_count(&self) -> usize {
        self.dir_count(TransferDir::HostToDevice)
    }

    /// Total device→host bytes moved in the scope.
    pub fn d2h_bytes(&self) -> u64 {
        self.dir_bytes(TransferDir::DeviceToHost)
    }

    /// Number of device→host transfers in the scope.
    pub fn d2h_count(&self) -> usize {
        self.dir_count(TransferDir::DeviceToHost)
    }

    fn dir_bytes(&self, dir: TransferDir) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.direction == dir)
            .map(|t| t.bytes)
            .sum()
    }

    fn dir_count(&self, dir: TransferDir) -> usize {
        self.transfers.iter().filter(|t| t.direction == dir).count()
    }
}

thread_local! {
    /// Stack of open profile scopes on this thread (innermost last).
    static SCOPES: RefCell<Vec<ProfileReport>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with profiling enabled and collect what it does.
///
/// ```
/// use hpl::prelude::*;
///
/// fn double(y: &Array<f64, 1>, x: &Array<f64, 1>) {
///     y.at(idx()).assign(x.at(idx()) * 2.0f64);
/// }
///
/// let x = Array::<f64, 1>::from_vec([256], vec![1.0; 256]);
/// let y = Array::<f64, 1>::new([256]);
/// let (_, report) = hpl::profile(|| {
///     eval(double).run((&y, &x)).unwrap();
/// });
/// assert_eq!(report.launches.len(), 1);
/// assert_eq!(report.h2d_count(), 1, "only x needs uploading");
/// let counters = report.launches[0].event.counters().unwrap();
/// assert!(counters.totals.instr.total() > 0);
/// ```
pub fn profile<R>(f: impl FnOnce() -> R) -> (R, ProfileReport) {
    /// Releases the runtime's refcount when the scope ends, and on panic
    /// also pops this thread's stack entry, so a panicking closure cannot
    /// leave queue profiling enabled (or a stale scope collecting). The
    /// success path pops the report itself.
    struct ScopeGuard {
        rt: Arc<Runtime>,
        popped: bool,
    }
    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            if !self.popped {
                SCOPES.with(|s| {
                    s.borrow_mut().pop();
                });
            }
            if self.rt.profile_depth.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.rt.set_queue_profiling(false);
            }
        }
    }

    let rt = runtime();
    if rt.profile_depth.fetch_add(1, Ordering::SeqCst) == 0 {
        rt.set_queue_profiling(true);
    }
    SCOPES.with(|s| s.borrow_mut().push(ProfileReport::default()));
    let mut guard = ScopeGuard { rt, popped: false };
    let value = f();
    let report = SCOPES.with(|s| s.borrow_mut().pop().expect("profile scope stack underflow"));
    guard.popped = true;
    (value, report)
}

/// Record a kernel launch in every open scope on this thread. No-op when
/// none are open (the common, unprofiled case).
pub(crate) fn note_launch(kernel: &str, device: &Device, event: &Event) {
    SCOPES.with(|s| {
        for scope in s.borrow_mut().iter_mut() {
            scope.launches.push(ProfiledLaunch {
                kernel: kernel.to_string(),
                device: device.clone(),
                event: event.clone(),
            });
        }
    });
}

/// Record a host↔device transfer in every open scope on this thread.
pub(crate) fn note_transfer(direction: TransferDir, bytes: u64, event: Option<&Event>) {
    SCOPES.with(|s| {
        for scope in s.borrow_mut().iter_mut() {
            scope.transfers.push(ProfiledTransfer {
                direction,
                bytes,
                event: event.cloned(),
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::eval::eval;
    use crate::predef::idx;

    // the enable refcount belongs to the runtime, so each test asserts on
    // the profiled/unprofiled state of the queues of a runtime of its own
    use crate::runtime::fresh_scope as fresh;

    fn inc(y: &Array<f64, 1>) {
        y.at(idx()).assign(y.at(idx()) + 1.0f64);
    }

    #[test]
    fn scope_collects_launches_and_transfers() {
        let _rt = fresh();
        let y = Array::<f64, 1>::from_vec([128], vec![0.0; 128]);
        let ((), report) = profile(|| {
            eval(inc).run((&y,)).unwrap();
            eval(inc).run((&y,)).unwrap();
        });
        assert_eq!(report.launches.len(), 2);
        assert_eq!(report.h2d_count(), 1, "second eval reuses the device copy");
        assert_eq!(report.h2d_bytes(), 128 * 8);
        for launch in &report.launches {
            let c = launch.event.counters().expect("profiling was enabled");
            assert!(c.totals.instr.total() > 0);
            assert!(launch.event.profiling_info().is_ok());
        }
        assert_eq!(y.get(5), 2.0);
    }

    #[test]
    fn nested_scopes_both_observe_inner_work() {
        let _rt = fresh();
        let y = Array::<f64, 1>::from_vec([64], vec![0.0; 64]);
        let (((), inner), outer) = profile(|| {
            profile(|| {
                eval(inc).run((&y,)).unwrap();
            })
        });
        assert_eq!(inner.launches.len(), 1);
        assert_eq!(outer.launches.len(), 1);
    }

    #[test]
    fn panicking_scope_restores_profiling_state() {
        let _rt = fresh();
        let y = Array::<f64, 1>::from_vec([32], vec![0.0; 32]);
        let result = std::panic::catch_unwind(|| {
            profile(|| {
                panic!("benchmark exploded");
            })
        });
        assert!(result.is_err(), "the panic propagates");
        // the refcount was released: a launch outside any scope is
        // unprofiled, exactly as if the panicking scope never existed
        let h = eval(inc).run_async((&y,)).unwrap();
        let ev = h.event().clone();
        h.wait().unwrap();
        assert!(!ev.is_profiled(), "panic must not leave profiling enabled");
        // and the thread-local stack was unwound: a fresh scope still
        // collects only its own work
        let ((), report) = profile(|| {
            eval(inc).run((&y,)).unwrap();
        });
        assert_eq!(report.launches.len(), 1);
    }

    #[test]
    fn outside_scope_nothing_is_recorded_and_events_are_unprofiled() {
        let _rt = fresh();
        let y = Array::<f64, 1>::from_vec([64], vec![0.0; 64]);
        let ((), report) = profile(|| {});
        assert!(report.launches.is_empty());
        assert!(report.transfers.is_empty());
        // a launch outside any scope has no counters attached
        let h = eval(inc).run_async((&y,)).unwrap();
        let ev = h.event().clone();
        h.wait().unwrap();
        assert!(!ev.is_profiled());
        assert!(ev.counters().is_none());
        assert!(ev.profiling_info().is_err());
    }
}
