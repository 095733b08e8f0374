//! The persistent per-device worker pool behind [`super::launch`].
//!
//! A launch is one [`Job`] — the group-claim loop — that the **calling
//! thread always runs itself**. Before it starts it posts *help tickets*;
//! an idle pool thread that picks one up runs the same job beside the
//! caller. When the caller's own run of the job returns (no groups left to
//! claim) it revokes the tickets nobody picked up and waits only for the
//! helpers that actually joined. A launch therefore never waits on a busy
//! or absent helper: N concurrent launches on one device cannot deadlock,
//! a pool whose threads failed to spawn degrades to inline execution, and a
//! launch that asks for no help simply posts zero tickets.
//!
//! Threads are created on demand, up to the largest helper count any launch
//! has asked for, and live until the pool is dropped. Dropping signals and
//! detaches them — it never joins, because the last handle to a device can
//! be dropped by a job running on one of the pool's own threads.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The work of one launch: run by the caller and by every helper that joins.
pub trait Job: Send + Sync + 'static {
    fn run(&self);
}

type Panic = Box<dyn Any + Send>;

/// One launch that posted tickets and has not been finished by its caller.
struct Launch {
    id: u64,
    job: Arc<dyn Job>,
    /// Tickets nobody has picked up.
    open: usize,
    /// Helpers currently inside `job`.
    active: usize,
    /// The first panic a helper caught, resumed on the caller.
    panic: Option<Panic>,
}

#[derive(Default)]
struct State {
    launches: Vec<Launch>,
    next_id: u64,
    /// Pool threads alive (spawned and not yet exited).
    threads: usize,
    /// Pool threads blocked in `Shared::work`.
    parked: usize,
    shutdown: bool,
}

struct Shared {
    /// Thread-name prefix (`oclsim-dev<id>-w`).
    name: String,
    state: Mutex<State>,
    /// Helpers park here until a ticket is posted or the pool shuts down.
    work: Condvar,
    /// Callers wait here for the helpers that joined their launch.
    done: Condvar,
}

/// A device's worker threads (see the module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
}

/// No job code ever runs under the state lock, so a poisoned lock still
/// guards consistent data.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerPool {
    /// An empty pool whose threads will be named `<name><k>`.
    pub fn new(name: String) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                name,
                state: Mutex::new(State::default()),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }

    /// Run `job` on the calling thread and on up to `helpers` pool threads,
    /// returning once no thread is inside it. A panic in any of them is
    /// resumed here, after the others have left.
    pub fn run<J: Job>(&self, helpers: usize, job: &Arc<J>) {
        // no help wanted is no tickets: nothing to post, revoke or wait for
        let id = (helpers > 0).then(|| self.post(helpers, Arc::clone(job) as Arc<dyn Job>));
        let own = catch_unwind(AssertUnwindSafe(|| job.run()));
        let helper_panic = id.and_then(|id| self.finish(id));
        if let Some(p) = own.err().or(helper_panic) {
            resume_unwind(p);
        }
    }

    /// Post `helpers` tickets for `job`, growing the pool to that many
    /// threads first; the id is what [`Self::finish`] takes.
    fn post(&self, helpers: usize, job: Arc<dyn Job>) -> u64 {
        let sh = &self.shared;
        let mut st = lock(&sh.state);
        while st.threads < helpers {
            let shared = Arc::clone(sh);
            let spawned = std::thread::Builder::new()
                .name(format!("{}{}", sh.name, st.threads))
                .spawn(move || helper_loop(&shared));
            // a thread that cannot be created is help that never arrives:
            // the caller claims those groups itself
            if spawned.is_err() {
                break;
            }
            st.threads += 1;
            crate::telemetry::metrics().exec_pool_threads.add(1);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.launches.push(Launch {
            id,
            job,
            open: helpers,
            active: 0,
            panic: None,
        });
        let wake = st.parked.min(helpers);
        drop(st);
        // a helper that is still on its way to parking finds the ticket
        // under the lock; only parked ones cost a futex wake
        for _ in 0..wake {
            sh.work.notify_one();
        }
        id
    }

    /// Revoke launch `id`'s unclaimed tickets, wait for the helpers that
    /// joined it, and return the panic one of them may have caught.
    fn finish(&self, id: u64) -> Option<Panic> {
        let sh = &self.shared;
        let mut st = lock(&sh.state);
        let find = |st: &State| {
            st.launches
                .iter()
                .position(|l| l.id == id)
                .expect("a posted launch stays listed until its caller finishes it")
        };
        let l = find(&st);
        let revoked = std::mem::take(&mut st.launches[l].open);
        crate::telemetry::metrics()
            .exec_pool_tickets_revoked
            .add(revoked as u64);
        loop {
            let l = find(&st);
            if st.launches[l].active == 0 {
                return st.launches.swap_remove(l).panic;
            }
            st = sh.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
    }
}

/// Body of one pool thread: take a ticket and run its job, else park; exit
/// once the pool is dropped. An idle helper does not poll for the next
/// ticket first: a spin of 20 µs caught the next launch of a dependent
/// chain without a futex wake and raised `launch_chain`'s launch rate, but
/// at today's VM speed that extra rate takes hplbench's `launch_chain`
/// past its `peak_rss_mb` bound (EXPERIMENTS.md, "Memory path").
fn helper_loop(sh: &Shared) {
    let mut st = lock(&sh.state);
    loop {
        if let Some(l) = st.launches.iter_mut().find(|l| l.open > 0) {
            l.open -= 1;
            l.active += 1;
            let (id, job) = (l.id, Arc::clone(&l.job));
            drop(st);
            crate::telemetry::metrics().exec_pool_helper_joins.inc();
            let result = catch_unwind(AssertUnwindSafe(|| job.run()));
            // release the job before the caller can observe this helper
            // gone, so nothing of the launch outlives `WorkerPool::run`
            drop(job);
            st = lock(&sh.state);
            let l = st
                .launches
                .iter_mut()
                .find(|l| l.id == id)
                .expect("the caller waits for every active helper");
            l.active -= 1;
            if let Err(p) = result {
                l.panic.get_or_insert(p);
            }
            if l.active == 0 {
                sh.done.notify_all();
            }
            continue;
        }
        if st.shutdown {
            st.threads -= 1;
            crate::telemetry::metrics().exec_pool_threads.add(-1);
            return;
        }
        st.parked += 1;
        st = sh.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        st.parked -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn pool() -> WorkerPool {
        WorkerPool::new("pool-test-w".into())
    }

    struct FnJob<F>(F);

    impl<F: Fn() + Send + Sync + 'static> Job for FnJob<F> {
        fn run(&self) {
            (self.0)()
        }
    }

    fn job<F: Fn() + Send + Sync + 'static>(f: F) -> Arc<FnJob<F>> {
        Arc::new(FnJob(f))
    }

    #[test]
    fn zero_helpers_runs_inline_and_spawns_nothing() {
        let p = pool();
        let caller = std::thread::current().id();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        p.run(
            0,
            &job(move || {
                assert_eq!(std::thread::current().id(), caller);
                r.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(lock(&p.shared.state).threads, 0);
    }

    #[test]
    fn helpers_join_and_the_pool_grows_to_the_largest_request() {
        let p = pool();
        for helpers in [1usize, 3, 2] {
            // every claimer must arrive before any may leave, so the caller
            // cannot finish first and revoke a ticket
            let all_in = Arc::new(Barrier::new(helpers + 1));
            p.run(
                helpers,
                &job(move || {
                    all_in.wait();
                }),
            );
        }
        let st = lock(&p.shared.state);
        assert_eq!(st.threads, 3, "grown to the largest request, never shrunk");
        assert!(st.launches.is_empty());
    }

    #[test]
    fn more_concurrent_callers_than_helpers_all_finish() {
        let p = Arc::new(pool());
        let callers = 8;
        let start = Arc::new(Barrier::new(callers));
        let total = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..callers)
            .map(|_| {
                let (p, start, total) = (Arc::clone(&p), Arc::clone(&start), Arc::clone(&total));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        // 64 units of work claimed from a shared cursor, as
                        // a launch claims groups
                        let next = Arc::new(AtomicUsize::new(0));
                        let (n, t) = (Arc::clone(&next), Arc::clone(&total));
                        p.run(
                            1,
                            &job(move || {
                                while n.fetch_add(1, Ordering::SeqCst) < 64 {
                                    t.fetch_add(1, Ordering::SeqCst);
                                }
                            }),
                        );
                        assert!(next.load(Ordering::SeqCst) >= 64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), callers * 200 * 64);
        assert_eq!(lock(&p.shared.state).threads, 1);
    }

    #[test]
    fn revoked_ticket_never_runs_after_the_caller_returned() {
        let p = Arc::new(pool());
        // launch A holds the pool's only thread inside its job
        let joined = Arc::new(Barrier::new(2));
        let helper_in = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let a = {
            let (p, j, h, r) = (
                Arc::clone(&p),
                Arc::clone(&joined),
                Arc::clone(&helper_in),
                Arc::clone(&release),
            );
            std::thread::spawn(move || {
                let caller = std::thread::current().id();
                p.run(
                    1,
                    &job(move || {
                        j.wait();
                        if std::thread::current().id() != caller {
                            h.wait();
                            r.wait();
                        }
                    }),
                );
            })
        };
        helper_in.wait();
        // launch B's ticket cannot be picked up: the helper is held
        let runs_b = Arc::new(AtomicUsize::new(0));
        let n = Arc::clone(&runs_b);
        p.run(
            1,
            &job(move || {
                n.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(runs_b.load(Ordering::SeqCst), 1, "only B's caller ran it");
        assert_eq!(
            lock(&p.shared.state)
                .launches
                .iter()
                .map(|l| l.open)
                .sum::<usize>(),
            0,
            "B's ticket is gone"
        );
        release.wait();
        a.join().unwrap();
        // launch C needs the freed helper; had B's ticket survived, the
        // helper would have run it on its way here
        let both_in = Arc::new(Barrier::new(2));
        p.run(
            1,
            &job(move || {
                both_in.wait();
            }),
        );
        assert_eq!(runs_b.load(Ordering::SeqCst), 1);
        assert!(lock(&p.shared.state).launches.is_empty());
    }

    #[test]
    fn helper_panic_resurfaces_on_the_caller_and_the_pool_survives() {
        let p = pool();
        let caller = std::thread::current().id();
        let both_in = Arc::new(Barrier::new(2));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            p.run(
                1,
                &job(move || {
                    both_in.wait();
                    if std::thread::current().id() != caller {
                        panic!("boom in a helper");
                    }
                }),
            )
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("boom in a helper")
        );
        // same pool, same thread: the next launch gets its helper
        let both_in = Arc::new(Barrier::new(2));
        p.run(
            1,
            &job(move || {
                both_in.wait();
            }),
        );
        let st = lock(&p.shared.state);
        assert_eq!(st.threads, 1);
        assert!(st.launches.is_empty());
    }
}
