//! The per-device command dispatcher.
//!
//! Every [`crate::Device`] lazily owns one [`DeviceSched`]: a pending list
//! of commands from all of the device's queues, the modeled resource
//! `Timeline`, and a *drain claim* under which some thread executes the
//! **ready set** of the dependency DAG — commands whose wait-list events
//! have all resolved. The submitting thread claims the drain itself when
//! nobody holds it (the common case of a queue whose head is immediately
//! runnable, where a worker thread would cost a spawn plus two context
//! switches per command); when only blocked commands remain the claim is
//! released, and the dependency watchers re-claim on resolution.
//!
//! Commands execute functionally one at a time (the simulator's wall-clock
//! cost), but their *modeled* stamps come from the shared `Timeline`, so
//! independent commands overlap on the modeled device even though the
//! simulation of them is serial.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::error::{Error, Result};
use crate::lock;
use crate::sched::event::{CommandOutput, Event, EventStatus, TimelineStamps};
use crate::sched::timeline::{Resource, Timeline};

/// The outcome of a command's functional execution: what to reserve on the
/// modeled timeline, for how long, and the output to attach to the event
/// (kernel timing, profiling counters, transfer metadata).
pub(crate) struct Work {
    pub resource: Resource,
    pub duration: f64,
    pub output: CommandOutput,
}

/// One enqueued command: its event handle plus the deferred functional
/// effect (buffer mutation / kernel interpretation).
pub(crate) struct Command {
    pub event: Event,
    pub work: Box<dyn FnOnce() -> Result<Work> + Send>,
}

struct DispState {
    pending: VecDeque<Command>,
    /// Whether some thread currently holds the drain claim.
    running: bool,
}

/// Scheduler state attached to one device (see module docs).
pub struct DeviceSched {
    timeline: Mutex<Timeline>,
    disp: Mutex<DispState>,
}

impl DeviceSched {
    /// Scheduler for a device with `compute_units` CUs.
    pub(crate) fn new(compute_units: usize) -> Arc<DeviceSched> {
        Arc::new(DeviceSched {
            timeline: Mutex::new(Timeline::new(compute_units)),
            disp: Mutex::new(DispState {
                pending: VecDeque::new(),
                running: false,
            }),
        })
    }

    /// Hand a command to the device. Registers wake-ups on its unresolved
    /// dependencies, then drains the ready set on this thread unless
    /// another thread already holds the drain claim.
    pub(crate) fn submit(self: &Arc<Self>, cmd: Command) {
        for dep in cmd.event.deps_snapshot() {
            // resolved deps need no watcher; the drain scan sees them
            dep.notify_sched_on_resolve(self);
        }
        let claimed = {
            let mut st = lock(&self.disp);
            st.pending.push_back(cmd);
            if st.running {
                false
            } else {
                st.running = true;
                true
            }
        };
        if claimed {
            self.drain_ready();
        }
    }

    /// A dependency resolved: if nobody holds the drain claim and commands
    /// are pending, claim it and run whatever became ready. Called by the
    /// resolving thread outside any event lock; same-device resolutions
    /// from inside [`Self::drain_ready`] see the claim taken and return
    /// immediately (the draining loop re-scans after every command), so
    /// dependency chains never recurse on one device.
    pub(crate) fn nudge(&self) {
        let claimed = {
            let mut st = lock(&self.disp);
            if st.running || st.pending.is_empty() {
                false
            } else {
                st.running = true;
                true
            }
        };
        if claimed {
            self.drain_ready();
        }
    }

    /// Reset the modeled timeline to the origin (all engines free at 0.0).
    pub(crate) fn reset_timeline(&self) {
        lock(&self.timeline).reset();
    }

    /// The latest modeled instant any engine is reserved until.
    pub(crate) fn timeline_horizon(&self) -> f64 {
        lock(&self.timeline).horizon()
    }

    /// Drain-claim body: repeatedly execute the first ready command;
    /// release the claim and return when every pending command is blocked
    /// (on user events or another device) or the list is empty — the
    /// watchers registered at submit re-claim when a dependency resolves.
    fn drain_ready(&self) {
        loop {
            let cmd = {
                let mut st = lock(&self.disp);
                let ready = st
                    .pending
                    .iter()
                    .position(|c| c.event.deps_snapshot().iter().all(Event::is_resolved));
                match ready {
                    Some(i) => st.pending.remove(i).expect("index from position"),
                    None => {
                        st.running = false;
                        return;
                    }
                }
            };
            self.execute(cmd);
        }
    }

    /// Run one command whose wait list has fully resolved.
    fn execute(&self, cmd: Command) {
        // re-establish the enqueueing request's ambient trace id on this
        // worker so spans emitted while executing (dispatch, exec.launch)
        // tag themselves with the request — workers never touch the
        // flight ring, keeping its content thread-count-independent
        let _trace = cmd.event.trace().map(crate::obs::thread_trace);
        let m = crate::telemetry::metrics();
        m.dispatched.inc();
        let mut span = crate::telemetry::span("sched", "dispatch");
        if crate::telemetry::enabled() {
            span.note("kind", format!("{:?}", cmd.event.kind()));
            span.note("event", cmd.event.id());
        }
        // the ready instant comes from every dependency (including
        // ordering-only predecessors); poisoning only from the wait list
        let mut ready = 0.0f64;
        for dep in cmd.event.deps_snapshot() {
            ready = ready.max(dep.profile().ended);
        }
        let mut poison: Option<Error> = None;
        for dep in cmd.event.poison_deps_snapshot() {
            if let Some(cause) = dep.error() {
                poison = Some(Error::DependencyFailed {
                    cause: Box::new(cause),
                });
                break;
            }
        }
        cmd.event.advance(EventStatus::Submitted);

        if let Some(err) = poison {
            let (started, ended) = lock(&self.timeline).reserve(Resource::Instant, ready, 0.0);
            let stamps = TimelineStamps {
                queued: 0.0,
                submitted: ready,
                started,
                ended,
            };
            m.command_errors.inc();
            span.note("outcome", "poisoned");
            cmd.event
                .resolve_error(err, stamps, std::time::Duration::ZERO);
            return;
        }

        cmd.event.advance(EventStatus::Running);
        let wall_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(cmd.work));
        let wall = wall_start.elapsed();
        match outcome {
            Ok(Ok(work)) => {
                if matches!(work.resource, Resource::Dma) {
                    m.dma_commands.inc();
                    if let Some(t) = &work.output.transfer {
                        m.dma_bytes.add(t.bytes);
                    }
                }
                let (started, ended) =
                    lock(&self.timeline).reserve(work.resource, ready, work.duration);
                let stamps = TimelineStamps {
                    queued: 0.0,
                    submitted: ready,
                    started,
                    ended,
                };
                m.retired.inc();
                if crate::telemetry::enabled() {
                    span.note("ready_s", format!("{ready:.9}"));
                    span.note_modeled(started, ended);
                    if let Some(label) = &work.output.label {
                        span.note("label", label);
                    }
                    if let Some(t) = &work.output.transfer {
                        span.note("bytes", t.bytes);
                    }
                }
                cmd.event.resolve_complete(stamps, wall, work.output);
            }
            Ok(Err(err)) => {
                let (started, ended) = lock(&self.timeline).reserve(Resource::Instant, ready, 0.0);
                let stamps = TimelineStamps {
                    queued: 0.0,
                    submitted: ready,
                    started,
                    ended,
                };
                m.command_errors.inc();
                span.note("outcome", "error");
                cmd.event.resolve_error(err, stamps, wall);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "command panicked".into());
                let (started, ended) = lock(&self.timeline).reserve(Resource::Instant, ready, 0.0);
                let stamps = TimelineStamps {
                    queued: 0.0,
                    submitted: ready,
                    started,
                    ended,
                };
                m.command_errors.inc();
                span.note("outcome", "panic");
                cmd.event.resolve_error(
                    Error::InvalidOperation(format!("command panicked: {msg}")),
                    stamps,
                    wall,
                );
            }
        }
    }
}
