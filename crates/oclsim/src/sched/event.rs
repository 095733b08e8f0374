//! Shared, waitable events with the OpenCL lifecycle.
//!
//! An [`Event`] is a cheaply clonable handle to one command's execution
//! state. It moves through the OpenCL status ladder
//! `Queued → Submitted → Running → Complete | Error`, carries the four
//! profiling timestamps (`queued`/`submitted`/`started`/`ended`) on the
//! **modeled device timeline**, and can be waited on from any thread.
//! [`Event::user`] creates host-controlled user events
//! (`clCreateUserEvent`) that gate enqueued commands until the host calls
//! [`Event::set_complete`] / [`Event::set_error`], or chains them onto
//! other events with [`Event::set_complete_on`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::Duration;

use crate::error::{Error, Result};
use crate::lock;
use crate::prof::counters::{LaunchCounters, TransferInfo};
use crate::sched::dispatcher::DeviceSched;
use crate::timing::TimingBreakdown;

/// Where a command is in its life, mirroring `CL_QUEUED`/`CL_SUBMITTED`/
/// `CL_RUNNING`/`CL_COMPLETE` plus the negative error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// Enqueued on a command queue, not yet handed to the device.
    Queued,
    /// Handed to the device; wait list resolved (or a fresh user event).
    Submitted,
    /// The device is executing the command.
    Running,
    /// Finished successfully.
    Complete,
    /// Finished with an error (its own, or a poisoned dependency).
    Error,
}

/// What an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    WriteBuffer,
    ReadBuffer,
    CopyBuffer,
    NdRangeKernel,
    /// A synchronization point with no work of its own.
    Marker,
    /// A host-controlled user event.
    User,
}

/// The four OpenCL profiling timestamps, in seconds on the modeled device
/// timeline (origin = device creation or the last
/// [`crate::Device::reset_timeline`]). Host-side actions are modeled as
/// instantaneous: `queued` is always 0.0 and `submitted` is the instant
/// the last wait-list dependency finished.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimelineStamps {
    /// When the command entered the queue (`CL_PROFILING_COMMAND_QUEUED`).
    pub queued: f64,
    /// When its wait list resolved (`CL_PROFILING_COMMAND_SUBMIT`).
    pub submitted: f64,
    /// When a device resource picked it up (`CL_PROFILING_COMMAND_START`).
    pub started: f64,
    /// When it finished (`CL_PROFILING_COMMAND_END`).
    pub ended: f64,
}

static NEXT_EVENT_ID: AtomicU64 = AtomicU64::new(1);

/// Parties to notify when an event resolves.
pub(crate) enum Watcher {
    /// A device dispatcher with queued commands waiting on this event.
    Sched(Weak<DeviceSched>),
    /// A user event chained with [`Event::set_complete_on`].
    Chain {
        event: Weak<EventInner>,
        gate: Arc<ChainGate>,
    },
}

/// Countdown shared by the targets of one `set_complete_on` call.
pub(crate) struct ChainGate {
    state: Mutex<ChainState>,
}

struct ChainState {
    remaining: usize,
    first_error: Option<Error>,
}

impl ChainGate {
    fn new(remaining: usize) -> Arc<ChainGate> {
        Arc::new(ChainGate {
            state: Mutex::new(ChainState {
                remaining,
                first_error: None,
            }),
        })
    }

    /// Record one resolved target; returns the chain outcome once all
    /// targets are accounted for.
    fn arrive(&self, error: Option<Error>) -> Option<Option<Error>> {
        let mut st = lock(&self.state);
        if let (None, Some(e)) = (&st.first_error, error) {
            st.first_error = Some(e);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            Some(st.first_error.clone())
        } else {
            None
        }
    }
}

/// Everything a command's execution produces besides its timeline slot:
/// detailed kernel timing, profiling counters (when the queue's profiling
/// flag was set), transfer metadata for DMA commands, and a display label.
/// Bundled so the dispatcher can thread it from the work closure to the
/// event without caring what is inside.
#[derive(Debug, Default)]
pub(crate) struct CommandOutput {
    pub kernel_timing: Option<TimingBreakdown>,
    pub counters: Option<LaunchCounters>,
    pub transfer: Option<TransferInfo>,
    pub label: Option<String>,
}

struct EventState {
    status: EventStatus,
    error: Option<Error>,
    /// Wait-list (and chain-target) events. A failed event here poisons
    /// this one with `DependencyFailed`. Cleared once resolved so long
    /// in-order chains do not accumulate.
    deps: Vec<Event>,
    /// Ordering-only predecessors (the implicit previous command of an
    /// in-order queue): this event runs after them but does **not**
    /// inherit their errors — a failed command leaves its queue usable,
    /// as in the synchronous API.
    order_deps: Vec<Event>,
    watchers: Vec<Watcher>,
    stamps: TimelineStamps,
    wall: Duration,
    output: CommandOutput,
}

pub(crate) struct EventInner {
    id: u64,
    kind: CommandKind,
    /// Whether the owning queue had profiling enabled at enqueue time —
    /// OpenCL's `CL_QUEUE_PROFILING_ENABLE` is sampled per command.
    profiled: bool,
    /// The request the command belongs to, captured from the enqueueing
    /// thread's ambient [`crate::obs`] trace. Immutable after creation;
    /// dispatcher workers re-establish it while executing the command so
    /// spans emitted mid-execution tag themselves with the right request.
    trace: Option<crate::obs::TraceId>,
    state: Mutex<EventState>,
    cond: Condvar,
}

/// A shared handle to one command's execution state (see module docs).
#[derive(Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    fn with_status(
        kind: CommandKind,
        status: EventStatus,
        deps: Vec<Event>,
        order_deps: Vec<Event>,
        profiled: bool,
    ) -> Event {
        Event {
            inner: Arc::new(EventInner {
                id: NEXT_EVENT_ID.fetch_add(1, Ordering::Relaxed),
                kind,
                profiled,
                trace: crate::obs::current_trace(),
                state: Mutex::new(EventState {
                    status,
                    error: None,
                    deps,
                    order_deps,
                    watchers: Vec::new(),
                    stamps: TimelineStamps::default(),
                    wall: Duration::ZERO,
                    output: CommandOutput::default(),
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// A fresh event for a command entering a queue. `deps` is the
    /// explicit wait list (error-poisoning); `order_deps` are
    /// ordering-only predecessors. `profiled` records whether the queue's
    /// profiling flag was set at enqueue time.
    pub(crate) fn new_command(
        kind: CommandKind,
        deps: Vec<Event>,
        order_deps: Vec<Event>,
        profiled: bool,
    ) -> Event {
        Event::with_status(kind, EventStatus::Queued, deps, order_deps, profiled)
    }

    /// Create a user event (`clCreateUserEvent`): it stays `Submitted`
    /// until the host resolves it, and commands whose wait lists contain it
    /// do not run before then.
    pub fn user() -> Event {
        Event::with_status(
            CommandKind::User,
            EventStatus::Submitted,
            Vec::new(),
            Vec::new(),
            false,
        )
    }

    /// Unique id of this event.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// What the command was.
    pub fn kind(&self) -> CommandKind {
        self.inner.kind
    }

    /// The request this command belongs to — the [`crate::obs`] trace id
    /// that was ambient on the enqueueing thread, if any.
    pub fn trace(&self) -> Option<crate::obs::TraceId> {
        self.inner.trace
    }

    /// Current lifecycle status.
    pub fn status(&self) -> EventStatus {
        lock(&self.inner.state).status
    }

    /// The error the command finished with, if any. `None` while
    /// unresolved or when complete.
    pub fn error(&self) -> Option<Error> {
        lock(&self.inner.state).error.clone()
    }

    /// Host wall-clock time the *simulation* of the command took (zero
    /// until the command ran). This is the simulator's own cost, not the
    /// modeled device cost.
    pub fn wall_time(&self) -> Duration {
        lock(&self.inner.state).wall
    }

    /// Modeled device/interconnect time in seconds — the counterpart of
    /// `CL_PROFILING_COMMAND_END - CL_PROFILING_COMMAND_START`. Zero until
    /// the command resolves.
    pub fn modeled_seconds(&self) -> f64 {
        let st = lock(&self.inner.state);
        st.stamps.ended - st.stamps.started
    }

    /// The four profiling timestamps on the modeled device timeline.
    pub fn profile(&self) -> TimelineStamps {
        lock(&self.inner.state).stamps
    }

    /// OpenCL-style profiling info: the four timestamps, available only
    /// when the owning queue had profiling enabled at enqueue time **and**
    /// the command completed — otherwise the OpenCL
    /// `CL_PROFILING_INFO_NOT_AVAILABLE` analogue, [`Error::InvalidOperation`].
    /// (The raw [`Event::profile`] stamps stay readable regardless, like a
    /// debugger; this is the conformant API surface.)
    pub fn profiling_info(&self) -> Result<TimelineStamps> {
        if !self.inner.profiled {
            return Err(Error::InvalidOperation(
                "profiling information is not available: the queue was created without \
                 profiling enabled"
                    .into(),
            ));
        }
        let st = lock(&self.inner.state);
        if st.status != EventStatus::Complete {
            return Err(Error::InvalidOperation(
                "profiling information is not available until the command completes".into(),
            ));
        }
        Ok(st.stamps)
    }

    /// Was the owning queue's profiling flag set when this command was
    /// enqueued?
    pub fn is_profiled(&self) -> bool {
        self.inner.profiled
    }

    /// Detailed timing breakdown (kernel launches only; `None` until the
    /// launch completes).
    pub fn kernel_timing(&self) -> Option<TimingBreakdown> {
        lock(&self.inner.state).output.kernel_timing
    }

    /// Simulated hardware counters of a kernel launch. `None` until the
    /// launch completes, and for commands enqueued without profiling.
    pub fn counters(&self) -> Option<LaunchCounters> {
        lock(&self.inner.state).output.counters.clone()
    }

    /// Bytes moved and direction, for transfer/copy commands. `None` until
    /// the command completes.
    pub fn transfer_info(&self) -> Option<TransferInfo> {
        lock(&self.inner.state).output.transfer
    }

    /// Display label (the kernel name, for launches).
    pub fn label(&self) -> Option<String> {
        lock(&self.inner.state).output.label.clone()
    }

    /// Block until the event resolves. `Ok(())` on completion; the
    /// command's error (with any `DependencyFailed` chain intact) if it
    /// failed.
    ///
    /// Waiting on a user event that the host never resolves blocks
    /// forever, exactly as in OpenCL.
    pub fn wait(&self) -> Result<()> {
        let mut st = lock(&self.inner.state);
        while !matches!(st.status, EventStatus::Complete | EventStatus::Error) {
            st = self
                .inner
                .cond
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match &st.error {
            None => Ok(()),
            Some(e) => Err(e.clone()),
        }
    }

    /// Complete a user event (`clSetUserEventStatus(ev, CL_COMPLETE)`).
    /// Errors on non-user or already-resolved events.
    pub fn set_complete(&self) -> Result<()> {
        self.user_resolve(None)
    }

    /// Fail a user event; commands waiting on it are poisoned with
    /// `DependencyFailed { cause: error }`.
    pub fn set_error(&self, error: Error) -> Result<()> {
        self.user_resolve(Some(error))
    }

    /// Chain this user event onto `targets`: it completes when all of them
    /// complete, or fails with the first target's error. Rejects chains
    /// that would make this event (transitively) wait on itself with
    /// [`Error::DependencyCycle`] — in real OpenCL that enqueue deadlocks.
    pub fn set_complete_on(&self, targets: &[Event]) -> Result<()> {
        if self.kind() != CommandKind::User {
            return Err(Error::InvalidOperation(
                "set_complete_on is only valid on user events".into(),
            ));
        }
        if reaches(targets, self) {
            return Err(Error::DependencyCycle(format!(
                "user event {} would wait on itself",
                self.id()
            )));
        }
        {
            let mut st = lock(&self.inner.state);
            if matches!(st.status, EventStatus::Complete | EventStatus::Error) {
                return Err(Error::InvalidOperation(
                    "user event already resolved".into(),
                ));
            }
            st.deps.extend(targets.iter().cloned());
        }
        if targets.is_empty() {
            return self.set_complete();
        }
        let gate = ChainGate::new(targets.len());
        for t in targets {
            let watcher = Watcher::Chain {
                event: Arc::downgrade(&self.inner),
                gate: Arc::clone(&gate),
            };
            if let Some(outcome) = t.watch_or_arrive(watcher, &gate) {
                // every target was already resolved
                finish_chain(self, outcome);
            }
        }
        Ok(())
    }

    /// Host-side resolution shared by `set_complete`/`set_error`.
    fn user_resolve(&self, error: Option<Error>) -> Result<()> {
        if self.kind() != CommandKind::User {
            return Err(Error::InvalidOperation(
                "only user events can be resolved from the host".into(),
            ));
        }
        let (watchers, final_error) = {
            let mut st = lock(&self.inner.state);
            if matches!(st.status, EventStatus::Complete | EventStatus::Error) {
                return Err(Error::InvalidOperation(
                    "user event already resolved".into(),
                ));
            }
            st.status = if error.is_some() {
                EventStatus::Error
            } else {
                EventStatus::Complete
            };
            st.error = error.clone();
            st.deps.clear();
            st.order_deps.clear();
            self.inner.cond.notify_all();
            (std::mem::take(&mut st.watchers), error)
        };
        fire_watchers(watchers, final_error);
        Ok(())
    }

    // ---- dispatcher-side plumbing (crate-private) ----

    /// Status advance without resolution (Queued→Submitted→Running).
    pub(crate) fn advance(&self, status: EventStatus) {
        let mut st = lock(&self.inner.state);
        st.status = status;
        self.inner.cond.notify_all();
    }

    /// Resolve as complete with final stamps and the work's output.
    pub(crate) fn resolve_complete(
        &self,
        stamps: TimelineStamps,
        wall: Duration,
        output: CommandOutput,
    ) {
        self.resolve(None, stamps, wall, output);
    }

    /// Resolve as failed.
    pub(crate) fn resolve_error(&self, error: Error, stamps: TimelineStamps, wall: Duration) {
        self.resolve(Some(error), stamps, wall, CommandOutput::default());
    }

    fn resolve(
        &self,
        error: Option<Error>,
        stamps: TimelineStamps,
        wall: Duration,
        output: CommandOutput,
    ) {
        let (watchers, final_error) = {
            let mut st = lock(&self.inner.state);
            debug_assert!(
                !matches!(st.status, EventStatus::Complete | EventStatus::Error),
                "event resolved twice"
            );
            st.status = if error.is_some() {
                EventStatus::Error
            } else {
                EventStatus::Complete
            };
            st.error = error.clone();
            st.stamps = stamps;
            st.wall = wall;
            st.output = output;
            st.deps.clear();
            st.order_deps.clear();
            self.inner.cond.notify_all();
            (std::mem::take(&mut st.watchers), error)
        };
        fire_watchers(watchers, final_error);
    }

    /// True once Complete or Error.
    pub(crate) fn is_resolved(&self) -> bool {
        matches!(self.status(), EventStatus::Complete | EventStatus::Error)
    }

    /// Snapshot of every dependency: wait list plus ordering-only
    /// predecessors. Readiness, ready-time and cycle detection use this.
    pub(crate) fn deps_snapshot(&self) -> Vec<Event> {
        let st = lock(&self.inner.state);
        st.deps.iter().chain(&st.order_deps).cloned().collect()
    }

    /// Snapshot of the error-poisoning wait-list dependencies only.
    pub(crate) fn poison_deps_snapshot(&self) -> Vec<Event> {
        lock(&self.inner.state).deps.clone()
    }

    /// Register `watcher` unless already resolved. For chain watchers on a
    /// resolved target, accounts the arrival instead and returns the chain
    /// outcome if this was the last target.
    pub(crate) fn watch_or_arrive(
        &self,
        watcher: Watcher,
        gate: &ChainGate,
    ) -> Option<Option<Error>> {
        let mut st = lock(&self.inner.state);
        if matches!(st.status, EventStatus::Complete | EventStatus::Error) {
            let err = st.error.clone();
            drop(st);
            gate.arrive(err)
        } else {
            st.watchers.push(watcher);
            None
        }
    }

    /// Register a dispatcher to be notified on resolution. Returns `false`
    /// (nothing registered) when already resolved.
    pub(crate) fn notify_sched_on_resolve(&self, sched: &Arc<DeviceSched>) -> bool {
        let mut st = lock(&self.inner.state);
        if matches!(st.status, EventStatus::Complete | EventStatus::Error) {
            false
        } else {
            st.watchers.push(Watcher::Sched(Arc::downgrade(sched)));
            true
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id())
            .field("kind", &self.kind())
            .field("status", &self.status())
            .finish()
    }
}

/// Fire resolution notifications outside the event lock. `target_error` is
/// the error the resolving event finished with, if any — chain gates use
/// it to decide whether the chained user event fails.
fn fire_watchers(watchers: Vec<Watcher>, target_error: Option<Error>) {
    for w in watchers {
        match w {
            Watcher::Sched(sched) => {
                if let Some(s) = sched.upgrade() {
                    s.nudge();
                }
            }
            Watcher::Chain { event, gate } => {
                if let Some(inner) = event.upgrade() {
                    let ev = Event { inner };
                    if let Some(outcome) = gate.arrive(target_error.clone()) {
                        finish_chain(&ev, outcome);
                    }
                }
            }
        }
    }
}

/// Resolve a chained user event once all its targets arrived.
fn finish_chain(ev: &Event, first_error: Option<Error>) {
    let result = match first_error {
        None => ev.set_complete(),
        Some(e) => ev.set_error(Error::DependencyFailed { cause: Box::new(e) }),
    };
    // a concurrent host call may have resolved it already; that is fine
    let _ = result;
}

/// DFS over event dependencies: can `needle` be reached from `roots`?
/// Used for cycle detection before wiring new dependencies.
pub(crate) fn reaches(roots: &[Event], needle: &Event) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<Event> = roots.to_vec();
    while let Some(ev) = stack.pop() {
        if ev.id() == needle.id() {
            return true;
        }
        if seen.insert(ev.id()) {
            stack.extend(ev.deps_snapshot());
        }
    }
    false
}

/// Block until every event in `events` resolves; first error wins
/// (`clWaitForEvents`).
pub fn wait_for_events(events: &[Event]) -> Result<()> {
    let mut first_error = None;
    for ev in events {
        if let Err(e) = ev.wait() {
            first_error.get_or_insert(e);
        }
    }
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}
