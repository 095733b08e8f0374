//! Asynchronous event-graph command scheduling.
//!
//! This module is the engine behind [`crate::CommandQueue`]: commands are
//! enqueued **without blocking**, each returning an [`Event`] handle;
//! dependencies are expressed as wait lists of events; a per-device
//! dispatcher thread drains the ready set of the resulting DAG; and a
//! modeled resource timeline (compute-unit pool + DMA engine per device)
//! assigns every command overlapping-capable `queued`/`submitted`/
//! `started`/`ended` profiling stamps.
//!
//! The pieces:
//!
//! - [`event`] — the shared, waitable [`Event`] with the OpenCL status
//!   ladder, user events, chaining, and poisoning of dependents when a
//!   dependency fails.
//! - `timeline` — the per-device engine-availability clocks that turn a
//!   DAG of modeled durations into overlapping start/end stamps.
//! - [`dispatcher`] — the per-device worker that executes ready commands
//!   functionally (serially, for the simulator's correctness) while
//!   stamping them on the modeled timeline (concurrently, for the model's
//!   fidelity).

pub mod dispatcher;
pub mod event;
pub(crate) mod timeline;

pub use dispatcher::DeviceSched;
pub use event::{wait_for_events, CommandKind, Event, EventStatus, TimelineStamps};
