//! The bounded per-tenant flight-recorder ring.
//!
//! A [`FlightRing`] keeps the last N structured events a tenant's
//! request path emitted. Recording is O(1): one lock-free `fetch_add`
//! claims a slot index and a per-slot lock (uncontended in practice —
//! the writer set is the tenant's request thread) publishes the event.
//! There is no global lock and no blocking reader path
//! ([`FlightRing::tail`] snapshots slot by slot), and each slot copies the
//! detail into its own buffer, so the ring allocates only until every
//! buffer fits its details: it keeps no short-lived strings alive between
//! the large allocations of the launches it records.
//!
//! Determinism: events carry a per-ring sequence number assigned in
//! claim order. Because the serve layer records only from the thread
//! driving the request (dispatcher workers never write the ring), the
//! sequence — and therefore the tail content — is a pure function of
//! the tenant's workload; only the `wall_us` stamp is wall-clock-valued,
//! and canonical renderings omit it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use super::TraceId;

use crate::lock;

/// Events retained per tenant. Sized so a full partitioned submission
/// (admission + per-device cache lookups + uploads + a few dozen chunks)
/// fits in the tail with room for the preceding request.
pub const RING_CAPACITY: usize = 64;

/// One structured flight-recorder event.
#[derive(Debug, Clone)]
pub struct ObsEvent {
    /// Per-ring monotonic sequence number (0-based, claim order).
    pub seq: u64,
    /// The request the event belongs to, when one was active.
    pub trace: Option<TraceId>,
    /// Pipeline stage (same vocabulary as [`super::TraceNode::stage`]).
    pub stage: &'static str,
    /// Free-form detail.
    pub detail: String,
    /// Microseconds since the ring's first event — wall-clock-valued,
    /// rendered only in non-canonical mode.
    pub wall_us: f64,
}

/// Fixed-capacity ring of [`ObsEvent`]s (see module docs).
pub struct FlightRing {
    slots: Vec<Mutex<Option<ObsEvent>>>,
    next: AtomicU64,
    epoch: Instant,
}

impl FlightRing {
    /// A ring holding the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRing {
        FlightRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Record one event, overwriting the oldest once full.
    pub fn record(&self, trace: Option<TraceId>, stage: &'static str, detail: &str) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let wall_us = self.epoch.elapsed().as_secs_f64() * 1.0e6;
        let mut slot = lock(&self.slots[(seq as usize) % self.slots.len()]);
        let mut buffer = slot.take().map(|e| e.detail).unwrap_or_default();
        buffer.clear();
        buffer.push_str(detail);
        *slot = Some(ObsEvent {
            seq,
            trace,
            stage,
            detail: buffer,
            wall_us,
        });
    }

    /// Events recorded over the ring's lifetime (not just resident).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Snapshot the resident events, oldest first.
    pub fn tail(&self) -> Vec<ObsEvent> {
        let mut events: Vec<ObsEvent> = self.slots.iter().filter_map(|s| lock(s).clone()).collect();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_capacity_events_in_order() {
        let ring = FlightRing::new(4);
        for i in 0..10 {
            ring.record(None, "stage", &format!("event {i}"));
        }
        let tail = ring.tail();
        assert_eq!(ring.recorded(), 10);
        assert_eq!(tail.len(), 4);
        assert_eq!(
            tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(tail[0].detail, "event 6");
        assert_eq!(tail[3].detail, "event 9");
    }

    #[test]
    fn ring_events_keep_their_trace_ids() {
        let t = super::super::TenantObs::new("ring-trace-tenant");
        let id = t.mint();
        let ring = FlightRing::new(8);
        ring.record(Some(id), "admission", "ok");
        ring.record(None, "idle", "no request");
        let tail = ring.tail();
        assert_eq!(tail[0].trace, Some(id));
        assert_eq!(tail[1].trace, None);
    }
}
