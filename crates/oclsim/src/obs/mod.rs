//! Request-scoped causal tracing plus an always-on flight recorder.
//!
//! The serve subsystem (`crate::serve`) routes every tenant request
//! through admission, the shared binary cache, the async scheduler and
//! the execution backends — this module ties one request to its full
//! journey. Three pieces:
//!
//! * **[`TraceId`]** — minted per tenant submission, *deterministically*:
//!   a hash of the tenant name plus that tenant's submission sequence
//!   number within its service. The id therefore depends only on the
//!   workload, never on wall clock, thread ids, interleaving or what
//!   other services in the process did, which is what lets
//!   `crates/bench/tests/sink_matrix.rs` compare whole trace renderings
//!   across claimer counts and engines in one process.
//!
//! * **[`Request`]** — a per-request span-tree builder owned by the
//!   request path itself (no hidden thread-local tree state). The serve
//!   layer creates one per submission and attaches child nodes as the
//!   request moves through admission → cache → sched → partition chunks
//!   → exec launches; the finished [`RequestTrace`] feeds, on failure,
//!   the postmortem dump ([`Postmortem`]) and, while a reader holds a
//!   [`collect_request_traces`] guard, per-tenant latency breakdowns. A
//!   success nobody reads is never assembled or kept, so a program
//!   that never drains the sink retains nothing per request. A
//!   thread-local *current trace id* (set via
//!   [`Request::thread_guard`], re-set by the dispatcher on whichever
//!   worker runs a traced command) tags enqueued events
//!   ([`crate::sched::Event::trace`]) and every telemetry span opened
//!   while the request is live — including the `exec` launch span of
//!   both the `ref` and `wg` backends — stitching the span layer and the
//!   modeled device stamps into one causal tree.
//!
//! * **The flight recorder** ([`TenantObs`], [`recorder::FlightRing`]) —
//!   always on, bounded, O(1) per event: the last
//!   [`recorder::RING_CAPACITY`] structured events per tenant. Events
//!   are recorded **only from the request thread** (never from
//!   dispatcher workers), so the ring content for a given workload is a
//!   pure function of that workload modulo the wall-clock field each
//!   event carries — the canonical renderings simply omit it.
//!
//! Determinism rules, shared by every exporter here:
//! 1. a trace id is a function of (service, tenant, seq): each
//!    `serve::Service` owns its tenants' [`TenantObs`], so a tenant's
//!    sequence restarts at 1 in every service and never comes from a
//!    process-wide counter, a thread id or a clock;
//! 2. ring events and tree nodes are created on the request thread in
//!    program order;
//! 3. modeled seconds (pure functions of the workload) are rendered,
//!    wall-clock fields are rendered only in non-canonical mode.

pub mod postmortem;
pub mod recorder;

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::error::{Error, Result};
use crate::lock;
use crate::sched::Event;

pub use postmortem::{
    error_chain, push_postmortem, take_postmortems, CacheState, Postmortem, QuotaState,
};
pub use recorder::{ObsEvent, RING_CAPACITY};

/// FNV-1a over the tenant name, truncated to 32 bits — the stable half
/// of every [`TraceId`] the tenant mints.
fn tenant_hash(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// Identity of one tenant request, correlating every span, ring event
/// and metric exemplar the request produced. Deterministic: the tenant
/// name hash plus the tenant's own submission sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId {
    hash: u32,
    seq: u32,
}

impl TraceId {
    /// The per-tenant submission sequence number (first request = 1).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Packed form for lock-free storage (histogram exemplars). Zero is
    /// never a valid packed id: sequence numbers start at 1.
    pub fn pack(&self) -> u64 {
        ((self.hash as u64) << 32) | self.seq as u64
    }

    /// Inverse of [`TraceId::pack`]; `None` for the zero sentinel.
    pub fn unpack(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            return None;
        }
        Some(TraceId {
            hash: (raw >> 32) as u32,
            seq: raw as u32,
        })
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:08x}-{:03}", self.hash, self.seq)
    }
}

/// Per-tenant observability state: the trace-id mint and the tenant's
/// flight-recorder ring. Each `serve::Service` keeps one per tenant beside
/// its admission bookkeeping, so ids and ring contents never depend on
/// other services in the process.
pub struct TenantObs {
    name: String,
    hash: u32,
    next_seq: AtomicU32,
    ring: recorder::FlightRing,
}

impl TenantObs {
    /// Fresh state for `tenant`: its first minted id has sequence 1.
    pub fn new(tenant: &str) -> TenantObs {
        TenantObs {
            name: tenant.to_string(),
            hash: tenant_hash(tenant),
            next_seq: AtomicU32::new(0),
            ring: recorder::FlightRing::new(RING_CAPACITY),
        }
    }

    /// The tenant this state belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mint the tenant's next [`TraceId`].
    pub fn mint(&self) -> TraceId {
        TraceId {
            hash: self.hash,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// Record one structured event into the tenant's flight ring.
    pub fn record(&self, trace: Option<TraceId>, stage: &'static str, detail: &str) {
        self.ring.record(trace, stage, detail);
    }

    /// The last up-to-[`RING_CAPACITY`] events, oldest first.
    pub fn tail(&self) -> Vec<ObsEvent> {
        self.ring.tail()
    }
}

// --- the thread-local current trace id ---

thread_local! {
    static CURRENT: Cell<Option<TraceId>> = const { Cell::new(None) };
}

/// The trace id of the request this thread is currently working for:
/// the request thread inside a [`Request::thread_guard`] scope, or a
/// dispatcher worker while it runs a traced command.
pub fn current_trace() -> Option<TraceId> {
    CURRENT.with(Cell::get)
}

/// RAII guard of [`current_trace`]; restores the previous value on drop
/// (scopes nest, e.g. a facade request enqueueing through the serve
/// layer).
pub struct ThreadTraceGuard {
    prev: Option<TraceId>,
}

/// Set this thread's current trace id for the guard's lifetime.
pub fn thread_trace(trace: TraceId) -> ThreadTraceGuard {
    ThreadTraceGuard {
        prev: CURRENT.with(|c| c.replace(Some(trace))),
    }
}

impl Drop for ThreadTraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

// --- the per-request span tree ---

/// Index of a node within one [`Request`]'s tree.
pub type NodeId = usize;

/// One node of a finished request's span tree.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Pipeline stage, e.g. `session.submit`, `admission`,
    /// `cache.lookup`, `sched.dma`, `sched.enqueue`, `partition.chunk`,
    /// `exec.launch`.
    pub stage: &'static str,
    /// Free-form detail (kernel name, group span, hit/miss, bytes, ...).
    pub detail: String,
    /// Modeled seconds the stage occupied a device resource, when it
    /// shadows a timeline reservation. A pure function of the workload.
    pub modeled_seconds: Option<f64>,
    /// The error that failed this stage, if any (rendered `Display`).
    pub error: Option<String>,
    /// Child stages in creation order.
    pub children: Vec<TraceNode>,
}

struct RawNode {
    parent: Option<NodeId>,
    stage: &'static str,
    detail: String,
    modeled_seconds: Option<f64>,
    error: Option<String>,
}

/// Span-tree builder for one in-flight tenant request (see module docs).
/// Created by the serve layer per submission; every mutation happens on
/// whichever thread drives the request, in program order, so the
/// finished tree is deterministic.
pub struct Request {
    trace: TraceId,
    tenant: Arc<TenantObs>,
    nodes: Vec<RawNode>,
    started: Instant,
}

impl Request {
    /// Mint a trace id for a new request of `tenant` and open its root
    /// `session.submit` node (also the first ring event).
    pub fn begin(tenant: &Arc<TenantObs>, detail: impl Into<String>) -> Request {
        let trace = tenant.mint();
        let detail = detail.into();
        tenant.record(Some(trace), "session.submit", &detail);
        Request {
            trace,
            tenant: Arc::clone(tenant),
            nodes: vec![RawNode {
                parent: None,
                stage: "session.submit",
                detail,
                modeled_seconds: None,
                error: None,
            }],
            started: Instant::now(),
        }
    }

    /// This request's trace id.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The root node (`session.submit`).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Set the calling thread's current trace to this request (tags
    /// spans and enqueued events until the guard drops).
    pub fn thread_guard(&self) -> ThreadTraceGuard {
        thread_trace(self.trace)
    }

    /// Append a child stage under `parent`; also records a ring event.
    pub fn child(
        &mut self,
        parent: NodeId,
        stage: &'static str,
        detail: impl Into<String>,
    ) -> NodeId {
        let detail = detail.into();
        self.tenant.record(Some(self.trace), stage, &detail);
        self.nodes.push(RawNode {
            parent: Some(parent),
            stage,
            detail,
            modeled_seconds: None,
            error: None,
        });
        self.nodes.len() - 1
    }

    /// Attach the modeled duration of `node`.
    pub fn set_modeled(&mut self, node: NodeId, seconds: f64) {
        self.nodes[node].modeled_seconds = Some(seconds);
    }

    /// Wait for the kernel launch `event` enqueued under the `sched.enqueue`
    /// node `sched`. A failed launch marks that node. A completed one sets
    /// its modeled seconds and adds an `exec.launch` child built from the
    /// event's modeled data on the request thread — identical for both
    /// exec backends — and returns those seconds.
    pub fn wait_launch(&mut self, sched: NodeId, event: &Event) -> Result<f64> {
        if let Err(e) = event.wait() {
            self.set_error(sched, &e);
            return Err(e);
        }
        let kernel = event.label().unwrap_or_default();
        let (modeled, instrs) = launch_cost(event);
        self.set_modeled(sched, modeled);
        let detail = match instrs {
            Some(n) => format!("kernel `{kernel}`: {n} instrs"),
            None => format!("kernel `{kernel}`"),
        };
        let launch = self.child(sched, "exec.launch", detail);
        self.set_modeled(launch, modeled);
        Ok(modeled)
    }

    /// Mark `node` failed with `err` (also records a ring event with the
    /// full rendered error).
    pub fn set_error(&mut self, node: NodeId, err: &Error) {
        let rendered = err.to_string();
        self.tenant.record(Some(self.trace), "error", &rendered);
        self.nodes[node].error = Some(rendered);
    }

    /// Host wall seconds since the request began — the one clock of a
    /// request, read by its latency figures and its finished trace.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Close a request that succeeded. Its span tree is assembled only
    /// while a [`collect_request_traces`] guard is alive, and then pushed
    /// into the completed sink and returned; without a reader nothing
    /// is built or kept, so a program that never drains the sink (any
    /// plain `hpl` eval loop) retains nothing per request.
    pub fn finish(self) -> Option<RequestTrace> {
        collecting().then(|| self.close(false))
    }

    /// Close a request that failed with `err`: mark the root node, and
    /// always assemble the span tree (the postmortem dump reads it). It
    /// joins the completed sink only while a reader is attached.
    pub fn fail(mut self, err: &Error) -> RequestTrace {
        let root = self.root();
        self.set_error(root, err);
        self.close(true)
    }

    fn close(self, failed: bool) -> RequestTrace {
        let wall_seconds = self.elapsed_seconds();
        // Assemble children back-to-front: a child's index is always
        // greater than its parent's, so draining from the back hands
        // every node to an already-materialized parent slot.
        let mut built: Vec<Option<TraceNode>> = self
            .nodes
            .iter()
            .map(|n| {
                Some(TraceNode {
                    stage: n.stage,
                    detail: n.detail.clone(),
                    modeled_seconds: n.modeled_seconds,
                    error: n.error.clone(),
                    children: Vec::new(),
                })
            })
            .collect();
        for i in (1..self.nodes.len()).rev() {
            let node = built[i].take().expect("node not yet attached");
            let parent = self.nodes[i].parent.expect("non-root has a parent");
            built[parent]
                .as_mut()
                .expect("parent index is smaller")
                .children
                .push(node);
        }
        let mut root = built[0].take().expect("root exists");
        fn unreverse(n: &mut TraceNode) {
            n.children.reverse();
            for c in &mut n.children {
                unreverse(c);
            }
        }
        unreverse(&mut root);
        let trace = RequestTrace {
            trace: self.trace,
            tenant: self.tenant.name.clone(),
            root,
            wall_seconds,
            failed,
        };
        if collecting() {
            COMPLETED.push(trace.clone());
        }
        trace
    }
}

/// The modeled seconds and instruction count of a resolved kernel launch:
/// the timing breakdown's pure device duration, not a difference of
/// absolute timeline stamps — the latter loses different ulps as the
/// device timeline advances, which would make reruns disagree in the last
/// digit. A launch without a breakdown falls back to its stamps.
pub(crate) fn launch_cost(event: &Event) -> (f64, Option<u64>) {
    match event.kernel_timing() {
        Some(t) => (t.device_seconds, Some(t.totals.instructions)),
        None => (event.modeled_seconds(), None),
    }
}

/// The finished span tree of one tenant request.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The request's trace id (on every rendered node).
    pub trace: TraceId,
    /// The owning tenant.
    pub tenant: String,
    /// Root of the span tree (`session.submit`).
    pub root: TraceNode,
    /// Host wall seconds from submission to completion — non-canonical;
    /// excluded from canonical renderings.
    pub wall_seconds: f64,
    /// Whether the request ended in an error.
    pub failed: bool,
}

impl RequestTrace {
    /// Render the span tree, one node per line, each carrying the trace
    /// id. `canonical` omits every wall-clock-valued field.
    pub fn render(&self, canonical: bool) -> String {
        let mut out = String::new();
        self.render_node(&self.root, 0, &mut out);
        if !canonical {
            out.push_str(&format!("  (wall {:.6}s)\n", self.wall_seconds));
        }
        out
    }

    fn render_node(&self, node: &TraceNode, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{} [{}]: {}", node.stage, self.trace, node.detail));
        if let Some(s) = node.modeled_seconds {
            out.push_str(&format!(" ~modeled {s:.9}s"));
        }
        if let Some(e) = &node.error {
            out.push_str(&format!(" !error: {e}"));
        }
        out.push('\n');
        for c in &node.children {
            self.render_node(c, depth + 1, out);
        }
    }

    /// Depth-first list of the nodes with `stage` (postmortem sections
    /// like the partition assignment are derived this way).
    pub fn nodes_with_stage(&self, stage: &str) -> Vec<&TraceNode> {
        let mut found = Vec::new();
        fn walk<'a>(n: &'a TraceNode, stage: &str, found: &mut Vec<&'a TraceNode>) {
            if n.stage == stage {
                found.push(n);
            }
            for c in &n.children {
                walk(c, stage, found);
            }
        }
        walk(&self.root, stage, &mut found);
        found
    }
}

// --- the process-wide sinks ---

/// A process-wide sink that keeps the newest `capacity` items: a push
/// onto a full sink drops the oldest in O(1).
pub(crate) struct BoundedFifo<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> BoundedFifo<T> {
    pub(crate) const fn new(capacity: usize) -> BoundedFifo<T> {
        BoundedFifo {
            items: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    pub(crate) fn push(&self, item: T) {
        let mut items = lock(&self.items);
        if items.len() >= self.capacity {
            items.pop_front();
        }
        items.push_back(item);
    }

    /// Take everything pushed since the last drain, oldest first.
    pub(crate) fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *lock(&self.items)).into()
    }
}

/// Completed traces kept before the oldest is dropped; large enough for
/// a full soak run, bounded so the sink can never grow without limit.
static COMPLETED: BoundedFifo<RequestTrace> = BoundedFifo::new(1 << 16);

/// Live [`collect_request_traces`] guards.
static READERS: AtomicUsize = AtomicUsize::new(0);

fn collecting() -> bool {
    READERS.load(Ordering::Relaxed) > 0
}

/// RAII guard of [`collect_request_traces`].
#[must_use = "traces are collected only while the guard lives"]
pub struct TraceCollector(());

impl Drop for TraceCollector {
    fn drop(&mut self) {
        READERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Attach a reader of the completed sink: until the guard drops, every
/// request that finishes, in any thread, is assembled and kept for
/// [`drain_request_traces`]. Guards nest and may overlap.
pub fn collect_request_traces() -> TraceCollector {
    READERS.fetch_add(1, Ordering::Relaxed);
    TraceCollector(())
}

/// Take every completed request trace recorded since the last drain
/// (only requests that finished while a [`collect_request_traces`]
/// guard was alive are there).
pub fn drain_request_traces() -> Vec<RequestTrace> {
    COMPLETED.drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_per_tenant() {
        let a = TenantObs::new("obs-mint-alpha");
        let b = TenantObs::new("obs-mint-beta");
        let a1 = a.mint();
        let b1 = b.mint();
        let a2 = a.mint();
        assert_eq!(a1.seq(), 1);
        assert_eq!(a2.seq(), 2);
        assert_eq!(b1.seq(), 1);
        // the tenant-name hash half is stable across mints
        assert_eq!(a1.to_string()[..9], a2.to_string()[..9]);
        assert_ne!(a1.to_string()[..9], b1.to_string()[..9]);
        // the same tenant in another service starts over: same first id
        assert_eq!(TenantObs::new("obs-mint-alpha").mint(), a1);
        assert_eq!(TraceId::unpack(a1.pack()), Some(a1));
        assert_eq!(TraceId::unpack(0), None);
    }

    #[test]
    fn thread_trace_guard_nests_and_restores() {
        assert_eq!(current_trace(), None);
        let t = TenantObs::new("obs-guard");
        let outer = t.mint();
        let inner = t.mint();
        {
            let _a = thread_trace(outer);
            assert_eq!(current_trace(), Some(outer));
            {
                let _b = thread_trace(inner);
                assert_eq!(current_trace(), Some(inner));
            }
            assert_eq!(current_trace(), Some(outer));
        }
        assert_eq!(current_trace(), None);
    }

    /// The tests that attach a reader: "no reader" only holds while none
    /// of them runs.
    static READER_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn request_tree_assembles_in_creation_order() {
        let _serial = lock(&READER_TESTS);
        let _reader = collect_request_traces();
        let t = Arc::new(TenantObs::new("obs-tree"));
        let mut req = Request::begin(&t, "submit kernel `k`");
        let root = req.root();
        let adm = req.child(root, "admission", "ok");
        let sched = req.child(root, "sched.enqueue", "kernel `k`");
        let _launch = req.child(sched, "exec.launch", "groups 0..4");
        req.set_modeled(sched, 1.5e-6);
        let _ = adm;
        let trace = req.finish().expect("a reader is attached");
        assert_eq!(trace.root.stage, "session.submit");
        assert_eq!(trace.root.children.len(), 2);
        assert_eq!(trace.root.children[0].stage, "admission");
        assert_eq!(trace.root.children[1].stage, "sched.enqueue");
        assert_eq!(trace.root.children[1].children[0].stage, "exec.launch");
        assert_eq!(trace.root.children[1].modeled_seconds, Some(1.5e-6));
        // every rendered line carries the trace id
        let rendered = trace.render(true);
        for line in rendered.lines() {
            assert!(
                line.contains(&trace.trace.to_string()),
                "node line missing trace id: {line}"
            );
        }
        assert!(
            !rendered.contains("wall"),
            "canonical render has wall: {rendered}"
        );
        assert!(trace.render(false).contains("wall"));
    }

    #[test]
    fn finished_traces_are_kept_only_while_a_reader_is_attached() {
        let _serial = lock(&READER_TESTS);
        let t = Arc::new(TenantObs::new("obs-retention"));
        let ours = |traces: Vec<RequestTrace>| {
            traces
                .into_iter()
                .filter(|r| r.tenant == "obs-retention")
                .map(|r| (r.trace.seq(), r.failed))
                .collect::<Vec<_>>()
        };
        // no reader: a success builds and keeps nothing, a failure still
        // assembles its tree for the postmortem but is not kept either
        for _ in 0..3 {
            assert!(Request::begin(&t, "unread").finish().is_none());
        }
        let failed =
            Request::begin(&t, "unread failure").fail(&Error::InvalidOperation("x".into()));
        assert!(failed.failed && failed.root.error.is_some());
        assert_eq!(ours(drain_request_traces()), vec![]);
        // a reader: every finished request is kept, in order
        {
            let _reader = collect_request_traces();
            for _ in 0..3 {
                assert!(Request::begin(&t, "read").finish().is_some());
            }
            Request::begin(&t, "read failure").fail(&Error::InvalidOperation("y".into()));
        }
        let kept = ours(drain_request_traces());
        assert_eq!(kept, vec![(5, false), (6, false), (7, false), (8, true)]);
        // and the guard's drop detached it again
        assert!(Request::begin(&t, "unread again").finish().is_none());
    }

    #[test]
    fn bounded_fifo_drops_the_oldest_once_full() {
        let fifo = BoundedFifo::new(3);
        for i in 0..5 {
            fifo.push(i);
        }
        assert_eq!(fifo.drain(), vec![2, 3, 4]);
        assert!(fifo.drain().is_empty());
        fifo.push(7);
        assert_eq!(fifo.drain(), vec![7]);
    }
}
