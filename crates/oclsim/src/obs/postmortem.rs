//! Self-contained postmortem dumps for failed tenant requests.
//!
//! When a request ends in an error — a poisoned dependency chain, a
//! quota rejection, an admission rejection, a launch fault — the serve
//! layer assembles a [`Postmortem`]: the request's span tree, the
//! tenant's flight-recorder tail, the shared-cache and quota state at
//! the time of failure, the per-device partition assignment and the
//! launch counters (both derived from the span tree's `partition.chunk`
//! and `exec.launch` nodes). Dumps collect in a process-wide sink
//! ([`take_postmortems`]) and render either canonically (wall-clock
//! fields omitted — byte-identical across claimer counts, engines and
//! opt levels; `crates/bench/tests/sink_matrix.rs` compares them) or
//! fully, and export into a Chrome trace via [`Postmortem::chrome_trace`].

use std::fmt::Write as _;

use crate::error::Error;

use super::{BoundedFifo, ObsEvent, RequestTrace, TraceId, TraceNode};

/// Shared binary-cache state at the time of failure.
#[derive(Debug, Clone, Copy)]
pub struct CacheState {
    /// Resident binaries.
    pub resident: usize,
    /// Estimated resident bytes.
    pub resident_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Lifetime evictions.
    pub evictions: u64,
}

/// The failing tenant's quota usage at the time of failure. Limits are
/// `None` when the quota is unlimited.
#[derive(Debug, Clone, Copy)]
pub struct QuotaState {
    /// Launches admitted so far.
    pub launches: u64,
    /// Lifetime launch quota.
    pub max_launches: Option<u64>,
    /// Launches currently in flight.
    pub inflight: u64,
    /// Concurrent launch quota.
    pub max_inflight: Option<u64>,
    /// Source bytes compiled on cache misses so far.
    pub compile_bytes: u64,
    /// Compile-byte quota.
    pub max_compile_bytes: Option<u64>,
}

fn limit(l: Option<u64>) -> String {
    match l {
        Some(l) => l.to_string(),
        None => "unlimited".into(),
    }
}

/// One failed request's self-contained dump (see module docs).
#[derive(Debug, Clone)]
pub struct Postmortem {
    /// The failed request's trace id.
    pub trace: TraceId,
    /// The owning tenant.
    pub tenant: String,
    /// The causal error chain, outermost first (see [`error_chain`]).
    pub error_chain: Vec<String>,
    /// The request's span tree.
    pub request: RequestTrace,
    /// The tenant's flight-recorder tail, oldest first.
    pub recorder_tail: Vec<ObsEvent>,
    /// Shared-cache state at failure time.
    pub cache: CacheState,
    /// The tenant's quota usage at failure time.
    pub quota: QuotaState,
}

/// Flatten `err` into its causal chain, outermost error first, walking
/// [`Error::DependencyFailed`] and [`Error::AdmissionRejected`] links.
pub fn error_chain(err: &Error) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = err;
    loop {
        chain.push(cur.to_string());
        match cur {
            Error::DependencyFailed { cause } => cur = cause,
            Error::AdmissionRejected { cause, .. } => cur = cause,
            _ => break,
        }
    }
    chain
}

impl Postmortem {
    /// Render the dump. `canonical` omits every wall-clock-valued field,
    /// making the output a pure function of the workload.
    pub fn render(&self, canonical: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== postmortem {} tenant \"{}\" ==",
            self.trace, self.tenant
        );
        let _ = writeln!(out, "error chain:");
        for (i, e) in self.error_chain.iter().enumerate() {
            let _ = writeln!(out, "  {}. {e}", i + 1);
        }
        let _ = writeln!(out, "span tree:");
        for line in self.request.render(canonical).lines() {
            let _ = writeln!(out, "  {line}");
        }
        let chunks = self.request.nodes_with_stage("partition.chunk");
        if !chunks.is_empty() {
            let _ = writeln!(out, "partition assignment:");
            for c in chunks {
                let _ = write!(out, "  {}", c.detail);
                if let Some(s) = c.modeled_seconds {
                    let _ = write!(out, " ~modeled {s:.9}s");
                }
                if let Some(e) = &c.error {
                    let _ = write!(out, " !error: {e}");
                }
                out.push('\n');
            }
        }
        let launches = self.request.nodes_with_stage("exec.launch");
        if !launches.is_empty() {
            let _ = writeln!(out, "launch counters:");
            for l in launches {
                let _ = write!(out, "  {}", l.detail);
                if let Some(s) = l.modeled_seconds {
                    let _ = write!(out, " ~modeled {s:.9}s");
                }
                out.push('\n');
            }
        }
        let _ = writeln!(
            out,
            "flight recorder tail (tenant \"{}\", last {} events):",
            self.tenant,
            self.recorder_tail.len()
        );
        for e in &self.recorder_tail {
            let trace = e.trace.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
            let _ = write!(out, "  [{:>3}] {} {}: {}", e.seq, trace, e.stage, e.detail);
            if !canonical {
                let _ = write!(out, " @{:.1}us", e.wall_us);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "cache: {} resident binaries, {} of {} bytes, {} evictions",
            self.cache.resident,
            self.cache.resident_bytes,
            self.cache.capacity_bytes,
            self.cache.evictions
        );
        let _ = writeln!(
            out,
            "quota: launches {}/{}, inflight {}/{}, compile bytes {}/{}",
            self.quota.launches,
            limit(self.quota.max_launches),
            self.quota.inflight,
            limit(self.quota.max_inflight),
            self.quota.compile_bytes,
            limit(self.quota.max_compile_bytes)
        );
        out
    }

    /// Export the span tree as a self-contained Chrome trace (one `X`
    /// slice per node on a synthetic timeline built from the modeled
    /// durations), mergeable into the device trace via
    /// [`crate::prof::splice_chrome_events`]. Deterministic: no wall
    /// clock enters the output.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":9000,\"tid\":0,\
             \"args\":{{\"name\":\"postmortem {} ({})\"}}}}",
            self.trace,
            jesc(&self.tenant),
        );
        let mut events = String::new();
        emit_node(&self.request.root, self.trace, 0.0, &mut events);
        out.push(',');
        out.push_str(&events);
        out.push_str("],\n\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// The dump's Chrome-trace events alone (comma-joined JSON objects,
    /// no enclosing document) — what
    /// [`crate::prof::splice_chrome_events`] splices into a merged
    /// device trace.
    pub fn chrome_trace_events(&self) -> String {
        let mut events = String::new();
        emit_node(&self.request.root, self.trace, 0.0, &mut events);
        events
    }
}

/// A node's synthetic span in microseconds: its own modeled time or the
/// sum of its children's spans, floored at 1 µs so zero-cost stages stay
/// visible.
fn node_span_us(node: &TraceNode) -> f64 {
    let own = node.modeled_seconds.unwrap_or(0.0) * 1.0e6;
    let children: f64 = node.children.iter().map(node_span_us).sum();
    own.max(children).max(1.0)
}

fn emit_node(node: &TraceNode, trace: TraceId, start_us: f64, out: &mut String) {
    if !out.is_empty() {
        out.push(',');
    }
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":9000,\"tid\":0,\
         \"ts\":{start_us:.3},\"dur\":{:.3},\"args\":{{\"trace\":\"{trace}\",\
         \"detail\":\"{}\"{}}}}}",
        jesc(node.stage),
        node_span_us(node),
        jesc(&node.detail),
        match &node.error {
            Some(e) => format!(",\"error\":\"{}\"", jesc(e)),
            None => String::new(),
        },
    );
    let mut cursor = start_us;
    for c in &node.children {
        emit_node(c, trace, cursor, out);
        cursor += node_span_us(c);
    }
}

/// Minimal JSON string escaping for the Chrome-trace export.
fn jesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// --- the process-wide postmortem sink ---

/// Dumps kept before the oldest is dropped.
static SINK: BoundedFifo<Postmortem> = BoundedFifo::new(1 << 10);

/// Publish a finished dump (called by the serve layer on failure).
pub fn push_postmortem(pm: Postmortem) {
    SINK.push(pm);
}

/// Take every postmortem emitted since the last drain.
pub fn take_postmortems() -> Vec<Postmortem> {
    SINK.drain()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::{Request, TenantObs};
    use super::*;

    fn sample() -> Postmortem {
        let t = Arc::new(TenantObs::new("pm-render-tenant"));
        let mut req = Request::begin(&t, "partitioned launch of kernel `k`");
        let root = req.root();
        req.child(root, "admission", "ok (launch 1)");
        let chunk = req.child(root, "partition.chunk", "groups 0..8 -> device 0");
        let launch = req.child(chunk, "exec.launch", "kernel `k` groups 0..8, 42 instrs");
        req.set_modeled(launch, 1.25e-6);
        let err = Error::DependencyFailed {
            cause: Box::new(Error::InvalidOperation("injected".into())),
        };
        req.set_error(root, &err);
        let request = req.finish(true);
        Postmortem {
            trace: request.trace,
            tenant: request.tenant.clone(),
            error_chain: error_chain(&err),
            recorder_tail: t.tail(),
            request,
            cache: CacheState {
                resident: 1,
                resident_bytes: 100,
                capacity_bytes: 1000,
                evictions: 0,
            },
            quota: QuotaState {
                launches: 1,
                max_launches: Some(4),
                inflight: 0,
                max_inflight: Some(2),
                compile_bytes: 10,
                max_compile_bytes: None,
            },
        }
    }

    #[test]
    fn error_chain_walks_both_wrapper_kinds() {
        let err = Error::AdmissionRejected {
            what: "launch".into(),
            cause: Box::new(Error::DependencyFailed {
                cause: Box::new(Error::InvalidOperation("root".into())),
            }),
        };
        let chain = error_chain(&err);
        assert_eq!(chain.len(), 3);
        assert!(chain[2].contains("root"), "{chain:?}");
    }

    #[test]
    fn canonical_render_has_no_wall_fields() {
        let pm = sample();
        let canonical = pm.render(true);
        assert!(!canonical.contains("@"), "{canonical}");
        assert!(!canonical.contains("wall"), "{canonical}");
        assert!(canonical.contains("error chain:"), "{canonical}");
        assert!(canonical.contains("partition assignment:"), "{canonical}");
        assert!(canonical.contains("launch counters:"), "{canonical}");
        assert!(canonical.contains("flight recorder tail"), "{canonical}");
        let full = pm.render(false);
        assert!(full.contains("us"), "{full}");
    }

    #[test]
    fn chrome_export_is_a_valid_trace() {
        let pm = sample();
        let trace = pm.chrome_trace();
        crate::prof::validate_chrome_trace(&trace).expect("valid chrome trace");
        assert!(trace.contains("partition.chunk"));
        assert!(trace.contains(&pm.trace.to_string()));
    }
}
