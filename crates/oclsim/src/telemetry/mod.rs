//! Structured host-runtime telemetry: hierarchical spans + a metrics
//! registry.
//!
//! The simulated device has had observability since the `prof` subsystem
//! (hardware counters, Chrome traces, rooflines); this module gives the
//! **host runtime** the same voice. It has two layers with different
//! cost/usage profiles:
//!
//! * **Spans** ([`span`]) — hierarchical enter/exit records emitted from
//!   every interesting host-runtime site: kernel recording, OpenCL C code
//!   generation, the clc compile pipeline (build/preprocess/lex/parse/
//!   sema/lower/analysis/opt/wg-plan-build, with wg-plan inside the last),
//!   program-cache lookups, coherence transitions, scheduler
//!   enqueue/dispatch, and each launch's engine (`exec`: `wg` or `ref`).
//!   Each record carries wall timestamps (µs from a process epoch), a
//!   thread id, a parent id (innermost enclosing open span on the same
//!   thread), optional *modeled* timestamps for spans that shadow a
//!   timeline reservation, and free-form `key=value` notes. Span
//!   collection is **off by default** and gated on one atomic load
//!   ([`enabled`]): when off, [`span`] returns an inert guard and no clock
//!   is read, no allocation happens, nothing is locked — which is how
//!   `report -- profile` output stays byte-identical whether or not spans
//!   are collected (`crates/bench/tests/report_matrix.rs`'s
//!   `profile_is_invariant_across_threads_engines_and_telemetry` compares
//!   the two).
//!
//! * **Metrics** ([`metrics`]) — a process-wide registry of counters,
//!   gauges and fixed-bucket histograms tracking cache hit ratios, bytes
//!   moved by direction, redundant uploads, compile times and queue
//!   depth. Updates are single relaxed atomic operations (lock-free on
//!   the hot path) and are always on: like the `prof` hardware counters
//!   they merge deterministically, so the **canonical** snapshot
//!   ([`metrics_text`] with `canonical = true`, which excludes
//!   wall-clock-valued and interleaving-dependent metrics) is
//!   byte-identical across `OCLSIM_THREADS` settings and across in-order
//!   vs out-of-order queues for the same workload — `tests/telemetry_metrics.rs`
//!   and `crates/bench/tests/sink_matrix.rs` assert exactly that. Each
//!   metric is declared once, as one row of the table in `metrics.rs`.
//!
//! Exporters: [`spans_jsonl`] (one JSON object per line),
//! [`render_span_tree`] (human-readable indentation), [`metrics_text`]
//! (Prometheus-style exposition), and
//! [`crate::prof::trace::chrome_trace_with_host`], which injects host
//! span tracks into the device Chrome trace so one file shows the host
//! runtime above the CU/DMA tracks.

mod metrics;
mod span;

pub use metrics::{
    escape_label, metrics, metrics_text, reset_metrics, Counter, Gauge, Histogram, Metrics,
    TenantStats,
};
pub use span::{
    check_nesting, drain_spans, enabled, render_span_tree, set_enabled, span, spans_jsonl, Span,
    SpanRecord,
};
