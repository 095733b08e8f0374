//! Host-runtime telemetry, re-exported from the backend.
//!
//! HPL and its backend share one telemetry layer (spans + the metrics
//! registry live in [`oclsim::telemetry`]; both crates' instrumented
//! sites feed the same process-wide sinks), so this module is a facade:
//! it re-exports the full API under `hpl::telemetry` and adds the
//! HPL-level convenience [`collect`].
//!
//! Span categories emitted across the two crates:
//!
//! | category    | sites |
//! |-------------|-------|
//! | `hpl`       | `cache_lookup` (hit/miss + key), `record` (kernel capture), `codegen`, `backend_build` |
//! | `clc`       | `build`, `preprocess`, `lex`, `parse`, `sema`, `lower`, `analysis` |
//! | `coherence` | `prepare_async` (every eval's uploads), `sync_host` (state before/after, bytes, reason) |
//! | `sched`     | `enqueue`, `dispatch` (modeled start/end attached via `note_modeled`) |
//! | `runtime`   | `init` (platform discovery, queue creation) |

pub use oclsim::telemetry::{
    check_nesting, drain_spans, enabled, metrics, metrics_text, render_span_tree, reset_metrics,
    set_enabled, span, spans_jsonl, Counter, Gauge, Histogram, Metrics, Span, SpanRecord,
};

/// Run `f` with span collection enabled and return its result together
/// with every span the closure emitted (spans from other threads of the
/// process are drained too — callers wanting isolation should not run
/// concurrent work). Restores the previous enablement state afterwards,
/// even on panic.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_enabled(self.0);
        }
    }
    let restore = Restore(enabled());
    set_enabled(true);
    drain_spans();
    let result = f();
    let spans = drain_spans();
    drop(restore);
    (result, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::eval::eval;
    use crate::predef::idx;

    #[test]
    fn collect_captures_an_eval_pipeline() {
        fn tele_probe(out: &Array<f64, 1>) {
            out.at(idx()).assign(1.0f64);
        }
        let out = Array::<f64, 1>::new([32]);
        let (result, spans) = collect(|| eval(tele_probe).run((&out,)));
        result.unwrap();
        check_nesting(&spans).unwrap();
        for name in ["cache_lookup", "record", "codegen", "backend_build"] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "missing span `{name}` in: {:?}",
                spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
            );
        }
        // the clc pipeline ran under backend_build
        assert!(spans
            .iter()
            .any(|s| s.category == "clc" && s.name == "parse"));
        assert!(spans
            .iter()
            .any(|s| s.category == "clc" && s.name == "sema"));
    }
}
