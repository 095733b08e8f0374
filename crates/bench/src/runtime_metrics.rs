//! The `report -- metrics` experiment: drive every benchmark to its
//! steady state and publish the telemetry registry's canonical snapshot.
//!
//! Each (benchmark, sync/async) pair runs **twice**. The first run warms
//! the alias-keyed kernel cache (recording, codegen and backend builds
//! happen here at the latest); the second run is the steady state the
//! paper's §V-B describes, where "second and later invocations of an HPL
//! kernel do not incur in overheads" — every `eval` must be served from
//! the cache. The report prints the per-run cache-lookup deltas from
//! [`hpl::cache_stats`] and fails if any steady-state run misses.
//!
//! Everything printed derives from workload-determined counters — never
//! wall clocks or scheduler interleavings — so the whole text ([`render`])
//! is byte-identical across claimer counts; `tests/sink_matrix.rs` renders
//! it under 1 and 4 claimers and compares. The canonical
//! [`hpl::telemetry::metrics_text`] snapshot at the end is the
//! load-bearing part of that comparison.

use oclsim::Device;

use crate::outln;
use crate::profile::{run_bench, BENCHES};

/// Cache-lookup accounting for one benchmark's warm-up and steady runs.
#[derive(Debug, Clone)]
pub struct SteadyStateRow {
    /// Benchmark name (see [`BENCHES`]).
    pub bench: &'static str,
    /// `"sync"` or `"async"`.
    pub mode: &'static str,
    /// Kernel-cache hits during the first (warm-up) run.
    pub warm_hits: u64,
    /// Kernel-cache misses during the first run (first-ever invocation of
    /// each kernel in the process compiles here).
    pub warm_misses: u64,
    /// Hits during the second (steady-state) run.
    pub steady_hits: u64,
    /// Misses during the second run — any value above zero means the
    /// cache failed to serve a repeated invocation.
    pub steady_misses: u64,
    /// Warp memory accesses of the steady-state run that took the `wg`
    /// VM's regular (bulk) path, and those that fell back to the generic
    /// one (`oclsim_exec_wg_mem_{regular,generic}_total`). Both are zero
    /// under `OCLSIM_BACKEND=ref`.
    pub mem_regular: u64,
    pub mem_generic: u64,
}

impl SteadyStateRow {
    /// Steady-state hit ratio in `[0, 1]` (`0` when the run performed no
    /// lookups at all, which the gate also rejects).
    pub fn steady_hit_ratio(&self) -> f64 {
        let total = self.steady_hits + self.steady_misses;
        if total == 0 {
            0.0
        } else {
            self.steady_hits as f64 / total as f64
        }
    }

    /// Share of the steady-state run's warp memory accesses that took the
    /// regular path, or `None` when the `wg` VM ran none.
    pub fn mem_regular_share(&self) -> Option<f64> {
        let total = self.mem_regular + self.mem_generic;
        (total > 0).then(|| self.mem_regular as f64 / total as f64)
    }

    /// The gate: the steady-state run performed at least one lookup and
    /// every one of them hit.
    pub fn steady_state_cached(&self) -> bool {
        self.steady_hits > 0 && self.steady_misses == 0
    }
}

/// Run every benchmark twice in both modes and collect the cache deltas.
pub fn compute(device: &Device) -> Result<Vec<SteadyStateRow>, benchsuite::Error> {
    let mut rows = Vec::with_capacity(2 * BENCHES.len());
    for &bench in BENCHES {
        for sync in [true, false] {
            let before = hpl::cache_stats();
            run_bench(bench, sync, true, device)?;
            let warm = hpl::cache_stats();
            let m = oclsim::telemetry::metrics();
            let mem_before = (m.exec_wg_mem_regular.get(), m.exec_wg_mem_generic.get());
            run_bench(bench, sync, true, device)?;
            let steady = hpl::cache_stats();
            rows.push(SteadyStateRow {
                bench,
                mode: if sync { "sync" } else { "async" },
                warm_hits: warm.hits - before.hits,
                warm_misses: warm.misses - before.misses,
                steady_hits: steady.hits - warm.hits,
                steady_misses: steady.misses - warm.misses,
                mem_regular: m.exec_wg_mem_regular.get() - mem_before.0,
                mem_generic: m.exec_wg_mem_generic.get() - mem_before.1,
            });
        }
    }
    Ok(rows)
}

/// `report -- metrics`: the steady-state table of every benchmark on the
/// Tesla and the canonical metrics snapshot of exactly that workload (the
/// process-wide registry is reset first). Gate: every steady-state run is
/// served from the kernel cache.
pub fn render() -> crate::Rendered {
    let mut r = crate::Rendered::titled(
        "Metrics — telemetry registry, steady-state kernel-cache behaviour (Tesla, test scale)",
    );
    hpl::telemetry::reset_metrics();
    let rows = match compute(&crate::tesla()) {
        Ok(rows) => rows,
        Err(e) => {
            r.failures.push(format!("metrics failed: {e}"));
            return r;
        }
    };
    outln!(
        r.text,
        "{:<10} {:<6} {:>10} {:>11} {:>12} {:>13} {:>10} {:>12}",
        "bench",
        "mode",
        "warm hits",
        "warm miss",
        "steady hits",
        "steady miss",
        "hit ratio",
        "mem regular"
    );
    for row in &rows {
        outln!(
            r.text,
            "{:<10} {:<6} {:>10} {:>11} {:>12} {:>13} {:>9.2}% {:>12}  {}",
            row.bench,
            row.mode,
            row.warm_hits,
            row.warm_misses,
            row.steady_hits,
            row.steady_misses,
            100.0 * row.steady_hit_ratio(),
            // share of warp memory accesses on the wg VM's bulk path; a
            // kernel that drops to the generic path shows here
            row.mem_regular_share()
                .map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s)),
            if row.steady_state_cached() {
                "[cached]"
            } else {
                "[COLD]"
            }
        );
        if !row.steady_state_cached() {
            r.failures.push(format!(
                "{} {}: steady state {} hits / {} misses",
                row.bench, row.mode, row.steady_hits, row.steady_misses
            ));
        }
    }
    outln!(
        r.text,
        "\ncanonical metrics snapshot (wall-clock metrics excluded):"
    );
    r.text.push_str(&hpl::telemetry::metrics_text(true));
    r
}
