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
//! wall clocks or scheduler interleavings — so the whole stdout is
//! byte-identical across `OCLSIM_THREADS` settings. `ci.sh` runs this
//! subcommand under 1 and 4 simulator threads and diffs the outputs; the
//! canonical [`hpl::telemetry::metrics_text`] snapshot at the end is the
//! load-bearing part of that gate.

use oclsim::Device;

use crate::profile::{run_bench, BENCHES};

/// Cache-lookup accounting for one benchmark's warm-up and steady runs.
#[derive(Debug, Clone)]
pub struct SteadyStateRow {
    /// Benchmark name (see [`BENCHES`](crate::profile::BENCHES)).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_runs_hit_the_cache() {
        // `compute` differences process-wide metrics the soak test resets
        let _g = crate::OBS_SINK_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _rt = crate::fresh_runtime();
        let rows = compute(&crate::tesla()).expect("benchmarks run at test scale");
        assert_eq!(rows.len(), 2 * BENCHES.len());
        for r in &rows {
            assert!(
                r.steady_state_cached(),
                "{} {}: steady state {} hits / {} misses",
                r.bench,
                r.mode,
                r.steady_hits,
                r.steady_misses
            );
            assert!(r.steady_hit_ratio() > 0.0);
        }
    }
}
