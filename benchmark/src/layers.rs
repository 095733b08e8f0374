//! The per-layer metrics: names are `<module>.<metric>`, measured from
//! outside by timing public calls or reading public counters in the traced
//! run. Unbounded and informational.
//!
//! A traced run probes the layers its workload exercises and no others, so
//! a metric of another workload's layer is not measured there: the result
//! line, which must carry every metric, reads 0 for it. The `bench.*`,
//! `budget.*`, `hpl.kernel_cache.*`, `hpl.coherence.*` and `exec.launch.*`
//! counts are measured on every workload. Modeled seconds, which repeat
//! exactly for one seed, are not listed here: a traced run prints them as
//! `exact` lines (see `trace.rs`).

use std::collections::BTreeMap;

/// `(name, unit, better)` in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    // the benchmark's own cost and coverage
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.request_ms_tail", "ms", "lower"),
    // where one pass's wall time goes, by layer (shares of the pass)
    ("budget.compile_share", "ratio", "lower"),
    ("budget.hpl_eval_share", "ratio", "lower"),
    ("budget.launch_fixed_share", "ratio", "lower"),
    ("budget.exec_share", "ratio", "lower"),
    ("budget.transfer_share", "ratio", "lower"),
    ("budget.serve_share", "ratio", "lower"),
    // hpl
    ("hpl.front.capture_us", "us", "lower"),
    ("hpl.front.codegen_us", "us", "lower"),
    ("hpl.front.five_kernels_us", "us", "lower"),
    ("hpl.eval.warm_overhead_us", "us", "lower"),
    ("hpl.kernel_cache.hits", "count", "higher"),
    ("hpl.kernel_cache.misses", "count", "lower"),
    ("hpl.kernel_cache.hit_ratio", "ratio", "higher"),
    ("hpl.coherence.h2d_count", "count", "lower"),
    ("hpl.coherence.h2d_bytes", "B", "lower"),
    ("hpl.coherence.d2h_count", "count", "lower"),
    ("hpl.coherence.redundant_uploads", "count", "lower"),
    ("hpl.array.upload_us_per_mb", "us/MB", "lower"),
    // clc
    ("clc.pp.us", "us", "lower"),
    ("clc.lexer.us", "us", "lower"),
    ("clc.lexer.mtok_per_s", "Mtok/s", "higher"),
    ("clc.parser.us", "us", "lower"),
    ("clc.sema.us", "us", "lower"),
    ("clc.analysis.us", "us", "lower"),
    ("clc.opt.us_O1", "us", "lower"),
    ("clc.opt.us_O2", "us", "lower"),
    ("clc.opt.rewrites", "count", "higher"),
    // program
    ("program.build_us", "us", "lower"),
    ("program.build_us.syn16", "us", "lower"),
    ("program.build_us.syn64", "us", "lower"),
    ("program.build_us.syn256", "us", "lower"),
    ("program.build_coverage", "ratio", "higher"),
    ("program.binary_bytes", "B", "lower"),
    ("program.build_fail", "count", "lower"),
    // exec
    ("exec.wg.plan_us", "us", "lower"),
    ("exec.wg.fallbacks", "count", "lower"),
    ("exec.wg.ns_per_instr.ep", "ns", "lower"),
    ("exec.wg.ns_per_instr.transpose", "ns", "lower"),
    ("exec.wg.ns_per_instr.reduction", "ns", "lower"),
    ("exec.wg.ns_per_instr.spmv", "ns", "lower"),
    ("exec.wg.ns_per_instr.floyd", "ns", "lower"),
    ("exec.interp.ns_per_instr", "ns", "lower"),
    ("exec.launch.empty_launch_us", "us", "lower"),
    ("exec.launch.us_per_group", "us", "lower"),
    ("exec.launch.sim_instr", "count", "lower"),
    ("exec.launch.mem_tx", "count", "lower"),
    ("exec.launch.barriers", "count", "lower"),
    // sched
    ("sched.async_enqueue_us", "us", "lower"),
    ("sched.chain_us_per_cmd", "us", "lower"),
    ("sched.dma_us_per_mb", "us/MB", "lower"),
    ("sched.overlap_ratio_modeled", "ratio", "lower"),
    // serve
    ("serve.cache.hit_us", "us", "lower"),
    ("serve.cache.miss_us", "us", "lower"),
    ("serve.cache.hits", "count", "higher"),
    ("serve.cache.misses", "count", "lower"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.session.submit_us_p50", "us", "lower"),
    ("serve.session.submit_us_p99", "us", "lower"),
    ("serve.session.rejected", "count", "lower"),
    ("serve.partition.wall_ms", "ms", "lower"),
    // prof / telemetry / obs
    ("prof.cache.l1_hit_ratio", "ratio", "higher"),
    ("prof.cache.l2_hit_ratio", "ratio", "higher"),
    ("prof.cache.host_overhead_ratio", "ratio", "lower"),
    ("prof.counters.collect_overhead_ratio", "ratio", "lower"),
    ("telemetry.spans_overhead_ratio", "ratio", "lower"),
    ("obs.tenant_trace_overhead_ratio", "ratio", "lower"),
    ("obs.postmortems", "count", "lower"),
    // timing (modeled)
    ("timing.modeled_hpl_vs_opencl_ratio", "ratio", "lower"),
    ("exec.launch.launches", "count", "lower"),
    ("bench.spans", "count", "higher"),
];

/// The values of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every declared metric in declaration order, `None` where this run
    /// did not measure it.
    pub fn measured(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        PER_LAYER.iter().map(|m| self.0.get(m.0).copied())
    }
}
