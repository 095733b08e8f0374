//! Process-wide metrics registry (see the module docs of
//! [`crate::telemetry`]).
//!
//! Every update is a single relaxed atomic RMW, so the hot path is
//! lock-free and the final value of a counter/histogram is independent
//! of thread interleaving (addition of integers commutes). Metrics whose
//! value is *inherently* timing- or interleaving-dependent (compile wall
//! time, instantaneous queue depth) are flagged non-canonical and are
//! excluded from the canonical snapshot that CI diffs across
//! `OCLSIM_THREADS` settings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::lock;

/// Monotonically increasing event count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous signed value (e.g. queue depth).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the value to at least `v` (high-water mark).
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double-quote and newline must be escaped inside the quoted
/// value (`\\`, `\"`, `\n`) or an adversarial tenant name corrupts the
/// whole scrape.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Fixed-bucket histogram over integer-valued observations (bytes,
/// microseconds). Bucket counts and the sum are plain integer atomics,
/// so the merged result is exact and order-independent. Each bucket also
/// keeps the most recent exemplar — the packed [`crate::obs::TraceId`]
/// of the last traced request that landed in it — linking the latency
/// distribution back to concrete request traces.
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets; an implicit `+Inf`
    /// bucket follows.
    bounds: &'static [u64],
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    /// Per-bucket packed trace id of the last traced observation
    /// (0 = none; see [`crate::obs::TraceId::pack`]).
    exemplar_trace: Vec<AtomicU64>,
    /// The observed value that set the bucket's exemplar.
    exemplar_value: Vec<AtomicU64>,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            exemplar_trace: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            exemplar_value: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one observation, attributing it to the calling thread's
    /// ambient request trace (if any) as the bucket's exemplar.
    pub fn observe(&self, value: u64) {
        self.observe_traced(value, crate::obs::current_trace());
    }

    /// Record one observation with an explicit exemplar trace.
    pub fn observe_traced(&self, value: u64, trace: Option<crate::obs::TraceId>) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if let Some(t) = trace {
            // value first: a racing reader may pair an exemplar value
            // with the neighbouring trace, never with garbage
            self.exemplar_value[idx].store(value, Ordering::Relaxed);
            self.exemplar_trace[idx].store(t.pack(), Ordering::Relaxed);
        }
    }

    /// The last traced (trace, value) exemplar of bucket `idx`
    /// (`bounds.len()` = the `+Inf` bucket).
    pub fn exemplar(&self, idx: usize) -> Option<(crate::obs::TraceId, u64)> {
        let trace = crate::obs::TraceId::unpack(self.exemplar_trace[idx].load(Ordering::Relaxed))?;
        Some((trace, self.exemplar_value[idx].load(Ordering::Relaxed)))
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        for e in self.exemplar_trace.iter().chain(&self.exemplar_value) {
            e.store(0, Ordering::Relaxed);
        }
    }

    /// Render the histogram. `exemplars` appends the OpenMetrics-style
    /// exemplar suffix (` # {trace_id="..."} value`) to buckets a traced
    /// observation landed in — only enabled for non-canonical snapshots,
    /// since which traced observation a bucket saw last is an artifact of
    /// thread interleaving.
    fn render(&self, out: &mut String, name: &str, exemplars: bool) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            let _ = write!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            self.render_exemplar(out, i, exemplars);
            out.push('\n');
        }
        cumulative += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        let _ = write!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        self.render_exemplar(out, self.bounds.len(), exemplars);
        out.push('\n');
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {cumulative}");
    }

    fn render_exemplar(&self, out: &mut String, idx: usize, enabled: bool) {
        if !enabled {
            return;
        }
        if let Some((trace, value)) = self.exemplar(idx) {
            let _ = write!(out, " # {{trace_id=\"{trace}\"}} {value}");
        }
    }
}

/// Transfer sizes: 1 KiB / 64 KiB / 1 MiB / 16 MiB / +Inf.
const TRANSFER_BOUNDS: &[u64] = &[1 << 10, 1 << 16, 1 << 20, 1 << 24];
/// Compile wall time in µs: 100 µs … 1 s / +Inf.
const COMPILE_BOUNDS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000];
/// Service launch wall latency in µs: 100 µs … 1 s / +Inf.
const LATENCY_BOUNDS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000];

/// Per-tenant service accounting (updated under the registry mutex; each
/// field is a plain event count, so totals are interleaving-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Launches the service admitted and ran for this tenant.
    pub launches: u64,
    /// Requests rejected at admission (quota or capacity).
    pub rejections: u64,
    /// Shared-binary-cache hits attributed to this tenant.
    pub cache_hits: u64,
    /// Shared-binary-cache misses (builds) attributed to this tenant.
    pub cache_misses: u64,
}

/// The registry. One static instance per process, reached via
/// [`metrics`]; fields are updated directly at the instrumented sites.
pub struct Metrics {
    // --- hpl runtime (canonical: workload-determined) ---
    /// `eval(f).run()` served from the alias-keyed kernel cache.
    pub kernel_cache_hits: Counter,
    /// Cache misses (kernel recorded + code generated).
    pub kernel_cache_misses: Counter,
    /// Entries dropped by `clear_kernel_cache`.
    pub kernel_cache_evictions: Counter,
    /// Host→device uploads issued by the coherence layer.
    pub h2d_transfers: Counter,
    /// Bytes uploaded host→device.
    pub h2d_bytes: Counter,
    /// Device→host downloads issued by the coherence layer.
    pub d2h_transfers: Counter,
    /// Bytes downloaded device→host.
    pub d2h_bytes: Counter,
    /// Uploads issued while the device copy was already valid — always a
    /// coherence bug; the bench gate fails on any increase.
    pub redundant_uploads: Counter,
    /// Reads satisfied by an already-valid device copy (no transfer).
    pub coherence_hits: Counter,
    /// Distribution of individual transfer sizes (bytes).
    pub transfer_bytes: Histogram,
    // --- oclsim queue/scheduler (canonical) ---
    /// Buffer writes admitted to a command queue.
    pub enqueued_writes: Counter,
    /// Buffer reads admitted to a command queue.
    pub enqueued_reads: Counter,
    /// Buffer copies admitted to a command queue.
    pub enqueued_copies: Counter,
    /// Kernel launches admitted to a command queue.
    pub enqueued_kernels: Counter,
    /// Markers/barriers admitted to a command queue.
    pub enqueued_markers: Counter,
    /// Commands handed to a device scheduler.
    pub dispatched: Counter,
    /// Commands that completed successfully.
    pub retired: Counter,
    /// Commands that finished in an error state.
    pub command_errors: Counter,
    /// Commands serviced by the DMA channel.
    pub dma_commands: Counter,
    /// Bytes moved by DMA commands.
    pub dma_bytes: Counter,
    /// `Program::build` invocations.
    pub builds: Counter,
    // --- oclsim::exec backends (canonical) ---
    /// NDRange launches executed by the compiled work-group (wg) backend.
    pub exec_wg_launches: Counter,
    /// NDRange launches executed by the reference SIMT interpreter.
    pub exec_ref_launches: Counter,
    /// Launches that requested the wg backend but fell back to the
    /// reference interpreter (unsupported kernel, sanitizer, SIMD width).
    pub exec_wg_fallbacks: Counter,
    // --- oclsim::prof cache model (canonical: workload-determined) ---
    /// Simulated L1 hits on cache-capable devices.
    pub prof_cache_l1_hits: Counter,
    /// Simulated L1 misses on cache-capable devices.
    pub prof_cache_l1_misses: Counter,
    /// Simulated shared-L2 hits on cache-capable devices.
    pub prof_cache_l2_hits: Counter,
    /// Simulated shared-L2 misses (DRAM line fills) on cache-capable
    /// devices.
    pub prof_cache_l2_misses: Counter,
    // --- oclsim::clc optimizing mid-end (canonical: per-pass work) ---
    /// Expressions folded to constants by the mid-end.
    pub opt_const_folded: Counter,
    /// Slot reads replaced with constants/copies by const-prop.
    pub opt_const_propagated: Counter,
    /// Dead statements removed by DCE.
    pub opt_dce_removed: Counter,
    /// Branches/loops resolved statically by CFG simplify.
    pub opt_branches_simplified: Counter,
    /// Redundant evaluations replaced by local CSE.
    pub opt_cse_replaced: Counter,
    /// Loop-invariant expressions hoisted by LICM.
    pub opt_licm_hoisted: Counter,
    /// Control-flow graphs built by `clc::dataflow` (sanitizer, optimizer,
    /// work-group planner).
    pub cfg_builds: Counter,
    /// Dataflow fixpoint solves of constant propagation.
    pub solves_const_prop: Counter,
    /// Dataflow fixpoint solves of the interval analysis.
    pub solves_intervals: Counter,
    /// Dataflow fixpoint solves of liveness.
    pub solves_liveness: Counter,
    /// Dataflow fixpoint solves of the uniformity analysis.
    pub solves_uniformity: Counter,
    // --- oclsim::serve shared binary cache + sessions (canonical) ---
    /// Shared binary-cache lookups served from a resident binary.
    pub serve_cache_hits: Counter,
    /// Shared binary-cache lookups that compiled a new binary.
    pub serve_cache_misses: Counter,
    /// Binaries evicted from the shared cache (LRU, capacity pressure).
    pub serve_cache_evictions: Counter,
    /// Bytes currently resident in the shared binary cache.
    pub serve_cache_bytes: Gauge,
    /// Configured capacity of the shared binary cache.
    pub serve_cache_capacity_bytes: Gauge,
    /// Launches admitted and executed by the service layer.
    pub serve_launches: Counter,
    /// Service requests rejected at admission (quota or capacity).
    pub serve_rejections: Counter,
    /// Per-tenant service accounting: tenant name → event counts.
    serve_tenants: Mutex<BTreeMap<String, TenantStats>>,
    // --- non-canonical: wall-clock or interleaving dependent ---
    /// Distribution of service launch wall latency (µs).
    pub serve_launch_wall_us: Histogram,
    /// Distribution of `Program::build` wall time (µs).
    pub compile_seconds: Histogram,
    /// Live commands in the most recently touched queue.
    pub queue_depth: Gauge,
    /// High-water mark of [`Metrics::queue_depth`].
    pub queue_depth_peak: Gauge,
    /// Help tickets a pool thread picked up (`exec::pool`); which launches
    /// get help depends on thread timing.
    pub exec_pool_helper_joins: Counter,
    /// Help tickets revoked unclaimed when their launch ran out of groups.
    /// joins / (joins + revoked) is the pool's useful-work ratio.
    pub exec_pool_tickets_revoked: Counter,
    /// Warp memory accesses of the `wg` VM that were regular — one buffer
    /// or arena, aligned, in range, segments ascending — and so took the
    /// bulk move and the compare-free charge. Launches fold their count in
    /// once, when they end. Not canonical: the `ref` backend reports none.
    pub exec_wg_mem_regular: Counter,
    /// Warp memory accesses of the `wg` VM that fell back to the generic
    /// path (per-lane move or sorted segment list). A kernel whose share
    /// of these is high runs slower than its instruction count suggests.
    pub exec_wg_mem_generic: Counter,
    /// Live `exec::pool` threads over all devices. Process state, not
    /// workload state: [`reset_metrics`] leaves it alone.
    pub exec_pool_threads: Gauge,
    /// Per-kernel compile accounting: name → (builds, wall seconds).
    per_kernel_compile: Mutex<BTreeMap<String, (u64, f64)>>,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            kernel_cache_hits: Counter::default(),
            kernel_cache_misses: Counter::default(),
            kernel_cache_evictions: Counter::default(),
            h2d_transfers: Counter::default(),
            h2d_bytes: Counter::default(),
            d2h_transfers: Counter::default(),
            d2h_bytes: Counter::default(),
            redundant_uploads: Counter::default(),
            coherence_hits: Counter::default(),
            transfer_bytes: Histogram::new(TRANSFER_BOUNDS),
            enqueued_writes: Counter::default(),
            enqueued_reads: Counter::default(),
            enqueued_copies: Counter::default(),
            enqueued_kernels: Counter::default(),
            enqueued_markers: Counter::default(),
            dispatched: Counter::default(),
            retired: Counter::default(),
            command_errors: Counter::default(),
            dma_commands: Counter::default(),
            dma_bytes: Counter::default(),
            builds: Counter::default(),
            exec_wg_launches: Counter::default(),
            exec_ref_launches: Counter::default(),
            exec_wg_fallbacks: Counter::default(),
            prof_cache_l1_hits: Counter::default(),
            prof_cache_l1_misses: Counter::default(),
            prof_cache_l2_hits: Counter::default(),
            prof_cache_l2_misses: Counter::default(),
            opt_const_folded: Counter::default(),
            opt_const_propagated: Counter::default(),
            opt_dce_removed: Counter::default(),
            opt_branches_simplified: Counter::default(),
            opt_cse_replaced: Counter::default(),
            opt_licm_hoisted: Counter::default(),
            cfg_builds: Counter::default(),
            solves_const_prop: Counter::default(),
            solves_intervals: Counter::default(),
            solves_liveness: Counter::default(),
            solves_uniformity: Counter::default(),
            serve_cache_hits: Counter::default(),
            serve_cache_misses: Counter::default(),
            serve_cache_evictions: Counter::default(),
            serve_cache_bytes: Gauge::default(),
            serve_cache_capacity_bytes: Gauge::default(),
            serve_launches: Counter::default(),
            serve_rejections: Counter::default(),
            serve_tenants: Mutex::new(BTreeMap::new()),
            serve_launch_wall_us: Histogram::new(LATENCY_BOUNDS),
            compile_seconds: Histogram::new(COMPILE_BOUNDS),
            queue_depth: Gauge::default(),
            queue_depth_peak: Gauge::default(),
            exec_pool_helper_joins: Counter::default(),
            exec_pool_tickets_revoked: Counter::default(),
            exec_wg_mem_regular: Counter::default(),
            exec_wg_mem_generic: Counter::default(),
            exec_pool_threads: Gauge::default(),
            per_kernel_compile: Mutex::new(BTreeMap::new()),
        }
    }

    /// Record one `Program::build` of `kernel` taking `seconds` of wall
    /// time (non-canonical).
    pub fn note_compile(&self, kernel: &str, seconds: f64) {
        self.compile_seconds.observe((seconds * 1.0e6) as u64);
        let mut map = lock(&self.per_kernel_compile);
        let entry = map.entry(kernel.to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += seconds;
    }

    /// Per-kernel compile accounting snapshot: name → (builds, seconds).
    pub fn compile_by_kernel(&self) -> BTreeMap<String, (u64, f64)> {
        lock(&self.per_kernel_compile).clone()
    }

    /// Update (or create) the per-tenant accounting row for `tenant`.
    pub fn note_tenant(&self, tenant: &str, f: impl FnOnce(&mut TenantStats)) {
        let mut map = lock(&self.serve_tenants);
        f(map.entry(tenant.to_string()).or_default());
    }

    /// Per-tenant service accounting snapshot.
    pub fn tenant_stats(&self) -> BTreeMap<String, TenantStats> {
        lock(&self.serve_tenants).clone()
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

/// The process-wide registry.
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::new)
}

fn counter(out: &mut String, name: &str, help: &str, c: &Counter) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {}", c.get());
}

fn gauge(out: &mut String, name: &str, help: &str, g: &Gauge) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {}", g.get());
}

impl Metrics {
    /// Zero every metric but the live-thread gauge (tests and the `report`
    /// subcommands use this to measure one workload in isolation).
    pub fn reset(&self) {
        let m = self;
        m.kernel_cache_hits.reset();
        m.kernel_cache_misses.reset();
        m.kernel_cache_evictions.reset();
        m.h2d_transfers.reset();
        m.h2d_bytes.reset();
        m.d2h_transfers.reset();
        m.d2h_bytes.reset();
        m.redundant_uploads.reset();
        m.coherence_hits.reset();
        m.transfer_bytes.reset();
        m.enqueued_writes.reset();
        m.enqueued_reads.reset();
        m.enqueued_copies.reset();
        m.enqueued_kernels.reset();
        m.enqueued_markers.reset();
        m.dispatched.reset();
        m.retired.reset();
        m.command_errors.reset();
        m.dma_commands.reset();
        m.dma_bytes.reset();
        m.builds.reset();
        m.exec_wg_launches.reset();
        m.exec_ref_launches.reset();
        m.exec_wg_fallbacks.reset();
        m.prof_cache_l1_hits.reset();
        m.prof_cache_l1_misses.reset();
        m.prof_cache_l2_hits.reset();
        m.prof_cache_l2_misses.reset();
        m.opt_const_folded.reset();
        m.opt_const_propagated.reset();
        m.opt_dce_removed.reset();
        m.opt_branches_simplified.reset();
        m.opt_cse_replaced.reset();
        m.opt_licm_hoisted.reset();
        m.cfg_builds.reset();
        m.solves_const_prop.reset();
        m.solves_intervals.reset();
        m.solves_liveness.reset();
        m.solves_uniformity.reset();
        m.serve_cache_hits.reset();
        m.serve_cache_misses.reset();
        m.serve_cache_evictions.reset();
        m.serve_cache_bytes.reset();
        m.serve_cache_capacity_bytes.reset();
        m.serve_launches.reset();
        m.serve_rejections.reset();
        lock(&m.serve_tenants).clear();
        m.serve_launch_wall_us.reset();
        m.compile_seconds.reset();
        m.queue_depth.reset();
        m.queue_depth_peak.reset();
        m.exec_pool_helper_joins.reset();
        m.exec_pool_tickets_revoked.reset();
        m.exec_wg_mem_regular.reset();
        m.exec_wg_mem_generic.reset();
        lock(&m.per_kernel_compile).clear();
    }

    /// Render the registry in Prometheus text exposition format, in a fixed
    /// registration order. With `canonical = true` only workload-determined
    /// metrics are included — that snapshot is byte-identical across
    /// `OCLSIM_THREADS` settings and across in-order vs out-of-order queues
    /// for the same workload.
    pub fn text(&self, canonical: bool) -> String {
        let m = self;
        let mut out = String::new();
        counter(
            &mut out,
            "hpl_kernel_cache_hits_total",
            "eval() launches served from the kernel cache",
            &m.kernel_cache_hits,
        );
        counter(
            &mut out,
            "hpl_kernel_cache_misses_total",
            "eval() launches that recorded + generated code",
            &m.kernel_cache_misses,
        );
        counter(
            &mut out,
            "hpl_kernel_cache_evictions_total",
            "kernel cache entries evicted",
            &m.kernel_cache_evictions,
        );
        counter(
            &mut out,
            "hpl_h2d_transfers_total",
            "host-to-device uploads issued by coherence",
            &m.h2d_transfers,
        );
        counter(
            &mut out,
            "hpl_h2d_bytes_total",
            "bytes uploaded host-to-device",
            &m.h2d_bytes,
        );
        counter(
            &mut out,
            "hpl_d2h_transfers_total",
            "device-to-host downloads issued by coherence",
            &m.d2h_transfers,
        );
        counter(
            &mut out,
            "hpl_d2h_bytes_total",
            "bytes downloaded device-to-host",
            &m.d2h_bytes,
        );
        counter(
            &mut out,
            "hpl_redundant_uploads_total",
            "uploads issued while the device copy was already valid",
            &m.redundant_uploads,
        );
        counter(
            &mut out,
            "hpl_coherence_hits_total",
            "reads satisfied by an already-valid device copy",
            &m.coherence_hits,
        );
        let _ = writeln!(
            out,
            "# HELP hpl_transfer_bytes distribution of individual transfer sizes"
        );
        m.transfer_bytes
            .render(&mut out, "hpl_transfer_bytes", !canonical);
        counter(
            &mut out,
            "oclsim_enqueued_writes_total",
            "buffer writes admitted to a queue",
            &m.enqueued_writes,
        );
        counter(
            &mut out,
            "oclsim_enqueued_reads_total",
            "buffer reads admitted to a queue",
            &m.enqueued_reads,
        );
        counter(
            &mut out,
            "oclsim_enqueued_copies_total",
            "buffer copies admitted to a queue",
            &m.enqueued_copies,
        );
        counter(
            &mut out,
            "oclsim_enqueued_kernels_total",
            "kernel launches admitted to a queue",
            &m.enqueued_kernels,
        );
        counter(
            &mut out,
            "oclsim_enqueued_markers_total",
            "markers/barriers admitted to a queue",
            &m.enqueued_markers,
        );
        counter(
            &mut out,
            "oclsim_dispatched_total",
            "commands handed to a device scheduler",
            &m.dispatched,
        );
        counter(
            &mut out,
            "oclsim_retired_total",
            "commands completed successfully",
            &m.retired,
        );
        counter(
            &mut out,
            "oclsim_command_errors_total",
            "commands that finished in an error state",
            &m.command_errors,
        );
        counter(
            &mut out,
            "oclsim_dma_commands_total",
            "commands serviced by the DMA channel",
            &m.dma_commands,
        );
        counter(
            &mut out,
            "oclsim_dma_bytes_total",
            "bytes moved by DMA commands",
            &m.dma_bytes,
        );
        counter(
            &mut out,
            "oclsim_builds_total",
            "Program::build invocations",
            &m.builds,
        );
        counter(
            &mut out,
            "oclsim_exec_wg_launches_total",
            "NDRange launches executed by the compiled work-group backend",
            &m.exec_wg_launches,
        );
        counter(
            &mut out,
            "oclsim_exec_ref_launches_total",
            "NDRange launches executed by the reference SIMT interpreter",
            &m.exec_ref_launches,
        );
        counter(
            &mut out,
            "oclsim_exec_wg_fallbacks_total",
            "wg-backend launches that fell back to the reference interpreter",
            &m.exec_wg_fallbacks,
        );
        counter(
            &mut out,
            "oclsim_prof_cache_l1_hits_total",
            "simulated L1 hits on cache-capable devices",
            &m.prof_cache_l1_hits,
        );
        counter(
            &mut out,
            "oclsim_prof_cache_l1_misses_total",
            "simulated L1 misses on cache-capable devices",
            &m.prof_cache_l1_misses,
        );
        counter(
            &mut out,
            "oclsim_prof_cache_l2_hits_total",
            "simulated shared-L2 hits on cache-capable devices",
            &m.prof_cache_l2_hits,
        );
        counter(
            &mut out,
            "oclsim_prof_cache_l2_misses_total",
            "simulated shared-L2 misses (DRAM line fills)",
            &m.prof_cache_l2_misses,
        );
        counter(
            &mut out,
            "oclsim_clc_opt_const_folded_total",
            "expressions folded to constants by the mid-end",
            &m.opt_const_folded,
        );
        counter(
            &mut out,
            "oclsim_clc_opt_const_propagated_total",
            "slot reads replaced with constants/copies by const-prop",
            &m.opt_const_propagated,
        );
        counter(
            &mut out,
            "oclsim_clc_opt_dce_removed_total",
            "dead statements removed by DCE",
            &m.opt_dce_removed,
        );
        counter(
            &mut out,
            "oclsim_clc_opt_branches_simplified_total",
            "branches/loops resolved statically by CFG simplify",
            &m.opt_branches_simplified,
        );
        counter(
            &mut out,
            "oclsim_clc_opt_cse_replaced_total",
            "redundant evaluations replaced by local CSE",
            &m.opt_cse_replaced,
        );
        counter(
            &mut out,
            "oclsim_clc_opt_licm_hoisted_total",
            "loop-invariant expressions hoisted by LICM",
            &m.opt_licm_hoisted,
        );
        counter(
            &mut out,
            "oclsim_clc_cfg_builds_total",
            "control-flow graphs built by the dataflow framework",
            &m.cfg_builds,
        );
        let _ = writeln!(
            out,
            "# HELP oclsim_clc_dataflow_solves_total dataflow fixpoint solves by analysis"
        );
        let _ = writeln!(out, "# TYPE oclsim_clc_dataflow_solves_total counter");
        for (name, c) in [
            ("const_prop", &m.solves_const_prop),
            ("intervals", &m.solves_intervals),
            ("liveness", &m.solves_liveness),
            ("uniformity", &m.solves_uniformity),
        ] {
            let _ = writeln!(
                out,
                "oclsim_clc_dataflow_solves_total{{analysis=\"{name}\"}} {}",
                c.get()
            );
        }
        counter(
            &mut out,
            "oclsim_serve_cache_hits_total",
            "shared binary-cache lookups served from a resident binary",
            &m.serve_cache_hits,
        );
        counter(
            &mut out,
            "oclsim_serve_cache_misses_total",
            "shared binary-cache lookups that compiled a new binary",
            &m.serve_cache_misses,
        );
        counter(
            &mut out,
            "oclsim_serve_cache_evictions_total",
            "binaries evicted from the shared cache",
            &m.serve_cache_evictions,
        );
        gauge(
            &mut out,
            "oclsim_serve_cache_bytes",
            "bytes resident in the shared binary cache",
            &m.serve_cache_bytes,
        );
        gauge(
            &mut out,
            "oclsim_serve_cache_capacity_bytes",
            "configured capacity of the shared binary cache",
            &m.serve_cache_capacity_bytes,
        );
        counter(
            &mut out,
            "oclsim_serve_launches_total",
            "launches admitted and executed by the service layer",
            &m.serve_launches,
        );
        counter(
            &mut out,
            "oclsim_serve_rejections_total",
            "service requests rejected at admission",
            &m.serve_rejections,
        );
        let tenants = m.tenant_stats();
        if !tenants.is_empty() {
            let _ = writeln!(
                out,
                "# HELP oclsim_serve_tenant per-tenant service accounting"
            );
            for (tenant, t) in &tenants {
                let tenant = escape_label(tenant);
                let _ = writeln!(
                    out,
                    "oclsim_serve_tenant_launches_total{{tenant=\"{tenant}\"}} {}",
                    t.launches
                );
                let _ = writeln!(
                    out,
                    "oclsim_serve_tenant_rejections_total{{tenant=\"{tenant}\"}} {}",
                    t.rejections
                );
                let _ = writeln!(
                    out,
                    "oclsim_serve_tenant_cache_hits_total{{tenant=\"{tenant}\"}} {}",
                    t.cache_hits
                );
                let _ = writeln!(
                    out,
                    "oclsim_serve_tenant_cache_misses_total{{tenant=\"{tenant}\"}} {}",
                    t.cache_misses
                );
            }
        }
        if !canonical {
            let _ = writeln!(
                out,
                "# HELP oclsim_serve_launch_wall_us service launch wall latency distribution (us)"
            );
            m.serve_launch_wall_us
                .render(&mut out, "oclsim_serve_launch_wall_us", true);
            let _ = writeln!(
                out,
                "# HELP oclsim_compile_us Program::build wall time distribution (us)"
            );
            m.compile_seconds
                .render(&mut out, "oclsim_compile_us", true);
            gauge(
                &mut out,
                "oclsim_queue_depth",
                "live commands in the most recently touched queue",
                &m.queue_depth,
            );
            gauge(
                &mut out,
                "oclsim_queue_depth_peak",
                "high-water mark of oclsim_queue_depth",
                &m.queue_depth_peak,
            );
            counter(
                &mut out,
                "oclsim_exec_pool_helper_joins_total",
                "help tickets picked up by a pool thread",
                &m.exec_pool_helper_joins,
            );
            counter(
                &mut out,
                "oclsim_exec_pool_tickets_revoked_total",
                "help tickets revoked unclaimed at the end of their launch",
                &m.exec_pool_tickets_revoked,
            );
            counter(
                &mut out,
                "oclsim_exec_wg_mem_regular_total",
                "warp memory accesses of the wg VM that took the regular (bulk) path",
                &m.exec_wg_mem_regular,
            );
            counter(
                &mut out,
                "oclsim_exec_wg_mem_generic_total",
                "warp memory accesses of the wg VM that fell back to the generic path",
                &m.exec_wg_mem_generic,
            );
            gauge(
                &mut out,
                "oclsim_exec_pool_threads",
                "live worker-pool threads over all devices",
                &m.exec_pool_threads,
            );
            let per_kernel = m.compile_by_kernel();
            if !per_kernel.is_empty() {
                let _ = writeln!(
                    out,
                    "# HELP oclsim_kernel_compile_seconds per-kernel compile wall time"
                );
                for (kernel, (count, seconds)) in &per_kernel {
                    let kernel = escape_label(kernel);
                    let _ = writeln!(
                        out,
                        "oclsim_kernel_compile_count{{kernel=\"{kernel}\"}} {count}"
                    );
                    let _ = writeln!(
                        out,
                        "oclsim_kernel_compile_seconds_sum{{kernel=\"{kernel}\"}} {seconds:.6}"
                    );
                }
            }
        }
        out
    }
}

/// [`Metrics::reset`] on the process-wide registry.
pub fn reset_metrics() {
    metrics().reset()
}

/// [`Metrics::text`] of the process-wide registry.
pub fn metrics_text(canonical: bool) -> String {
    metrics().text(canonical)
}

#[cfg(test)]
mod tests {
    use super::*;

    // every test asserts exact values, so each works on a registry of its
    // own: sibling tests of this binary bump the process-wide one
    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::new();
        m.kernel_cache_hits.inc();
        m.kernel_cache_hits.add(2);
        assert_eq!(m.kernel_cache_hits.get(), 3);
        m.queue_depth.set(4);
        m.queue_depth_peak.raise_to(4);
        m.queue_depth_peak.raise_to(2);
        assert_eq!(m.queue_depth_peak.get(), 4);
        m.reset();
        assert_eq!(m.kernel_cache_hits.get(), 0);
        assert_eq!(m.queue_depth_peak.get(), 0);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.transfer_bytes.observe(100); // <= 1 KiB
        m.transfer_bytes.observe(2048); // <= 64 KiB
        m.transfer_bytes.observe(1 << 30); // +Inf
        assert_eq!(m.transfer_bytes.count(), 3);
        assert_eq!(m.transfer_bytes.sum(), 100 + 2048 + (1 << 30));
        let text = m.text(true);
        assert!(
            text.contains("hpl_transfer_bytes_bucket{le=\"1024\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hpl_transfer_bytes_bucket{le=\"65536\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("hpl_transfer_bytes_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn serve_metrics_render_with_sorted_tenant_labels() {
        let m = Metrics::new();
        m.serve_cache_capacity_bytes.set(1 << 20);
        m.serve_cache_bytes.set(4096);
        m.serve_cache_evictions.add(2);
        m.note_tenant("zeta", |t| t.launches += 5);
        m.note_tenant("alpha", |t| {
            t.launches += 3;
            t.rejections += 1;
        });
        m.serve_launch_wall_us.observe(250);
        let canonical = m.text(true);
        assert!(
            canonical.contains("oclsim_serve_cache_capacity_bytes 1048576"),
            "{canonical}"
        );
        assert!(
            canonical.contains("oclsim_serve_cache_evictions_total 2"),
            "{canonical}"
        );
        // tenants render sorted by name, so the snapshot is byte-stable
        let alpha = canonical
            .find("oclsim_serve_tenant_launches_total{tenant=\"alpha\"} 3")
            .expect("alpha row");
        let zeta = canonical
            .find("oclsim_serve_tenant_launches_total{tenant=\"zeta\"} 5")
            .expect("zeta row");
        assert!(alpha < zeta);
        // wall latency is interleaving/wall-clock dependent: non-canonical
        assert!(!canonical.contains("serve_launch_wall_us"), "{canonical}");
        assert!(m
            .text(false)
            .contains("oclsim_serve_launch_wall_us_count 1"),);
    }

    #[test]
    fn adversarial_tenant_names_escape_cleanly() {
        let m = Metrics::new();
        // a tenant name carrying every character the text exposition
        // format treats specially inside a quoted label value
        let evil = "t\\en\"ant\nx";
        m.note_tenant(evil, |t| t.launches += 1);
        let text = m.text(true);
        assert!(
            text.contains("oclsim_serve_tenant_launches_total{tenant=\"t\\\\en\\\"ant\\nx\"} 1"),
            "{text}"
        );
        // no raw newline may survive inside any sample line
        for line in text.lines() {
            assert!(
                !line.contains("tenant=\"t\\en\"") || line.ends_with("} 1"),
                "corrupted line: {line}"
            );
        }
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    #[test]
    fn histogram_exemplars_link_buckets_to_traces() {
        let m = Metrics::new();
        let t = crate::obs::TenantObs::new("exemplar-tenant");
        let id = t.mint();
        m.serve_launch_wall_us.observe_traced(250, Some(id));
        m.serve_launch_wall_us.observe(50_000); // untraced: no exemplar
        assert_eq!(m.serve_launch_wall_us.exemplar(1), Some((id, 250)));
        assert_eq!(m.serve_launch_wall_us.exemplar(3), None);
        // exemplars render in the non-canonical snapshot only
        let full = m.text(false);
        assert!(
            full.contains(&format!(
                "oclsim_serve_launch_wall_us_bucket{{le=\"1000\"}} 1 # {{trace_id=\"{id}\"}} 250"
            )),
            "{full}"
        );
        assert!(!m.text(true).contains("trace_id"),);
    }

    #[test]
    fn canonical_snapshot_excludes_wall_clock_metrics() {
        let m = Metrics::new();
        m.note_compile("mmul", 0.002);
        let canonical = m.text(true);
        assert!(!canonical.contains("oclsim_compile_us"), "{canonical}");
        assert!(!canonical.contains("queue_depth"), "{canonical}");
        assert!(!canonical.contains("exec_pool"), "{canonical}");
        assert!(!canonical.contains("exec_wg_mem"), "{canonical}");
        assert!(!canonical.contains("mmul"), "{canonical}");
        let full = m.text(false);
        assert!(full.contains("oclsim_compile_us_count 1"), "{full}");
        for name in [
            "oclsim_exec_pool_helper_joins_total ",
            "oclsim_exec_pool_tickets_revoked_total ",
            "oclsim_exec_pool_threads ",
            "oclsim_exec_wg_mem_regular_total ",
            "oclsim_exec_wg_mem_generic_total ",
        ] {
            assert!(full.contains(name), "{full}");
        }
        assert!(
            full.contains("oclsim_kernel_compile_count{kernel=\"mmul\"} 1"),
            "{full}"
        );
    }
}
