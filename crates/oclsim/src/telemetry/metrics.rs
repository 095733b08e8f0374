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
//!
//! Each metric is declared once, as a row of the `registry!` table below:
//! field and doc, kind, [`Class`], exposition name (and label) and help
//! text. [`Metrics::new`], [`Metrics::reset`] and [`Metrics::text`] walk
//! the rows, so adding a metric means adding one row.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
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
}

/// What the registry does with each of its metrics: zero it, and write
/// its samples in the Prometheus text exposition format.
trait Metric {
    /// The metric's `# TYPE`.
    fn kind(&self) -> &'static str;
    fn reset(&self);
    /// Append the sample lines of `name`. `label` is `key="value"` or
    /// empty; `exemplars` appends histogram exemplars.
    fn samples(&self, out: &mut String, name: &str, label: &str, exemplars: bool);
}

/// Append one sample line.
fn sample(out: &mut String, name: &str, label: &str, value: impl Display) {
    if label.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{label}}} {value}");
    }
}

impl Metric for Counter {
    fn kind(&self) -> &'static str {
        "counter"
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    fn samples(&self, out: &mut String, name: &str, label: &str, _: bool) {
        sample(out, name, label, self.get());
    }
}

impl Metric for Gauge {
    fn kind(&self) -> &'static str {
        "gauge"
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    fn samples(&self, out: &mut String, name: &str, label: &str, _: bool) {
        sample(out, name, label, self.get());
    }
}

impl Metric for Histogram {
    fn kind(&self) -> &'static str {
        "histogram"
    }

    fn reset(&self) {
        let cells = self.counts.iter().chain(&self.exemplar_trace);
        for c in cells.chain(&self.exemplar_value) {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Buckets, sum and count. `exemplars` appends the OpenMetrics-style
    /// suffix (` # {trace_id="..."} value`) to buckets a traced
    /// observation landed in — only in non-canonical snapshots, since
    /// which traced observation a bucket saw last is an artifact of
    /// thread interleaving. Histograms carry no label.
    fn samples(&self, out: &mut String, name: &str, _: &str, exemplars: bool) {
        let mut cumulative = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            cumulative += count.load(Ordering::Relaxed);
            let le = self.bounds.get(i).map_or("+Inf".into(), u64::to_string);
            let _ = write!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            if let Some((trace, value)) = self.exemplar(i).filter(|_| exemplars) {
                let _ = write!(out, " # {{trace_id=\"{trace}\"}} {value}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {cumulative}");
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

/// Where a metric appears in the exposition and whether `reset` zeroes it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Workload-determined: in the canonical snapshot.
    Canonical,
    /// Wall-clock or interleaving dependent: only in the full snapshot.
    Varying,
    /// Like `Varying`, but process state that [`Metrics::reset`] keeps.
    Process,
}

/// One row of the registry table, as [`Metrics::text`] and
/// [`Metrics::reset`] walk it.
struct Row<'a> {
    metric: &'a dyn Metric,
    class: Class,
    name: &'static str,
    /// `key="value"` of a member of a labelled family, or empty.
    label: &'static str,
    /// `None`: the row continues the family of the row before it and
    /// shares its `# HELP`/`# TYPE` header.
    help: Option<&'static str>,
}

/// Render `rows`, each family under one header.
fn render<'a>(out: &mut String, rows: impl Iterator<Item = &'a Row<'a>>, exemplars: bool) {
    for r in rows {
        if let Some(help) = r.help {
            let _ = writeln!(out, "# HELP {} {help}", r.name);
            let _ = writeln!(out, "# TYPE {} {}", r.name, r.metric.kind());
        }
        r.metric.samples(out, r.name, r.label, exemplars);
    }
}

/// Declare the registry: each row is
/// `doc; field: Kind[(bounds)], Class "name"[{key = "value"}][, "help"];`
/// and becomes a `pub` field of [`Metrics`], its constructor call and a
/// [`Row`]. Rows of one class render in table order.
macro_rules! registry {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $kind:ident $(($bounds:expr))?, $class:ident
            $name:literal $({$key:ident = $value:literal})? $(, $help:literal)?;
    )*) => {
        /// The registry. One static instance per process, reached via
        /// [`metrics`]; fields are updated directly at the instrumented
        /// sites.
        pub struct Metrics {
            $($(#[doc = $doc])* pub $field: $kind,)*
            /// Per-tenant service accounting: tenant name → event counts.
            serve_tenants: Mutex<BTreeMap<String, TenantStats>>,
            /// Per-kernel compile accounting: name → (builds, wall seconds).
            per_kernel_compile: Mutex<BTreeMap<String, (u64, f64)>>,
        }

        impl Metrics {
            fn new() -> Self {
                Metrics {
                    $($field: registry!(@new $kind $($bounds)?),)*
                    serve_tenants: Mutex::default(),
                    per_kernel_compile: Mutex::default(),
                }
            }

            fn rows(&self) -> Vec<Row<'_>> {
                vec![$(Row {
                    metric: &self.$field,
                    class: Class::$class,
                    name: $name,
                    label: concat!($(stringify!($key), "=\"", $value, "\"")?),
                    help: registry!(@help $($help)?),
                }),*]
            }
        }
    };
    (@new Histogram $bounds:expr) => { Histogram::new($bounds) };
    (@new $kind:ident) => { $kind::default() };
    (@help) => { None };
    (@help $help:literal) => { Some($help) };
}

registry! {
    // --- hpl runtime ---
    /// `eval(f).run()` served from the alias-keyed kernel cache.
    kernel_cache_hits: Counter, Canonical "hpl_kernel_cache_hits_total",
        "eval() launches served from the kernel cache";
    /// Cache misses (kernel recorded + code generated).
    kernel_cache_misses: Counter, Canonical "hpl_kernel_cache_misses_total",
        "eval() launches that recorded + generated code";
    /// Entries dropped by `clear_kernel_cache`.
    kernel_cache_evictions: Counter, Canonical "hpl_kernel_cache_evictions_total",
        "kernel cache entries evicted";
    /// Host→device uploads issued by the coherence layer.
    h2d_transfers: Counter, Canonical "hpl_h2d_transfers_total",
        "host-to-device uploads issued by coherence";
    /// Bytes uploaded host→device.
    h2d_bytes: Counter, Canonical "hpl_h2d_bytes_total", "bytes uploaded host-to-device";
    /// Device→host downloads issued by the coherence layer.
    d2h_transfers: Counter, Canonical "hpl_d2h_transfers_total",
        "device-to-host downloads issued by coherence";
    /// Bytes downloaded device→host.
    d2h_bytes: Counter, Canonical "hpl_d2h_bytes_total", "bytes downloaded device-to-host";
    /// Uploads issued while the device copy was already valid — always a
    /// coherence bug; the bench gate fails on any increase.
    redundant_uploads: Counter, Canonical "hpl_redundant_uploads_total",
        "uploads issued while the device copy was already valid";
    /// Reads satisfied by an already-valid device copy (no transfer).
    coherence_hits: Counter, Canonical "hpl_coherence_hits_total",
        "reads satisfied by an already-valid device copy";
    /// Distribution of individual transfer sizes (bytes).
    transfer_bytes: Histogram(TRANSFER_BOUNDS), Canonical "hpl_transfer_bytes",
        "distribution of individual transfer sizes";
    // --- oclsim queue/scheduler ---
    /// Buffer writes admitted to a command queue.
    enqueued_writes: Counter, Canonical "oclsim_enqueued_writes_total",
        "buffer writes admitted to a queue";
    /// Buffer reads admitted to a command queue.
    enqueued_reads: Counter, Canonical "oclsim_enqueued_reads_total",
        "buffer reads admitted to a queue";
    /// Buffer copies admitted to a command queue.
    enqueued_copies: Counter, Canonical "oclsim_enqueued_copies_total",
        "buffer copies admitted to a queue";
    /// Kernel launches admitted to a command queue.
    enqueued_kernels: Counter, Canonical "oclsim_enqueued_kernels_total",
        "kernel launches admitted to a queue";
    /// Markers/barriers admitted to a command queue.
    enqueued_markers: Counter, Canonical "oclsim_enqueued_markers_total",
        "markers/barriers admitted to a queue";
    /// Commands handed to a device scheduler.
    dispatched: Counter, Canonical "oclsim_dispatched_total",
        "commands handed to a device scheduler";
    /// Commands that completed successfully.
    retired: Counter, Canonical "oclsim_retired_total", "commands completed successfully";
    /// Commands that finished in an error state.
    command_errors: Counter, Canonical "oclsim_command_errors_total",
        "commands that finished in an error state";
    /// Commands serviced by the DMA channel.
    dma_commands: Counter, Canonical "oclsim_dma_commands_total",
        "commands serviced by the DMA channel";
    /// Bytes moved by DMA commands.
    dma_bytes: Counter, Canonical "oclsim_dma_bytes_total", "bytes moved by DMA commands";
    /// `Program::build` invocations.
    builds: Counter, Canonical "oclsim_builds_total", "Program::build invocations";
    // --- oclsim::exec backends ---
    /// NDRange launches executed by the compiled work-group (wg) backend.
    exec_wg_launches: Counter, Canonical "oclsim_exec_wg_launches_total",
        "NDRange launches executed by the compiled work-group backend";
    /// NDRange launches executed by the reference SIMT interpreter.
    exec_ref_launches: Counter, Canonical "oclsim_exec_ref_launches_total",
        "NDRange launches executed by the reference SIMT interpreter";
    /// Launches that requested the wg backend but fell back to the
    /// reference interpreter (unsupported kernel, sanitizer, SIMD width).
    exec_wg_fallbacks: Counter, Canonical "oclsim_exec_wg_fallbacks_total",
        "wg-backend launches that fell back to the reference interpreter";
    // --- oclsim::prof cache model ---
    /// Simulated L1 hits on cache-capable devices.
    prof_cache_l1_hits: Counter, Canonical "oclsim_prof_cache_l1_hits_total",
        "simulated L1 hits on cache-capable devices";
    /// Simulated L1 misses on cache-capable devices.
    prof_cache_l1_misses: Counter, Canonical "oclsim_prof_cache_l1_misses_total",
        "simulated L1 misses on cache-capable devices";
    /// Simulated shared-L2 hits on cache-capable devices.
    prof_cache_l2_hits: Counter, Canonical "oclsim_prof_cache_l2_hits_total",
        "simulated shared-L2 hits on cache-capable devices";
    /// Simulated shared-L2 misses (DRAM line fills) on cache-capable
    /// devices.
    prof_cache_l2_misses: Counter, Canonical "oclsim_prof_cache_l2_misses_total",
        "simulated shared-L2 misses (DRAM line fills)";
    // --- oclsim::clc optimizing mid-end: per-pass work ---
    /// Expressions folded to constants by the mid-end.
    opt_const_folded: Counter, Canonical "oclsim_clc_opt_const_folded_total",
        "expressions folded to constants by the mid-end";
    /// Slot reads replaced with constants/copies by const-prop.
    opt_const_propagated: Counter, Canonical "oclsim_clc_opt_const_propagated_total",
        "slot reads replaced with constants/copies by const-prop";
    /// Dead statements removed by DCE.
    opt_dce_removed: Counter, Canonical "oclsim_clc_opt_dce_removed_total",
        "dead statements removed by DCE";
    /// Branches/loops resolved statically by CFG simplify.
    opt_branches_simplified: Counter, Canonical "oclsim_clc_opt_branches_simplified_total",
        "branches/loops resolved statically by CFG simplify";
    /// Redundant evaluations replaced by local CSE.
    opt_cse_replaced: Counter, Canonical "oclsim_clc_opt_cse_replaced_total",
        "redundant evaluations replaced by local CSE";
    /// Loop-invariant expressions hoisted by LICM.
    opt_licm_hoisted: Counter, Canonical "oclsim_clc_opt_licm_hoisted_total",
        "loop-invariant expressions hoisted by LICM";
    /// Control-flow graphs built by `clc::dataflow` (sanitizer, optimizer,
    /// work-group planner).
    cfg_builds: Counter, Canonical "oclsim_clc_cfg_builds_total",
        "control-flow graphs built by the dataflow framework";
    /// Dataflow fixpoint solves of constant propagation.
    solves_const_prop: Counter, Canonical
        "oclsim_clc_dataflow_solves_total"{analysis = "const_prop"},
        "dataflow fixpoint solves by analysis";
    /// Dataflow fixpoint solves of the interval analysis.
    solves_intervals: Counter, Canonical
        "oclsim_clc_dataflow_solves_total"{analysis = "intervals"};
    /// Dataflow fixpoint solves of liveness.
    solves_liveness: Counter, Canonical
        "oclsim_clc_dataflow_solves_total"{analysis = "liveness"};
    /// Dataflow fixpoint solves of the uniformity analysis.
    solves_uniformity: Counter, Canonical
        "oclsim_clc_dataflow_solves_total"{analysis = "uniformity"};
    // --- oclsim::serve shared binary cache + sessions ---
    /// Shared binary-cache lookups served from a resident binary.
    serve_cache_hits: Counter, Canonical "oclsim_serve_cache_hits_total",
        "shared binary-cache lookups served from a resident binary";
    /// Shared binary-cache lookups that compiled a new binary.
    serve_cache_misses: Counter, Canonical "oclsim_serve_cache_misses_total",
        "shared binary-cache lookups that compiled a new binary";
    /// Binaries evicted from the shared cache (LRU, capacity pressure).
    serve_cache_evictions: Counter, Canonical "oclsim_serve_cache_evictions_total",
        "binaries evicted from the shared cache";
    /// Bytes currently resident in the shared binary cache.
    serve_cache_bytes: Gauge, Canonical "oclsim_serve_cache_bytes",
        "bytes resident in the shared binary cache";
    /// Configured capacity of the shared binary cache.
    serve_cache_capacity_bytes: Gauge, Canonical "oclsim_serve_cache_capacity_bytes",
        "configured capacity of the shared binary cache";
    /// Launches admitted and executed by the service layer.
    serve_launches: Counter, Canonical "oclsim_serve_launches_total",
        "launches admitted and executed by the service layer";
    /// Service requests rejected at admission (quota or capacity).
    serve_rejections: Counter, Canonical "oclsim_serve_rejections_total",
        "service requests rejected at admission";
    // --- wall-clock or interleaving dependent ---
    /// Distribution of service launch wall latency (µs).
    serve_launch_wall_us: Histogram(LATENCY_BOUNDS), Varying "oclsim_serve_launch_wall_us",
        "service launch wall latency distribution (us)";
    /// Distribution of `Program::build` wall time (µs).
    compile_seconds: Histogram(COMPILE_BOUNDS), Varying "oclsim_compile_us",
        "Program::build wall time distribution (us)";
    /// Live commands in the most recently touched queue.
    queue_depth: Gauge, Varying "oclsim_queue_depth",
        "live commands in the most recently touched queue";
    /// High-water mark of [`Metrics::queue_depth`].
    queue_depth_peak: Gauge, Varying "oclsim_queue_depth_peak",
        "high-water mark of oclsim_queue_depth";
    /// Help tickets a pool thread picked up (`exec::pool`); which launches
    /// get help depends on thread timing.
    exec_pool_helper_joins: Counter, Varying "oclsim_exec_pool_helper_joins_total",
        "help tickets picked up by a pool thread";
    /// Help tickets revoked unclaimed when their launch ran out of groups.
    /// joins / (joins + revoked) is the pool's useful-work ratio.
    exec_pool_tickets_revoked: Counter, Varying "oclsim_exec_pool_tickets_revoked_total",
        "help tickets revoked unclaimed at the end of their launch";
    /// Warp memory accesses of the `wg` VM that were regular — one buffer
    /// or arena, aligned, in range, segments ascending — and so took the
    /// bulk move and the compare-free charge. Launches fold their count in
    /// once, when they end. Not canonical: the `ref` backend reports none.
    exec_wg_mem_regular: Counter, Varying "oclsim_exec_wg_mem_regular_total",
        "warp memory accesses of the wg VM that took the regular (bulk) path";
    /// Warp memory accesses of the `wg` VM that fell back to the generic
    /// path (per-lane move or sorted segment list). A kernel whose share
    /// of these is high runs slower than its instruction count suggests.
    exec_wg_mem_generic: Counter, Varying "oclsim_exec_wg_mem_generic_total",
        "warp memory accesses of the wg VM that fell back to the generic path";
    /// Live `exec::pool` threads over all devices. Process state, not
    /// workload state: [`reset_metrics`] leaves it alone.
    exec_pool_threads: Gauge, Process "oclsim_exec_pool_threads",
        "live worker-pool threads over all devices";
}

impl Metrics {
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

    /// Zero every metric but the process-state rows, i.e. the live-thread
    /// gauge (tests and the `report` subcommands use this to measure one
    /// workload in isolation).
    pub fn reset(&self) {
        for r in self.rows().iter().filter(|r| r.class != Class::Process) {
            r.metric.reset();
        }
        lock(&self.serve_tenants).clear();
        lock(&self.per_kernel_compile).clear();
    }

    /// Render the registry in Prometheus text exposition format, in table
    /// order: the canonical rows, the per-tenant family, then (unless
    /// `canonical`) the other rows and the per-kernel compile family. The
    /// canonical snapshot holds only workload-determined metrics, so it is
    /// byte-identical across `OCLSIM_THREADS` settings and across in-order
    /// vs out-of-order queues for the same workload.
    pub fn text(&self, canonical: bool) -> String {
        let mut out = String::new();
        let rows = self.rows();
        let is_canonical = |r: &&Row| r.class == Class::Canonical;
        render(&mut out, rows.iter().filter(is_canonical), !canonical);
        let tenants = self.tenant_stats();
        if !tenants.is_empty() {
            out.push_str("# HELP oclsim_serve_tenant per-tenant service accounting\n");
        }
        for (tenant, t) in &tenants {
            let label = format!("tenant=\"{}\"", escape_label(tenant));
            for (what, n) in [
                ("launches", t.launches),
                ("rejections", t.rejections),
                ("cache_hits", t.cache_hits),
                ("cache_misses", t.cache_misses),
            ] {
                let name = format!("oclsim_serve_tenant_{what}_total");
                sample(&mut out, &name, &label, n);
            }
        }
        if canonical {
            return out;
        }
        render(&mut out, rows.iter().filter(|r| !is_canonical(r)), true);
        let per_kernel = self.compile_by_kernel();
        if !per_kernel.is_empty() {
            out.push_str("# HELP oclsim_kernel_compile_seconds per-kernel compile wall time\n");
        }
        for (kernel, (count, seconds)) in &per_kernel {
            let label = format!("kernel=\"{}\"", escape_label(kernel));
            sample(&mut out, "oclsim_kernel_compile_count", &label, count);
            let sum = "oclsim_kernel_compile_seconds_sum";
            sample(&mut out, sum, &label, format!("{seconds:.6}"));
        }
        out
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

/// The process-wide registry.
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::new)
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

    /// A registry in which every metric holds a value no other metric
    /// holds, with two tenants and two kernels whose names need escaping
    /// and a traced exemplar on two histograms.
    fn populated() -> Metrics {
        let m = Metrics::new();
        let counters = [
            &m.kernel_cache_hits,
            &m.kernel_cache_misses,
            &m.kernel_cache_evictions,
            &m.h2d_transfers,
            &m.h2d_bytes,
            &m.d2h_transfers,
            &m.d2h_bytes,
            &m.redundant_uploads,
            &m.coherence_hits,
            &m.enqueued_writes,
            &m.enqueued_reads,
            &m.enqueued_copies,
            &m.enqueued_kernels,
            &m.enqueued_markers,
            &m.dispatched,
            &m.retired,
            &m.command_errors,
            &m.dma_commands,
            &m.dma_bytes,
            &m.builds,
            &m.exec_wg_launches,
            &m.exec_ref_launches,
            &m.exec_wg_fallbacks,
            &m.prof_cache_l1_hits,
            &m.prof_cache_l1_misses,
            &m.prof_cache_l2_hits,
            &m.prof_cache_l2_misses,
            &m.opt_const_folded,
            &m.opt_const_propagated,
            &m.opt_dce_removed,
            &m.opt_branches_simplified,
            &m.opt_cse_replaced,
            &m.opt_licm_hoisted,
            &m.cfg_builds,
            &m.solves_const_prop,
            &m.solves_intervals,
            &m.solves_liveness,
            &m.solves_uniformity,
            &m.serve_cache_hits,
            &m.serve_cache_misses,
            &m.serve_cache_evictions,
            &m.serve_launches,
            &m.serve_rejections,
            &m.exec_pool_helper_joins,
            &m.exec_pool_tickets_revoked,
            &m.exec_wg_mem_regular,
            &m.exec_wg_mem_generic,
        ];
        for (i, c) in counters.into_iter().enumerate() {
            c.add(i as u64 + 1);
        }
        m.serve_cache_bytes.set(101);
        m.serve_cache_capacity_bytes.set(102);
        m.queue_depth.set(-103);
        m.queue_depth_peak.raise_to(104);
        m.exec_pool_threads.add(105);
        let obs = crate::obs::TenantObs::new("golden");
        m.transfer_bytes.observe(200);
        m.transfer_bytes.observe_traced(70_000, Some(obs.mint()));
        m.transfer_bytes.observe(1 << 25);
        m.serve_launch_wall_us.observe(30);
        m.serve_launch_wall_us
            .observe_traced(2_500, Some(obs.mint()));
        m.note_compile("k\"one", 0.000_25);
        m.note_compile("k\\two\n", 0.0125);
        m.note_compile("k\"one", 2.5);
        m.note_tenant("t\"a", |t| {
            t.launches += 201;
            t.rejections += 202;
            t.cache_hits += 203;
            t.cache_misses += 204;
        });
        m.note_tenant("t\\b\nc", |t| t.launches += 205);
        m
    }

    /// The exposition of [`populated`], captured byte for byte: the
    /// Prometheus text is an interface (`report -- metrics`, scrapers), so
    /// any change to it shows up here first.
    #[test]
    fn exposition_is_pinned_byte_for_byte_and_reset_zeroes_all_but_the_pool_gauge() {
        let m = populated();
        assert_eq!(m.text(true), GOLDEN_CANONICAL);
        assert_eq!(m.text(false), GOLDEN_FULL);
        m.reset();
        let text = m.text(false);
        let nonzero: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.ends_with(" 0"))
            .collect();
        assert_eq!(nonzero, ["oclsim_exec_pool_threads 105"]);
        // and otherwise reads exactly like a fresh registry
        let fresh = Metrics::new();
        fresh.exec_pool_threads.add(105);
        assert_eq!(text, fresh.text(false));
    }

    const GOLDEN_CANONICAL: &str = r##"# HELP hpl_kernel_cache_hits_total eval() launches served from the kernel cache
# TYPE hpl_kernel_cache_hits_total counter
hpl_kernel_cache_hits_total 1
# HELP hpl_kernel_cache_misses_total eval() launches that recorded + generated code
# TYPE hpl_kernel_cache_misses_total counter
hpl_kernel_cache_misses_total 2
# HELP hpl_kernel_cache_evictions_total kernel cache entries evicted
# TYPE hpl_kernel_cache_evictions_total counter
hpl_kernel_cache_evictions_total 3
# HELP hpl_h2d_transfers_total host-to-device uploads issued by coherence
# TYPE hpl_h2d_transfers_total counter
hpl_h2d_transfers_total 4
# HELP hpl_h2d_bytes_total bytes uploaded host-to-device
# TYPE hpl_h2d_bytes_total counter
hpl_h2d_bytes_total 5
# HELP hpl_d2h_transfers_total device-to-host downloads issued by coherence
# TYPE hpl_d2h_transfers_total counter
hpl_d2h_transfers_total 6
# HELP hpl_d2h_bytes_total bytes downloaded device-to-host
# TYPE hpl_d2h_bytes_total counter
hpl_d2h_bytes_total 7
# HELP hpl_redundant_uploads_total uploads issued while the device copy was already valid
# TYPE hpl_redundant_uploads_total counter
hpl_redundant_uploads_total 8
# HELP hpl_coherence_hits_total reads satisfied by an already-valid device copy
# TYPE hpl_coherence_hits_total counter
hpl_coherence_hits_total 9
# HELP hpl_transfer_bytes distribution of individual transfer sizes
# TYPE hpl_transfer_bytes histogram
hpl_transfer_bytes_bucket{le="1024"} 1
hpl_transfer_bytes_bucket{le="65536"} 1
hpl_transfer_bytes_bucket{le="1048576"} 2
hpl_transfer_bytes_bucket{le="16777216"} 2
hpl_transfer_bytes_bucket{le="+Inf"} 3
hpl_transfer_bytes_sum 33624632
hpl_transfer_bytes_count 3
# HELP oclsim_enqueued_writes_total buffer writes admitted to a queue
# TYPE oclsim_enqueued_writes_total counter
oclsim_enqueued_writes_total 10
# HELP oclsim_enqueued_reads_total buffer reads admitted to a queue
# TYPE oclsim_enqueued_reads_total counter
oclsim_enqueued_reads_total 11
# HELP oclsim_enqueued_copies_total buffer copies admitted to a queue
# TYPE oclsim_enqueued_copies_total counter
oclsim_enqueued_copies_total 12
# HELP oclsim_enqueued_kernels_total kernel launches admitted to a queue
# TYPE oclsim_enqueued_kernels_total counter
oclsim_enqueued_kernels_total 13
# HELP oclsim_enqueued_markers_total markers/barriers admitted to a queue
# TYPE oclsim_enqueued_markers_total counter
oclsim_enqueued_markers_total 14
# HELP oclsim_dispatched_total commands handed to a device scheduler
# TYPE oclsim_dispatched_total counter
oclsim_dispatched_total 15
# HELP oclsim_retired_total commands completed successfully
# TYPE oclsim_retired_total counter
oclsim_retired_total 16
# HELP oclsim_command_errors_total commands that finished in an error state
# TYPE oclsim_command_errors_total counter
oclsim_command_errors_total 17
# HELP oclsim_dma_commands_total commands serviced by the DMA channel
# TYPE oclsim_dma_commands_total counter
oclsim_dma_commands_total 18
# HELP oclsim_dma_bytes_total bytes moved by DMA commands
# TYPE oclsim_dma_bytes_total counter
oclsim_dma_bytes_total 19
# HELP oclsim_builds_total Program::build invocations
# TYPE oclsim_builds_total counter
oclsim_builds_total 20
# HELP oclsim_exec_wg_launches_total NDRange launches executed by the compiled work-group backend
# TYPE oclsim_exec_wg_launches_total counter
oclsim_exec_wg_launches_total 21
# HELP oclsim_exec_ref_launches_total NDRange launches executed by the reference SIMT interpreter
# TYPE oclsim_exec_ref_launches_total counter
oclsim_exec_ref_launches_total 22
# HELP oclsim_exec_wg_fallbacks_total wg-backend launches that fell back to the reference interpreter
# TYPE oclsim_exec_wg_fallbacks_total counter
oclsim_exec_wg_fallbacks_total 23
# HELP oclsim_prof_cache_l1_hits_total simulated L1 hits on cache-capable devices
# TYPE oclsim_prof_cache_l1_hits_total counter
oclsim_prof_cache_l1_hits_total 24
# HELP oclsim_prof_cache_l1_misses_total simulated L1 misses on cache-capable devices
# TYPE oclsim_prof_cache_l1_misses_total counter
oclsim_prof_cache_l1_misses_total 25
# HELP oclsim_prof_cache_l2_hits_total simulated shared-L2 hits on cache-capable devices
# TYPE oclsim_prof_cache_l2_hits_total counter
oclsim_prof_cache_l2_hits_total 26
# HELP oclsim_prof_cache_l2_misses_total simulated shared-L2 misses (DRAM line fills)
# TYPE oclsim_prof_cache_l2_misses_total counter
oclsim_prof_cache_l2_misses_total 27
# HELP oclsim_clc_opt_const_folded_total expressions folded to constants by the mid-end
# TYPE oclsim_clc_opt_const_folded_total counter
oclsim_clc_opt_const_folded_total 28
# HELP oclsim_clc_opt_const_propagated_total slot reads replaced with constants/copies by const-prop
# TYPE oclsim_clc_opt_const_propagated_total counter
oclsim_clc_opt_const_propagated_total 29
# HELP oclsim_clc_opt_dce_removed_total dead statements removed by DCE
# TYPE oclsim_clc_opt_dce_removed_total counter
oclsim_clc_opt_dce_removed_total 30
# HELP oclsim_clc_opt_branches_simplified_total branches/loops resolved statically by CFG simplify
# TYPE oclsim_clc_opt_branches_simplified_total counter
oclsim_clc_opt_branches_simplified_total 31
# HELP oclsim_clc_opt_cse_replaced_total redundant evaluations replaced by local CSE
# TYPE oclsim_clc_opt_cse_replaced_total counter
oclsim_clc_opt_cse_replaced_total 32
# HELP oclsim_clc_opt_licm_hoisted_total loop-invariant expressions hoisted by LICM
# TYPE oclsim_clc_opt_licm_hoisted_total counter
oclsim_clc_opt_licm_hoisted_total 33
# HELP oclsim_clc_cfg_builds_total control-flow graphs built by the dataflow framework
# TYPE oclsim_clc_cfg_builds_total counter
oclsim_clc_cfg_builds_total 34
# HELP oclsim_clc_dataflow_solves_total dataflow fixpoint solves by analysis
# TYPE oclsim_clc_dataflow_solves_total counter
oclsim_clc_dataflow_solves_total{analysis="const_prop"} 35
oclsim_clc_dataflow_solves_total{analysis="intervals"} 36
oclsim_clc_dataflow_solves_total{analysis="liveness"} 37
oclsim_clc_dataflow_solves_total{analysis="uniformity"} 38
# HELP oclsim_serve_cache_hits_total shared binary-cache lookups served from a resident binary
# TYPE oclsim_serve_cache_hits_total counter
oclsim_serve_cache_hits_total 39
# HELP oclsim_serve_cache_misses_total shared binary-cache lookups that compiled a new binary
# TYPE oclsim_serve_cache_misses_total counter
oclsim_serve_cache_misses_total 40
# HELP oclsim_serve_cache_evictions_total binaries evicted from the shared cache
# TYPE oclsim_serve_cache_evictions_total counter
oclsim_serve_cache_evictions_total 41
# HELP oclsim_serve_cache_bytes bytes resident in the shared binary cache
# TYPE oclsim_serve_cache_bytes gauge
oclsim_serve_cache_bytes 101
# HELP oclsim_serve_cache_capacity_bytes configured capacity of the shared binary cache
# TYPE oclsim_serve_cache_capacity_bytes gauge
oclsim_serve_cache_capacity_bytes 102
# HELP oclsim_serve_launches_total launches admitted and executed by the service layer
# TYPE oclsim_serve_launches_total counter
oclsim_serve_launches_total 42
# HELP oclsim_serve_rejections_total service requests rejected at admission
# TYPE oclsim_serve_rejections_total counter
oclsim_serve_rejections_total 43
# HELP oclsim_serve_tenant per-tenant service accounting
oclsim_serve_tenant_launches_total{tenant="t\"a"} 201
oclsim_serve_tenant_rejections_total{tenant="t\"a"} 202
oclsim_serve_tenant_cache_hits_total{tenant="t\"a"} 203
oclsim_serve_tenant_cache_misses_total{tenant="t\"a"} 204
oclsim_serve_tenant_launches_total{tenant="t\\b\nc"} 205
oclsim_serve_tenant_rejections_total{tenant="t\\b\nc"} 0
oclsim_serve_tenant_cache_hits_total{tenant="t\\b\nc"} 0
oclsim_serve_tenant_cache_misses_total{tenant="t\\b\nc"} 0
"##;

    const GOLDEN_FULL: &str = r##"# HELP hpl_kernel_cache_hits_total eval() launches served from the kernel cache
# TYPE hpl_kernel_cache_hits_total counter
hpl_kernel_cache_hits_total 1
# HELP hpl_kernel_cache_misses_total eval() launches that recorded + generated code
# TYPE hpl_kernel_cache_misses_total counter
hpl_kernel_cache_misses_total 2
# HELP hpl_kernel_cache_evictions_total kernel cache entries evicted
# TYPE hpl_kernel_cache_evictions_total counter
hpl_kernel_cache_evictions_total 3
# HELP hpl_h2d_transfers_total host-to-device uploads issued by coherence
# TYPE hpl_h2d_transfers_total counter
hpl_h2d_transfers_total 4
# HELP hpl_h2d_bytes_total bytes uploaded host-to-device
# TYPE hpl_h2d_bytes_total counter
hpl_h2d_bytes_total 5
# HELP hpl_d2h_transfers_total device-to-host downloads issued by coherence
# TYPE hpl_d2h_transfers_total counter
hpl_d2h_transfers_total 6
# HELP hpl_d2h_bytes_total bytes downloaded device-to-host
# TYPE hpl_d2h_bytes_total counter
hpl_d2h_bytes_total 7
# HELP hpl_redundant_uploads_total uploads issued while the device copy was already valid
# TYPE hpl_redundant_uploads_total counter
hpl_redundant_uploads_total 8
# HELP hpl_coherence_hits_total reads satisfied by an already-valid device copy
# TYPE hpl_coherence_hits_total counter
hpl_coherence_hits_total 9
# HELP hpl_transfer_bytes distribution of individual transfer sizes
# TYPE hpl_transfer_bytes histogram
hpl_transfer_bytes_bucket{le="1024"} 1
hpl_transfer_bytes_bucket{le="65536"} 1
hpl_transfer_bytes_bucket{le="1048576"} 2 # {trace_id="ta9f48c4a-001"} 70000
hpl_transfer_bytes_bucket{le="16777216"} 2
hpl_transfer_bytes_bucket{le="+Inf"} 3
hpl_transfer_bytes_sum 33624632
hpl_transfer_bytes_count 3
# HELP oclsim_enqueued_writes_total buffer writes admitted to a queue
# TYPE oclsim_enqueued_writes_total counter
oclsim_enqueued_writes_total 10
# HELP oclsim_enqueued_reads_total buffer reads admitted to a queue
# TYPE oclsim_enqueued_reads_total counter
oclsim_enqueued_reads_total 11
# HELP oclsim_enqueued_copies_total buffer copies admitted to a queue
# TYPE oclsim_enqueued_copies_total counter
oclsim_enqueued_copies_total 12
# HELP oclsim_enqueued_kernels_total kernel launches admitted to a queue
# TYPE oclsim_enqueued_kernels_total counter
oclsim_enqueued_kernels_total 13
# HELP oclsim_enqueued_markers_total markers/barriers admitted to a queue
# TYPE oclsim_enqueued_markers_total counter
oclsim_enqueued_markers_total 14
# HELP oclsim_dispatched_total commands handed to a device scheduler
# TYPE oclsim_dispatched_total counter
oclsim_dispatched_total 15
# HELP oclsim_retired_total commands completed successfully
# TYPE oclsim_retired_total counter
oclsim_retired_total 16
# HELP oclsim_command_errors_total commands that finished in an error state
# TYPE oclsim_command_errors_total counter
oclsim_command_errors_total 17
# HELP oclsim_dma_commands_total commands serviced by the DMA channel
# TYPE oclsim_dma_commands_total counter
oclsim_dma_commands_total 18
# HELP oclsim_dma_bytes_total bytes moved by DMA commands
# TYPE oclsim_dma_bytes_total counter
oclsim_dma_bytes_total 19
# HELP oclsim_builds_total Program::build invocations
# TYPE oclsim_builds_total counter
oclsim_builds_total 20
# HELP oclsim_exec_wg_launches_total NDRange launches executed by the compiled work-group backend
# TYPE oclsim_exec_wg_launches_total counter
oclsim_exec_wg_launches_total 21
# HELP oclsim_exec_ref_launches_total NDRange launches executed by the reference SIMT interpreter
# TYPE oclsim_exec_ref_launches_total counter
oclsim_exec_ref_launches_total 22
# HELP oclsim_exec_wg_fallbacks_total wg-backend launches that fell back to the reference interpreter
# TYPE oclsim_exec_wg_fallbacks_total counter
oclsim_exec_wg_fallbacks_total 23
# HELP oclsim_prof_cache_l1_hits_total simulated L1 hits on cache-capable devices
# TYPE oclsim_prof_cache_l1_hits_total counter
oclsim_prof_cache_l1_hits_total 24
# HELP oclsim_prof_cache_l1_misses_total simulated L1 misses on cache-capable devices
# TYPE oclsim_prof_cache_l1_misses_total counter
oclsim_prof_cache_l1_misses_total 25
# HELP oclsim_prof_cache_l2_hits_total simulated shared-L2 hits on cache-capable devices
# TYPE oclsim_prof_cache_l2_hits_total counter
oclsim_prof_cache_l2_hits_total 26
# HELP oclsim_prof_cache_l2_misses_total simulated shared-L2 misses (DRAM line fills)
# TYPE oclsim_prof_cache_l2_misses_total counter
oclsim_prof_cache_l2_misses_total 27
# HELP oclsim_clc_opt_const_folded_total expressions folded to constants by the mid-end
# TYPE oclsim_clc_opt_const_folded_total counter
oclsim_clc_opt_const_folded_total 28
# HELP oclsim_clc_opt_const_propagated_total slot reads replaced with constants/copies by const-prop
# TYPE oclsim_clc_opt_const_propagated_total counter
oclsim_clc_opt_const_propagated_total 29
# HELP oclsim_clc_opt_dce_removed_total dead statements removed by DCE
# TYPE oclsim_clc_opt_dce_removed_total counter
oclsim_clc_opt_dce_removed_total 30
# HELP oclsim_clc_opt_branches_simplified_total branches/loops resolved statically by CFG simplify
# TYPE oclsim_clc_opt_branches_simplified_total counter
oclsim_clc_opt_branches_simplified_total 31
# HELP oclsim_clc_opt_cse_replaced_total redundant evaluations replaced by local CSE
# TYPE oclsim_clc_opt_cse_replaced_total counter
oclsim_clc_opt_cse_replaced_total 32
# HELP oclsim_clc_opt_licm_hoisted_total loop-invariant expressions hoisted by LICM
# TYPE oclsim_clc_opt_licm_hoisted_total counter
oclsim_clc_opt_licm_hoisted_total 33
# HELP oclsim_clc_cfg_builds_total control-flow graphs built by the dataflow framework
# TYPE oclsim_clc_cfg_builds_total counter
oclsim_clc_cfg_builds_total 34
# HELP oclsim_clc_dataflow_solves_total dataflow fixpoint solves by analysis
# TYPE oclsim_clc_dataflow_solves_total counter
oclsim_clc_dataflow_solves_total{analysis="const_prop"} 35
oclsim_clc_dataflow_solves_total{analysis="intervals"} 36
oclsim_clc_dataflow_solves_total{analysis="liveness"} 37
oclsim_clc_dataflow_solves_total{analysis="uniformity"} 38
# HELP oclsim_serve_cache_hits_total shared binary-cache lookups served from a resident binary
# TYPE oclsim_serve_cache_hits_total counter
oclsim_serve_cache_hits_total 39
# HELP oclsim_serve_cache_misses_total shared binary-cache lookups that compiled a new binary
# TYPE oclsim_serve_cache_misses_total counter
oclsim_serve_cache_misses_total 40
# HELP oclsim_serve_cache_evictions_total binaries evicted from the shared cache
# TYPE oclsim_serve_cache_evictions_total counter
oclsim_serve_cache_evictions_total 41
# HELP oclsim_serve_cache_bytes bytes resident in the shared binary cache
# TYPE oclsim_serve_cache_bytes gauge
oclsim_serve_cache_bytes 101
# HELP oclsim_serve_cache_capacity_bytes configured capacity of the shared binary cache
# TYPE oclsim_serve_cache_capacity_bytes gauge
oclsim_serve_cache_capacity_bytes 102
# HELP oclsim_serve_launches_total launches admitted and executed by the service layer
# TYPE oclsim_serve_launches_total counter
oclsim_serve_launches_total 42
# HELP oclsim_serve_rejections_total service requests rejected at admission
# TYPE oclsim_serve_rejections_total counter
oclsim_serve_rejections_total 43
# HELP oclsim_serve_tenant per-tenant service accounting
oclsim_serve_tenant_launches_total{tenant="t\"a"} 201
oclsim_serve_tenant_rejections_total{tenant="t\"a"} 202
oclsim_serve_tenant_cache_hits_total{tenant="t\"a"} 203
oclsim_serve_tenant_cache_misses_total{tenant="t\"a"} 204
oclsim_serve_tenant_launches_total{tenant="t\\b\nc"} 205
oclsim_serve_tenant_rejections_total{tenant="t\\b\nc"} 0
oclsim_serve_tenant_cache_hits_total{tenant="t\\b\nc"} 0
oclsim_serve_tenant_cache_misses_total{tenant="t\\b\nc"} 0
# HELP oclsim_serve_launch_wall_us service launch wall latency distribution (us)
# TYPE oclsim_serve_launch_wall_us histogram
oclsim_serve_launch_wall_us_bucket{le="100"} 1
oclsim_serve_launch_wall_us_bucket{le="1000"} 1
oclsim_serve_launch_wall_us_bucket{le="10000"} 2 # {trace_id="ta9f48c4a-002"} 2500
oclsim_serve_launch_wall_us_bucket{le="100000"} 2
oclsim_serve_launch_wall_us_bucket{le="1000000"} 2
oclsim_serve_launch_wall_us_bucket{le="+Inf"} 2
oclsim_serve_launch_wall_us_sum 2530
oclsim_serve_launch_wall_us_count 2
# HELP oclsim_compile_us Program::build wall time distribution (us)
# TYPE oclsim_compile_us histogram
oclsim_compile_us_bucket{le="100"} 0
oclsim_compile_us_bucket{le="1000"} 1
oclsim_compile_us_bucket{le="10000"} 1
oclsim_compile_us_bucket{le="100000"} 2
oclsim_compile_us_bucket{le="1000000"} 2
oclsim_compile_us_bucket{le="+Inf"} 3
oclsim_compile_us_sum 2512750
oclsim_compile_us_count 3
# HELP oclsim_queue_depth live commands in the most recently touched queue
# TYPE oclsim_queue_depth gauge
oclsim_queue_depth -103
# HELP oclsim_queue_depth_peak high-water mark of oclsim_queue_depth
# TYPE oclsim_queue_depth_peak gauge
oclsim_queue_depth_peak 104
# HELP oclsim_exec_pool_helper_joins_total help tickets picked up by a pool thread
# TYPE oclsim_exec_pool_helper_joins_total counter
oclsim_exec_pool_helper_joins_total 44
# HELP oclsim_exec_pool_tickets_revoked_total help tickets revoked unclaimed at the end of their launch
# TYPE oclsim_exec_pool_tickets_revoked_total counter
oclsim_exec_pool_tickets_revoked_total 45
# HELP oclsim_exec_wg_mem_regular_total warp memory accesses of the wg VM that took the regular (bulk) path
# TYPE oclsim_exec_wg_mem_regular_total counter
oclsim_exec_wg_mem_regular_total 46
# HELP oclsim_exec_wg_mem_generic_total warp memory accesses of the wg VM that fell back to the generic path
# TYPE oclsim_exec_wg_mem_generic_total counter
oclsim_exec_wg_mem_generic_total 47
# HELP oclsim_exec_pool_threads live worker-pool threads over all devices
# TYPE oclsim_exec_pool_threads gauge
oclsim_exec_pool_threads 105
# HELP oclsim_kernel_compile_seconds per-kernel compile wall time
oclsim_kernel_compile_count{kernel="k\"one"} 2
oclsim_kernel_compile_seconds_sum{kernel="k\"one"} 2.500250
oclsim_kernel_compile_count{kernel="k\\two\n"} 1
oclsim_kernel_compile_seconds_sum{kernel="k\\two\n"} 0.012500
"##;
}
