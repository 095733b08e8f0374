//! The `report -- soak` experiment: a multi-tenant soak of the kernel
//! service.
//!
//! N concurrent tenants (worker threads, each inside its own
//! `hpl::session` tenant scope against one shared
//! [`oclsim::serve::Service`]) iterate over the five paper benchmarks as
//! mixed workloads. A warm-up tenant compiles every kernel first, so the
//! soak phase exercises the property the service exists for: identical
//! kernels from different tenants resolve to **one** resident binary —
//! every tenant's cache misses stay at zero and the misses are all
//! attributed to the warm-up tenant, regardless of how the tenant threads
//! interleave. A deliberately under-quota'd "greedy" tenant then runs
//! until admission control rejects it, and a partitioned launch splits
//! one NDRange across the service's heterogeneous devices with all three
//! EngineCL-style strategies, bit-identical to the single-device
//! reference.
//!
//! Wall-clock figures (p50/p99 workload latency, launches/sec) are
//! printed, never gated. A per-tenant latency breakdown (p50/p99 and
//! launches/sec per tenant) is derived from the per-request causal traces
//! the serve layer pushes into the completed-trace sink — so every figure
//! is attributable to individual trace ids, not just to aggregate
//! histograms. The canonical metrics snapshot excludes every wall-clock
//! metric by construction; `tests/sink_matrix.rs` compares it across 1
//! and 4 claimers, so the service's counter totals must be a pure function
//! of the workload, never of scheduling.

use std::sync::Arc;
use std::time::Instant;

use oclsim::serve::{
    run_partitioned, run_reference, JobArg, LaunchJob, PartitionStrategy, PartitionTarget,
    TenantQuota,
};
use oclsim::telemetry::TenantStats;
use oclsim::Value;

use crate::profile::{run_bench, BENCHES};

/// Soak dimensions.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent tenant threads.
    pub tenants: usize,
    /// Passes each tenant makes over the five benchmarks.
    pub iterations: usize,
    /// Launch quota of the greedy tenant (it runs until rejected).
    pub greedy_launches: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            tenants: 4,
            iterations: 2,
            greedy_launches: 5,
        }
    }
}

/// One tenant's row of the soak report.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Its counters from the metrics registry.
    pub stats: TenantStats,
}

/// One tenant's latency breakdown, derived from the per-request traces
/// the serve layer pushes into the completed-trace sink
/// ([`oclsim::obs::drain_request_traces`]) — the causal span trees, not
/// the aggregate histograms, so every figure here is attributable to
/// individual trace ids.
#[derive(Debug, Clone)]
pub struct TenantLatencyRow {
    /// Tenant name.
    pub tenant: String,
    /// Completed requests the tenant submitted (traces drained).
    pub requests: usize,
    /// How many of them ended in an error (quota rejections included).
    pub failed: usize,
    /// Median request wall latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request wall latency, milliseconds.
    pub p99_ms: f64,
    /// Requests per second of the tenant's own active wall time
    /// (requests / sum of its request walls).
    pub per_sec: f64,
}

/// One strategy's partitioned-launch outcome in the demo section.
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// Strategy label.
    pub strategy: String,
    /// Modeled makespan of the split launch.
    pub makespan_seconds: f64,
    /// Chunks executed per device, in device order.
    pub chunks_per_device: Vec<usize>,
    /// Work-groups executed per device, in device order.
    pub groups_per_device: Vec<usize>,
    /// Outputs byte-identical to the single-device reference.
    pub bit_identical: bool,
}

/// Everything `report -- soak` prints and gates on.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The configuration that ran.
    pub config: SoakConfig,
    /// Wall seconds of the concurrent tenant phase.
    pub wall_seconds: f64,
    /// Launches the service admitted in total (all tenants).
    pub total_launches: u64,
    /// Admitted launches per wall second of the tenant phase.
    pub launches_per_sec: f64,
    /// Median workload latency over all tenant iterations, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile workload latency, milliseconds.
    pub p99_ms: f64,
    /// Per-tenant counters, sorted by tenant name.
    pub tenant_rows: Vec<TenantRow>,
    /// Per-tenant latency breakdown from the per-request traces, sorted
    /// by tenant name. Wall-clock figures — trend data, never gated.
    pub latency_rows: Vec<TenantLatencyRow>,
    /// Admission rejections the greedy tenant provoked.
    pub greedy_rejections: u64,
    /// Redundant host→device uploads across the whole soak (must be 0).
    pub redundant_uploads: u64,
    /// Resident binaries in the shared cache at the end.
    pub resident_binaries: usize,
    /// The partition demo rows (Static / Dynamic / HGuided).
    pub partition: Vec<PartitionRow>,
    /// Reference single-device makespan the partition rows compare to.
    pub reference_seconds: f64,
    /// The canonical metrics snapshot (wall-clock metrics excluded).
    pub metrics_snapshot: String,
}

impl SoakReport {
    /// The soak's invariants: every non-warm-up tenant was served without
    /// a single compile (zero cross-tenant cache misses), no coherence
    /// redundancy, the greedy tenant was rejected, and every partitioned
    /// launch was bit-identical and no slower than the reference.
    pub fn healthy(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for row in &self.tenant_rows {
            if row.tenant != WARMUP_TENANT && row.stats.cache_misses != 0 {
                failures.push(format!(
                    "tenant `{}` compiled {} kernel(s) that the warm-up should have made \
                     shared cache hits",
                    row.tenant, row.stats.cache_misses
                ));
            }
        }
        if self.redundant_uploads != 0 {
            failures.push(format!(
                "{} redundant host→device upload(s) — the coherence layer re-uploaded a \
                 valid device copy",
                self.redundant_uploads
            ));
        }
        if self.greedy_rejections == 0 {
            failures.push("the greedy tenant was never rejected by admission control".into());
        }
        for p in &self.partition {
            if !p.bit_identical {
                failures.push(format!(
                    "{}: partitioned outputs differ from the single-device reference",
                    p.strategy
                ));
            }
        }
        // On this heterogeneous pair the Quadro contributes ~5% of the
        // throughput, so only the weight-proportional static split is
        // guaranteed to amortize the per-chunk launch overhead; the
        // chunked strategies are reported as trend data.
        if !self
            .partition
            .iter()
            .any(|p| p.makespan_seconds < self.reference_seconds)
        {
            failures.push(format!(
                "no partition strategy beat the single-device reference ({:.9} s)",
                self.reference_seconds
            ));
        }
        failures
    }
}

const WARMUP_TENANT: &str = "_warmup";

/// The partition demo kernel: enough arithmetic per item that the modeled
/// work dwarfs the fixed per-launch overhead, so splitting pays off.
const PARTITION_SRC: &str = r#"
__kernel void saxpy_heavy(__global float* y, __global const float* x, float a) {
    size_t i = get_global_id(0);
    float acc = y[i];
    for (int k = 0; k < 256; k++) {
        acc = acc * 0.5f + a * x[i] * 0.25f;
    }
    y[i] = acc;
}
"#;

fn partition_job(n: usize) -> LaunchJob {
    let x: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let y: Vec<u8> = (0..n)
        .flat_map(|i| ((i % 9) as f32).to_le_bytes())
        .collect();
    LaunchJob {
        source: PARTITION_SRC.to_string(),
        kernel: "saxpy_heavy".to_string(),
        build_options: String::new(),
        args: vec![
            JobArg::InOut(y),
            JobArg::In(x),
            JobArg::Scalar(Value::F32(2.0)),
        ],
        global: vec![n],
        local: Some(vec![16]),
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Run the soak. Self-contained: clears the HPL kernel cache and resets
/// the metrics registry first, so the snapshot reflects this workload
/// only; the service executes like the calling thread's runtime.
pub fn compute(device: &oclsim::Device, config: &SoakConfig) -> Result<SoakReport, String> {
    hpl::clear_kernel_cache();
    hpl::telemetry::reset_metrics();
    // start from an empty completed-trace sink so the per-tenant latency
    // breakdown below covers this soak's requests only
    let _reader = oclsim::obs::collect_request_traces();
    drop(oclsim::obs::drain_request_traces());
    let service = crate::service()?;

    // Warm-up tenant: every capture, codegen and backend compile of the
    // benchmark kernels lands here, so the soak tenants below can only hit
    // the shared cache — no matter how their threads interleave.
    {
        let session = Arc::new(service.session(WARMUP_TENANT, TenantQuota::unlimited()));
        let _scope = hpl::enter_tenant(session);
        for &bench in BENCHES {
            run_bench(bench, true, true, device).map_err(|e| format!("warm-up {bench}: {e}"))?;
        }
    }

    // Concurrent tenant phase: N threads, each its own tenant, mixed
    // benchmark workloads.
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..config.tenants {
        let service = service.clone();
        let device = device.clone();
        let iterations = config.iterations;
        // a runtime scope is per thread: the tenants join the caller's, whose
        // kernel cache the warm-up filled and whose device they launch on
        let rt = hpl::runtime();
        handles.push(std::thread::spawn(move || {
            let _rt = rt.enter();
            let name = format!("tenant{t}");
            let session = Arc::new(service.session(&name, TenantQuota::unlimited()));
            let _scope = hpl::enter_tenant(session);
            let mut latencies_ms = Vec::with_capacity(iterations * BENCHES.len());
            for _ in 0..iterations {
                for &bench in BENCHES {
                    let t0 = Instant::now();
                    run_bench(bench, true, true, &device)
                        .map_err(|e| format!("{name} {bench}: {e}"))?;
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1.0e3);
                }
            }
            Ok::<Vec<f64>, String>(latencies_ms)
        }));
    }
    let mut latencies_ms = Vec::new();
    for h in handles {
        latencies_ms.extend(
            h.join()
                .map_err(|_| "tenant thread panicked".to_string())??,
        );
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);

    // Greedy tenant: a launch quota it is guaranteed to blow through; the
    // rejection must surface as an admission error chained to the quota.
    let mut greedy_rejections = 0u64;
    {
        let session = Arc::new(service.session(
            "greedy",
            TenantQuota {
                max_launches: Some(config.greedy_launches),
                ..TenantQuota::default()
            },
        ));
        let _scope = hpl::enter_tenant(session);
        for _ in 0..=config.greedy_launches {
            match run_bench("floyd", true, true, device) {
                Ok(()) => {}
                Err(benchsuite::Error::Hpl(hpl::Error::Backend(
                    oclsim::Error::AdmissionRejected { .. },
                ))) => {
                    greedy_rejections += 1;
                    break;
                }
                Err(other) => return Err(format!("greedy tenant failed unexpectedly: {other}")),
            }
        }
    }

    // Partition demo: one NDRange split across the service's
    // heterogeneous devices (Tesla + Quadro by default), every strategy
    // bit-identical to the single-device reference.
    let job = partition_job(16384);
    let targets: Vec<PartitionTarget> =
        service.partition_targets(&job).map_err(|e| e.to_string())?;
    let reference = run_reference(&targets[0], &job).map_err(|e| e.to_string())?;
    let ndev = targets.len();
    let mut partition = Vec::new();
    for (label, strategy) in [
        ("Static", PartitionStrategy::Static),
        (
            "Dynamic(128)",
            PartitionStrategy::Dynamic { chunk_groups: 128 },
        ),
        (
            "HGuided(64)",
            PartitionStrategy::HGuided {
                min_chunk_groups: 64,
            },
        ),
    ] {
        let outcome = run_partitioned(&targets, &job, strategy).map_err(|e| e.to_string())?;
        let mut chunks_per_device = vec![0usize; ndev];
        let mut groups_per_device = vec![0usize; ndev];
        for c in &outcome.chunks {
            chunks_per_device[c.device] += 1;
            groups_per_device[c.device] += c.end - c.start;
        }
        partition.push(PartitionRow {
            strategy: label.to_string(),
            makespan_seconds: outcome.makespan_seconds,
            chunks_per_device,
            groups_per_device,
            bit_identical: outcome.outputs == reference.outputs,
        });
    }

    // Per-tenant latency breakdown from the finished request traces. The
    // sink is process-global, so keep only this soak's tenants (other
    // experiments may complete requests of their own concurrently).
    let mut by_tenant: std::collections::BTreeMap<String, Vec<&oclsim::RequestTrace>> =
        std::collections::BTreeMap::new();
    let traces = oclsim::obs::drain_request_traces();
    for t in &traces {
        let ours =
            t.tenant == WARMUP_TENANT || t.tenant == "greedy" || t.tenant.starts_with("tenant");
        if ours {
            by_tenant.entry(t.tenant.clone()).or_default().push(t);
        }
    }
    let latency_rows: Vec<TenantLatencyRow> = by_tenant
        .into_iter()
        .map(|(tenant, traces)| {
            let mut walls_ms: Vec<f64> = traces.iter().map(|t| t.wall_seconds * 1.0e3).collect();
            walls_ms.sort_by(f64::total_cmp);
            let active_s: f64 = traces.iter().map(|t| t.wall_seconds).sum();
            TenantLatencyRow {
                tenant,
                requests: traces.len(),
                failed: traces.iter().filter(|t| t.failed).count(),
                p50_ms: percentile(&walls_ms, 0.50),
                p99_ms: percentile(&walls_ms, 0.99),
                per_sec: if active_s > 0.0 {
                    traces.len() as f64 / active_s
                } else {
                    0.0
                },
            }
        })
        .collect();

    let m = oclsim::telemetry::metrics();
    let tenant_rows: Vec<TenantRow> = m
        .tenant_stats()
        .into_iter()
        .map(|(tenant, stats)| TenantRow { tenant, stats })
        .collect();
    // throughput over the concurrent phase only: the warm-up and greedy
    // tenants run outside the measured wall-clock window
    let soak_launches: u64 = tenant_rows
        .iter()
        .filter(|r| r.tenant.starts_with("tenant"))
        .map(|r| r.stats.launches)
        .sum();
    Ok(SoakReport {
        config: config.clone(),
        wall_seconds,
        total_launches: m.serve_launches.get(),
        launches_per_sec: if wall_seconds > 0.0 {
            soak_launches as f64 / wall_seconds
        } else {
            0.0
        },
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        tenant_rows,
        latency_rows,
        greedy_rejections,
        redundant_uploads: m.redundant_uploads.get(),
        resident_binaries: service.cache().len(),
        partition,
        reference_seconds: reference.makespan_seconds,
        metrics_snapshot: hpl::telemetry::metrics_text(true),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&sorted, 0.50), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
