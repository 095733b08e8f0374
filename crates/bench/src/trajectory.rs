//! The `report -- bench` experiment: the `BENCH_*.json` performance
//! trajectory and its regression gate.
//!
//! One run produces a machine-readable snapshot of where the
//! reproduction's performance stands: per (benchmark, sync/async) pair
//! the modeled device seconds, transfer counts and bytes, kernel-cache
//! lookup deltas, the redundant-upload tripwire, the HPL version's SLOC
//! (Table I's productivity axis), and — telemetry being enabled for the
//! run — the host-side wall time split by span category. The JSON goes to
//! `target/BENCH_pr4.json`; `ci.sh` keeps a committed copy at the repo
//! root and re-runs the experiment against it, failing on
//!
//! - a modeled-device-time regression of more than 10% on any pair,
//! - any redundant host→device transfer the baseline did not have, or
//! - a (benchmark, mode) pair that disappeared from the report.
//!
//! Host wall times are recorded for trend-watching but never gated: they
//! depend on the machine, while modeled times depend only on the workload
//! and the device model.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hpl::telemetry::{self, SpanRecord};
use oclsim::prof::json::{parse, Value};
use oclsim::{chrome_trace_with_host, validate_chrome_trace, Device, Event, OptLevel, PassStats};

use crate::profile::{profile_one, HotLineInfo, BENCHES};
use crate::table1;

/// Schema tag stamped into the JSON so future PRs can evolve the format.
pub const SCHEMA: &str = "hpl-bench-trajectory-v1";

/// Multiplicative headroom before a modeled-time increase fails the gate.
pub const REGRESSION_FACTOR: f64 = 1.10;

/// One (benchmark, mode) row of the trajectory.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark name (see [`BENCHES`](crate::profile::BENCHES)).
    pub bench: &'static str,
    /// `"sync"` or `"async"`.
    pub mode: &'static str,
    /// Modeled device seconds summed over the run's kernel launches —
    /// analytic, so identical on every machine and thread count.
    pub modeled_device_seconds: f64,
    /// Host→device transfers the run performed.
    pub h2d_count: usize,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host transfers.
    pub d2h_count: usize,
    /// Kernel-cache hits during the run.
    pub cache_hits: u64,
    /// Kernel-cache misses during the run.
    pub cache_misses: u64,
    /// Redundant uploads (device copy already valid) during the run —
    /// always a coherence bug; the gate fails on any increase.
    pub redundant_uploads: u64,
    /// SLOC of the benchmark's HPL version (Table I).
    pub hpl_sloc: usize,
    /// Wall seconds of host-side telemetry spans, summed per category
    /// (inclusive time: a parent span contains its children). Recorded
    /// for trend-watching; excluded from the gate.
    pub host_wall_seconds: BTreeMap<&'static str, f64>,
    /// The run's hottest source line (kernel, generated line, DSL site,
    /// transaction share) from the per-line counter map. Additive to the
    /// schema: the baseline gate ignores it, so hot-line drift shows up
    /// in the committed JSON diff without ever failing the build.
    pub hot_line: Option<HotLineInfo>,
    /// Modeled device seconds of the same workload rebuilt at `-O2`.
    /// Additive trend field — the gate ignores it, so the committed JSON
    /// diff shows how far the optimizing mid-end moves each benchmark
    /// without the headroom check ever reading it.
    pub opt_modeled_s: f64,
    /// Mid-end rewrite counters for the benchmark's HPL-generated kernels
    /// at `-O2`. Additive like `opt_modeled_s`.
    pub pass_stats: PassStats,
    /// Execution backend active for the run (`"ref"` = SIMT interpreter,
    /// `"wg"` = compiled work-group bytecode VM). Additive: the gate
    /// never reads it, but the committed JSON records which engine
    /// produced the trajectory.
    pub backend: &'static str,
    /// Host wall seconds of the `sched` span category alone (kernel
    /// dispatch + work-group execution), pulled out of
    /// `host_wall_seconds` for easy trend diffing. Machine-dependent,
    /// excluded from the gate like every other wall time.
    pub sched_host_wall_s: f64,
    /// Cache-hierarchy trend: the same workload re-run on the 48K-L1
    /// cached Tesla variant. Additive like `opt_modeled_s` — the gate
    /// never reads it, but the committed JSON shows hit-rate and
    /// cache-aware-time drift. `None` only if the run saw no cacheable
    /// traffic.
    pub cache: Option<CacheTrend>,
}

/// The additive cache-trend fields of one trajectory entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheTrend {
    /// L1 hit rate over the run's kernel launches (hits / probes).
    pub l1_hit_rate: f64,
    /// L2 hit rate (of the L1 misses that reached it), 0.0 if none did.
    pub l2_hit_rate: f64,
    /// Modeled device seconds on the cached variant — includes the
    /// cache-aware memory term, so it drifts when hit rates move even at
    /// constant transaction counts.
    pub cached_modeled_s: f64,
}

/// The full trajectory run, plus the raw material for the unified
/// host+device Floyd–Warshall trace.
pub struct BenchRun {
    /// One entry per (benchmark, mode), in [`BENCHES`] × sync/async order.
    pub entries: Vec<BenchEntry>,
    /// Profiled backend events of the Floyd–Warshall sync run.
    pub floyd_events: Vec<Event>,
    /// Telemetry spans captured during the Floyd–Warshall sync run.
    pub floyd_spans: Vec<SpanRecord>,
}

/// Table I's HPL SLOC for a benchmark key used by the profile harness.
fn hpl_sloc(bench: &str) -> usize {
    let table = table1::compute();
    let name = match bench {
        "ep" => "EP",
        "floyd" => "Floyd-Warshall",
        "transpose" => "Matrix transpose",
        "spmv" => "Spmv",
        "reduction" => "Reduction",
        other => panic!("unknown benchmark `{other}`"),
    };
    table
        .iter()
        .find(|r| r.benchmark == name)
        .map(|r| r.hpl_sloc)
        .expect("Table I covers all five benchmarks")
}

/// Run all five benchmarks sync+async with telemetry enabled and collect
/// the trajectory. Restores the telemetry enable flag on return.
pub fn compute(device: &Device) -> Result<BenchRun, benchsuite::Error> {
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    let run = compute_inner(device);
    telemetry::set_enabled(was_enabled);
    run
}

fn compute_inner(device: &Device) -> Result<BenchRun, benchsuite::Error> {
    let mut entries = Vec::with_capacity(2 * BENCHES.len());
    let mut floyd_events = Vec::new();
    let mut floyd_spans = Vec::new();
    for &bench in BENCHES {
        for sync in [true, false] {
            let cache_before = hpl::cache_stats();
            let redundant_before = telemetry::metrics().redundant_uploads.get();
            drop(telemetry::drain_spans());
            let p = profile_one(bench, sync, device)?;
            let spans = telemetry::drain_spans();
            let cache_after = hpl::cache_stats();
            let redundant_after = telemetry::metrics().redundant_uploads.get();

            let mut host_wall_seconds: BTreeMap<&'static str, f64> = BTreeMap::new();
            for s in &spans {
                *host_wall_seconds.entry(s.category).or_insert(0.0) += s.wall_seconds();
            }
            let (opt_modeled_s, pass_stats) = o2_trend(bench, sync, device)?;
            let cache = cache_trend(bench, sync)?;
            let sched_host_wall_s = host_wall_seconds.get("sched").copied().unwrap_or(0.0);
            entries.push(BenchEntry {
                bench,
                mode: p.mode,
                modeled_device_seconds: p.rows.iter().map(|r| r.modeled_seconds).sum(),
                h2d_count: p.h2d_count,
                h2d_bytes: p.h2d_bytes,
                d2h_count: p.d2h_count,
                cache_hits: cache_after.hits - cache_before.hits,
                cache_misses: cache_after.misses - cache_before.misses,
                redundant_uploads: redundant_after - redundant_before,
                hpl_sloc: hpl_sloc(bench),
                host_wall_seconds,
                hot_line: p.hot_line.clone(),
                opt_modeled_s,
                pass_stats,
                backend: hpl::runtime().config().backend.name(),
                sched_host_wall_s,
                cache,
            });
            if bench == "floyd" && sync {
                floyd_events = p.events.clone();
                floyd_spans = spans;
            }
        }
    }
    Ok(BenchRun {
        entries,
        floyd_events,
        floyd_spans,
    })
}

/// The additive `-O2` trend fields: re-run the workload with the mid-end
/// at full strength and collect the modeled seconds plus the rewrite
/// counters of the benchmark's generated kernels. Runs under an `-O2`
/// runtime of its own ([`crate::at_level`]), so the surrounding
/// measurements never see `-O2` artifacts.
fn o2_trend(
    bench: &'static str,
    sync: bool,
    device: &Device,
) -> Result<(f64, PassStats), benchsuite::Error> {
    use benchsuite::{ep, floyd, reduction, spmv, transpose};
    crate::at_level(OptLevel::O2, device, |device| {
        let p = profile_one(bench, sync, device)?;
        let generated = match bench {
            "ep" => ep::hpl_version::generated_source(device),
            "floyd" => floyd::hpl_version::generated_source(device),
            "transpose" => transpose::hpl_version::generated_source(device),
            "spmv" => spmv::hpl_version::generated_source(device),
            "reduction" => reduction::hpl_version::generated_source(device),
            other => panic!("unknown benchmark `{other}`"),
        }?;
        let (program, _ctx, _queue, _build) =
            benchsuite::common::build_for(device, &generated, OptLevel::O2.flag())?;
        let secs: f64 = p.rows.iter().map(|r| r.modeled_seconds).sum();
        Ok((secs, program.pass_stats()))
    })
}

/// The additive cache-trend fields: re-run the workload on the 48K-L1
/// cached Tesla variant and aggregate hit rates and cache-aware modeled
/// seconds over its kernel launches. The cached variant shares the plain
/// Tesla's roofline, so transaction counts match the main run exactly.
fn cache_trend(bench: &'static str, sync: bool) -> Result<Option<CacheTrend>, benchsuite::Error> {
    let device = crate::tesla_cached();
    let p = profile_one(bench, sync, &device)?;
    let (mut h1, mut m1, mut h2, mut m2) = (0u64, 0u64, 0u64, 0u64);
    let mut cached_modeled_s = 0.0;
    for r in &p.rows {
        let t = &r.counters.totals;
        h1 += t.l1_hits;
        m1 += t.l1_misses;
        h2 += t.l2_hits;
        m2 += t.l2_misses;
        cached_modeled_s += r.modeled_seconds;
    }
    if h1 + m1 == 0 {
        return Ok(None);
    }
    Ok(Some(CacheTrend {
        l1_hit_rate: h1 as f64 / (h1 + m1) as f64,
        l2_hit_rate: if h2 + m2 == 0 {
            0.0
        } else {
            h2 as f64 / (h2 + m2) as f64
        },
        cached_modeled_s,
    }))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Host wall seconds of a fixed kernel-service workload with the flight
/// recorder on vs off — the tracing-overhead trend of the observability
/// layer. Additive and machine-dependent like `host_wall_seconds`, so the
/// baseline gate never reads it; the committed JSON diff shows whether
/// the always-on recorder stays cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOverhead {
    /// Wall seconds of the probe workload with the recorder capturing.
    pub recorder_on_wall_s: f64,
    /// Wall seconds of the identical workload with the recorder off.
    pub recorder_off_wall_s: f64,
}

impl TraceOverhead {
    /// Recorder overhead as a percentage of the recorder-off wall.
    pub fn overhead_percent(&self) -> f64 {
        if self.recorder_off_wall_s <= 0.0 {
            return 0.0;
        }
        100.0 * (self.recorder_on_wall_s / self.recorder_off_wall_s - 1.0)
    }
}

/// Launches per overhead-probe pass: one tenant session submitting a
/// small cached kernel repeatedly, so the measured path is exactly the
/// traced launch pipeline (admission → cache hit → DMA → enqueue →
/// launch), not the one-off build.
pub const OVERHEAD_LAUNCHES: usize = 64;

const OVERHEAD_SRC: &str = r#"
__kernel void saxpy(__global float* y, __global const float* x, float a) {
    size_t i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"#;

fn overhead_pass(service: &oclsim::serve::Service, tenant: &str) -> Result<f64, benchsuite::Error> {
    use oclsim::serve::{JobArg, LaunchJob, TenantQuota};
    let n = 256usize;
    let x: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let y: Vec<u8> = (0..n)
        .flat_map(|i| ((i % 5) as f32).to_le_bytes())
        .collect();
    let job = LaunchJob {
        source: OVERHEAD_SRC.to_string(),
        kernel: "saxpy".to_string(),
        build_options: String::new(),
        args: vec![
            JobArg::InOut(y),
            JobArg::In(x),
            JobArg::Scalar(oclsim::Value::F32(2.0)),
        ],
        global: vec![n],
        local: Some(vec![32]),
    };
    let session = service.session(tenant, TenantQuota::unlimited());
    // warm the binary cache so both passes measure cached launches only
    session
        .submit(0, &job)
        .map_err(|e| benchsuite::Error::Hpl(hpl::Error::Backend(e)))?;
    let t0 = std::time::Instant::now();
    for _ in 0..OVERHEAD_LAUNCHES {
        session
            .submit(0, &job)
            .map_err(|e| benchsuite::Error::Hpl(hpl::Error::Backend(e)))?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Measure the flight recorder's host-wall overhead: the identical probe
/// workload twice, recorder off then on. Restores the recorder switch
/// (production mode is always-on). The probe's completed traces stay in
/// the bounded sink under `overhead-*` tenant names, which no other
/// consumer selects.
pub fn trace_overhead() -> Result<TraceOverhead, benchsuite::Error> {
    let service = oclsim::serve::Service::new(oclsim::serve::ServiceConfig::default())
        .map_err(|e| benchsuite::Error::Hpl(hpl::Error::Backend(e)))?;
    let was = oclsim::obs::recorder_enabled();
    oclsim::obs::set_recorder_enabled(false);
    let off = overhead_pass(&service, "overhead-off");
    oclsim::obs::set_recorder_enabled(true);
    let on = overhead_pass(&service, "overhead-on");
    oclsim::obs::set_recorder_enabled(was);
    Ok(TraceOverhead {
        recorder_on_wall_s: on?,
        recorder_off_wall_s: off?,
    })
}

/// Wall-clock throughput figures from a `report -- soak` run, recorded in
/// the trajectory as additive trend fields. Like `host_wall_seconds` they
/// are machine-dependent, so the baseline gate never reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakSummary {
    /// Median tenant workload latency, milliseconds.
    pub soak_p50_ms: f64,
    /// 99th-percentile tenant workload latency, milliseconds.
    pub soak_p99_ms: f64,
    /// Admitted service launches per wall second of the concurrent phase.
    pub launches_per_sec: f64,
}

/// Serialise the trajectory as the committed `BENCH_*.json` format.
pub fn to_json(entries: &[BenchEntry]) -> String {
    to_json_with_soak(entries, None)
}

/// [`to_json`] plus an optional top-level `"soak"` object carrying the
/// multi-tenant soak trend fields.
pub fn to_json_with_soak(entries: &[BenchEntry], soak: Option<&SoakSummary>) -> String {
    to_json_full(entries, soak, None)
}

/// [`to_json_with_soak`] plus an optional top-level `"trace_overhead"`
/// object carrying the flight-recorder overhead trend fields. Both
/// objects are additive: the baseline gate reads neither.
pub fn to_json_full(
    entries: &[BenchEntry],
    soak: Option<&SoakSummary>,
    overhead: Option<&TraceOverhead>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"pr\": \"pr4\",\n");
    if let Some(s) = soak {
        let _ = writeln!(
            out,
            "  \"soak\": {{\"soak_p50_ms\": {:.6}, \"soak_p99_ms\": {:.6}, \"launches_per_sec\": {:.3}}},",
            s.soak_p50_ms, s.soak_p99_ms, s.launches_per_sec
        );
    }
    if let Some(o) = overhead {
        let _ = writeln!(
            out,
            "  \"trace_overhead\": {{\"recorder_on_wall_s\": {:.6}, \"recorder_off_wall_s\": {:.6}, \"overhead_percent\": {:.3}}},",
            o.recorder_on_wall_s,
            o.recorder_off_wall_s,
            o.overhead_percent()
        );
    }
    out.push_str("  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"bench\": \"{}\",", json_escape(e.bench));
        let _ = writeln!(out, "      \"mode\": \"{}\",", json_escape(e.mode));
        let _ = writeln!(
            out,
            "      \"modeled_device_seconds\": {:.9},",
            e.modeled_device_seconds
        );
        let _ = writeln!(out, "      \"h2d_count\": {},", e.h2d_count);
        let _ = writeln!(out, "      \"h2d_bytes\": {},", e.h2d_bytes);
        let _ = writeln!(out, "      \"d2h_count\": {},", e.d2h_count);
        let _ = writeln!(out, "      \"cache_hits\": {},", e.cache_hits);
        let _ = writeln!(out, "      \"cache_misses\": {},", e.cache_misses);
        let _ = writeln!(out, "      \"redundant_uploads\": {},", e.redundant_uploads);
        let _ = writeln!(out, "      \"hpl_sloc\": {},", e.hpl_sloc);
        let _ = writeln!(out, "      \"backend\": \"{}\",", json_escape(e.backend));
        let _ = writeln!(
            out,
            "      \"sched_host_wall_s\": {:.6},",
            e.sched_host_wall_s
        );
        match &e.cache {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "      \"cache\": {{\"l1_hit_rate\": {:.6}, \"l2_hit_rate\": {:.6}, \"cached_modeled_s\": {:.9}}},",
                    c.l1_hit_rate, c.l2_hit_rate, c.cached_modeled_s
                );
            }
            None => out.push_str("      \"cache\": null,\n"),
        }
        let _ = writeln!(out, "      \"opt_modeled_s\": {:.9},", e.opt_modeled_s);
        let s = &e.pass_stats;
        let _ = writeln!(
            out,
            "      \"pass_stats\": {{\"const_folded\": {}, \"const_propagated\": {}, \"dce_removed\": {}, \"branches_simplified\": {}, \"cse_replaced\": {}, \"licm_hoisted\": {}}},",
            s.const_folded,
            s.const_propagated,
            s.dce_removed,
            s.branches_simplified,
            s.cse_replaced,
            s.licm_hoisted
        );
        match &e.hot_line {
            Some(h) => {
                let site = match &h.site {
                    Some(s) => format!("\"{}\"", json_escape(s)),
                    None => "null".to_string(),
                };
                let _ = writeln!(
                    out,
                    "      \"hot_line\": {{\"kernel\": \"{}\", \"line\": {}, \"site\": {site}, \"tx_share\": {:.6}}},",
                    json_escape(&h.kernel),
                    h.line,
                    h.tx_share
                );
            }
            None => out.push_str("      \"hot_line\": null,\n"),
        }
        out.push_str("      \"host_wall_seconds\": {");
        for (j, (cat, secs)) in e.host_wall_seconds.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {:.6}", json_escape(cat), secs);
        }
        out.push_str("}\n");
        out.push_str(if i + 1 < entries.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A baseline row as read back from a committed `BENCH_*.json`.
struct BaselineEntry {
    bench: String,
    mode: String,
    modeled_device_seconds: f64,
    redundant_uploads: u64,
}

fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let root = parse(text)?;
    let schema = root.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(format!(
            "baseline schema is `{schema}`, expected `{SCHEMA}`"
        ));
    }
    let benches = root
        .get("benchmarks")
        .and_then(Value::as_arr)
        .ok_or("baseline has no `benchmarks` array")?;
    benches
        .iter()
        .map(|b| {
            let field = |k: &str| {
                b.get(k)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("baseline entry missing numeric `{k}`"))
            };
            Ok(BaselineEntry {
                bench: b
                    .get("bench")
                    .and_then(Value::as_str)
                    .ok_or("baseline entry missing `bench`")?
                    .to_string(),
                mode: b
                    .get("mode")
                    .and_then(Value::as_str)
                    .ok_or("baseline entry missing `mode`")?
                    .to_string(),
                modeled_device_seconds: field("modeled_device_seconds")?,
                redundant_uploads: field("redundant_uploads")? as u64,
            })
        })
        .collect()
}

/// Diff a fresh run against a committed baseline. `Ok(failures)` lists
/// every gate violation (empty = green); `Err` means the baseline itself
/// could not be parsed.
pub fn check_against_baseline(
    entries: &[BenchEntry],
    baseline_text: &str,
) -> Result<Vec<String>, String> {
    let baseline = parse_baseline(baseline_text)?;
    let mut failures = Vec::new();
    for b in &baseline {
        let Some(cur) = entries
            .iter()
            .find(|e| e.bench == b.bench && e.mode == b.mode)
        else {
            failures.push(format!(
                "{} {}: present in baseline but missing from this run",
                b.bench, b.mode
            ));
            continue;
        };
        let limit = b.modeled_device_seconds * REGRESSION_FACTOR + 1e-12;
        if cur.modeled_device_seconds > limit {
            failures.push(format!(
                "{} {}: modeled device time {:.9} s regressed >{:.0}% over baseline {:.9} s",
                b.bench,
                b.mode,
                cur.modeled_device_seconds,
                (REGRESSION_FACTOR - 1.0) * 100.0,
                b.modeled_device_seconds
            ));
        }
        if cur.redundant_uploads > b.redundant_uploads {
            failures.push(format!(
                "{} {}: {} redundant upload(s), baseline had {} — the coherence layer re-uploaded a valid device copy",
                b.bench, b.mode, cur.redundant_uploads, b.redundant_uploads
            ));
        }
    }
    Ok(failures)
}

/// Write the unified host+device Chrome trace for the Floyd–Warshall sync
/// run (host telemetry spans injected next to the device CU/DMA tracks)
/// plus the raw span JSONL. Both are schema-checked before writing.
/// Returns the written paths.
pub fn write_floyd_artifacts(
    device: &Device,
    run: &BenchRun,
    dir: &Path,
) -> std::io::Result<Vec<String>> {
    let trace = chrome_trace_with_host(device, &run.floyd_events, &run.floyd_spans);
    validate_chrome_trace(&trace)
        .map_err(|e| std::io::Error::other(format!("invalid host+device trace: {e}")))?;
    telemetry::check_nesting(&run.floyd_spans)
        .map_err(|e| std::io::Error::other(format!("malformed host span nesting: {e}")))?;
    let trace_path = dir.join("trace-floyd-host.json");
    std::fs::write(&trace_path, &trace)?;
    let jsonl_path = dir.join("spans-floyd.jsonl");
    std::fs::write(&jsonl_path, telemetry::spans_jsonl(&run.floyd_spans))?;
    Ok(vec![
        trace_path.display().to_string(),
        jsonl_path.display().to_string(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &'static str, mode: &'static str, secs: f64, redundant: u64) -> BenchEntry {
        BenchEntry {
            bench,
            mode,
            modeled_device_seconds: secs,
            h2d_count: 1,
            h2d_bytes: 1024,
            d2h_count: 1,
            cache_hits: 1,
            cache_misses: 1,
            redundant_uploads: redundant,
            hpl_sloc: 100,
            host_wall_seconds: BTreeMap::from([("hpl", 0.001)]),
            hot_line: Some(HotLineInfo {
                kernel: "hpl_k".into(),
                line: 7,
                site: Some("crates/benchsuite/src/x.rs:42".into()),
                tx_share: 0.5,
            }),
            opt_modeled_s: 0.0009,
            pass_stats: PassStats {
                licm_hoisted: 1,
                ..PassStats::default()
            },
            backend: "wg",
            sched_host_wall_s: 0.002,
            cache: Some(CacheTrend {
                l1_hit_rate: 0.75,
                l2_hit_rate: 0.5,
                cached_modeled_s: 0.0011,
            }),
        }
    }

    #[test]
    fn json_round_trips_through_the_validator_parser() {
        let json = to_json(&[
            entry("ep", "sync", 0.0012, 0),
            entry("ep", "async", 0.0011, 0),
        ]);
        let parsed = parse(&json).expect("emitted JSON parses");
        assert_eq!(parsed.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            parsed
                .get("benchmarks")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
        // the additive hot-line object round-trips
        let first = &parsed.get("benchmarks").and_then(Value::as_arr).unwrap()[0];
        let hot = first.get("hot_line").expect("hot_line present");
        assert_eq!(hot.get("line").and_then(Value::as_num), Some(7.0));
        assert_eq!(hot.get("kernel").and_then(Value::as_str), Some("hpl_k"));
    }

    #[test]
    fn gate_ignores_hot_line_differences() {
        // hot_line is trend data, not a gate input: a baseline whose hot
        // line differs (or is missing) must not fail an otherwise
        // identical run
        let mut base = entry("ep", "sync", 0.001, 0);
        base.hot_line = None;
        let baseline = to_json(&[base]);
        let ok = check_against_baseline(&[entry("ep", "sync", 0.001, 0)], &baseline).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn gate_ignores_unknown_fields() {
        // the gate reads bench/mode/modeled_device_seconds/redundant_uploads
        // and nothing else, so additive fields — the soak object, or keys a
        // future PR invents — never break an older or newer baseline
        let with_soak = to_json_with_soak(
            &[entry("ep", "sync", 0.001, 0)],
            Some(&SoakSummary {
                soak_p50_ms: 12.5,
                soak_p99_ms: 48.0,
                launches_per_sec: 310.0,
            }),
        );
        assert!(
            with_soak.contains("\"soak_p50_ms\": 12.500000"),
            "{with_soak}"
        );
        assert!(parse(&with_soak).is_ok(), "{with_soak}");
        // soak-bearing baseline vs plain run
        let ok = check_against_baseline(&[entry("ep", "sync", 0.001, 0)], &with_soak).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // the trace_overhead object is additive in exactly the same way
        let with_overhead = to_json_full(
            &[entry("ep", "sync", 0.001, 0)],
            None,
            Some(&TraceOverhead {
                recorder_on_wall_s: 0.0105,
                recorder_off_wall_s: 0.0100,
            }),
        );
        assert!(
            with_overhead.contains("\"recorder_on_wall_s\": 0.010500"),
            "{with_overhead}"
        );
        assert!(
            with_overhead.contains("\"overhead_percent\": 5.000"),
            "{with_overhead}"
        );
        assert!(parse(&with_overhead).is_ok(), "{with_overhead}");
        let ok = check_against_baseline(&[entry("ep", "sync", 0.001, 0)], &with_overhead).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // and the gate still fires through it
        let bad = check_against_baseline(&[entry("ep", "sync", 0.002, 0)], &with_overhead).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
        // hand-crafted baseline with unknown keys at both levels
        let alien = r#"{
  "schema": "hpl-bench-trajectory-v1",
  "pr": "pr4",
  "future_top_level": {"x": 1},
  "benchmarks": [
    {
      "bench": "ep",
      "mode": "sync",
      "modeled_device_seconds": 0.001,
      "redundant_uploads": 0,
      "backend": "ref",
      "sched_host_wall_s": 123.0,
      "future_field": "ignored"
    }
  ]
}"#;
        let ok = check_against_baseline(&[entry("ep", "sync", 0.001, 0)], alien).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // and the gate still fires through the unknown fields
        let bad = check_against_baseline(&[entry("ep", "sync", 0.002, 0)], alien).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn gate_ignores_cache_fields() {
        // the cache object is an additive trend field: hit rates and
        // cache-aware modeled seconds may drift arbitrarily (or vanish
        // entirely) without tripping the gate, which reads only
        // bench/mode/modeled_device_seconds/redundant_uploads
        let mut base = entry("ep", "sync", 0.001, 0);
        base.cache = Some(CacheTrend {
            l1_hit_rate: 0.99,
            l2_hit_rate: 0.99,
            cached_modeled_s: 0.000001,
        });
        let baseline = to_json(&[base]);
        assert!(baseline.contains("\"l1_hit_rate\": 0.990000"), "{baseline}");
        let mut run = entry("ep", "sync", 0.001, 0);
        run.cache = None; // cacheless run vs cache-bearing baseline
        let ok = check_against_baseline(&[run], &baseline).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // null cache serialises and parses cleanly too
        let mut nullbase = entry("ep", "sync", 0.001, 0);
        nullbase.cache = None;
        let null_json = to_json(&[nullbase]);
        assert!(null_json.contains("\"cache\": null"), "{null_json}");
        assert!(parse(&null_json).is_ok(), "{null_json}");
        let ok = check_against_baseline(&[entry("ep", "sync", 0.001, 0)], &null_json).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // and the gate still fires through the cache fields
        let bad = check_against_baseline(&[entry("ep", "sync", 0.002, 0)], &baseline).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn gate_ignores_opt_fields() {
        // `opt_modeled_s` and `pass_stats` are additive trend fields like
        // `hot_line`: wildly different optimizer outcomes between baseline
        // and run must not trip the >10% headroom gate, which reads only
        // bench/mode/modeled_device_seconds/redundant_uploads
        let mut base = entry("ep", "sync", 0.001, 0);
        base.opt_modeled_s = 0.000001; // 1000x better than the run's
        base.pass_stats = PassStats::default();
        let baseline = to_json(&[base]);
        assert!(
            baseline.contains("\"opt_modeled_s\": 0.000001000"),
            "{baseline}"
        );
        assert!(
            baseline.contains("\"pass_stats\": {\"const_folded\": 0"),
            "{baseline}"
        );

        let mut run = entry("ep", "sync", 0.001, 0);
        run.opt_modeled_s = 0.5;
        run.pass_stats = PassStats {
            dce_removed: 99,
            cse_replaced: 42,
            ..PassStats::default()
        };
        let ok = check_against_baseline(&[run.clone()], &baseline).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // and a pre-opt baseline without the fields at all still gates the
        // same run — the fields are additive in both directions
        let legacy = r#"{
  "schema": "hpl-bench-trajectory-v1",
  "pr": "pr4",
  "benchmarks": [
    {"bench": "ep", "mode": "sync", "modeled_device_seconds": 0.001, "redundant_uploads": 0}
  ]
}"#;
        let ok = check_against_baseline(&[run.clone()], legacy).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        run.modeled_device_seconds = 0.0012;
        let bad = check_against_baseline(&[run], legacy).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn gate_accepts_identical_run_and_flags_regressions() {
        let baseline = to_json(&[entry("ep", "sync", 0.001, 0)]);
        // identical run: green
        let ok = check_against_baseline(&[entry("ep", "sync", 0.001, 0)], &baseline).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // 9% slower: still inside the headroom
        let ok = check_against_baseline(&[entry("ep", "sync", 0.00109, 0)], &baseline).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
        // 20% slower: gate fires
        let bad = check_against_baseline(&[entry("ep", "sync", 0.0012, 0)], &baseline).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
        // new redundant upload: gate fires
        let bad = check_against_baseline(&[entry("ep", "sync", 0.001, 1)], &baseline).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
        // benchmark vanished: gate fires
        let bad = check_against_baseline(&[entry("floyd", "sync", 0.001, 0)], &baseline).unwrap();
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn bad_baselines_are_rejected() {
        assert!(check_against_baseline(&[], "not json").is_err());
        assert!(check_against_baseline(&[], "{\"schema\": \"other\"}").is_err());
    }
}
