//! Chrome `trace_event` JSON export of the modeled timeline.
//!
//! Renders a set of resolved events of one device as a
//! Perfetto/`chrome://tracing` loadable trace: the device is process
//! [`DEVICE_PID`], thread 0 its DMA engine, threads 1..k its compute-unit
//! pool lanes. Kernel and copy slices carry
//! their counters as `args`, so clicking a slice in the viewer shows
//! coalescing, occupancy and stall numbers next to its duration.
//!
//! The writer is hand-rolled (the workspace deliberately has no serde);
//! the companion [`crate::prof::json`] module parses the output back for
//! schema validation in tests.

use std::fmt::Write as _;

use crate::device::Device;
use crate::prof::json::escape;
use crate::sched::{CommandKind, Event, EventStatus};

fn slice_name(ev: &Event) -> String {
    if let Some(label) = ev.label() {
        return label;
    }
    match ev.kind() {
        CommandKind::WriteBuffer => "write (h2d)".into(),
        CommandKind::ReadBuffer => "read (d2h)".into(),
        CommandKind::CopyBuffer => "copy (d2d)".into(),
        CommandKind::NdRangeKernel => "kernel".into(),
        CommandKind::Marker => "marker".into(),
        CommandKind::User => "user".into(),
    }
}

/// Append one `"key": value` pair (numeric) to an args body.
fn arg_num(body: &mut String, key: &str, value: f64) {
    if !body.is_empty() {
        body.push(',');
    }
    let _ = write!(body, "\"{key}\":{value}");
}

fn arg_str(body: &mut String, key: &str, value: &str) {
    if !body.is_empty() {
        body.push(',');
    }
    let _ = write!(body, "\"{key}\":\"{}\"", escape(value));
}

fn event_args(ev: &Event) -> String {
    let mut body = String::new();
    if let Some(t) = ev.transfer_info() {
        arg_num(&mut body, "bytes", t.bytes as f64);
        arg_str(&mut body, "direction", t.direction.label());
    }
    if let Some(c) = ev.counters() {
        arg_num(&mut body, "instructions", c.totals.instr.total() as f64);
        arg_num(
            &mut body,
            "mem_transactions",
            c.totals.mem_transactions as f64,
        );
        arg_num(
            &mut body,
            "coalescing_pct",
            100.0 * c.coalescing_efficiency(),
        );
        arg_num(&mut body, "occupancy_pct", 100.0 * c.mean_occupancy());
        arg_num(&mut body, "stall_pct", 100.0 * c.stall_fraction());
        arg_num(&mut body, "divergence_pct", 100.0 * c.divergence_fraction());
        arg_num(&mut body, "bank_conflicts", c.totals.bank_conflicts as f64);
        // cache-capable devices only: traces from roofline-only profiles
        // keep their pre-cache-model byte layout
        if let Some(rate) = c.l1_hit_rate() {
            arg_num(&mut body, "l1_hit_pct", 100.0 * rate);
        }
        if let Some(rate) = c.l2_hit_rate() {
            arg_num(&mut body, "l2_hit_pct", 100.0 * rate);
        }
        arg_num(&mut body, "work_groups", c.num_groups as f64);
        if let Some((line, hot)) = c.hot_line() {
            arg_num(&mut body, "hot_line", line as f64);
            arg_num(
                &mut body,
                "hot_line_tx_pct",
                100.0 * hot.mem_transactions as f64 / c.totals.mem_transactions.max(1) as f64,
            );
        }
    }
    body
}

/// The pid of the device process in every trace [`chrome_trace`] renders.
/// A trace describes one device, so the pid is a constant rather than the
/// device's process-wide id, and the same timeline renders the same bytes
/// whichever runtime built the device.
pub const DEVICE_PID: u64 = 1;

/// Render `events` (commands of `device`) as a Chrome trace JSON string.
///
/// Unresolved and failed events are skipped; slices are sorted by start
/// time so the output is deterministic for a deterministic modeled
/// timeline. Kernel launches are laid out greedily over as many "CU pool"
/// display lanes as overlap requires; transfers and copies share the
/// single DMA lane, where the scheduler already serialised them.
pub fn chrome_trace(device: &Device, events: &[Event]) -> String {
    let pid = DEVICE_PID;
    let mut resolved: Vec<&Event> = events
        .iter()
        .filter(|e| e.status() == EventStatus::Complete)
        .filter(|e| !matches!(e.kind(), CommandKind::Marker | CommandKind::User))
        .collect();
    resolved.sort_by(|a, b| {
        let (pa, pb) = (a.profile(), b.profile());
        pa.started
            .total_cmp(&pb.started)
            .then(pa.ended.total_cmp(&pb.ended))
            .then(a.id().cmp(&b.id()))
    });

    // Greedy display-lane assignment for compute slices (the timeline does
    // not record which CUs a launch took, only that it fit).
    let mut lane_free: Vec<f64> = Vec::new();
    let mut slices = String::new();
    for ev in &resolved {
        let p = ev.profile();
        let tid = if ev.kind() == CommandKind::NdRangeKernel {
            let lane = lane_free
                .iter()
                .position(|&free| free <= p.started)
                .unwrap_or_else(|| {
                    lane_free.push(0.0);
                    lane_free.len() - 1
                });
            lane_free[lane] = p.ended;
            lane + 1
        } else {
            0
        };
        let ts = p.started * 1.0e6;
        let dur = (p.ended - p.started) * 1.0e6;
        let args = event_args(ev);
        let _ = write!(
            slices,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
            escape(&slice_name(ev)),
            if ev.kind() == CommandKind::NdRangeKernel {
                "compute"
            } else {
                "dma"
            },
        );
    }

    // Metadata: process = device, tid 0 = DMA, tids 1..k = CU pool lanes.
    let mut out = String::from("{\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(device.name()),
    );
    let _ = write!(
        out,
        ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"DMA engine\"}}}}"
    );
    for lane in 0..lane_free.len() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"name\":\"CU pool lane {lane}\"}}}}",
            lane + 1,
        );
    }
    out.push_str(&slices);
    out.push_str("],\n\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Splice extra pre-rendered Chrome-trace events (comma-joined JSON
/// objects, no enclosing array) into a trace produced by
/// [`chrome_trace`] / [`chrome_trace_with_host`], before the closing
/// bracket of `traceEvents`. Used to merge postmortem span trees
/// ([`crate::obs::Postmortem::chrome_trace_events`]) into the device
/// timeline. Returns the trace unchanged when `events` is empty.
pub fn splice_chrome_events(trace: &str, events: &str) -> String {
    if events.is_empty() {
        return trace.to_string();
    }
    let tail = "],\n\"displayTimeUnit\":\"ms\"}\n";
    let mut out = trace
        .strip_suffix(tail)
        .expect("chrome trace ends with its fixed tail")
        .to_string();
    out.push_str(",\n");
    out.push_str(events);
    out.push_str(tail);
    out
}

/// Synthetic pid for the host-runtime tracks injected by
/// [`chrome_trace_with_host`]; distinct from [`DEVICE_PID`].
pub const HOST_PID: u64 = 1_000_000;

/// Like [`chrome_trace`], but additionally renders host-runtime telemetry
/// spans (see [`crate::telemetry`]) as slices of a synthetic "host
/// runtime" process ([`HOST_PID`]), one track per host thread, above the
/// device's CU/DMA tracks — so a single trace file shows the host
/// pipeline (cache lookup, codegen, clc stages, coherence, enqueue)
/// feeding the modeled device.
///
/// Host slices use wall time from the telemetry epoch; device slices use
/// the modeled timeline. The two time bases share only the µs unit — the
/// value of the combined file is seeing host-side structure, not
/// cross-base alignment.
pub fn chrome_trace_with_host(
    device: &Device,
    events: &[Event],
    spans: &[crate::telemetry::SpanRecord],
) -> String {
    let device_part = chrome_trace(device, events);
    // splice host events in before the closing "]" of traceEvents
    let tail = "],\n\"displayTimeUnit\":\"ms\"}\n";
    let mut out = device_part
        .strip_suffix(tail)
        .expect("chrome_trace output ends with its fixed tail")
        .to_string();

    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let _ = write!(
        out,
        ",\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":0,\
         \"args\":{{\"name\":\"host runtime\"}}}}"
    );
    for t in &threads {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":{t},\
             \"args\":{{\"name\":\"host thread {t}\"}}}}"
        );
    }
    let mut sorted: Vec<&crate::telemetry::SpanRecord> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        a.wall_start_us
            .total_cmp(&b.wall_start_us)
            .then(a.id.cmp(&b.id))
    });
    for s in sorted {
        let mut args = String::new();
        for (k, v) in &s.args {
            arg_str(&mut args, k, v);
        }
        if let (Some(ms), Some(me)) = (s.modeled_start_us, s.modeled_end_us) {
            arg_num(&mut args, "modeled_start_us", ms);
            arg_num(&mut args, "modeled_end_us", me);
        }
        let dur = (s.wall_end_us - s.wall_start_us).max(0.0);
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\
             \"pid\":{HOST_PID},\"tid\":{},\"args\":{{{args}}}}}",
            escape(&s.name),
            escape(s.category),
            s.wall_start_us,
            s.thread,
        );
    }
    out.push_str(tail);
    out
}
