//! The traced run: replays a workload's inputs through each layer's
//! public functions, one layer at a time, with spans recorded here — in
//! the benchmark's own files, around the calls into each layer. The
//! end-to-end metrics are never taken from it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::common::{PassFacts, Tally};
use crate::json::{num, obj, text, Value};
use crate::layers::{Layers, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats;

/// Share of `--seconds` spent replaying the workload untraced, then traced
/// (the layer probes before them are fixed-count).
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.3;

pub struct Tracer {
    pub epoch: Instant,
    pub rec: Recorder,
    pub layers: Layers,
    /// Values that are pure functions of `(workload, seed)` — counts and
    /// modeled seconds. A traced run prints them as `exact <name> =
    /// <value>` lines; `hplbench check` compares those between two runs,
    /// and with the committed `baseline/check-exact.txt`, bit for bit.
    pub exact: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    next_request: u64,
}

/// The library's process-wide counters a replay moves, read before it.
pub struct ReplayCounters {
    cache: hpl::CacheStats,
    redundant_uploads: u64,
}

impl ReplayCounters {
    pub fn begin() -> ReplayCounters {
        ReplayCounters {
            cache: hpl::cache_stats(),
            redundant_uploads: oclsim::telemetry::metrics().redundant_uploads.get(),
        }
    }

    /// Record what the `passes` replayed since `begin` did to the counters
    /// — kernel-cache lookups per pass (exact: a pass looks up the same
    /// kernels every time), redundant uploads — and the exact facts of one
    /// pass of the traced workload.
    pub fn finish(self, tr: &mut Tracer, passes: u64, f: &PassFacts) {
        let now = hpl::cache_stats();
        let (hits, misses) = (now.hits - self.cache.hits, now.misses - self.cache.misses);
        tr.set_exact("hpl.kernel_cache.hits", hits as f64 / passes as f64);
        tr.set_exact("hpl.kernel_cache.misses", misses as f64 / passes as f64);
        tr.layers.set(
            "hpl.kernel_cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let redundant =
            oclsim::telemetry::metrics().redundant_uploads.get() - self.redundant_uploads;
        tr.set_exact("hpl.coherence.redundant_uploads", redundant as f64);
        tr.set_exact("hpl.coherence.h2d_count", f.h2d_count as f64);
        tr.set_exact("hpl.coherence.h2d_bytes", f.h2d_bytes as f64);
        tr.set_exact("hpl.coherence.d2h_count", f.d2h_count as f64);
        tr.set_exact("exec.launch.launches", f.launches as f64);
        tr.set_exact("exec.launch.sim_instr", f.sim_instr as f64);
        tr.set_exact("exec.launch.mem_tx", f.mem_tx as f64);
        tr.set_exact("exec.launch.barriers", f.barriers as f64);
        tr.set_exact("timing.modeled_kernel_s", f.modeled_kernel_s);
        tr.set_exact("timing.modeled_transfer_s", f.modeled_transfer_s);
    }
}

/// Reports one finished request of a pass: span name and wall time.
pub type OnRequest<'a> = dyn FnMut(&'static str, Duration) + 'a;

impl Tracer {
    pub fn new() -> Tracer {
        let epoch = Instant::now();
        Tracer {
            epoch,
            rec: Recorder::new(epoch),
            layers: Layers::default(),
            exact: BTreeMap::new(),
            tally: Tally::default(),
            next_request: 0,
        }
    }

    /// Record an exact value; one that is also a declared per-layer metric
    /// is set there too.
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        if PER_LAYER.iter().any(|m| m.0 == name) {
            self.layers.set(name, value);
        }
        self.exact.insert(name, value);
    }

    pub fn next_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Call `f` `reps` times, each inside a span `name`: the median wall
    /// microseconds of the calls and the last call's result. A call that
    /// fails ends the run: its short wall must not pass for a measurement.
    pub fn time_us<R, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut() -> Result<R, E>,
    ) -> Result<(f64, R), String> {
        let request = self.next_request();
        let mut walls = Vec::with_capacity(reps.max(1));
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let r = self.rec.span(name, request, |_| f());
            walls.push(t0.elapsed().as_secs_f64() * 1e6);
            last = Some(std::hint::black_box(r).map_err(|e| format!("{name}: {e}"))?);
        }
        Ok((
            stats::median(&walls),
            last.expect("at least one repetition ran"),
        ))
    }

    /// Replay the workload's passes twice: untraced for a fifth of
    /// `seconds`, then for three tenths with a span around every pass and
    /// every request. Sets `bench.trace_overhead_ratio` and
    /// `bench.request_ms_tail`; returns the number of passes replayed.
    pub fn replay(
        &mut self,
        seconds: f64,
        mut pass: impl FnMut(&mut Tally, &mut OnRequest) -> Result<(), String>,
    ) -> Result<u64, String> {
        let mut tally = Tally::default();
        let mut passes = 0;

        // the workload as the untraced run sees it: one span, no layer's
        let mut untraced = 0u64;
        self.rec.open("workload.untraced_replay", 0);
        let t0 = Instant::now();
        while untraced == 0 || t0.elapsed().as_secs_f64() < seconds * UNTRACED_SHARE {
            pass(&mut tally, &mut |_, _| untraced += 1)?;
            passes += 1;
        }
        let untraced_wall = t0.elapsed();
        self.rec.close();

        let mut traced = Vec::new();
        let t0 = Instant::now();
        while traced.is_empty() || t0.elapsed().as_secs_f64() < seconds * TRACED_SHARE {
            let request = self.next_request();
            self.rec.span("bench.pass", request, |rec| {
                pass(&mut tally, &mut |name, wall| {
                    rec.closed(name, request, wall);
                    traced.push(wall.as_secs_f64() * 1e3);
                })
            })?;
            passes += 1;
        }
        let traced_wall = t0.elapsed();
        self.tally.absorb(tally);
        self.set_trace_overhead(
            (traced_wall, traced.len() as u64),
            (untraced_wall, untraced),
        );
        self.set_request_tail(traced);
        Ok(passes)
    }

    /// `bench.trace_overhead_ratio`: wall per request of the traced section
    /// over that of the untraced one, each `(section wall, requests)`. The
    /// sections' walls, not the requests' own: recording a span happens
    /// after the request's timer stopped.
    pub fn set_trace_overhead(&mut self, traced: (Duration, u64), untraced: (Duration, u64)) {
        let per_request = |(wall, requests): (Duration, u64)| wall.as_secs_f64() / requests as f64;
        self.layers.set(
            "bench.trace_overhead_ratio",
            per_request(traced) / per_request(untraced),
        );
    }

    /// `bench.request_ms_tail`: the traced requests' reportable tail, or
    /// their maximum when fewer than 40 were traced.
    pub fn set_request_tail(&mut self, mut request_ms: Vec<f64>) {
        request_ms.sort_by(f64::total_cmp);
        let tail = stats::tail(&request_ms).map_or(request_ms[request_ms.len() - 1], |t| t.1);
        self.layers.set("bench.request_ms_tail", tail);
    }

    /// Close the run: coverage metrics, and the trace document written to
    /// `out/trace-<workload>.json`.
    pub fn finish(
        mut self,
        config: Vec<(&'static str, Value)>,
    ) -> (Layers, BTreeMap<&'static str, f64>, Tally, Value) {
        let all = self.rec.spans();
        let by_name = spans::self_time_by_name(all);
        let wall_ns = all.iter().map(|s| s.end_ns).max().unwrap_or(0)
            - all.iter().map(|s| s.start_ns).min().unwrap_or(0);
        // spans named `bench.*` are the harness's own structure (sections,
        // passes): their self time is what no layer call accounts for
        let unattributed: u64 = by_name
            .iter()
            .filter(|(name, _)| name.starts_with("bench."))
            .map(|(_, &(_, own))| own)
            .sum();
        self.layers.set(
            "bench.unattributed_share",
            unattributed as f64 / wall_ns.max(1) as f64,
        );
        self.layers.set("bench.spans", all.len() as f64);
        let doc = obj([
            ("config", obj(config)),
            (
                "layers",
                obj(PER_LAYER
                    .iter()
                    .zip(self.layers.measured())
                    .filter_map(|(m, v)| Some((m.0, num(v?))))),
            ),
            ("exact", obj(self.exact.iter().map(|(&k, &v)| (k, num(v))))),
            (
                "self_time_by_name",
                Value::Arr(
                    by_name
                        .iter()
                        .map(|(name, &(calls, own))| {
                            obj([
                                ("name", text(*name)),
                                ("calls", num(calls as f64)),
                                ("self_ms", num(own as f64 / 1e6)),
                                ("share", num(own as f64 / wall_ns.max(1) as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spans", spans::to_json(all)),
        ]);
        (self.layers, self.exact, self.tally, doc)
    }
}
