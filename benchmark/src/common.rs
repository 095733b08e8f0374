//! What every workload shares: the run configuration, the result record,
//! and the exact per-pass facts read off a `hpl::profile` report.

use std::time::Instant;

use oclsim::{Device, TransferDir};

use crate::json::Value;

/// One invocation's configuration (from the command line).
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the timed section, seconds.
    pub seconds: f64,
    /// Set-up repetitions (their median is `setup_s`).
    pub setup_reps: usize,
    /// Test-scale problem sizes (`hplbench check` only).
    pub small: bool,
    /// Closed-loop client threads.
    pub clients: usize,
}

/// Exact facts of one workload pass, taken from a profiled run of it.
/// Everything here is a pure function of `(workload, seed)`: counts come
/// from the launches' `TimingBreakdown`s, modeled seconds from the pure
/// timing-model functions (never from timeline differences, whose last
/// bits depend on what ran before).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassFacts {
    pub launches: u64,
    pub sim_instr: u64,
    pub mem_tx: u64,
    pub barriers: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub modeled_kernel_s: f64,
    pub modeled_transfer_s: f64,
    pub h2d_count: u64,
    pub h2d_bytes: u64,
    pub d2h_count: u64,
    pub d2h_bytes: u64,
    /// Host wall seconds the simulator spent executing the launches
    /// (`Event::wall_time`; noisy, not exact).
    pub exec_wall_s: f64,
    /// Host wall seconds spent in the transfers' commands, and in the
    /// uploads alone.
    pub dma_wall_s: f64,
    pub h2d_wall_s: f64,
}

impl PassFacts {
    pub fn modeled_device_s(&self) -> f64 {
        self.modeled_kernel_s + self.modeled_transfer_s
    }

    pub fn add(&mut self, o: &PassFacts) {
        self.launches += o.launches;
        self.sim_instr += o.sim_instr;
        self.mem_tx += o.mem_tx;
        self.barriers += o.barriers;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.modeled_kernel_s += o.modeled_kernel_s;
        self.modeled_transfer_s += o.modeled_transfer_s;
        self.h2d_count += o.h2d_count;
        self.h2d_bytes += o.h2d_bytes;
        self.d2h_count += o.d2h_count;
        self.d2h_bytes += o.d2h_bytes;
        self.exec_wall_s += o.exec_wall_s;
        self.dma_wall_s += o.dma_wall_s;
        self.h2d_wall_s += o.h2d_wall_s;
    }
}

/// Read the facts of everything a `hpl::profile` scope saw. All transfers
/// are modeled on `device`'s interconnect (every workload moves its data
/// to one device).
pub fn facts(report: &hpl::ProfileReport, device: &Device) -> PassFacts {
    let mut f = PassFacts::default();
    for l in &report.launches {
        let t = l
            .event
            .kernel_timing()
            .expect("a launch the workload waited for has its timing");
        f.launches += 1;
        f.sim_instr += t.totals.instructions;
        f.mem_tx += t.totals.mem_transactions;
        f.barriers += t.totals.barriers;
        f.l1_hits += t.totals.l1_hits;
        f.l1_misses += t.totals.l1_misses;
        f.l2_hits += t.totals.l2_hits;
        f.l2_misses += t.totals.l2_misses;
        f.modeled_kernel_s += t.device_seconds;
        f.exec_wall_s += l.event.wall_time().as_secs_f64();
    }
    for t in &report.transfers {
        f.modeled_transfer_s += oclsim::timing::model_transfer(device.profile(), t.bytes as usize);
        let wall = t
            .event
            .as_ref()
            .map_or(0.0, |ev| ev.wall_time().as_secs_f64());
        f.dma_wall_s += wall;
        match t.direction {
            TransferDir::HostToDevice => {
                f.h2d_count += 1;
                f.h2d_bytes += t.bytes;
                f.h2d_wall_s += wall;
            }
            TransferDir::DeviceToHost => {
                f.d2h_count += 1;
                f.d2h_bytes += t.bytes;
            }
            _ => {}
        }
    }
    f
}

/// What an untraced run of a workload measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed section.
    pub timed_wall_s: f64,
    /// Wall milliseconds of every request of the timed section.
    pub request_ms: Vec<f64>,
    /// Whole passes completed in the timed section, over all clients.
    pub passes: u64,
    /// Exact facts of one pass.
    pub per_pass: PassFacts,
    /// Verified operations attempted, and failed or mis-verified.
    pub tally: Tally,
    /// Sizes and constants of this workload, for the result record.
    pub info: Vec<(&'static str, Value)>,
}

/// Counts attempts and failures of verified operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is its verification verdict.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // only the first few: a systematic failure would flood stderr
            if self.failed <= 5 {
                eprintln!("hplbench: FAILED: {}", what());
            }
        }
    }

    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Run `setup` `reps` times, timing each; returns the last state and the
/// wall seconds of every repetition. Each repetition starts from empty
/// kernel and binary caches so it pays the same first-invocation work.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        clear_caches();
        let t0 = Instant::now();
        state = Some(setup()?);
        walls.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one repetition ran"), walls))
}

/// Empty HPL's kernel cache and the process-global binary cache.
pub fn clear_caches() {
    hpl::clear_kernel_cache();
    oclsim::serve::global_binary_cache().clear();
}

/// A buffer for `seconds` of request latencies at up to `per_second`
/// requests, its pages already touched: the peak RSS then does not depend
/// on how many requests a run happens to complete.
pub fn latency_buffer(seconds: f64, per_second: f64) -> Vec<f64> {
    let mut v = vec![0.0; (seconds * per_second) as usize + 64];
    v.clear();
    v
}

/// FNV-1a over 64-bit words: the digest of a workload's seeded inputs.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
