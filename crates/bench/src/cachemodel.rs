//! The `report -- cache` experiment: the simulated cache hierarchy over
//! the benchmark corpus.
//!
//! Runs every benchmark's sync HPL version twice — once on the plain
//! (roofline-only) Tesla and once on the cache-capable 48K-L1 variant —
//! and reports per-kernel L1/L2 hit rates plus the cache-aware modeled
//! time next to the roofline-only time. Along the way it checks the
//! model's structural invariants, which `report -- cache` turns into
//! exit-status gates:
//!
//! - on the cached device, per-line L1/L2 hit+miss sums equal the launch
//!   totals exactly (same chokepoint invariant as every other counter);
//! - every cached L1 probe corresponds to a global-memory transaction
//!   (`l1_hits + l1_misses <= mem_transactions`) and the L2 sees exactly
//!   the L1's misses (`l2_hits + l2_misses == l1_misses`);
//! - the plain Tesla's counters carry **zero** cache activity, and all
//!   its non-cache counters are bit-identical to the cached run's — the
//!   cache model observes the transaction stream, it never perturbs it.
//!
//! The listing ([`render`]) is derived from deterministic counters and
//! modeled times only, so it is byte-identical across claimer counts and
//! engines — `tests/report_matrix.rs` compares them.

use oclsim::{GroupCounters, LaunchCounters};

use crate::annotate::{self, KernelAnnotation};
use crate::profile::{profile_one, KernelRow, BENCHES};

/// One kernel's cache behaviour: the cached-device run joined with its
/// plain-device counterpart.
#[derive(Debug, Clone)]
pub struct KernelCacheRow {
    /// Benchmark name (see [`BENCHES`]).
    pub bench: &'static str,
    /// Kernel name (HPL's uniquifying suffix stripped).
    pub kernel: String,
    /// Counters from the cache-capable device (includes per-line map).
    pub counters: LaunchCounters,
    /// Cache-aware modeled seconds on the cached device.
    pub cached_modeled_s: f64,
    /// Roofline-only modeled seconds of the same launches on the plain
    /// Tesla.
    pub plain_modeled_s: f64,
    /// Counters from the plain Tesla (cache fields must all be zero).
    pub plain_totals: GroupCounters,
}

impl KernelCacheRow {
    /// L1 hit rate of the launch, if any transaction was cached.
    pub fn l1_hit_rate(&self) -> Option<f64> {
        self.counters.l1_hit_rate()
    }

    /// L2 hit rate of the launch (of L1 misses), if any reached L2.
    pub fn l2_hit_rate(&self) -> Option<f64> {
        self.counters.l2_hit_rate()
    }

    /// Every structural-invariant failure of this row (empty = green).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let t = &self.counters.totals;
        let who = format!("{}/{}", self.bench, self.kernel);
        if self.counters.lines_sum() != *t {
            out.push(format!("{who}: per-line sums drifted from launch totals"));
        }
        if t.l1_hits + t.l1_misses > t.mem_transactions {
            out.push(format!(
                "{who}: more L1 probes ({}) than memory transactions ({})",
                t.l1_hits + t.l1_misses,
                t.mem_transactions
            ));
        }
        if t.l1_hits + t.l1_misses == 0 && t.mem_transactions > 0 {
            out.push(format!("{who}: cached device recorded no cache traffic"));
        }
        if t.l2_hits + t.l2_misses != t.l1_misses {
            out.push(format!(
                "{who}: L2 saw {} probes but L1 missed {} times",
                t.l2_hits + t.l2_misses,
                t.l1_misses
            ));
        }
        let p = &self.plain_totals;
        if p.l1_hits + p.l1_misses + p.l2_hits + p.l2_misses != 0 {
            out.push(format!("{who}: plain Tesla recorded cache activity"));
        }
        let mut scrubbed = *t;
        scrubbed.l1_hits = 0;
        scrubbed.l1_misses = 0;
        scrubbed.l2_hits = 0;
        scrubbed.l2_misses = 0;
        if scrubbed != *p {
            out.push(format!(
                "{who}: non-cache counters differ between plain and cached device"
            ));
        }
        out
    }
}

/// The coalescing-ablation listings re-run on the cached device: naive
/// vs tiled transpose annotations, whose hot lines now carry L1 hit
/// rates.
#[derive(Debug, Clone)]
pub struct TransposeCacheStory {
    /// Naive (uncoalesced) transpose annotation on the cached Tesla.
    pub naive: KernelAnnotation,
    /// Tiled (benchmarked) transpose annotation on the cached Tesla.
    pub tiled: KernelAnnotation,
}

/// Hot-line L1 hit rate of an annotation, or 0.0 when the hot line saw
/// no cache traffic.
pub fn hot_line_l1_rate(a: &KernelAnnotation) -> f64 {
    let Some((_, hot)) = a.counters.hot_line() else {
        return 0.0;
    };
    let seen = hot.l1_hits + hot.l1_misses;
    if seen == 0 {
        0.0
    } else {
        hot.l1_hits as f64 / seen as f64
    }
}

/// The full `report -- cache` result.
pub struct Report {
    /// Per-kernel rows in benchmark-corpus order.
    pub rows: Vec<KernelCacheRow>,
    /// The transpose naive-vs-tiled annotations on the cached device.
    pub transpose: TransposeCacheStory,
}

impl Report {
    /// All structural-invariant failures across the corpus.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self.rows.iter().flat_map(|r| r.violations()).collect();
        let naive = hot_line_l1_rate(&self.transpose.naive);
        let tiled = hot_line_l1_rate(&self.transpose.tiled);
        if (naive - tiled).abs() < 0.05 {
            out.push(format!(
                "transpose hot-line L1 hit rate did not move between naive ({:.1}%) and tiled ({:.1}%)",
                100.0 * naive,
                100.0 * tiled
            ));
        }
        out
    }
}

/// Merge a profile's kernel rows from the cached and plain devices by
/// kernel name.
fn join(
    bench: &'static str,
    cached: Vec<KernelRow>,
    plain: &[KernelRow],
) -> Result<Vec<KernelCacheRow>, String> {
    cached
        .into_iter()
        .map(|c| {
            let p = plain
                .iter()
                .find(|p| p.kernel == c.kernel)
                .ok_or_else(|| format!("kernel `{}` missing from the plain-Tesla run", c.kernel))?;
            Ok(KernelCacheRow {
                bench,
                kernel: c.kernel,
                counters: c.counters,
                cached_modeled_s: c.modeled_seconds,
                plain_modeled_s: p.modeled_seconds,
                plain_totals: p.counters.totals,
            })
        })
        .collect()
}

/// Run the cache experiment over the whole corpus (sync mode; the cache
/// model is launch-scoped, so async adds nothing but runtime).
pub fn compute() -> Result<Report, String> {
    let cached_dev = crate::tesla_cached();
    let plain_dev = crate::tesla();
    let mut rows = Vec::new();
    for &bench in BENCHES {
        let c = profile_one(bench, true, &cached_dev).map_err(|e| e.to_string())?;
        let p = profile_one(bench, true, &plain_dev).map_err(|e| e.to_string())?;
        rows.extend(join(bench, c.rows, &p.rows)?);
    }
    let (naive, tiled) =
        annotate::transpose_naive_vs_tiled(&cached_dev).map_err(|e| e.to_string())?;
    Ok(Report {
        rows,
        transpose: TransposeCacheStory { naive, tiled },
    })
}

/// `report -- cache`: per-kernel L1/L2 hit rates and cache-aware modeled
/// times next to the roofline-only ones, and the naive-vs-tiled transpose
/// annotations on the cached Tesla. Gates: [`Report::violations`].
pub fn render() -> crate::Rendered {
    use crate::outln;
    let mut r = crate::Rendered::titled(
        "Cache hierarchy — L1/L2 hit rates on the 48K-L1 Tesla vs the roofline-only Tesla",
    );
    let report = match compute() {
        Ok(report) => report,
        Err(e) => {
            r.failures.push(format!("cache failed: {e}"));
            return r;
        }
    };
    outln!(
        r.text,
        "{:<10} {:<14} {:>10} {:>8} {:>8} {:>14} {:>14}",
        "benchmark",
        "kernel",
        "mem.tx",
        "l1.hit",
        "l2.hit",
        "cached (s)",
        "roofline (s)"
    );
    let cell = |rate: Option<f64>| match rate {
        Some(v) => format!("{:.1}%", 100.0 * v),
        None => "-".to_string(),
    };
    for row in &report.rows {
        outln!(
            r.text,
            "{:<10} {:<14} {:>10} {:>8} {:>8} {:>14.9} {:>14.9}",
            row.bench,
            row.kernel,
            row.counters.totals.mem_transactions,
            cell(row.l1_hit_rate()),
            cell(row.l2_hit_rate()),
            row.cached_modeled_s,
            row.plain_modeled_s
        );
    }
    let naive = &report.transpose.naive;
    let tiled = &report.transpose.tiled;
    outln!(
        r.text,
        "\ntranspose hot-line L1 hit rate: naive {:.1}% over {} tx, tiled {:.1}% over {} tx",
        100.0 * hot_line_l1_rate(naive),
        naive.counters.totals.mem_transactions,
        100.0 * hot_line_l1_rate(tiled),
        tiled.counters.totals.mem_transactions
    );
    outln!(
        r.text,
        "\n--- naive transpose, annotated on the cached Tesla ---"
    );
    r.text.push_str(&naive.render());
    outln!(
        r.text,
        "--- tiled transpose, annotated on the cached Tesla ---"
    );
    r.text.push_str(&tiled.render());
    r.failures = report
        .violations()
        .into_iter()
        .map(|v| format!("cache invariant violated: {v}"))
        .collect();
    outln!(
        r.text,
        "\ncache-model invariants (per-line sums, L1<=tx, L2==L1 misses, plain-device parity): {}",
        if r.failures.is_empty() {
            "all hold"
        } else {
            "VIOLATED"
        }
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite ground truth: the whole-corpus invariants hold, SpMV
    /// tells its low-L1 / cross-group-L2 story, and the transpose
    /// naive-vs-tiled L1 gap is visible on the hot line.
    #[test]
    fn corpus_invariants_and_cache_stories() {
        let _rt = crate::tests::fresh_runtime();
        let report = compute().unwrap();
        let violations = report.violations();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(report.rows.len() >= BENCHES.len(), "one row per kernel");

        // SpMV: gather through cols[] scatters the x-vector reads, so L1
        // locality stays poor (well under half) — but the vector is
        // shared across groups, so the shared L2 (replayed in group
        // order) recovers most of those misses. The perfectly-streaming
        // reduction is the contrast: each line is touched exactly once,
        // so its L1 hit rate is essentially zero.
        let spmv = report
            .rows
            .iter()
            .find(|r| r.bench == "spmv")
            .expect("spmv profiled");
        let spmv_l1 = spmv.l1_hit_rate().expect("spmv has cache traffic");
        let spmv_l2 = spmv.l2_hit_rate().expect("spmv misses reach L2");
        let reduction = report
            .rows
            .iter()
            .find(|r| r.bench == "reduction")
            .expect("reduction profiled");
        let red_l1 = reduction
            .l1_hit_rate()
            .expect("reduction has cache traffic");
        assert!(
            red_l1 < 0.01,
            "streaming reduction should run L1-cold, got {red_l1:.3}"
        );
        assert!(
            spmv_l1 < 0.5,
            "spmv's gather should keep L1 locality poor, got {spmv_l1:.3}"
        );
        assert!(
            spmv_l2 > 0.5,
            "cross-group x-vector reuse should dominate spmv's L2, got {spmv_l2:.3}"
        );

        // Transpose: the naive kernel's strided direction re-touches each
        // line once per element, so its hot line shows high L1 locality
        // at a much larger transaction count; the tiled kernel coalesces
        // those accesses away and its hot line runs near-cold.
        let naive = hot_line_l1_rate(&report.transpose.naive);
        let tiled = hot_line_l1_rate(&report.transpose.tiled);
        assert!(
            (naive - tiled).abs() >= 0.05,
            "hot-line L1 hit rate must move between naive ({naive:.3}) and tiled ({tiled:.3})"
        );
        assert!(
            report.transpose.naive.counters.totals.mem_transactions
                > report.transpose.tiled.counters.totals.mem_transactions,
            "naive transpose must issue more transactions than tiled"
        );
    }

    /// The cache-aware memory term prices hits below DRAM: kernels keep
    /// their transaction counts, but cached modeled time never exceeds
    /// the roofline-only time by more than the L2-traffic premium — and
    /// for hit-heavy kernels it drops below it.
    #[test]
    fn cached_modeled_time_is_finite_and_positive() {
        let _rt = crate::tests::fresh_runtime();
        let report = compute().unwrap();
        for r in &report.rows {
            assert!(
                r.cached_modeled_s.is_finite() && r.cached_modeled_s > 0.0,
                "{}/{}: cached modeled time {}",
                r.bench,
                r.kernel,
                r.cached_modeled_s
            );
            assert!(
                r.plain_modeled_s.is_finite() && r.plain_modeled_s > 0.0,
                "{}/{}: plain modeled time {}",
                r.bench,
                r.kernel,
                r.plain_modeled_s
            );
        }
    }
}
