//! Perf-annotate-style source listings from per-line counters.
//!
//! Turns the [`LaunchCounters::lines`] map into an annotated source
//! listing — one row per source line with its counters, its share of the
//! kernel's global-memory transactions, and a heat marker — plus a JSONL
//! export for machine consumption. Rendering goes through the same
//! gutter format as the sanitizer's diagnostics ([`crate::clc::snippet`]),
//! so a lint and a hot-line report about one statement line up on screen.
//!
//! Everything here is derived from deterministic counters and renders in
//! line order, so output is byte-identical across `OCLSIM_THREADS`
//! settings.

use std::fmt::Write as _;

use crate::clc::snippet;
use crate::prof::counters::{GroupCounters, LaunchCounters};
use crate::prof::json::escape;

/// One annotated source line, ready for rendering or JSONL export.
#[derive(Debug, Clone)]
pub struct AnnotatedLine {
    /// 1-based line in the kernel source (0 = synthetic, no location).
    pub line: usize,
    /// The source text of that line (empty when out of range).
    pub text: String,
    /// Provenance label when the kernel source was itself generated —
    /// for HPL kernels, the DSL recording site (`file.rs:line`) the
    /// generated line came from.
    pub site: Option<String>,
    /// Counters attributed to this line.
    pub counters: GroupCounters,
    /// This line's fraction of the kernel's global-memory transactions
    /// (0.0 when the kernel issued none).
    pub tx_share: f64,
}

/// Build the annotated-line table for one kernel: every line that has
/// counters, in line order, joined with its source text and provenance.
pub fn annotate(
    source: &str,
    counters: &LaunchCounters,
    site_for: impl Fn(usize) -> Option<String>,
) -> Vec<AnnotatedLine> {
    let total_tx = counters.totals.mem_transactions;
    counters
        .lines
        .iter()
        .map(|(&line, c)| AnnotatedLine {
            line,
            text: snippet::source_line(source, line).unwrap_or("").to_string(),
            site: site_for(line),
            counters: *c,
            tx_share: if total_tx == 0 {
                0.0
            } else {
                c.mem_transactions as f64 / total_tx as f64
            },
        })
        .collect()
}

/// Heat marker for a transaction share: one step per 12.5% (perf-style
/// eighth buckets), empty below 0.5%.
pub fn heat_marker(share: f64) -> String {
    let pct = share * 100.0;
    if pct < 0.5 {
        return String::new();
    }
    "#".repeat(((pct / 12.5).ceil() as usize).clamp(1, 8))
}

/// Render the perf-annotate listing for one kernel:
///
/// ```text
/// kernel `transpose` — 8320 mem tx
///     mem.tx  share     instr  bank.cf  heat
///       8192  98.5%      4096        0  ########  |  7 | dst[...] = src[...];
/// ```
///
/// Rows render in line order; a provenance site, when present, is
/// appended as a trailing `<- site` note. When any line carries simulated
/// cache activity (cache-capable device profile), two extra gutter
/// columns report per-line L1 and L2 hit rates; listings from profiles
/// without the `cache` capability render byte-identically to before the
/// cache model existed.
pub fn listing(kernel: &str, annotated: &[AnnotatedLine]) -> String {
    let mut out = String::new();
    let total_tx: u64 = annotated.iter().map(|a| a.counters.mem_transactions).sum();
    let cache = annotated
        .iter()
        .any(|a| a.counters.l1_hits + a.counters.l1_misses > 0);
    let _ = writeln!(out, "kernel `{kernel}` — {total_tx} mem tx");
    if cache {
        let _ = writeln!(
            out,
            "    {:>10}  {:>6}  {:>10}  {:>8}  {:>7}  {:>7}  {:<8}  source",
            "mem.tx", "share", "instr", "bank.cf", "l1.hit", "l2.hit", "heat"
        );
    } else {
        let _ = writeln!(
            out,
            "    {:>10}  {:>6}  {:>10}  {:>8}  {:<8}  source",
            "mem.tx", "share", "instr", "bank.cf", "heat"
        );
    }
    let width = snippet::gutter_width(annotated.iter().map(|a| a.line).max().unwrap_or(1));
    for a in annotated {
        let gutter = if a.line == 0 {
            format!("{:>width$} | <no source location>", "-")
        } else {
            snippet::gutter_line(a.line, width, &a.text)
        };
        let site = a
            .site
            .as_deref()
            .map(|s| format!("  <- {s}"))
            .unwrap_or_default();
        if cache {
            let _ = writeln!(
                out,
                "    {:>10}  {:>5.1}%  {:>10}  {:>8}  {:>7}  {:>7}  {:<8}  {gutter}{site}",
                a.counters.mem_transactions,
                a.tx_share * 100.0,
                a.counters.instr.total(),
                a.counters.bank_conflicts,
                hit_rate_cell(a.counters.l1_hits, a.counters.l1_misses),
                hit_rate_cell(a.counters.l2_hits, a.counters.l2_misses),
                heat_marker(a.tx_share),
            );
        } else {
            let _ = writeln!(
                out,
                "    {:>10}  {:>5.1}%  {:>10}  {:>8}  {:<8}  {gutter}{site}",
                a.counters.mem_transactions,
                a.tx_share * 100.0,
                a.counters.instr.total(),
                a.counters.bank_conflicts,
                heat_marker(a.tx_share),
            );
        }
    }
    out
}

/// A hit-rate gutter cell: `hits / (hits + misses)` as a percentage, or
/// `-` for a line with no observed traffic at that cache level.
fn hit_rate_cell(hits: u64, misses: u64) -> String {
    let seen = hits + misses;
    if seen == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * hits as f64 / seen as f64)
    }
}

/// JSONL export: one object per annotated line, in line order.
pub fn jsonl(kernel: &str, annotated: &[AnnotatedLine]) -> String {
    let mut out = String::new();
    for a in annotated {
        let c = &a.counters;
        let site = match &a.site {
            Some(s) => format!("\"{}\"", escape(s)),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "{{\"kernel\":\"{}\",\"line\":{},\"site\":{site},\"text\":\"{}\",\
             \"mem_transactions\":{},\"mem_transactions_min\":{},\"global_bytes\":{},\
             \"local_accesses\":{},\"bank_conflicts\":{},\
             \"l1_hits\":{},\"l1_misses\":{},\"l2_hits\":{},\"l2_misses\":{},\
             \"instructions\":{},\
             \"flops\":{},\"barriers\":{},\"barrier_stall_cycles\":{},\
             \"divergence_lost_cycles\":{},\"tx_share\":{:.6}}}",
            escape(kernel),
            a.line,
            escape(&a.text),
            c.mem_transactions,
            c.mem_transactions_min,
            c.global_bytes,
            c.local_accesses,
            c.bank_conflicts,
            c.l1_hits,
            c.l1_misses,
            c.l2_hits,
            c.l2_misses,
            c.instr.total(),
            c.flops,
            c.barriers,
            c.barrier_stall_cycles,
            c.divergence_lost_cycles,
            a.tx_share,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn launch_with_lines(lines: &[(usize, u64)]) -> LaunchCounters {
        let mut map = BTreeMap::new();
        let mut totals = GroupCounters::default();
        for &(line, tx) in lines {
            let c = GroupCounters {
                mem_transactions: tx,
                ..Default::default()
            };
            map.insert(line, c);
            totals.merge(&c);
        }
        LaunchCounters {
            totals,
            lines: map,
            num_groups: 1,
            total_cycles: 1,
            cu_occupancy: vec![1.0],
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let lc = launch_with_lines(&[(2, 30), (3, 70)]);
        let rows = annotate("a\nb\nc\n", &lc, |_| None);
        let sum: f64 = rows.iter().map(|r| r.tx_share).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((rows[1].tx_share - 0.7).abs() < 1e-12);
    }

    #[test]
    fn annotate_joins_source_text_and_sites() {
        let lc = launch_with_lines(&[(2, 10)]);
        let rows = annotate("int a;\nint b;\n", &lc, |l| Some(format!("dsl.rs:{l}")));
        assert_eq!(rows[0].text, "int b;");
        assert_eq!(rows[0].site.as_deref(), Some("dsl.rs:2"));
    }

    #[test]
    fn heat_marker_buckets() {
        assert_eq!(heat_marker(0.0), "");
        assert_eq!(heat_marker(0.004), "");
        assert_eq!(heat_marker(0.01), "#");
        assert_eq!(heat_marker(0.30), "###");
        assert_eq!(heat_marker(1.0), "########");
    }

    #[test]
    fn listing_renders_rows_in_line_order() {
        let lc = launch_with_lines(&[(3, 70), (2, 30)]);
        let rows = annotate("a\nb\nc\n", &lc, |_| None);
        let text = listing("k", &rows);
        let l2 = text.find("2 | b").expect("line 2 row");
        let l3 = text.find("3 | c").expect("line 3 row");
        assert!(l2 < l3, "{text}");
        assert!(text.contains("70.0%"), "{text}");
    }

    #[test]
    fn listing_without_cache_activity_has_no_cache_columns() {
        let lc = launch_with_lines(&[(2, 30)]);
        let rows = annotate("a\nb\n", &lc, |_| None);
        let text = listing("k", &rows);
        assert!(!text.contains("l1.hit"), "{text}");
        assert!(!text.contains("l2.hit"), "{text}");
    }

    #[test]
    fn listing_with_cache_activity_shows_hit_rate_gutters() {
        let mut lc = launch_with_lines(&[(2, 30), (3, 70)]);
        let c = lc.lines.get_mut(&2).unwrap();
        c.l1_hits = 3;
        c.l1_misses = 1;
        c.l2_hits = 1;
        // line 3 saw no cache traffic (e.g. only atomics): renders `-`
        let rows = annotate("a\nb\nc\n", &lc, |_| None);
        let text = listing("k", &rows);
        assert!(text.contains("l1.hit"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        let dash_row = text.lines().find(|l| l.contains("3 | c")).unwrap();
        assert!(dash_row.contains('-'), "{dash_row}");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let lc = launch_with_lines(&[(1, 5), (2, 5)]);
        let rows = annotate("x\ny\n", &lc, |_| None);
        let out = jsonl("k\"q", &rows);
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            crate::prof::json::parse(line).expect("valid JSON");
        }
        assert!(out.contains("\\\"q"), "kernel name escaped: {out}");
    }
}
