//! The `report -- annotate` experiment: perf-annotate-style source-level
//! profiling of the benchmark corpus.
//!
//! For every paper benchmark this runs the HPL version under
//! [`hpl::profile`](fn@hpl::profile) and annotates the *generated* OpenCL C with the
//! per-line hardware counters the backend collected, mapping each
//! generated line back to the DSL recording site (`file.rs:line`) that
//! produced it through the codegen line map; the handwritten OpenCL
//! version is launched through a profiled queue and annotated against its
//! own kernel source. Every listing is derived from deterministic
//! counters and rendered in line order, so the whole report ([`render`]) is
//! byte-identical across claimer counts and engines (`report_matrix.rs`
//! compares them). The per-line rows also go to `target/annotate.jsonl`
//! for machine consumption, and the per-line sums are checked against the
//! launch totals (the invariant the interpreter maintains by construction).

use std::collections::BTreeMap;
use std::path::Path;

use oclsim::prof::annotate::{annotate, jsonl, listing, AnnotatedLine};
use oclsim::{CommandQueue, Context, Device, GroupCounters, LaunchCounters, MemAccess, Program};

use crate::profile::{base_name, run_bench, BENCHES};

/// One kernel's annotated source-level profile.
#[derive(Debug, Clone)]
pub struct KernelAnnotation {
    /// Benchmark name (see [`BENCHES`]).
    pub bench: &'static str,
    /// `"generated"` (HPL codegen, lines carry DSL recording sites) or
    /// `"handwritten"` (kernels/*.cl, lines are the programmer's own).
    pub variant: &'static str,
    /// Kernel name (HPL's uniquifying suffix stripped).
    pub kernel: String,
    /// Launches merged into this annotation (Floyd launches per pass).
    pub launches: usize,
    /// Counters merged over all launches, per-line map included.
    pub counters: LaunchCounters,
    /// The annotated lines, in line order.
    pub lines: Vec<AnnotatedLine>,
}

impl KernelAnnotation {
    /// The per-line invariant: line counters must sum exactly to the
    /// launch totals — the interpreter routes every counter delta
    /// through both maps, so any mismatch is an attribution bug.
    pub fn sums_match(&self) -> bool {
        self.counters.lines_sum() == self.counters.totals
    }

    /// `bench/variant/kernel`, the qualified name used in listings and
    /// the JSONL export.
    pub fn qualified_name(&self) -> String {
        format!("{}/{}/{}", self.bench, self.variant, self.kernel)
    }

    /// Render the perf-annotate listing for this kernel.
    pub fn render(&self) -> String {
        listing(&self.qualified_name(), &self.lines)
    }
}

/// One row of the cross-benchmark hot-line table.
#[derive(Debug, Clone)]
pub struct HotLineRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// `"generated"` or `"handwritten"`.
    pub variant: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// 1-based hottest line of the kernel source.
    pub line: usize,
    /// That line's share of the kernel's global-memory transactions.
    pub tx_share: f64,
    /// Where the line came from: the DSL recording site for generated
    /// kernels, the source text itself for handwritten ones.
    pub location: String,
}

/// The hottest line of every annotated kernel, in corpus order.
pub fn hot_lines(rows: &[KernelAnnotation]) -> Vec<HotLineRow> {
    rows.iter()
        .filter_map(|r| {
            let (line, hot) = r.counters.hot_line()?;
            let annotated = r.lines.iter().find(|a| a.line == line)?;
            Some(HotLineRow {
                bench: r.bench,
                variant: r.variant,
                kernel: r.kernel.clone(),
                line,
                tx_share: hot.mem_transactions as f64
                    / r.counters.totals.mem_transactions.max(1) as f64,
                location: annotated
                    .site
                    .clone()
                    .unwrap_or_else(|| annotated.text.trim().to_string()),
            })
        })
        .collect()
}

/// Write every annotated line of every kernel as JSONL into
/// `dir/annotate.jsonl`; returns the written path.
pub fn export_jsonl(rows: &[KernelAnnotation], dir: &Path) -> std::io::Result<String> {
    let mut out = String::new();
    for r in rows {
        out.push_str(&jsonl(&r.qualified_name(), &r.lines));
    }
    let path = dir.join("annotate.jsonl");
    crate::write_artifact(&path, &out)?;
    Ok(path.display().to_string())
}

/// An empty counter accumulator (mirrors the aggregation in
/// [`crate::profile::profile_one`]).
fn empty_counters() -> LaunchCounters {
    LaunchCounters {
        totals: GroupCounters::default(),
        lines: BTreeMap::new(),
        num_groups: 0,
        total_cycles: 0,
        cu_occupancy: Vec::new(),
    }
}

/// Additive merge of one launch's counters into an accumulator, per-line
/// map included.
fn merge_counters(dst: &mut LaunchCounters, src: &LaunchCounters) {
    dst.totals.merge(&src.totals);
    for (line, c) in &src.lines {
        dst.lines.entry(*line).or_default().merge(c);
    }
    dst.num_groups += src.num_groups;
    dst.total_cycles += src.total_cycles;
}

/// Annotate the HPL-generated kernels of one benchmark: run the sync
/// version under [`hpl::profile`], merge counters per kernel, and join
/// them with the generated source and line map from the codegen cache.
fn generated(bench: &'static str, device: &Device) -> Result<Vec<KernelAnnotation>, String> {
    let (result, report) = hpl::profile(|| run_bench(bench, true, false, device));
    result.map_err(|e| e.to_string())?;

    struct Agg {
        full_name: String,
        launches: usize,
        counters: LaunchCounters,
    }
    let mut agg: BTreeMap<String, Agg> = BTreeMap::new();
    for launch in &report.launches {
        let counters = launch
            .event
            .counters()
            .ok_or("queues are profiled inside hpl::profile")?;
        let a = agg.entry(base_name(&launch.kernel)).or_insert_with(|| Agg {
            full_name: launch.kernel.clone(),
            launches: 0,
            counters: empty_counters(),
        });
        a.launches += 1;
        merge_counters(&mut a.counters, &counters);
    }

    agg.into_iter()
        .map(|(kernel, a)| {
            let prov = hpl::runtime()
                .kernel_provenance(&a.full_name)
                .ok_or_else(|| format!("no codegen provenance for kernel `{}`", a.full_name))?;
            let lines = annotate(&prov.source, &a.counters, |l| {
                prov.line_map.site_for_line(l).map(|s| s.to_string())
            });
            Ok(KernelAnnotation {
                bench,
                variant: "generated",
                kernel,
                launches: a.launches,
                counters: a.counters,
                lines,
            })
        })
        .collect()
}

/// A context with a profiled in-order queue on `device`, for launching
/// the handwritten kernels with counter collection on.
struct Rig {
    ctx: Context,
    queue: CommandQueue,
}

fn rig(device: &Device) -> Result<Rig, String> {
    let ctx = Context::new(std::slice::from_ref(device)).map_err(|e| e.to_string())?;
    let queue = CommandQueue::new(&ctx, device).map_err(|e| e.to_string())?;
    queue.set_profiling(true);
    Ok(Rig { ctx, queue })
}

fn build_kernel(r: &Rig, source: &str, name: &str) -> Result<oclsim::Kernel, String> {
    let program = Program::from_source(&r.ctx, source);
    program
        .build(hpl::opt_level().flag())
        .map_err(|e| format!("{name} failed to build: {e}\n{}", program.build_log()))?;
    program.kernel(name).map_err(|e| e.to_string())
}

/// Total executed instructions of one benchmark's handwritten kernels,
/// compiled at the calling thread's runtime's opt level and profiled at the
/// same tiny scale the `annotate` experiment uses. The `passes` report
/// uses the O0→O2 delta of this count as its optimization evidence — the
/// roofline timing model hides ALU savings on memory-bound kernels, but
/// the instruction counter does not.
pub fn handwritten_instructions(bench: &str, device: &Device) -> Result<u64, String> {
    let (_, _, counters, _) = run_handwritten(bench, device)?;
    Ok(counters.totals.instr.total())
}

/// Launch one benchmark's handwritten kernel through a profiled queue at
/// the same test scale the `profile` experiment uses, and merge the
/// per-launch counters. Returns (kernel name, source, counters, launches).
fn run_handwritten(
    bench: &str,
    device: &Device,
) -> Result<(&'static str, &'static str, LaunchCounters, usize), String> {
    use benchsuite::{ep, floyd, reduction, spmv, transpose};
    let r = rig(device)?;
    let err = |e: oclsim::Error| e.to_string();
    match bench {
        "ep" => {
            let cfg = ep::EpConfig::class(ep::EpClass::S);
            let threads = cfg.threads();
            let seeds = ep::thread_seeds(&cfg);
            let source = ep::opencl_version::SOURCE;
            let k = build_kernel(&r, source, "ep")?;
            let seeds_buf = r
                .ctx
                .create_buffer(8 * threads, MemAccess::ReadOnly)
                .map_err(err)?;
            let sx_buf = r
                .ctx
                .create_buffer(8 * threads, MemAccess::ReadWrite)
                .map_err(err)?;
            let sy_buf = r
                .ctx
                .create_buffer(8 * threads, MemAccess::ReadWrite)
                .map_err(err)?;
            let q_buf = r
                .ctx
                .create_buffer(4 * threads * 10, MemAccess::ReadWrite)
                .map_err(err)?;
            r.queue.enqueue_write(&seeds_buf, 0, &seeds).map_err(err)?;
            k.set_arg_buffer(0, &seeds_buf).map_err(err)?;
            k.set_arg_buffer(1, &sx_buf).map_err(err)?;
            k.set_arg_buffer(2, &sy_buf).map_err(err)?;
            k.set_arg_buffer(3, &q_buf).map_err(err)?;
            k.set_arg_scalar(4, cfg.pairs_per_thread as i32)
                .map_err(err)?;
            let ev = r
                .queue
                .enqueue_ndrange(&k, &[threads], Some(&[64.min(threads)]))
                .map_err(err)?;
            let c = ev.counters().ok_or("queue is profiled")?;
            Ok(("ep", source, c, 1))
        }
        "floyd" => {
            let cfg = floyd::FloydConfig::default();
            let n = cfg.nodes;
            let graph = floyd::generate_graph(&cfg);
            let source = floyd::opencl_version::SOURCE;
            let k = build_kernel(&r, source, "floyd_pass")?;
            let dist_buf = r
                .ctx
                .create_buffer(4 * n * n, MemAccess::ReadWrite)
                .map_err(err)?;
            r.queue.enqueue_write(&dist_buf, 0, &graph).map_err(err)?;
            k.set_arg_buffer(0, &dist_buf).map_err(err)?;
            k.set_arg_scalar(1, n as i32).map_err(err)?;
            let tile = 16.min(n);
            let mut counters = empty_counters();
            for pass in 0..n {
                k.set_arg_scalar(2, pass as i32).map_err(err)?;
                let ev = r
                    .queue
                    .enqueue_ndrange(&k, &[n, n], Some(&[tile, tile]))
                    .map_err(err)?;
                merge_counters(&mut counters, &ev.counters().ok_or("queue is profiled")?);
            }
            Ok(("floyd_pass", source, counters, n))
        }
        "transpose" => {
            let cfg = transpose::TransposeConfig::default();
            let (h, w) = (cfg.rows, cfg.cols);
            let data = transpose::generate_matrix(&cfg);
            let source = transpose::opencl_version::SOURCE;
            let k = build_kernel(&r, source, "transpose")?;
            let src_buf = r
                .ctx
                .create_buffer(4 * h * w, MemAccess::ReadOnly)
                .map_err(err)?;
            let dst_buf = r
                .ctx
                .create_buffer(4 * h * w, MemAccess::ReadWrite)
                .map_err(err)?;
            r.queue.enqueue_write(&src_buf, 0, &data).map_err(err)?;
            k.set_arg_buffer(0, &dst_buf).map_err(err)?;
            k.set_arg_buffer(1, &src_buf).map_err(err)?;
            k.set_arg_scalar(2, h as i32).map_err(err)?;
            k.set_arg_scalar(3, w as i32).map_err(err)?;
            let ev = r
                .queue
                .enqueue_ndrange(&k, &[w, h], Some(&[transpose::BLOCK, transpose::BLOCK]))
                .map_err(err)?;
            let c = ev.counters().ok_or("queue is profiled")?;
            Ok(("transpose", source, c, 1))
        }
        "spmv" => {
            let cfg = spmv::SpmvConfig::default();
            let n = cfg.n;
            let p = spmv::generate(&cfg);
            let source = spmv::opencl_version::SOURCE;
            let k = build_kernel(&r, source, "spmv")?;
            let val_buf = r
                .ctx
                .create_buffer(4 * p.val.len(), MemAccess::ReadOnly)
                .map_err(err)?;
            let vec_buf = r
                .ctx
                .create_buffer(4 * n, MemAccess::ReadOnly)
                .map_err(err)?;
            let cols_buf = r
                .ctx
                .create_buffer(4 * p.cols.len(), MemAccess::ReadOnly)
                .map_err(err)?;
            let rowptr_buf = r
                .ctx
                .create_buffer(4 * (n + 1), MemAccess::ReadOnly)
                .map_err(err)?;
            let out_buf = r
                .ctx
                .create_buffer(4 * n, MemAccess::ReadWrite)
                .map_err(err)?;
            r.queue.enqueue_write(&val_buf, 0, &p.val).map_err(err)?;
            r.queue.enqueue_write(&vec_buf, 0, &p.vec).map_err(err)?;
            r.queue.enqueue_write(&cols_buf, 0, &p.cols).map_err(err)?;
            r.queue
                .enqueue_write(&rowptr_buf, 0, &p.rowptr)
                .map_err(err)?;
            k.set_arg_buffer(0, &val_buf).map_err(err)?;
            k.set_arg_buffer(1, &vec_buf).map_err(err)?;
            k.set_arg_buffer(2, &cols_buf).map_err(err)?;
            k.set_arg_buffer(3, &rowptr_buf).map_err(err)?;
            k.set_arg_buffer(4, &out_buf).map_err(err)?;
            let ev = r
                .queue
                .enqueue_ndrange(&k, &[n * spmv::M], Some(&[spmv::M]))
                .map_err(err)?;
            let c = ev.counters().ok_or("queue is profiled")?;
            Ok(("spmv", source, c, 1))
        }
        "reduction" => {
            let cfg = reduction::ReductionConfig::default();
            let n = cfg.n;
            let groups = n / reduction::CHUNK;
            let data = reduction::generate_input(&cfg);
            let source = reduction::opencl_version::SOURCE;
            let k = build_kernel(&r, source, "reduce_sum")?;
            let in_buf = r
                .ctx
                .create_buffer(4 * n, MemAccess::ReadOnly)
                .map_err(err)?;
            let partials_buf = r
                .ctx
                .create_buffer(4 * groups, MemAccess::ReadWrite)
                .map_err(err)?;
            r.queue.enqueue_write(&in_buf, 0, &data).map_err(err)?;
            k.set_arg_buffer(0, &in_buf).map_err(err)?;
            k.set_arg_buffer(1, &partials_buf).map_err(err)?;
            let ev = r
                .queue
                .enqueue_ndrange(&k, &[n / reduction::PER_THREAD], Some(&[reduction::GROUP]))
                .map_err(err)?;
            let c = ev.counters().ok_or("queue is profiled")?;
            Ok(("reduce_sum", source, c, 1))
        }
        other => Err(format!("unknown benchmark `{other}`")),
    }
}

/// Annotate one benchmark's handwritten kernel against its own source.
fn handwritten(bench: &'static str, device: &Device) -> Result<KernelAnnotation, String> {
    let (kernel, source, counters, launches) = run_handwritten(bench, device)?;
    let lines = annotate(source, &counters, |_| None);
    Ok(KernelAnnotation {
        bench,
        variant: "handwritten",
        kernel: kernel.to_string(),
        launches,
        counters,
        lines,
    })
}

/// Annotate the whole corpus: for each of the five benchmarks, the
/// HPL-generated kernels (sites attached) then the handwritten kernel.
pub fn compute(device: &Device) -> Result<Vec<KernelAnnotation>, String> {
    let mut rows = Vec::new();
    for &bench in BENCHES {
        rows.extend(generated(bench, device)?);
        rows.push(handwritten(bench, device)?);
    }
    Ok(rows)
}

/// The coalescing ablation, annotated: naive transpose (Figure 10(b),
/// uncoalesced writes) vs the benchmarked tiled transpose, both HPL
/// kernels at 256×256. The hot line moves from the global store that
/// scatters columns to the strided global read that feeds the local
/// tile — the listings in README.md come from here.
pub fn transpose_naive_vs_tiled(
    device: &Device,
) -> Result<(KernelAnnotation, KernelAnnotation), String> {
    use benchsuite::transpose::{generate_matrix, hpl_version, TransposeConfig};
    use hpl::eval;
    use hpl::prelude::*;

    let cfg = TransposeConfig {
        rows: 256,
        cols: 256,
    };
    let data = generate_matrix(&cfg);

    fn naive_transpose(dst: &Array<f32, 2>, src: &Array<f32, 2>) {
        dst.at((idx(), idy())).assign(src.at((idy(), idx())));
    }
    let src = Array::<f32, 2>::from_vec([cfg.rows, cfg.cols], data.clone());
    let dst = Array::<f32, 2>::new([cfg.cols, cfg.rows]);
    let (result, report) = hpl::profile(|| {
        eval(naive_transpose)
            .device(device)
            .global(&[cfg.cols, cfg.rows])
            .local(&[16, 16])
            .run((&dst, &src))
    });
    result.map_err(|e| e.to_string())?;
    let naive = annotate_single_launch("transpose", "naive", &report)?;

    let (result, report) = hpl::profile(|| hpl_version::run(&cfg, &data, device));
    result.map_err(|e| e.to_string())?;
    let tiled = annotate_single_launch("transpose", "tiled", &report)?;
    Ok((naive, tiled))
}

/// Annotate the single kernel launch of a profile report (helper for the
/// ablation listings).
fn annotate_single_launch(
    bench: &'static str,
    variant: &'static str,
    report: &hpl::ProfileReport,
) -> Result<KernelAnnotation, String> {
    let launch = report
        .launches
        .first()
        .ok_or("profile scope recorded no launch")?;
    let counters = launch
        .event
        .counters()
        .ok_or("queues are profiled inside hpl::profile")?;
    let prov = hpl::runtime()
        .kernel_provenance(&launch.kernel)
        .ok_or_else(|| format!("no codegen provenance for kernel `{}`", launch.kernel))?;
    let lines = annotate(&prov.source, &counters, |l| {
        prov.line_map.site_for_line(l).map(|s| s.to_string())
    });
    Ok(KernelAnnotation {
        bench,
        variant,
        kernel: base_name(&launch.kernel),
        launches: 1,
        counters,
        lines,
    })
}

/// `report -- annotate`: the per-line listing of every benchmark kernel
/// (generated and handwritten), the cross-benchmark hot-line table, the
/// annotated coalescing ablation, and the JSONL export (written to `dir`).
/// Gates: per-line counters sum to the launch totals, every listing
/// attributes at least one line, every benchmark contributes both variants.
pub fn render(dir: &Path) -> crate::Rendered {
    use crate::outln;
    let mut r = crate::Rendered::titled(
        "Annotate — per-line counters attributed to source, all benchmarks (Tesla, test scale)",
    );
    let device = crate::tesla();
    let rows = match compute(&device) {
        Ok(rows) => rows,
        Err(e) => {
            r.failures.push(format!("annotate failed: {e}"));
            return r;
        }
    };
    for row in &rows {
        outln!(r.text);
        r.text.push_str(&row.render());
        if !row.sums_match() {
            r.failures.push(format!(
                "annotate: per-line counters do not sum to launch totals for {}",
                row.qualified_name()
            ));
        }
        if !row.lines.iter().any(|a| a.line != 0) {
            r.failures.push(format!(
                "annotate: no attributed line in {}",
                row.qualified_name()
            ));
        }
    }
    // every benchmark must contribute both variants
    for &bench in BENCHES {
        for variant in ["generated", "handwritten"] {
            if !rows
                .iter()
                .any(|row| row.bench == bench && row.variant == variant)
            {
                r.failures
                    .push(format!("annotate: no {variant} listing for {bench}"));
            }
        }
    }

    outln!(r.text, "\nhot lines across the corpus:");
    outln!(
        r.text,
        "{:<10} {:<12} {:<26} {:>6} {:>7}  location",
        "bench",
        "variant",
        "kernel",
        "line",
        "tx%"
    );
    for h in hot_lines(&rows) {
        outln!(
            r.text,
            "{:<10} {:<12} {:<26} {:>6} {:>6.1}%  {}",
            h.bench,
            h.variant,
            h.kernel,
            h.line,
            100.0 * h.tx_share,
            h.location
        );
    }

    outln!(
        r.text,
        "\ncoalescing ablation, annotated (naive vs tiled transpose, 256x256):"
    );
    match transpose_naive_vs_tiled(&device) {
        Ok((naive, tiled)) => {
            outln!(r.text);
            r.text.push_str(&naive.render());
            outln!(r.text);
            r.text.push_str(&tiled.render());
            if !(naive.sums_match() && tiled.sums_match()) {
                r.failures
                    .push("annotate: ablation per-line sums drifted".into());
            }
        }
        Err(e) => r.failures.push(format!("annotated ablation failed: {e}")),
    }

    match export_jsonl(&rows, dir) {
        Ok(path) => outln!(r.text, "\nannotated lines written: {path}"),
        Err(e) => r
            .failures
            .push(format!("annotate JSONL export failed: {e}")),
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tesla;

    #[test]
    fn transpose_rows_attribute_and_sum_exactly() {
        let _rt = crate::tests::fresh_runtime();
        let device = tesla();
        let rows = generated("transpose", &device).unwrap();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.sums_match(), "per-line sums drifted for {}", r.kernel);
            assert!(
                r.lines.iter().any(|a| a.line != 0),
                "no attributed line in {}",
                r.kernel
            );
            // generated kernels must carry DSL recording sites
            assert!(
                r.lines
                    .iter()
                    .any(|a| a.site.as_deref().is_some_and(|s| s.contains(".rs:"))),
                "no DSL site attached in {}",
                r.kernel
            );
        }
        let hw = handwritten("transpose", &device).unwrap();
        assert!(hw.sums_match());
        assert!(hw.counters.hot_line().is_some());
        assert!(hw.lines.iter().all(|a| a.site.is_none()));
    }

    #[test]
    fn naive_vs_tiled_hot_line_moves() {
        let _rt = crate::tests::fresh_runtime();
        let device = tesla();
        let (naive, tiled) = transpose_naive_vs_tiled(&device).unwrap();
        let (naive_line, naive_hot) = naive.counters.hot_line().unwrap();
        let (tiled_line, _) = tiled.counters.hot_line().unwrap();
        let naive_text = &naive
            .lines
            .iter()
            .find(|a| a.line == naive_line)
            .unwrap()
            .text;
        let tiled_text = &tiled
            .lines
            .iter()
            .find(|a| a.line == tiled_line)
            .unwrap()
            .text;
        assert_ne!(
            naive_text, tiled_text,
            "hot statement should change between naive and tiled"
        );
        // the naive kernel's single line dominates: one strided access
        // direction eats nearly all transactions
        assert!(
            naive_hot.mem_transactions as f64
                / naive.counters.totals.mem_transactions.max(1) as f64
                > 0.9
        );
    }

    #[test]
    fn jsonl_export_is_parseable() {
        let _rt = crate::tests::fresh_runtime();
        let device = tesla();
        let rows = vec![handwritten("reduction", &device).unwrap()];
        let dir = std::env::temp_dir();
        let path = export_jsonl(&rows, &dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            oclsim::prof::json::parse(line).expect("valid JSON line");
        }
        std::fs::remove_file(&path).ok();
    }
}
