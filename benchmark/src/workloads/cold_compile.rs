//! `cold_compile`: the first-invocation path. Every request compiles from
//! nothing: the five `hpl_version::generated_source` cold evals (kernel
//! and binary caches emptied before each), the five handwritten
//! `opencl_version::SOURCE`s through `Program::build`, and the seeded
//! synthetic family at 16/64/256 statements built at `-O0`, `-O1`, `-O2`.
//! `hpl` record/codegen and every `clc` phase do all the work; `exec` runs
//! 16 work-items. It is the miss path of the kernel cache whose hit path
//! `launch_chain` measures.

use std::time::{Duration, Instant};

use benchsuite::{ep, floyd, reduction, spmv, transpose};
use oclsim::{Buffer, CommandQueue, Context, Device, Event, MemAccess, Program};

use super::five::NAMES;
use crate::common::{
    clear_caches, digest, facts, latency_buffer, repeat_setup, Cfg, EndToEnd, PassFacts, Tally,
};
use crate::json::{num, text};
use crate::rng::Rng;
use crate::stats;
use crate::synth::{self, Synth};
use crate::trace::{ReplayCounters, Tracer};

const LEVELS: [&str; 3] = ["-O0", "-O1", "-O2"];

const HANDWRITTEN: [&str; 5] = [
    ep::opencl_version::SOURCE,
    transpose::opencl_version::SOURCE,
    reduction::opencl_version::SOURCE,
    spmv::opencl_version::SOURCE,
    floyd::opencl_version::SOURCE,
];

/// One cold request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `hpl_version::generated_source` of benchmark `.0`: record, codegen,
    /// backend build and a 4×4-item (EP: 1-item) launch.
    HplEval(usize),
    /// `Program::build` of handwritten source `.0`.
    Handwritten(usize),
    /// Build synthetic kernel `size` (index into `synth::SIZES`) at
    /// `LEVELS[level]` and run it on one 16-item group.
    Synthetic { size: usize, level: usize },
}

struct Corpus {
    device: Device,
    context: Context,
    queue: CommandQueue,
    /// The five generated sources with the kernel name (it carries a
    /// process-wide counter) replaced.
    hpl_sources: Vec<String>,
    /// Kernel names and binary size estimate of each handwritten program.
    handwritten: Vec<(Vec<String>, u64)>,
    synthetic: Vec<Synth>,
    input: Buffer,
    output: Buffer,
    /// The pass order, shuffled by the seed.
    ops: Vec<Op>,
    per_pass: PassFacts,
}

fn hpl_generated(which: usize, device: &Device) -> Result<String, String> {
    match which {
        0 => ep::hpl_version::generated_source(device),
        1 => transpose::hpl_version::generated_source(device),
        2 => reduction::hpl_version::generated_source(device),
        3 => spmv::hpl_version::generated_source(device),
        4 => floyd::hpl_version::generated_source(device),
        _ => return Err(format!("no benchmark {which}")),
    }
    .map_err(|e| format!("cold eval of {}: {e}", NAMES[which]))
}

/// Replace the generated kernel's name (`hpl_<fn>_<counter>`) by `K`.
fn normalise(source: &str) -> String {
    let name = source
        .split("__kernel void ")
        .nth(1)
        .and_then(|rest| rest.split('(').next())
        .unwrap_or("");
    if name.is_empty() {
        source.to_string()
    } else {
        source.replace(name, "K")
    }
}

fn build(context: &Context, source: &str, options: &str) -> Result<Program, String> {
    let program = Program::from_source(context, source);
    program
        .build(options)
        .map_err(|e| format!("build {options}: {e}"))?;
    Ok(program)
}

fn describe(program: &Program) -> Result<(Vec<String>, u64), String> {
    Ok((
        program.kernel_names().map_err(|e| e.to_string())?,
        program.binary_size_estimate().map_err(|e| e.to_string())?,
    ))
}

impl Corpus {
    /// Execute one cold request and verify it. Returns the verdict and the
    /// launch event of a synthetic kernel.
    fn exec(&self, op: Op) -> Result<(bool, Option<Event>), String> {
        match op {
            Op::HplEval(i) => {
                clear_caches();
                let source = hpl_generated(i, &self.device)?;
                Ok((normalise(&source) == self.hpl_sources[i], None))
            }
            Op::Handwritten(i) => {
                let program = build(&self.context, HANDWRITTEN[i], "")?;
                Ok((describe(&program)? == self.handwritten[i], None))
            }
            Op::Synthetic { size, level } => {
                let syn = &self.synthetic[size];
                let program = build(&self.context, &syn.source, LEVELS[level])?;
                let kernel = program
                    .kernel(synth::KERNEL_NAME)
                    .map_err(|e| e.to_string())?;
                kernel
                    .set_arg_buffer(0, &self.output)
                    .map_err(|e| e.to_string())?;
                kernel
                    .set_arg_buffer(1, &self.input)
                    .map_err(|e| e.to_string())?;
                let event = self
                    .queue
                    .enqueue_ndrange(&kernel, &[synth::ITEMS], Some(&[synth::ITEMS]))
                    .map_err(|e| format!("synthetic launch: {e}"))?;
                let got = self
                    .output
                    .read_vec::<u32>(0, synth::ITEMS)
                    .map_err(|e| e.to_string())?;
                Ok((got == syn.expected, Some(event)))
            }
        }
    }

    /// One pass over the corpus in its seeded order. `on_request` sees each
    /// request's wall time and launch event.
    fn pass(
        &self,
        tally: &mut Tally,
        mut on_request: impl FnMut(Op, Duration, Option<Event>),
    ) -> Result<(), String> {
        for &op in &self.ops {
            let t0 = Instant::now();
            let (ok, event) = self.exec(op)?;
            on_request(op, t0.elapsed(), event);
            tally.check(ok, || format!("{op:?} mis-verified"));
        }
        Ok(())
    }
}

fn setup(seed: u64, tally: &mut Tally) -> Result<Corpus, String> {
    let device = hpl::runtime().default_device();
    let context = Context::new(std::slice::from_ref(&device)).map_err(|e| e.to_string())?;
    let queue = CommandQueue::new(&context, &device).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed);

    let words: Vec<u32> = (0..synth::ITEMS).map(|_| rng.next_u64() as u32).collect();
    let synthetic: Vec<Synth> = synth::SIZES
        .iter()
        .map(|&n| synth::generate(seed, n, &words))
        .collect();
    let mut ops: Vec<Op> = (0..NAMES.len())
        .flat_map(|i| [Op::HplEval(i), Op::Handwritten(i)])
        .collect();
    for size in 0..synth::SIZES.len() {
        ops.extend((0..LEVELS.len()).map(|level| Op::Synthetic { size, level }));
    }
    rng.shuffle(&mut ops);

    let mut corpus = Corpus {
        hpl_sources: (0..NAMES.len())
            .map(|i| hpl_generated(i, &device).map(|s| normalise(&s)))
            .collect::<Result<_, _>>()?,
        handwritten: HANDWRITTEN
            .iter()
            .map(|src| describe(&build(&context, src, "")?))
            .collect::<Result<_, _>>()?,
        synthetic,
        input: context
            .create_buffer_from(&words, MemAccess::ReadOnly)
            .map_err(|e| e.to_string())?,
        output: context
            .create_buffer(synth::ITEMS * 4, MemAccess::ReadWrite)
            .map_err(|e| e.to_string())?,
        ops,
        per_pass: PassFacts::default(),
        device,
        context,
        queue,
    };

    // one verified pass for the exact per-pass facts: the HPL evals'
    // launches through `hpl::profile`, the synthetic ones from their events
    let mut synthetic_launches = PassFacts::default();
    let (done, report) = hpl::profile(|| {
        corpus.pass(tally, |_, _, event| {
            if let Some(t) = event.and_then(|e| e.kernel_timing()) {
                synthetic_launches.launches += 1;
                synthetic_launches.sim_instr += t.totals.instructions;
                synthetic_launches.mem_tx += t.totals.mem_transactions;
                synthetic_launches.barriers += t.totals.barriers;
                synthetic_launches.modeled_kernel_s += t.device_seconds;
            }
        })
    });
    done?;
    corpus.per_pass = facts(&report, &corpus.device);
    corpus.per_pass.add(&synthetic_launches);
    Ok(corpus)
}

pub fn run(cfg: &Cfg) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let (corpus, setup_s) = repeat_setup(cfg.setup_reps, || setup(cfg.seed, &mut tally))?;

    let mut request_ms = latency_buffer(cfg.seconds, 20_000.0);
    let mut passes = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < cfg.seconds {
        corpus.pass(&mut tally, |_, wall, _| {
            request_ms.push(wall.as_secs_f64() * 1e3)
        })?;
        passes += 1;
    }
    let timed_wall_s = t0.elapsed().as_secs_f64();

    Ok(EndToEnd {
        setup_s,
        timed_wall_s,
        request_ms,
        passes,
        per_pass: corpus.per_pass,
        tally,
        info: vec![
            ("requests_per_pass", num(corpus.ops.len() as f64)),
            ("hpl_cold_evals_per_pass", num(NAMES.len() as f64)),
            ("handwritten_builds_per_pass", num(HANDWRITTEN.len() as f64)),
            (
                "synthetic_builds_per_pass",
                num((synth::SIZES.len() * LEVELS.len()) as f64),
            ),
            (
                "input_digest",
                text(format!(
                    "{:016x}",
                    digest(
                        corpus
                            .synthetic
                            .iter()
                            .flat_map(|s| s.source.bytes().map(u64::from))
                    )
                )),
            ),
        ],
    })
}

// ---- the traced run -------------------------------------------------------------

/// Repetitions of each per-source probe (the median is kept).
const PHASE_REPS: usize = 15;

/// What a source costs in each compiler phase, median microseconds (and
/// the counts that go with them). Also the sum over one pass's builds.
#[derive(Default)]
struct PhaseCosts {
    pp: f64,
    lex: f64,
    tokens: usize,
    parse: f64,
    sema: f64,
    analysis: f64,
    /// `opt::optimize` at `-O0`, `-O1`, `-O2`.
    opt: [f64; 3],
    rewrites_o2: u64,
    plan: f64,
    fallbacks: usize,
}

impl PhaseCosts {
    /// Add `c`, whose source one pass builds `builds` times: the phases
    /// before the optimizer run once per build, the optimizer's levels and
    /// the counts are taken once per source.
    fn add(&mut self, c: &PhaseCosts, builds: usize) {
        let n = builds as f64;
        self.pp += n * c.pp;
        self.lex += n * c.lex;
        self.tokens += builds * c.tokens;
        self.parse += n * c.parse;
        self.sema += n * c.sema;
        self.analysis += n * c.analysis;
        self.plan += n * c.plan;
        for (sum, level) in self.opt.iter_mut().zip(c.opt) {
            *sum += level;
        }
        self.rewrites_o2 += c.rewrites_o2;
        self.fallbacks += c.fallbacks;
    }
}

/// Time every public phase function on `source`, each on the previous
/// phase's real output.
fn phases(tr: &mut Tracer, source: &str) -> Result<PhaseCosts, String> {
    use oclsim::clc::{analysis, lexer, opt, parser, pp, sema};
    use oclsim::exec::wg;
    let defines = std::collections::HashMap::new();

    let (pp_us, text) = tr.time_us("clc.pp.preprocess", PHASE_REPS, || {
        pp::preprocess(source, &defines)
    })?;
    let (lex_us, tokens) = tr.time_us("clc.lexer.lex", PHASE_REPS, || lexer::lex(&text))?;
    // `parse` lexes internally: its own share is the difference
    let (parse_us, tu) = tr.time_us("clc.parser.parse", PHASE_REPS, || parser::parse(&text))?;
    let (sema_us, module) = tr.time_us("clc.sema.analyze", PHASE_REPS, || sema::analyze(&tu))?;
    let (analysis_us, _) = tr.time_us("clc.analysis.analyze_tu_refined", PHASE_REPS, || {
        Ok::<_, String>(analysis::analyze_tu_refined(&tu, &module))
    })?;

    let mut opt_us = [0.0; 3];
    let mut optimized = module.clone();
    let rewrites_o2 = opt::optimize(&mut optimized, oclsim::OptLevel::O2).total();
    for (i, level) in [
        oclsim::OptLevel::O0,
        oclsim::OptLevel::O1,
        oclsim::OptLevel::O2,
    ]
    .into_iter()
    .enumerate()
    {
        let mut copies: Vec<_> = (0..PHASE_REPS).map(|_| module.clone()).collect();
        let mut next = copies.iter_mut();
        opt_us[i] = tr
            .time_us("clc.opt.optimize", PHASE_REPS, || {
                let copy = next.next().expect("one copy per repetition");
                Ok::<_, String>(opt::optimize(copy, level).total())
            })?
            .0;
    }
    let (plan_us, _) = tr.time_us("exec.wg.plan_module", PHASE_REPS, || {
        Ok::<_, String>(wg::plan_module(&optimized))
    })?;
    Ok(PhaseCosts {
        pp: pp_us,
        lex: lex_us,
        tokens: tokens.len(),
        parse: (parse_us - lex_us).max(0.0),
        sema: sema_us,
        analysis: analysis_us,
        opt: opt_us,
        rewrites_o2,
        plan: plan_us,
        fallbacks: wg::fallback_reasons(&optimized).len(),
    })
}

/// The traced run: set-up, the compile-path probes, then the replay.
pub fn trace(cfg: &Cfg, tr: &mut Tracer) -> Result<(), String> {
    let corpus = tr
        .rec
        .span("workload.setup", 0, |_| setup(cfg.seed, &mut tr.tally))?;
    probe(tr, &corpus)?;
    replay(cfg, tr, &corpus)
}

/// The workload replayed with a span per request, and its exact facts.
fn replay(cfg: &Cfg, tr: &mut Tracer, corpus: &Corpus) -> Result<(), String> {
    let counters = ReplayCounters::begin();
    let passes = tr.replay(cfg.seconds, |tally, on| {
        corpus.pass(tally, |op, wall, _| {
            on(
                match op {
                    Op::HplEval(_) => "cold.hpl_eval",
                    Op::Handwritten(_) => "cold.handwritten_build",
                    Op::Synthetic { .. } => "cold.synthetic_build_and_run",
                },
                wall,
            )
        })
    })?;
    counters.finish(tr, passes, &corpus.per_pass);
    Ok(())
}

/// The compile path, one layer at a time: every distinct source of the
/// corpus through each compiler phase's public function, `Program::build`
/// as a whole (so the phases' coverage of a build is known), HPL's front
/// end, and the binary cache's hit and miss paths.
fn probe(tr: &mut Tracer, corpus: &Corpus) -> Result<(), String> {
    // the corpus as (source, indices into LEVELS it is built at per pass)
    let hpl_flag = hpl::opt_level().flag();
    let hpl_level = LEVELS.iter().position(|&l| l == hpl_flag).unwrap_or(1);
    let default_level = LEVELS
        .iter()
        .position(|&l| l == oclsim::OptLevel::default().flag())
        .unwrap_or(1);
    let mut sources: Vec<(String, Vec<usize>)> = Vec::new();
    for i in 0..NAMES.len() {
        sources.push((hpl_generated(i, &corpus.device)?, vec![hpl_level]));
    }
    sources.extend(
        HANDWRITTEN
            .iter()
            .map(|s| (s.to_string(), vec![default_level])),
    );
    sources.extend(
        corpus
            .synthetic
            .iter()
            .map(|s| (s.source.clone(), vec![0, 1, 2])),
    );

    tr.rec.open("bench.probe.compiler_phases", 0);
    let mut sum = PhaseCosts::default();
    let (mut build_us, mut phases_us, mut binary_bytes, mut build_fail) = (0.0, 0.0, 0u64, 0u64);
    let mut hpl_build_us = Vec::new();
    for (si, (source, levels)) in sources.iter().enumerate() {
        let c = phases(tr, source)?;
        sum.add(&c, levels.len());
        for &level in levels {
            // a failed build is counted, not passed on: `program.build_fail`
            // reports it and fails the run's verdict
            let (us, program) = tr.time_us("program.build", PHASE_REPS, || {
                Ok::<_, String>(build(&corpus.context, source, LEVELS[level]))
            })?;
            match program {
                Ok(p) => binary_bytes += p.binary_size_estimate().map_err(|e| e.to_string())?,
                Err(_) => build_fail += 1,
            }
            build_us += us;
            // -O0 runs the unrefined sanitizer; the refined one stands in
            phases_us += c.pp + c.lex + c.parse + c.sema + c.analysis + c.opt[level] + c.plan;
            if si < NAMES.len() {
                hpl_build_us.push(us);
            }
            if let Some(size) = si.checked_sub(2 * NAMES.len()).filter(|_| level == 2) {
                tr.layers.set(
                    [
                        "program.build_us.syn16",
                        "program.build_us.syn64",
                        "program.build_us.syn256",
                    ][size],
                    us,
                );
            }
        }
    }
    tr.rec.close();
    tr.layers.set("clc.pp.us", sum.pp);
    tr.layers.set("clc.lexer.us", sum.lex);
    tr.layers
        .set("clc.lexer.mtok_per_s", sum.tokens as f64 / sum.lex);
    tr.layers.set("clc.parser.us", sum.parse);
    tr.layers.set("clc.sema.us", sum.sema);
    tr.layers.set("clc.analysis.us", sum.analysis);
    tr.layers.set("clc.opt.us_O1", sum.opt[1]);
    tr.layers.set("clc.opt.us_O2", sum.opt[2]);
    tr.set_exact("clc.opt.rewrites", sum.rewrites_o2 as f64);
    tr.layers.set("exec.wg.plan_us", sum.plan);
    tr.set_exact("exec.wg.fallbacks", sum.fallbacks as f64);
    tr.layers.set("program.build_us", build_us);
    tr.layers
        .set("program.build_coverage", phases_us / build_us);
    tr.set_exact("program.binary_bytes", binary_bytes as f64);
    tr.set_exact("program.build_fail", build_fail as f64);
    tr.tally.check(build_fail == 0, || {
        format!("{build_fail} corpus build(s) failed")
    });
    tr.tally.check(sum.fallbacks == 0, || {
        format!(
            "{} corpus kernel(s) fall back to the reference interpreter",
            sum.fallbacks
        )
    });

    tr.rec.open("bench.probe.hpl_front", 0);
    // HPL's front end on the benchmark's own kernel, by the library's probe
    let dist = hpl::Array::<u32, 2>::from_vec([4, 4], vec![0; 16]);
    let k = hpl::Int::new(0);
    let mut fronts = Vec::new();
    for _ in 0..PHASE_REPS {
        let (_, front) = tr.time_us("hpl.eval.measure_front", 1, || {
            Ok::<_, String>(hpl::eval::measure_front(
                super::launch_chain::floyd_pass,
                &(&dist, &k),
                1,
            ))
        })?;
        fronts.push(front);
    }
    let median_of = |pick: fn(&(f64, f64)) -> f64| {
        stats::median(&fronts.iter().map(pick).collect::<Vec<_>>()) * 1e6
    };
    tr.layers.set("hpl.front.capture_us", median_of(|f| f.0));
    tr.layers.set("hpl.front.codegen_us", median_of(|f| f.1));
    // and on the five benchmark kernels (private to benchsuite) by
    // differencing: cold eval − backend build of its source − the same call
    // warm (cache lookups, argument binding, the tiny launch)
    let (mut five_front_us, mut warm_us, mut cold_us) = (0.0, 0.0, 0.0);
    for (i, build_us) in hpl_build_us.iter().enumerate() {
        let (cold, _) = tr.time_us("hpl.eval.cold_call", PHASE_REPS, || {
            clear_caches();
            hpl_generated(i, &corpus.device)
        })?;
        let (warm, source) = tr.time_us("hpl.eval.warm_call", PHASE_REPS, || {
            hpl_generated(i, &corpus.device)
        })?;
        tr.tally
            .check(normalise(&source) == corpus.hpl_sources[i], || {
                format!("{}: the probe's eval generated another source", NAMES[i])
            });
        cold_us += cold;
        warm_us += warm;
        five_front_us += (cold - build_us - warm).max(0.0);
    }
    tr.layers.set("hpl.front.five_kernels_us", five_front_us);
    tr.rec.close();

    tr.rec.open("bench.probe.binary_cache", 0);
    let cache = oclsim::serve::BinaryCache::new(16 << 20);
    let (mut miss_us, mut hit_us, mut hits, mut misses) = (Vec::new(), Vec::new(), 0u64, 0u64);
    for round in 0..5 {
        for (source, _) in &sources {
            let lookup = |tr: &mut Tracer, name: &'static str| {
                tr.time_us(name, 1, || {
                    cache
                        .get_or_build(&corpus.context, &corpus.device, source, "", None)
                        .map(|o| o.hit)
                })
            };
            let (us, hit) = lookup(tr, "serve.cache.get_or_build.miss")?;
            tr.tally.check(!hit, || {
                format!("round {round}: a cleared cache did not miss")
            });
            miss_us.push(us);
            misses += 1;
            let (us, hit) = lookup(tr, "serve.cache.get_or_build.hit")?;
            tr.tally.check(hit, || {
                format!("round {round}: a resident binary did not hit")
            });
            hit_us.push(us);
            hits += 1;
        }
        cache.clear();
    }
    tr.layers
        .set("serve.cache.miss_us", stats::median(&miss_us));
    tr.layers.set("serve.cache.hit_us", stats::median(&hit_us));
    tr.set_exact("serve.cache.hits", hits as f64);
    tr.set_exact("serve.cache.misses", misses as f64);
    tr.set_exact("serve.cache.evictions", cache.evictions() as f64);
    tr.rec.close();

    // one pass: HPL's front end and every backend build are the compile
    // share; the warm remainder of the five evals is hpl's launch path. The
    // pass is the five cold evals plus the builds (the synthetic kernels'
    // 16-item launches are the remainder).
    let pass_us = cold_us + build_us - hpl_build_us.iter().sum::<f64>();
    tr.layers
        .set("budget.compile_share", (five_front_us + build_us) / pass_us);
    tr.layers.set("budget.hpl_eval_share", warm_us / pass_us);
    Ok(())
}
