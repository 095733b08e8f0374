//! `hplbench` — the repo's benchmark. See `benchmark/README.md`.

mod check;
mod common;
mod json;
mod layers;
mod rng;
mod spans;
mod stats;
mod synth;
mod trace;
mod workloads;

use std::process::ExitCode;

use common::{Cfg, EndToEnd, Tally};
use json::{num, obj, text, Value};

/// `(name, unit, better)` of every end-to-end metric, in `BENCHMARK.json`
/// order. Measured with all tracing off.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("request_ms_p50", "ms", "lower"),
    ("launches_per_s", "1/s", "higher"),
    ("sim_minstr_per_s", "Minstr/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("modeled_device_s", "s", "lower"),
];

/// Environment variables that silently change what the library runs;
/// numbers taken under them must never be compared with the baseline.
const FORBIDDEN_ENV: [&str; 3] = ["OCLSIM_BACKEND", "HPL_OPT_LEVEL", "HPL_TELEMETRY"];

struct Args {
    workload: String,
    trace: bool,
    cfg: Cfg,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: hplbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--small]\n       hplbench all [--seed <n>] [--seconds <s>]\n       hplbench check\n--small: test-scale sizes and one set-up, as `check` runs the workloads",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut cfg = Cfg {
        seed: 1,
        seconds: 10.0,
        setup_reps: 1,
        small: false,
        clients: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--small" => cfg.small = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !workloads::WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    cfg.setup_reps = if cfg.small {
        1
    } else {
        workloads::setup_reps(&workload)
    };
    Ok(Args {
        workload,
        trace,
        cfg,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The configuration every result carries, so numbers from different
/// configurations are never compared.
fn config_record(workload: &str, cfg: &Cfg, workers: usize) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", text(workload)),
        ("seed", num(cfg.seed as f64)),
        ("seconds", num(cfg.seconds)),
        ("setup_reps", num(cfg.setup_reps as f64)),
        ("small", Value::Bool(cfg.small)),
        ("nproc", num(nproc() as f64)),
        ("oclsim_threads", num(workers as f64)),
        ("clients", num(cfg.clients as f64)),
        ("loop", text("closed")),
        ("backend", text(oclsim::backend_name())),
        ("opt_level", text(hpl::opt_level().flag())),
        ("git_head", text(git_head())),
    ]
}

/// `git rev-parse HEAD` without starting a process: the benchmark also
/// runs from exported checkouts that are not repositories.
fn git_head() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(root.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(root.join(reference)) {
        return hash.trim().to_string();
    }
    read(root.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The end-to-end metric values, in [`END_TO_END`] order.
fn end_to_end_values(r: &EndToEnd) -> [f64; 7] {
    let requests = r.request_ms.len() as f64;
    let launches = (r.passes * r.per_pass.launches) as f64;
    let instr = (r.passes * r.per_pass.sim_instr) as f64;
    [
        stats::median(&r.setup_s),
        requests / r.timed_wall_s,
        stats::median(&r.request_ms),
        launches / r.timed_wall_s,
        instr / 1e6 / r.timed_wall_s,
        common::peak_rss_mb(),
        r.per_pass.modeled_device_s(),
    ]
}

/// The driver's result line — exactly these four keys — and the exit code.
fn print_result(tally: Tally, table: &[(&str, &str, &str)], values: &[f64]) -> ExitCode {
    let metrics = table
        .iter()
        .zip(values)
        .map(|((name, unit, _), &v)| (*name, obj([("value", num(v)), ("unit", text(*unit))])));
    let line = obj([
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", json::write(&line));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_untraced(args: &Args, workers: usize) -> Result<ExitCode, String> {
    let r = workloads::run(&args.workload, &args.cfg)?;
    let values = end_to_end_values(&r);
    let mut sorted = r.request_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = stats::tail(&sorted);

    let mut record = config_record(&args.workload, &args.cfg, workers);
    record.extend(r.info.iter().cloned());
    record.extend([
        ("passes", num(r.passes as f64)),
        ("requests", num(r.request_ms.len() as f64)),
        ("timed_wall_s", num(r.timed_wall_s)),
        (
            "op_fail_share",
            num(r.tally.failed as f64 / r.tally.attempted.max(1) as f64),
        ),
        (
            "setup_s_each",
            Value::Arr(r.setup_s.iter().map(|&s| num(s)).collect()),
        ),
        (
            "request_ms_tail_percentile",
            tail.map_or(Value::Null, |t| num(t.0)),
        ),
        ("request_ms_tail", tail.map_or(Value::Null, |t| num(t.1))),
    ]);
    println!("config {}", json::write(&obj(record)));
    for ((name, unit, _), v) in END_TO_END.iter().zip(values) {
        println!("{name} = {v} {unit}");
    }
    if let Some((p, v)) = tail {
        println!("request_ms_p{p} = {v} ms (n = {}, unbounded)", sorted.len());
    }
    Ok(print_result(r.tally, &END_TO_END, &values))
}

fn run_traced(args: &Args, workers: usize) -> Result<ExitCode, String> {
    let mut tracer = trace::Tracer::new();
    tracer.rec.open("bench.traced_run", 0);
    workloads::trace(&args.workload, &args.cfg, &mut tracer)?;
    tracer.rec.close();
    let config = config_record(&args.workload, &args.cfg, workers);
    println!("config {}", json::write(&obj(config.clone())));
    let (layers, exact, tally, doc) = tracer.finish(config);

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, json::write(&doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // the result line carries every per-layer metric; one of a layer this
    // workload does not exercise was not measured and reads 0 there
    let mut values = Vec::with_capacity(layers::PER_LAYER.len());
    for ((name, unit, _), v) in layers::PER_LAYER.iter().zip(layers.measured()) {
        match v {
            Some(v) => println!("{name} = {v} {unit}"),
            None => println!("{name} : not measured on {}", args.workload),
        }
        values.push(v.unwrap_or(0.0));
    }
    for (name, v) in &exact {
        println!("exact {name} = {v}");
    }
    println!("trace written to {}", path.display());
    Ok(print_result(tally, &layers::PER_LAYER, &values))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("hplbench: refusing to run with {var} set: it changes what the library executes, and the numbers would not compare with any baseline");
            return ExitCode::from(2);
        }
    }
    if let Some(command @ ("check" | "all")) = argv.first().map(String::as_str) {
        return check::main(command, &argv[1..]);
    }
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hplbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The simulator latches OCLSIM_THREADS at its first launch; nothing
    // has launched yet and no other thread exists, so setting it is safe.
    let (workers, clients) = workloads::threads(&args.workload, nproc());
    std::env::set_var("OCLSIM_THREADS", workers.to_string());
    args.cfg.clients = clients;

    let outcome = if args.trace {
        run_traced(&args, workers)
    } else {
        run_untraced(&args, workers)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hplbench: {e}");
            ExitCode::FAILURE
        }
    }
}
