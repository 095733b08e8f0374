//! `hplbench check` and `hplbench all`: both re-execute this binary once
//! per run, because the simulator latches `OCLSIM_THREADS` once per
//! process and every workload sets its own.

use std::process::{Command, ExitCode};

use crate::json::Value;
use crate::layers::PER_LAYER;
use crate::workloads::WORKLOADS;
use crate::END_TO_END;

/// End-to-end metrics that are pure functions of `(workload, seed)`.
const EXACT_END_TO_END: [&str; 1] = ["modeled_device_s"];

/// What a child run printed: the `config` record, the `exact` lines and
/// the result line.
struct Run {
    config: Value,
    exact: Vec<String>,
    result: Value,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_num()
    }

    fn metric_names(&self) -> Vec<String> {
        match self.result.get("metrics") {
            Some(Value::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    }
}

fn child(args: &[&str]) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .env_remove("OCLSIM_THREADS")
        .output()
        .map_err(|e| format!("cannot re-execute hplbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "`hplbench {}` exited with {}\n{}{}",
            args.join(" "),
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let parse = |line: Option<&str>, what: &str| {
        line.ok_or_else(|| format!("`hplbench {}` printed no {what}", args.join(" ")))
            .and_then(|l| oclsim::prof::json::parse(l).map_err(|e| format!("{what}: {e}")))
    };
    Ok(Run {
        config: parse(
            stdout.lines().find_map(|l| l.strip_prefix("config ")),
            "config record",
        )?,
        exact: stdout
            .lines()
            .filter(|l| l.starts_with("exact "))
            .map(str::to_string)
            .collect(),
        result: parse(stdout.lines().last(), "result line")?,
    })
}

fn small_run(workload: &str, seed: &str, trace: &str) -> Result<Run, String> {
    child(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--small",
    ])
}

/// The names `BENCHMARK.json` declares, as `(workloads, end_to_end, per_layer)`.
fn declared() -> Result<[Vec<String>; 3], String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = oclsim::prof::json::parse(&text)?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .get(f)
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                Ok(match key {
                    "workloads" => field("name"),
                    _ => format!("{} [{}] {}", field("name"), field("unit"), field("better")),
                })
            })
            .collect()
    };
    Ok([
        names("workloads")?,
        names("end_to_end")?,
        names("per_layer")?,
    ])
}

/// The exact values of every workload's `--small` runs with seed 1 at the
/// commit the baseline was taken from, one a line.
const BASELINE_EXACT: &str = "baseline/check-exact.txt";

/// Compare this build's exact values with the committed ones. Two runs of
/// one binary agreeing says the values are deterministic; only this says a
/// change to the library left them where they were.
fn compare_with_baseline(observed: &[String]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = dir.join(BASELINE_EXACT);
    let committed = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));
    let committed: Vec<&str> = committed
        .as_deref()
        .map_or(Vec::new(), |t| t.lines().collect());
    if committed == observed {
        return Ok(());
    }
    let fresh = dir.join("out/check-exact.txt");
    std::fs::create_dir_all(dir.join("out"))
        .and_then(|()| std::fs::write(&fresh, observed.join("\n") + "\n"))
        .map_err(|e| format!("{}: {e}", fresh.display()))?;
    let differing: Vec<&String> = observed
        .iter()
        .filter(|line| !committed.contains(&line.as_str()))
        .collect();
    Err(format!(
        "modeled seconds or counts differ from {BASELINE_EXACT} ({} committed lines, {} now): {differing:#?}\na change that only speeds the simulator up must leave them identical; one meant to move them re-baselines in a benchmark-only change by copying {}",
        committed.len(),
        observed.len(),
        fresh.display()
    ))
}

fn check() -> Result<(), String> {
    let describe = |m: &[(&str, &str, &str)]| -> Vec<String> {
        m.iter().map(|(n, u, b)| format!("{n} [{u}] {b}")).collect()
    };
    let [workloads, end_to_end, per_layer] = declared()?;
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
    if workloads != ours {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the binary's {ours:?}"
        ));
    }
    if end_to_end != describe(&END_TO_END) {
        return Err("BENCHMARK.json end_to_end metrics differ from the binary's".into());
    }
    if per_layer != describe(&PER_LAYER) {
        return Err("BENCHMARK.json per_layer metrics differ from the binary's".into());
    }
    println!("BENCHMARK.json names {} workloads, {} end-to-end and {} per-layer metrics, as the binary does", ours.len(), end_to_end.len(), per_layer.len());

    let mut exact = Vec::new();
    for (workload, _) in WORKLOADS {
        // nothing is measured here, so the five runs may share the cores
        let [a, b, other, ta, tb] = std::thread::scope(|scope| {
            [("1", "0"), ("1", "0"), ("2", "0"), ("1", "1"), ("1", "1")]
                .map(|(seed, trace)| scope.spawn(move || small_run(workload, seed, trace)))
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a check thread panicked".into()))
                })
        });
        let (a, b, other, ta, tb) = (a?, b?, other?, ta?, tb?);
        let printed: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        if a.metric_names() != printed {
            return Err(format!(
                "{workload}: an untraced run printed {:?}",
                a.metric_names()
            ));
        }
        for name in EXACT_END_TO_END {
            let (x, y) = (a.metric(name), b.metric(name));
            if x.is_none() || x.map(f64::to_bits) != y.map(f64::to_bits) {
                return Err(format!(
                    "{workload}: {name} is {x:?} then {y:?} for one seed"
                ));
            }
        }
        let digest = |r: &Run| {
            r.config
                .get("input_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if digest(&a).is_none() || digest(&a) != digest(&b) {
            return Err(format!(
                "{workload}: one seed gave inputs {:?} then {:?}",
                digest(&a),
                digest(&b)
            ));
        }
        if digest(&other) == digest(&a) {
            return Err(format!(
                "{workload}: seeds 1 and 2 generate the same inputs"
            ));
        }

        let printed: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        if ta.metric_names() != printed {
            return Err(format!(
                "{workload}: a traced run did not print every per-layer metric"
            ));
        }
        // printed with all their digits, so equal lines are equal bits
        if ta.exact.is_empty() || ta.exact != tb.exact {
            let differing: Vec<_> = ta
                .exact
                .iter()
                .zip(&tb.exact)
                .filter(|(x, y)| x != y)
                .collect();
            return Err(format!(
                "{workload}: exact values differ for one seed: {differing:?}"
            ));
        }
        for name in EXACT_END_TO_END {
            let value = a.metric(name).expect("compared above");
            exact.push(format!("{workload} {name} = {value}"));
        }
        exact.extend(ta.exact.iter().map(|line| format!("{workload} {line}")));
        println!("{workload}: exact metrics repeat for one seed, seed 2 changes the inputs");
    }
    compare_with_baseline(&exact)?;
    println!(
        "{} exact values equal the committed {BASELINE_EXACT}",
        exact.len()
    );
    Ok(())
}

/// Every workload untraced, then traced, each child's output passed on.
fn all(rest: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            println!("==== {workload} --trace {trace}");
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(rest)
                .env_remove("OCLSIM_THREADS")
                .status()
                .map_err(|e| format!("cannot re-execute hplbench: {e}"))?;
            if !status.success() {
                failed.push(format!("{workload} --trace {trace}: {status}"));
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("\n"))
    }
}

pub fn main(command: &str, rest: &[String]) -> ExitCode {
    let outcome = match command {
        "check" => check(),
        _ => all(rest),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hplbench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
