#!/usr/bin/env bash
# Tier-1 gate for this repository (see ROADMAP.md and README.md).
#
# Seven cargo runs: formatting and lint checks, rustdoc, a release build,
# the benchmark's exact modeled values, and the full test suite with one
# claimer per launch and with four, at the test harness's default
# parallelism. Every other gate is a test inside the suite: the backend ×
# opt-level × claimer-count matrix on fresh hpl::Runtimes
# (benchsuite/tests/config_matrix.rs, bench/tests/report_matrix.rs), the
# `report -- metrics|soak|postmortem` byte-identity checks that read the
# process-wide sinks (bench/tests/sink_matrix.rs, one test in its own
# process), the sanitizer over the benchmark corpus
# (bench::tests::benchmark_corpus_lints_clean) and the -O2 pass deltas
# (bench::passes::tests::passes_report_shows_o2_reductions_and_leaves_the_caller_alone).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release"
cargo build --release

echo "== hplbench check (the committed modeled values, bit for bit)"
# the benchmark's own tests re-run every workload at test scale and compare
# modeled_device_s and every `exact` line with benchmark/baseline: a change
# to simulator speed that moves a simulated statistic fails here
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo test (OCLSIM_THREADS=1)"
OCLSIM_THREADS=1 cargo test --workspace -q

echo "== cargo test (OCLSIM_THREADS=4)"
OCLSIM_THREADS=4 cargo test --workspace -q

echo "ci.sh: all green in ${SECONDS}s"
