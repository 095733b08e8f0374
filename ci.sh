#!/usr/bin/env bash
# Tier-1 gate for this repository (see ROADMAP.md and README.md).
#
# Formatting and lint checks, a release build, the benchmark's exact modeled
# values, and the full test suite with one claimer per launch and with four,
# at the test harness's default parallelism. The backend × opt-level ×
# claimer-count matrix is covered inside the suite, on fresh hpl::Runtimes
# (benchsuite/tests/config_matrix.rs, bench/tests/report_matrix.rs); what is
# still diffed across processes below reads the process-wide telemetry and
# obs sinks (ROADMAP item 7).
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

echo "== kernel sanitizer over the benchmark corpus (Deny gate)"
# lints every handwritten and HPL-generated benchmark kernel; exits
# nonzero if any kernel has a finding, so a regression that introduces a
# racy/divergent/out-of-bounds generated kernel fails the build
cargo run --release -p bench --bin report -- lint

echo "== report -- passes (mid-end per-pass deltas; >=3 of 5 benchmarks reduced at -O2)"
# builds every benchmark at -O0/-O1/-O2, prints the per-pass rewrite
# counters with instruction and modeled-time deltas, writes
# target/passes.json; exits nonzero unless -O2 strictly reduces executed
# instructions or modeled time on at least three of the five benchmarks
cargo run --release -p bench --bin report -- passes

echo "== report -- metrics (canonical snapshot byte-identical across OCLSIM_THREADS)"
# drives every benchmark to its kernel-cache steady state and prints the
# canonical metrics snapshot; exits nonzero if any steady-state run misses
# the cache, and the whole output must not depend on the dispatcher pool
OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- metrics > target/metrics-t1.out
OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- metrics > target/metrics-t4.out
diff target/metrics-t1.out target/metrics-t4.out

echo "== report -- soak (multi-tenant service smoke, snapshot byte-identical across OCLSIM_THREADS)"
# short deterministic soak of the kernel service: concurrent tenants over
# mixed workloads against one shared binary cache. Exits nonzero unless
# every soak tenant ran with zero cache misses (identical kernels resolve
# to one resident binary regardless of interleaving), zero uploads were
# redundant, the quota rejection fired, and a partitioned launch beat the
# single-device reference bit-identically. The canonical metrics snapshot
# the run writes must not depend on the dispatcher pool
OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- soak
cp target/soak-metrics.txt target/soak-metrics-t1.txt
OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- soak
cp target/soak-metrics.txt target/soak-metrics-t4.txt
diff target/soak-metrics-t1.txt target/soak-metrics-t4.txt

echo "== report -- postmortem (causal traces and dumps byte-identical across OCLSIM_THREADS and backends)"
# drives a successful partitioned launch, a poisoned one and a quota
# rejection through the kernel service and prints the canonical request
# span tree plus both postmortem dumps (error chain, span tree,
# flight-recorder tail, cache/quota state). Trace ids are minted from
# tenant names and per-tenant sequence numbers, modeled times are pure
# functions of the workload, and wall-clock fields are omitted from the
# canonical renderings — so the ENTIRE stdout and the merged
# device+postmortem Chrome trace must be byte-identical no matter how
# many dispatcher threads run or which execution backend launches the
# groups. Exits nonzero if any causal chain, trace-id tag or recorder
# tail is missing
OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- postmortem > target/postmortem-t1.out
cp target/postmortem-trace.json target/postmortem-trace-t1.json
OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- postmortem > target/postmortem-t4.out
cp target/postmortem-trace.json target/postmortem-trace-t4.json
OCLSIM_BACKEND=ref OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- postmortem > target/postmortem-ref-t1.out
cp target/postmortem-trace.json target/postmortem-trace-ref-t1.json
OCLSIM_BACKEND=ref OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- postmortem > target/postmortem-ref-t4.out
cp target/postmortem-trace.json target/postmortem-trace-ref-t4.json
diff target/postmortem-t1.out target/postmortem-t4.out
diff target/postmortem-t1.out target/postmortem-ref-t1.out
diff target/postmortem-t1.out target/postmortem-ref-t4.out
diff target/postmortem-trace-t1.json target/postmortem-trace-t4.json
diff target/postmortem-trace-t1.json target/postmortem-trace-ref-t1.json
diff target/postmortem-trace-t1.json target/postmortem-trace-ref-t4.json
# the raw serve path never reads HPL_OPT_LEVEL, so the mid-end level must
# not leak into the dumps either
HPL_OPT_LEVEL=-O2 OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- postmortem > target/postmortem-o2.out
diff target/postmortem-t1.out target/postmortem-o2.out

echo "== report -- bench (BENCH_pr4.json perf-trajectory gate)"
# regenerates the trajectory and diffs it against the committed baseline:
# fails on >10% modeled-time regression, any new redundant upload, or a
# vanished benchmark; also schema-checks the unified host+device trace
cargo run --release -p bench --bin report -- bench BENCH_pr4.json

echo "ci.sh: all green"
