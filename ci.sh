#!/usr/bin/env bash
# Tier-1 gate for this repository (see ROADMAP.md and README.md).
#
# Runs formatting and lint checks, a release build, and the full test
# suite twice — once single-threaded and once with a small worker pool —
# because the asynchronous command scheduler (oclsim::sched) must produce
# identical results no matter how the dispatcher interleaves commands.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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

# The execution backend must not change observable behaviour either: the
# default runs above exercise the compiled work-group bytecode VM (wg, the
# default); the same suite repeats with every launch pinned to the
# reference SIMT interpreter, under both dispatcher pool sizes.
echo "== cargo test (OCLSIM_BACKEND=ref, OCLSIM_THREADS=1)"
OCLSIM_BACKEND=ref OCLSIM_THREADS=1 cargo test --workspace -q

echo "== cargo test (OCLSIM_BACKEND=ref, OCLSIM_THREADS=4)"
OCLSIM_BACKEND=ref OCLSIM_THREADS=4 cargo test --workspace -q

# The optimizing mid-end must not change observable behaviour at any
# level: the full suite repeats with every HPL build pinned to -O0 (the
# untouched reference IR) and -O2 (all passes), each under both dispatcher
# pool sizes. The default runs above already cover -O1.
echo "== cargo test (HPL_OPT_LEVEL=-O0, OCLSIM_THREADS=1)"
HPL_OPT_LEVEL=-O0 OCLSIM_THREADS=1 cargo test --workspace -q

echo "== cargo test (HPL_OPT_LEVEL=-O0, OCLSIM_THREADS=4)"
HPL_OPT_LEVEL=-O0 OCLSIM_THREADS=4 cargo test --workspace -q

echo "== cargo test (HPL_OPT_LEVEL=-O2, OCLSIM_THREADS=1)"
HPL_OPT_LEVEL=-O2 OCLSIM_THREADS=1 cargo test --workspace -q

echo "== cargo test (HPL_OPT_LEVEL=-O2, OCLSIM_THREADS=4)"
HPL_OPT_LEVEL=-O2 OCLSIM_THREADS=4 cargo test --workspace -q

echo "== kernel sanitizer over the benchmark corpus (Deny gate)"
# lints every handwritten and HPL-generated benchmark kernel; exits
# nonzero if any kernel has a finding, so a regression that introduces a
# racy/divergent/out-of-bounds generated kernel fails the build
cargo run --release -p bench --bin report -- lint

echo "== report -- profile (counter table byte-identical across OCLSIM_THREADS)"
# runs every benchmark sync+async under hpl::profile; exits nonzero on any
# redundant host->device transfer or invalid Chrome trace, and the counter
# table must not depend on how many host threads simulate the launches
OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- profile > target/profile-t1.out
OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- profile > target/profile-t4.out
diff target/profile-t1.out target/profile-t4.out

echo "== report -- annotate (per-line source listings byte-identical across OCLSIM_THREADS)"
# perf-annotate-style per-line counter listings for every benchmark kernel
# (generated lines mapped to DSL recording sites); exits nonzero if any
# kernel's per-line counters fail to sum to its launch totals, and the
# attribution must not depend on how many host threads simulate the groups
OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- annotate > target/annotate-t1.out
OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- annotate > target/annotate-t4.out
diff target/annotate-t1.out target/annotate-t4.out

echo "== report -- annotate byte-identical across execution backends (ref vs wg)"
# the compiled work-group VM routes every counter delta through the same
# per-line chokepoints as the reference interpreter, so the entire
# annotate listing — launch totals, per-line counters, DSL provenance —
# must not depend on which engine executed the groups (the default runs
# above used the wg backend)
OCLSIM_BACKEND=ref OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- annotate > target/annotate-ref.out
diff target/annotate-t1.out target/annotate-ref.out
OCLSIM_BACKEND=ref OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- profile > target/profile-ref.out
diff target/profile-t1.out target/profile-ref.out

echo "== report -- annotate at -O2 (attribution survives the mid-end, byte-identical across OCLSIM_THREADS)"
# the same gate with every kernel optimized: DCE/CSE/LICM rewrite the IR
# but every statement keeps its source span, so per-line sums still equal
# launch totals and the listing cannot depend on the worker pool
HPL_OPT_LEVEL=-O2 OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- annotate > target/annotate-o2-t1.out
HPL_OPT_LEVEL=-O2 OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- annotate > target/annotate-o2-t4.out
diff target/annotate-o2-t1.out target/annotate-o2-t4.out

echo "== report -- passes (mid-end per-pass deltas; >=3 of 5 benchmarks reduced at -O2)"
# builds every benchmark at -O0/-O1/-O2, prints the per-pass rewrite
# counters with instruction and modeled-time deltas, writes
# target/passes.json; exits nonzero unless -O2 strictly reduces executed
# instructions or modeled time on at least three of the five benchmarks
cargo run --release -p bench --bin report -- passes

echo "== telemetry is zero-overhead when off (and invisible to the counter tables when on)"
# same profile run with span collection enabled: the counter tables, the
# transfer-minimality verdicts and the traces must be byte-identical —
# telemetry observes the runtime, it never perturbs it
HPL_TELEMETRY=1 OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- profile > target/profile-telemetry.out
diff target/profile-t1.out target/profile-telemetry.out

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
# the raw serve path never reads HPL_OPT_LEVEL, so the mid-end knob must
# not leak into the dumps either
HPL_OPT_LEVEL=-O2 OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- postmortem > target/postmortem-o2.out
diff target/postmortem-t1.out target/postmortem-o2.out

echo "== report -- cache (simulated L1/L2 counters byte-identical across OCLSIM_THREADS and backends)"
# runs the corpus on the cache-capable Tesla variant next to the
# roofline-only Tesla; exits nonzero if any cache-model invariant fails
# (per-line hit/miss sums vs launch totals, probe/transaction accounting,
# plain-device counter parity, or a frozen naive-vs-tiled transpose
# hit-rate gap). Group-private L1 replay plus the post-join linear-order
# shared-L2 replay make the whole listing independent of the worker pool
# and of which engine executed the groups
OCLSIM_THREADS=1 cargo run --release -p bench --bin report -- cache > target/cache-t1.out
OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- cache > target/cache-t4.out
diff target/cache-t1.out target/cache-t4.out
OCLSIM_BACKEND=ref OCLSIM_THREADS=4 cargo run --release -p bench --bin report -- cache > target/cache-ref.out
diff target/cache-t1.out target/cache-ref.out
# legacy profiles are untouched by the cache model: the profile/annotate
# diffs above all ran on the plain (no-cache-capability) Tesla, and the
# cache listing itself proves its non-cache counters match bit-for-bit

echo "== report -- bench (BENCH_pr4.json perf-trajectory gate)"
# regenerates the trajectory and diffs it against the committed baseline:
# fails on >10% modeled-time regression, any new redundant upload, or a
# vanished benchmark; also schema-checks the unified host+device trace
cargo run --release -p bench --bin report -- bench BENCH_pr4.json

echo "ci.sh: all green"
