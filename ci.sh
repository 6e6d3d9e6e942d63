#!/usr/bin/env bash
# Tier-1 verification plus the benchmark's self-tests and a bench smoke
# pass. Performance is gated by the benchmark itself (BENCHMARK.json,
# perfbench/README.md), not here.
#
#   ./ci.sh            build + test + lint + sweep gate + bench smoke
#   TH_THREADS=4 ./ci.sh   same, with the execution layer at 4 lanes
#
# TH_BENCH_FAST=1 shrinks the Criterion warm-up/measurement budgets so
# the bench pass is a compile-and-run smoke, not a measurement.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --release

# Lint gate: the workspace (including tests, benches, and examples)
# must be clippy-clean.
cargo clippy --workspace --all-targets -- -D warnings

# One pass of the suite with the execution layer at 4 lanes: the
# determinism contract says every result is identical to the 1-lane
# default the first `cargo test` above used.
TH_THREADS=4 cargo test -q --release

# The benchmark package builds against the workspace APIs it drives
# (presets, the DTM driver, the engine default, co-simulation timers);
# its self-tests catch a workspace change that would break it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Sweep orchestrator gate: a fault-injected selftest sweep must retry,
# degrade the permanently failing shard without aborting its siblings,
# and — rerun into the same directory with the faults lifted — resume
# every finished shard from its checkpoint and recompute only the
# degraded one.
sweep_dir=$(mktemp -d)/selftest
sweep_bin=$PWD/target/release/sweep
TH_SWEEP_FAULT='selftest-2:1,selftest-5:inf' "$sweep_bin" selftest --dir "$sweep_dir" --quiet
if ! grep -q '"id": "selftest-5", "status": "degraded"' "$sweep_dir"/shards/selftest-5.json; then
    echo "ci.sh: FAIL - fault-injected shard did not degrade" >&2
    exit 1
fi
"$sweep_bin" selftest --dir "$sweep_dir" --quiet
if ! grep -q '"id": "selftest-5", "status": "done"' "$sweep_dir"/shards/selftest-5.json; then
    echo "ci.sh: FAIL - resumed sweep did not recompute the degraded shard" >&2
    exit 1
fi
retries=$(grep -c '"event": "shard_retry"' "$sweep_dir"/telemetry.jsonl || true)
if [ "$retries" -lt 1 ]; then
    echo "ci.sh: FAIL - fault injection produced no visible retries" >&2
    exit 1
fi
rm -rf "$(dirname "$sweep_dir")"
echo "sweep gate: fault-injected selftest degraded, resumed, and recovered"

# Bench smoke: the thermal kernel comparison and the simulator /
# interpreter throughput benches, just to prove they run end to end.
TH_BENCH_FAST=1 cargo bench -p th-bench --bench thermal_sweep
TH_BENCH_FAST=1 cargo bench -p th-bench --bench pipeline

echo "ci.sh: all checks passed"
