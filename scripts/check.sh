#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): warnings-as-errors release build, the
# simlint determinism/robustness pass, the root test suite, every
# workspace crate's tests, the benchmark harness's tests, and a 2-job
# smoke run of the reproduction at fast scale with the metrics sidecars
# enabled. A second 1-job smoke run re-derives the sidecars and byte-
# compares them against the 2-job run — the observability layer must be
# deterministic at any worker count — a third run at --event-queue
# calendar byte-compares again: the calendar-queue backend must be
# results-invariant in the queue structure — and a fourth run at
# --workers 2 byte-compares the distributed coordinator/worker path
# against the in-process runner. The smoke run's timing profile
# (per-experiment wall clock, per-sweep-point breakdown, and the measured
# metrics-snapshot overhead) is snapshotted into BENCH_runner.json at the
# repo root; the lint report is snapshotted into target/check/simlint.json.
#
# The perf gate compares against the *committed* BENCH_*.json (HEAD), not
# the working tree, so a slow run can never become its own baseline; pass
# --no-refresh to leave the working-tree snapshots untouched (gate only).
set -euo pipefail
cd "$(dirname "$0")/.."

REFRESH=1
for arg in "$@"; do
    case "$arg" in
        --no-refresh) REFRESH=0 ;;
        *) echo "unknown option $arg (usage: check.sh [--no-refresh])"; exit 2 ;;
    esac
done

echo "== cargo build --release (warnings deny) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== simlint (r1-r9, full workspace) =="
mkdir -p target/check
cargo run --release -q -p simlint -- --json target/check/simlint.json

echo "== simlint self-lint (--crates simlint) =="
# The linter is held to its own r3/r4 scoping: a filtered pass over just
# crates/simlint must come back clean too. The filter only restricts which
# files are linted — the r7 symbol table still spans the whole workspace.
cargo run --release -q -p simlint -- --crates simlint

echo "== cargo test -q =="
cargo test -q

echo "== cargo test --workspace --no-fail-fast =="
# The line above runs only the root package. This leg runs every crate's
# tests too: the allocator differential proptests, the store robustness
# tests and the dist process tests.
cargo test --workspace --no-fail-fast

echo "== cargo test (perfbench harness) =="
# perfbench is its own workspace outside the root one. Its tests keep the
# benchmark harness compiling against the crates' public API and its
# reference.tsv digests matching the engine.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== repro smoke (scale 1/64, 2 jobs, metrics on) =="
cargo run --release -p readopt-core --bin repro -- \
    fig1 fig2 table4 users_1e6 --scale 64 --intervals 4 --jobs 2 --json target/check

echo "== sidecar determinism (re-run at 1 job, byte-compare) =="
# This run also writes the binary results store so the export leg below
# can regenerate its sidecars from the .rrs bytes alone.
mkdir -p target/check-j1
rm -f target/check/run.rrs
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 table4 --scale 64 --intervals 4 --jobs 1 --json target/check-j1 \
    --store target/check/run.rrs > /dev/null
for exp in fig1 fig2 table4; do
    cmp "target/check/$exp.metrics.json" "target/check-j1/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.json" "target/check-j1/$exp.json" \
        || { echo "ERROR: $exp results differ between --jobs 2 and --jobs 1"; exit 1; }
    cmp "target/check/$exp.hist.json" "target/check-j1/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between --jobs 2 and --jobs 1"; exit 1; }
done
echo "   sidecars byte-identical across job counts"

echo "== event-queue determinism (re-run on calendar backend, byte-compare) =="
# users_1e6 asserts heap/calendar equality inside its driver on every run
# above; this leg pins the production experiments to the same contract end
# to end: the calendar-backed engine must reproduce the heap-backed results
# and sidecars byte for byte.
mkdir -p target/check-cal
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 table4 --scale 64 --intervals 4 --jobs 1 --event-queue calendar \
    --json target/check-cal > /dev/null
for exp in fig1 fig2 table4; do
    cmp "target/check-j1/$exp.metrics.json" "target/check-cal/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between heap and calendar event queues"; exit 1; }
    cmp "target/check-j1/$exp.json" "target/check-cal/$exp.json" \
        || { echo "ERROR: $exp results differ between heap and calendar event queues"; exit 1; }
    cmp "target/check-j1/$exp.hist.json" "target/check-cal/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between heap and calendar event queues"; exit 1; }
done
echo "   results byte-identical across event-queue backends"

echo "== distributed determinism (re-run at --workers 2, byte-compare) =="
# The coordinator hands the same sweep points to forked worker processes
# over the frame protocol and reassembles results in sweep order, so
# results, metrics sidecars, and latency histograms must all byte-match
# the in-process --jobs 1 run.
mkdir -p target/check-w2
cargo run --release -q -p readopt-core --bin repro -- \
    fig1 fig2 table4 --scale 64 --intervals 4 --workers 2 \
    --json target/check-w2 > /dev/null
for exp in fig1 fig2 table4; do
    cmp "target/check-j1/$exp.metrics.json" "target/check-w2/$exp.metrics.json" \
        || { echo "ERROR: $exp metrics sidecar differs between --workers 2 and --jobs 1"; exit 1; }
    cmp "target/check-j1/$exp.json" "target/check-w2/$exp.json" \
        || { echo "ERROR: $exp results differ between --workers 2 and --jobs 1"; exit 1; }
    cmp "target/check-j1/$exp.hist.json" "target/check-w2/$exp.hist.json" \
        || { echo "ERROR: $exp latency histograms differ between --workers 2 and --jobs 1"; exit 1; }
done
echo "   results byte-identical between worker processes and in-process run"

echo "== results store (repro export, byte-compare against the sidecars) =="
# `repro export` regenerates every JSON sidecar from the sealed .rrs
# written during the 1-job leg. Artifact records hold the exact bytes
# write_json produced, so even profile.json (wall-clock) must round-trip
# byte-identically — any drift means the store and the sidecars diverged.
rm -rf target/check-export
cargo run --release -q -p readopt-core --bin repro -- \
    export --store target/check/run.rrs --json target/check-export > /dev/null
for f in target/check-j1/*.json; do
    cmp "$f" "target/check-export/$(basename "$f")" \
        || { echo "ERROR: $(basename "$f") regenerated from the store differs"; exit 1; }
done
[ "$(ls target/check-j1/*.json | wc -l)" = "$(ls target/check-export/*.json | wc -l)" ] \
    || { echo "ERROR: store export wrote a different artifact set"; exit 1; }
echo "   store export byte-identical to the original sidecars"

echo "== allocator microbench (bitmap vs btree backends) =="
cargo run --release -q -p readopt-bench --bin alloc_bench -- \
    --json target/check/alloc_bench.json

echo "== perf regression gate (warn-only, +25% vs committed baselines) =="
# Fold the --workers 2 leg's dist/* rows into the smoke profile first so
# the distributed timings are gated (per point, warn-only) and land in
# BENCH_runner.json alongside the in-process history.
cargo run --release -q -p readopt-bench --bin perf_gate -- \
    --merge-runner target/check/profile.json \
    target/check/profile.json target/check-w2/profile.json
# Baselines come from the committed snapshots (HEAD), never the working
# tree: comparing against a file this script is about to overwrite would
# let one slow run silently become the next run's baseline. A snapshot
# that was never committed falls back to the working-tree copy (first run
# in a fresh history); perf_gate skips missing/empty baselines gracefully.
for snap in BENCH_runner.json BENCH_alloc.json; do
    if ! git show "HEAD:$snap" > "target/check/base_$snap" 2>/dev/null; then
        if [ -f "$snap" ]; then cp "$snap" "target/check/base_$snap"; else : > "target/check/base_$snap"; fi
    fi
done
cargo run --release -q -p readopt-bench --bin perf_gate -- \
    --threshold-pct 25 \
    --runner target/check/base_BENCH_runner.json target/check/profile.json \
    --alloc target/check/base_BENCH_alloc.json target/check/alloc_bench.json

if [ "$REFRESH" = 1 ]; then
    cp target/check/profile.json BENCH_runner.json
    cp target/check/alloc_bench.json BENCH_alloc.json
    echo "== wrote BENCH_runner.json + BENCH_alloc.json =="
else
    echo "== --no-refresh: BENCH_runner.json + BENCH_alloc.json left untouched =="
fi
