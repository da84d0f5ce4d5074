#!/usr/bin/env bash
# Repo-wide lint gate: formatting and clippy with warnings denied, then
# the workspace test suite. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test (fault feature armed)"
# The fault-injection schedules compile to no-ops by default; this pass
# runs the fault crate and the serve chaos tests with them armed.
cargo test -p waldo-fault -p waldo-serve --features "waldo-fault/fault waldo-serve/fault" -q

echo "==> cargo test (obs feature armed)"
# The obs instrumentation compiles to no-ops by default; this pass runs
# the stage-timer, histogram and trace tests and the serve request-ID
# propagation and stats-snapshot tests with recording compiled in.
cargo test -p waldo-obs -p waldo-serve --features "waldo-obs/obs waldo-serve/obs" -q

echo "==> bench smoke (probe --bench-only + gate)"
# Small-scale pipeline probe with the stage timers compiled in; the gate
# fails if any stage timer went missing or svm_fit regressed more than 2x
# against the checked-in floor (scripts/bench_floor.json).
mkdir -p target
cargo run --release -p waldo-bench --features obs --bin probe -- \
    --quick --bench-only --out target/BENCH_smoke.json
cargo run --release -p waldo-bench --features obs --bin gate -- \
    target/BENCH_smoke.json scripts/bench_floor.json

echo "==> criterion smoke (extract_lanes vs extract_per_frame_oracle)"
# One quick criterion pass over the lane-kernel-vs-oracle extraction pair
# so the kernels bench target keeps compiling and the shipped kernel keeps
# appearing in bench listings.
cargo bench -p waldo-bench --bench kernels -- extract_

echo "==> serve smoke (serve_load --quick --obs-overhead + gate --obs --ingest)"
# Boots the model server (with its ingestion plane), runs 16 concurrent
# clients through full fetches, delta fetches, and malformed-frame
# probes, then holds 256 pipelined keep-alive connections against the
# reactor pool for the throughput phase, then turns the fleet around for
# the upload -> refit -> delta-fetch ingest smoke, then shuts down
# gracefully. serve_load itself exits nonzero on any protocol or upload
# error; the gate additionally enforces the fetch-latency and
# fetches-per-second floors plus the 90% response-cache hit-rate floor,
# the upload-rate floor and refit-latency ceiling from the ingest report
# (scripts/bench_floor.json) and, with --obs, the recording-overhead
# ceiling on the obs-enabled build.
cargo run --release -p waldo-bench --features obs --bin serve_load -- \
    --quick --connections 256 --obs-overhead --out target/BENCH_serve_smoke.json \
    --ingest-out target/BENCH_ingest_smoke.json
cargo run --release -p waldo-bench --features obs --bin gate -- \
    target/BENCH_smoke.json scripts/bench_floor.json target/BENCH_serve_smoke.json --obs \
    --ingest target/BENCH_ingest_smoke.json

echo "==> obs_dump self-test"
# In-process server + client round trip through the Stats opcode plus one
# upload -> refit -> delta-fetch loop through the ingestion plane; asserts
# connection/request/ingest counters and (with obs) per-endpoint
# histograms.
cargo run --release -p waldo-serve --features obs --bin obs_dump -- --self-test

echo "==> obs_top self-test"
# In-process leader + pull-syncing follower + client with a FleetObserver
# attached: asserts the merged per-node series registry, the JSONL fleet
# timeline, and the SLO evaluation (healthy passes, synthetic
# incorrect-safe violation fails), then renders one dashboard frame.
cargo run --release -p waldo-bench --features obs --bin obs_top -- --self-test

echo "==> chaos smoke (chaos_soak --quick + gate --chaos)"
# Seeded fault injection on every client transport and sensor, through a
# full server outage/recovery cycle and a crowd-sourced upload phase with
# a mid-run WAL kill/recovery. chaos_soak itself exits nonzero on any
# panic, incorrect safe decision, duplicate-ingested batch, or client
# that missed the refit; the gate additionally requires every fault
# category to have fired and enforces the recovery-latency ceiling
# (scripts/bench_floor.json).
cargo run --release -p waldo-bench --features "obs fault" --bin chaos_soak -- \
    --quick --out target/BENCH_chaos_smoke.json \
    --timeline target/chaos_timeline_smoke.jsonl
cargo run --release -p waldo-bench --features obs --bin gate -- \
    target/BENCH_smoke.json scripts/bench_floor.json --chaos target/BENCH_chaos_smoke.json

echo "==> failover drill smoke (failover_drill --quick + gate --failover --slo --history)"
# Geo-replicated serving under fire: a leader with two pull-syncing
# followers, multi-endpoint clients rotated across the replica list, and
# a scripted kill schedule (kill-a-follower, rebind with full resync,
# stale-follower during a leader refit, leader loss). A FleetObserver
# rides the drill, polling every node's metrics export and streaming the
# per-tick fleet timeline. failover_drill itself exits nonzero on any
# panic, incorrect safe decision, or client that failed to converge on
# the post-failover epoch; the gate enforces scenario completion,
# failover/sync coverage, and the recovery-p99 ceiling
# (scripts/bench_floor.json), evaluates the declarative fleet SLOs
# (availability, fetch p99 budget, replication-lag budget, zero
# incorrect-safe) over the timeline, then appends this run's headline
# metrics — including the replication catch-up p99 and the obs overhead
# fraction — to the bench history and fails on any sustained
# (last-2-entries) trend regression. The history it appends to is
# target/bench_history.jsonl, seeded from the tracked
# results/bench_history.jsonl when absent: a fresh checkout judges this
# run against exactly the tracked entries, later runs on the same host
# accumulate there, and the tracked ledger is never modified.
cargo run --release -p waldo-bench --features "obs fault" --bin failover_drill -- \
    --quick --out target/BENCH_failover_smoke.json \
    --timeline target/fleet_timeline_smoke.jsonl
if [ ! -f target/bench_history.jsonl ]; then
    cp results/bench_history.jsonl target/bench_history.jsonl
fi
cargo run --release -p waldo-bench --features obs --bin gate -- \
    target/BENCH_smoke.json scripts/bench_floor.json target/BENCH_serve_smoke.json --obs \
    --failover target/BENCH_failover_smoke.json \
    --slo target/fleet_timeline_smoke.jsonl \
    --history target/bench_history.jsonl

echo "ok"
