#!/usr/bin/env bash
#   scripts/check.sh              # run everything
#   scripts/check.sh --fast       # skip the release build and the load/overhead gates
#   CHECK_FULL=1 scripts/check.sh # + release conformance stages and the extended chaos sweeps

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> service loopback smoke (2 datasets x 20 variants over TCP)"
timeout 300 cargo test -q -p vbp-service --test loopback_smoke

echo "==> service chaos (24 fault + 8 streaming + 8 HTTP schedules, panic containment)"
timeout 600 cargo test -q -p vbp-service --test chaos

echo "==> streaming equivalence (APPEND/SUBMIT/WATCH vs batch truth)"
timeout 300 cargo test -q -p vbp-service --test streaming_equivalence

echo "==> service protocol properties + stats consistency"
timeout 300 cargo test -q -p vbp-service --test protocol_props
timeout 300 cargo test -q -p vbp-service --test stats_consistency

echo "==> http gateway properties (framing fuzz vs response-stream oracle)"
timeout 300 cargo test -q -p vbp-service --test http_props

echo "==> router equivalence (ring placement, merged stats/metrics, quorum)"
timeout 300 cargo test -q -p vbp-service --test router_equivalence

echo "==> router chaos (8 seeded backend-kill schedules, shard degradation)"
timeout 600 cargo test -q -p vbp-service --test router_chaos

echo "==> shard metamorphic suite (shard-merged labels vs single-shard)"
timeout 300 cargo test -q -p vbp-dbscan --test sharded_metamorphic

echo "==> store reader totality properties (soup, truncations, bit flips)"
timeout 300 cargo test -q -p vbp-store

if [[ $fast -eq 0 ]]; then
  echo "==> trace overhead gate (engine_contention workload, off vs on)"
  timeout 600 cargo run --release -q -p vbp-bench --bin trace_overhead -- \
    --points 3000 --trials 6 --threads 2

  echo "==> store restore gate (warm restore >= 10x cold prepare)"
  timeout 600 cargo run --release -q -p vbp-bench --bin store_restore -- \
    --points 100000 results/store_restore.txt

  echo "==> http load gate (1000 keep-alive clients, invariant under load)"
  timeout 600 cargo run --release -q -p vbp-bench --bin http_load -- \
    results/http_load.txt

  echo "==> router load gate (direct vs router x1 vs router x2, kill phase)"
  timeout 600 cargo run --release -q -p vbp-bench --bin router_load -- \
    results/router_load.txt
fi

echo "==> benchmark package (its unit tests, then every workload at a tenth of the window)"
timeout 900 cargo test -q --manifest-path benchmark/Cargo.toml
timeout 600 benchmark/run.sh --quick

if [[ "${CHECK_FULL:-0}" != "0" ]]; then
  echo "==> conformance (release, VBP_CONFORMANCE_FULL=1)"
  VBP_CONFORMANCE_FULL=1 cargo test -q --release -p vbp-rtree --test conformance
  VBP_CONFORMANCE_FULL=1 cargo test -q --release -p variantdbscan --test metamorphic_reuse
  VBP_CONFORMANCE_FULL=1 timeout 600 cargo test -q --release -p vbp-dbscan --test sharded_metamorphic
  echo "==> chaos extended sweep (release, VBP_CHAOS_FULL=1: 96 + 24 + 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --release -p vbp-service --test chaos
  echo "==> streaming equivalence extended sweep (release, VBP_STREAM_FULL=1)"
  VBP_STREAM_FULL=1 timeout 900 cargo test -q --release -p vbp-service --test streaming_equivalence
  echo "==> router chaos extended sweep (release, VBP_CHAOS_FULL=1: 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --release -p vbp-service --test router_chaos
fi

echo "All checks passed."
