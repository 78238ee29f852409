#!/usr/bin/env bash
#   scripts/check.sh              # run everything
#   scripts/check.sh --fast       # skip the release build, the rustdoc stage and the benchmark stage
#   CHECK_FULL=1 scripts/check.sh # + release conformance stages and the extended chaos sweeps

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --locked --release
fi

echo "==> cargo test --workspace -q"
timeout 1800 cargo test --locked --workspace -q

if [[ $fast -eq 0 ]]; then
  echo "==> cargo doc (broken intra-doc links are errors)"
  RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --locked --workspace --no-deps --offline

  echo "==> benchmark package (its unit tests, then every workload at a tenth of the window)"
  timeout 900 cargo test -q --locked --manifest-path benchmark/Cargo.toml
  timeout 600 benchmark/run.sh --quick
fi

if [[ "${CHECK_FULL:-0}" != "0" ]]; then
  echo "==> conformance (release, VBP_CONFORMANCE_FULL=1)"
  VBP_CONFORMANCE_FULL=1 cargo test -q --locked --release -p vbp-rtree --test conformance
  VBP_CONFORMANCE_FULL=1 cargo test -q --locked --release -p variantdbscan --test metamorphic_reuse
  VBP_CONFORMANCE_FULL=1 timeout 600 cargo test -q --locked --release -p vbp-dbscan --test sharded_metamorphic
  echo "==> chaos extended sweep (release, VBP_CHAOS_FULL=1: 96 + 24 + 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --locked --release -p vbp-service --test chaos
  echo "==> streaming equivalence extended sweep (release, VBP_STREAM_FULL=1)"
  VBP_STREAM_FULL=1 timeout 900 cargo test -q --locked --release -p vbp-service --test streaming_equivalence
  echo "==> router chaos extended sweep (release, VBP_CHAOS_FULL=1: 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --locked --release -p vbp-service --test router_chaos
fi

echo "All checks passed."
