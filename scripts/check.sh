#!/usr/bin/env bash
#   scripts/check.sh              # run everything
#   scripts/check.sh --fast       # skip the release build and tests, the paper-table bins, the rustdoc
#                                 # stage and the benchmark's tests and --quick run (the benchmark
#                                 # package is still compiled)
#   CHECK_FULL=1 scripts/check.sh # + release conformance stages and the extended chaos sweeps

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

# Compile-only, so the fast path too catches a public name that
# benchmark/src imports and the workspace no longer has.
echo "==> cargo check (benchmark package)"
cargo check --locked --offline --manifest-path benchmark/Cargo.toml --all-targets

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --locked --release
fi

echo "==> cargo test --workspace -q"
timeout 1800 cargo test --locked --workspace -q

if [[ $fast -eq 0 ]]; then
  # The sharded kernel's correctness rests on the order of its core-flag
  # stores and loads, which optimised code exercises harder. The
  # `algorithm::` proptests hold the from-scratch kernel, whose searches
  # stop or skip settled leaves once a count reaches minpts, to its
  # seed-queue oracle in labels and every counter (4× their cases under
  # CHECK_FULL=1).
  echo "==> cargo test --release -p vbp-dbscan"
  timeout 900 cargo test --locked --release -q -p vbp-dbscan

  # An append writes its batch into buffers other index generations
  # share; the column's claim-then-publish order is likewise exercised
  # harder by optimised code. The conformance suite also holds searches
  # through the leaf-reach table to the tree walk, leaf by leaf, and
  # `scan::tests::every_level_scans_as_the_baseline` holds the ε-scan
  # kernels' AVX2 and AVX-512 copies (those the host has) to the
  # baseline copy, count for count and id for id, as optimised code
  # compiles them.
  echo "==> cargo test --release -p vbp-rtree"
  timeout 900 cargo test --locked --release -q -p vbp-rtree

  # The bin sort's wrapping cell arithmetic and packed radix entries are
  # what optimised code (with overflow checks off) runs.
  echo "==> cargo test --release -p vbp-geom"
  timeout 900 cargo test --locked --release -q -p vbp-geom

  # The engine's reuse proptests hold the fused expansion waves, the
  # merge of an old cluster reached through a core point and the per-leaf
  # harvest through the leaf-reach table to their destroy-and-re-search,
  # MBB-harvesting seed-queue oracle, and bound that harvest between the
  # true ε-boundary and the MBB; optimised code is what runs them in
  # production.
  echo "==> cargo test --release -p variantdbscan"
  timeout 900 cargo test --locked --release -q -p variantdbscan

  # The five paper-table bins are built by clippy but run by nothing
  # else; a small run catches one that panics or exits non-zero.
  echo "==> paper-table bins (--points 2000 --trials 1)"
  cargo build --locked --release -q -p vbp-bench
  for bin in table1_datasets s1_indexing s2_reuse s3_combined fig9_makespan; do
    timeout 300 "${CARGO_TARGET_DIR:-target}/release/$bin" --points 2000 --trials 1 > /dev/null
  done

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
  VBP_CONFORMANCE_FULL=1 cargo test -q --locked --release -p variantdbscan --test proptest_variant
  VBP_CONFORMANCE_FULL=1 cargo test -q --locked --release -p variantdbscan --lib expand::
  VBP_CONFORMANCE_FULL=1 cargo test -q --locked --release -p vbp-dbscan --lib algorithm::
  VBP_CONFORMANCE_FULL=1 timeout 600 cargo test -q --locked --release -p vbp-dbscan --test sharded_metamorphic
  echo "==> chaos extended sweep (release, VBP_CHAOS_FULL=1: 96 + 24 + 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --locked --release -p vbp-service --test chaos
  echo "==> streaming equivalence extended sweep (release, VBP_STREAM_FULL=1)"
  VBP_STREAM_FULL=1 timeout 900 cargo test -q --locked --release -p vbp-service --test streaming_equivalence
  echo "==> router chaos extended sweep (release, VBP_CHAOS_FULL=1: 24 schedules)"
  VBP_CHAOS_FULL=1 timeout 900 cargo test -q --locked --release -p vbp-service --test router_chaos
fi

echo "All checks passed."
