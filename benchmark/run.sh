#!/usr/bin/env bash
# Builds the benchmark runner (release, offline) and runs it.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace              ... plus a traced run of each: per-layer metrics, span files
#   benchmark/run.sh --quick              a tenth of the window: oracle and schema checks, no bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one run (what the driver calls)
#   benchmark/run.sh compare A B          two sets of result files, metric by metric
#
# Results land in benchmark/out/. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

if [[ "${1:-}" == "compare" ]]; then
    exec "$target/release/vbp-benchmark" "$@"
fi
exec "$target/release/vbp-benchmark" --out "$here/out" "$@"
