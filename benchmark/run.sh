#!/usr/bin/env bash
# The repository's benchmark. With no arguments: every workload, untraced
# then traced, a table, and out/results.json. See README.md for the rest.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CASCADE_BENCH_OUT="$here/out"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
