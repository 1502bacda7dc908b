#!/usr/bin/env bash
# Builds the commit under test and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload features|example --seed N --seconds S --trace 0|1
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default .bench_build); cargo rebuilds whatever changed, so the
# `tdess` binary the benchmark spawns is always the release build of
# this checkout. The last line of standard output is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --bin tdess >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --tdess "$target/release/tdess" --work-dir "$target/perfbench" "$@"
