#!/usr/bin/env bash
# The repo's benchmark in one command. Builds the benchmark crate from
# source (offline; release profile) and hands every argument to it:
#
#   benchmark/run.sh                      every workload, both passes
#   benchmark/run.sh --quick              the same at CI size (< 15 s)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as the acceptance
#                                         pipeline invokes it
#   benchmark/run.sh compare DIR_A DIR_B  hold two sets of runs against
#                                         the bounds
#
# Run it from the root of the checkout: paths (the crate, the default
# output directory benchmark/out) are relative to it. CARGO_TARGET_DIR
# is honoured; without it the build lands in benchmark/target.
set -euo pipefail

manifest=benchmark/Cargo.toml
if [ ! -f "$manifest" ]; then
    echo "run.sh: $manifest not found; run from the root of the checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Fails (non-zero, nothing printed on stdout) when the library crates the
# benchmark measures are not there to build against.
cargo build --release --quiet --manifest-path "$manifest" >&2
SCMP_BENCH_RUSTC="$(rustc --version)" exec "$CARGO_TARGET_DIR/release/scmp-benchmark" "$@"
