#!/usr/bin/env sh
# Tier-1 gate, runnable with no network access: everything this repo
# needs is vendored under vendor/, so the build must succeed with cargo
# forced offline. CI and the PR driver both call this.
set -eu
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
cargo fmt --check
cargo clippy --workspace -- -D warnings
cargo build --release
# (No bench targets are left in the workspace, so `cargo test -q` runs
# tests and doctests only; timing lives in benchmark/, driven below.)
cargo test -q
# Re-run the determinism guards with the sweep executor forced onto a
# multi-worker pool: parallel fan-out must reproduce serial output byte
# for byte even on single-core CI hosts. The chaos sweep covers the
# seeded channel model — both tiers, best-effort and NACK recovery:
# impaired runs must also replay identically.
SCMP_JOBS=2 cargo test -q -p scmp-integration --test determinism
SCMP_JOBS=2 cargo test -q --release -p scmp-bench --lib chaos::
# Reliable-tier smoke sweep: lossy runs with NACK recovery on must be
# byte-identical across worker counts (suppression jitter is a seeded
# hash, never an RNG) and the jitter hash itself must stay pure.
SCMP_JOBS=2 cargo test -q -p scmp-integration --test proptest_reliability
# STRESS explorer smoke: a reduced seeded boundary search; --jobs 2
# arms the bin's built-in serial-vs-parallel byte-identity guard, and
# --no-pin keeps CI from mutating the pinned corpus. The corpus itself
# replays under `cargo test` (corpus_replay.rs) above.
SCMP_JOBS=2 cargo run -q --release -p scmp-bench --bin stress -- --smoke --no-pin
# Scaling-study smoke: the on-demand path provider driven on sub-1k
# transit-stub and Waxman graphs; --jobs 2 arms the bin's built-in
# guard that the deterministic report is byte-identical to a serial
# re-run (timing rows exempt).
SCMP_JOBS=2 cargo run -q --release -p scmp-bench --bin scale -- --smoke --jobs 2
# Partition-and-heal smoke: a reduced correlated-cut series plus the
# flash-crowd membership scenario under a 2-worker pool. The chaos bin
# byte-compares the parallel series against a serial re-run; the
# scenario runner is then driven twice over the same file and its
# reports compared byte for byte — the cut geometry, degraded mode,
# and epoch reconciliation are all seeded, so any divergence is a
# determinism bug.
SCMP_JOBS=2 cargo run -q --release -p scmp-bench --bin chaos -- 1 --jobs 2 --partition-only
part_a=$(cargo run -q --release -p scmp-bench --bin scenario -- \
    tests/scenarios/partition-smoke.json tests/scenarios/partition-smoke.json --jobs 2)
part_b=$(cargo run -q --release -p scmp-bench --bin scenario -- \
    tests/scenarios/partition-smoke.json tests/scenarios/partition-smoke.json --jobs 1)
[ "$part_a" = "$part_b" ] || {
    echo "partition smoke diverged between --jobs 2 and serial" >&2
    exit 1
}
# The repo's benchmark is a package of its own (benchmark/, outside the
# workspace) that builds against the library crates' public API, and a
# PR that claims a gain may not edit it. Build it offline, run every
# workload at CI size (output checks, digests and the traced pass
# included) and its unit tests, so a library change that breaks it
# fails here instead of in the acceptance pipeline.
benchmark/run.sh --quick >/dev/null
cargo test -q --manifest-path benchmark/Cargo.toml
# Fast loss-invariant scenario: 5% and 15% control-plane loss on the
# fig-scale topology — eventual grafting, no duplicate delivery, no
# spurious takeover.
cargo test -q -p scmp-integration --test lossy_control_plane
# Delivery audit over the committed golden traces: scmp-inspect exits
# non-zero on any duplicate, phantom or unaccounted delivery — in the
# fault-storm run and in the lossy one (channel loss and corruption
# must be accounted for by recorded drops).
for golden in failstorm_events lossy_events; do
    cargo run -q --release -p scmp-bench --bin scmp-inspect -- \
        "tests/golden/$golden.jsonl" --audit
done
# Perf-regression gate in smoke mode: replays the pinned scenario
# corpus serially and on 2 workers (byte-identity guard), then re-runs
# the hot-path benches against the committed baselines. The second,
# inverted invocation proves the gate has teeth: an injected 2x
# throughput regression MUST make it exit non-zero.
cargo run -q --release -p scmp-bench --bin regress -- --smoke --jobs 2
if cargo run -q --release -p scmp-bench --bin regress -- \
    --smoke --jobs 2 --inject 2 >/dev/null 2>&1; then
    echo "regress gate failed to detect an injected 2x regression" >&2
    exit 1
fi
