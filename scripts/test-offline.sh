#!/usr/bin/env sh
# Tier-1 gate, runnable with no network access: everything this repo
# needs is vendored under vendor/, so the build must succeed with cargo
# forced offline. CI and the PR driver both call this.
set -eu
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
cargo fmt --check
# Lints cover tests, examples and bins too, not only the libraries.
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc must build clean: a doc link to a private or deleted item
# fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps
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
# Partition-and-heal smoke: a reduced correlated-cut series under a
# 2-worker pool; the chaos bin byte-compares the parallel series
# against a serial re-run.
SCMP_JOBS=2 cargo run -q --release -p scmp-bench --bin chaos -- 1 --jobs 2 --partition-only
# Every committed scenario file (the examples and the partition smoke
# with its flash-crowd schedule) runs on 2 workers and on 1, and the
# reports must match byte for byte: cut geometry, degraded mode, epoch
# reconciliation and queueing are all seeded, so any divergence is a
# determinism bug.
set -- examples/scenarios/*.json tests/scenarios/*.json
runs_a=$(cargo run -q --release -p scmp-bench --bin scenario -- "$@" --jobs 2)
runs_b=$(cargo run -q --release -p scmp-bench --bin scenario -- "$@" --jobs 1)
[ "$runs_a" = "$runs_b" ] || {
    echo "committed scenarios diverged between --jobs 2 and serial" >&2
    exit 1
}
# The reports themselves are pinned (`just golden-update` rewrites the
# file after an intentional change). On a difference, name each
# scenario whose report moved: report N is the N-th top-level object.
pinned=tests/golden/scenario_reports.txt
report() { awk -v n="$1" '/^\{/ { i++ } i == n'; }
[ "$runs_b" = "$(cat "$pinned")" ] || {
    i=0
    for scenario in "$@"; do
        i=$((i + 1))
        [ "$(printf '%s\n' "$runs_b" | report "$i")" = "$(report "$i" <"$pinned")" ] ||
            echo "scenario $scenario: report differs from $pinned" >&2
    done
    exit 1
}
# A corpus entry wraps a scenario; it is not one. Fed to the scenario
# bin it must exit 1 naming the wrapper's first key, which the schema
# (the serde structs, denying unknown keys) does not know.
status=0
wrapper=$(cargo run -q --release -p scmp-bench --bin scenario -- \
    tests/scenarios/corpus/fig5-crash-standby.json 2>&1 >/dev/null) || status=$?
[ "$status" -eq 1 ] || {
    echo "scenario bin exited $status on a corpus wrapper, want 1" >&2
    exit 1
}
case "$wrapper" in
*'unknown key "name"'*) ;;
*)
    echo "$wrapper" >&2
    exit 1
    ;;
esac
# The repo's benchmark is a package of its own (benchmark/, outside the
# workspace) that builds against the library crates' public API, and a
# PR that claims a gain may not edit it. Build it offline, run every
# workload at CI size (output checks, digests and the traced pass
# included) and its unit tests, so a library change that breaks it
# fails here instead of in the acceptance pipeline. Each workload's
# model digest is pinned at CI size in
# tests/golden/bench_quick_digests.txt and at full size (seed 1, one
# untraced iteration, about 15 s) in tests/golden/bench_full_digests.txt:
# a change that moves what any workload computes fails here, naming the
# workload (`just golden-update` rewrites both lists after an
# intentional change).
for size in quick full; do
    pinned=tests/golden/bench_${size}_digests.txt
    digests=$(scripts/bench-digests.sh "$size")
    printf '%s\n' "$digests" | while read -r workload digest; do
        want=$(awk -v w="$workload" '$1 == w { print $2 }' "$pinned")
        [ "$digest" = "$want" ] || {
            echo "benchmark workload $workload ($size size): model_digest $digest, $pinned pins ${want:-nothing}" >&2
            exit 1
        }
    done
    [ "$digests" = "$(cat "$pinned")" ] || {
        echo "benchmark workloads differ from those pinned in $pinned" >&2
        exit 1
    }
done
# Every benchmark unit test runs; one is an expected failure.
# `layers::tests::replay_counts_every_membership_op` asserts that the DCDM
# replay hits the path cache more often than it misses. A DCDM join reads
# the root's delay tree from the cache (one hit) and runs one stopped
# search per candidate family from the joiner, which is never cached (two
# misses), so misses outnumber hits by design (quick replay: 78 hits, 129
# misses). benchmark/ only changes on its own (ROADMAP item 14 relaxes the
# assertion). Until then the test must fail on exactly that
# assertion, so the join/leave and tree-size checks ahead of it still
# hold; the checks after it (resident path bytes, counters that repeat
# exactly) are `dcdm::tests::churn_replay_repeats_its_cache_counters` in
# scmp-tree. This step fails as soon as the test passes again, so the
# exception cannot outlive the fix.
cargo test -q --manifest-path benchmark/Cargo.toml -- \
    --skip layers::tests::replay_counts_every_membership_op
if replay=$(cargo test -q --manifest-path benchmark/Cargo.toml -- \
    --exact layers::tests::replay_counts_every_membership_op 2>&1); then
    echo "replay_counts_every_membership_op passes: drop its expected failure" >&2
    exit 1
fi
case "$replay" in
*"assertion failed: r.provider_misses > 0 && r.provider_hits > r.provider_misses"*) ;;
*)
    echo "$replay" >&2
    exit 1
    ;;
esac
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
# The failstorm example rewrites bench_results/failstorm_trace.jsonl,
# and the committed copy pins it byte for byte: faults, repair scans,
# timer tokens and trace keys all land in it. On a difference, put the
# committed copy back and name the first line that moved.
trace=bench_results/failstorm_trace.jsonl
pinned_trace=$(mktemp)
cp "$trace" "$pinned_trace"
cargo run -q --release --example failstorm >/dev/null
if ! cmp -s "$pinned_trace" "$trace"; then
    line=$(cmp "$pinned_trace" "$trace" 2>&1 | sed -n 's/.*line \([0-9]*\).*/\1/p')
    echo "failstorm example: $trace differs from the committed copy at line $line:" >&2
    echo "  committed: $(sed -n "${line}p" "$pinned_trace")" >&2
    echo "  now:       $(sed -n "${line}p" "$trace")" >&2
    cp "$pinned_trace" "$trace"
    rm -f "$pinned_trace"
    exit 1
fi
rm -f "$pinned_trace"
# Regression gate in smoke mode: replays the pinned scenario corpus
# serially and on 2 workers (byte-identity guard); carries the artefact
# check (every committed paper figure's JSON and SVG regenerated at 10
# seeds on 2 workers must match bench_results/ byte for byte); re-runs
# the full STRESS search and requires it to match the committed
# bench_results/stress.json byte for byte (smoke mode does not shrink
# it); then re-runs one chaos seed against the reliability and
# partition bands of the committed bench_results/chaos.json. Every check is deterministic,
# so the verdict does not depend on host speed; timing is banded by
# benchmark/run.sh compare.
cargo run -q --release -p scmp-bench --bin regress -- --smoke --jobs 2
# The same artefact check on one worker: every artefact that runs an
# engine fans its cells out on the sweep pool, so the committed files
# must come out byte for byte at --jobs 1 too.
cargo run -q --release -p scmp-bench --bin reproduce -- --check --jobs 1
