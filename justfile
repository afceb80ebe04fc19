# Task runner for the SCMP reproduction. `just` is optional — every
# recipe is a one-liner you can paste into a shell.

default: test

# Full test suite (debug profile).
test:
    cargo test -q

# Tier-1 gate: release build + full test suite with cargo forced
# offline (the repo vendors all dependencies).
test-offline:
    ./scripts/test-offline.sh

# Release build only.
build:
    cargo build --release

# Style gate: formatting and clippy, warnings as errors.
lint:
    cargo fmt --check
    cargo clippy --workspace -- -D warnings

# Fault-injection demo: link cuts + router crash against Fig. 5.
failstorm:
    cargo run --example failstorm

# Regenerate the Fig. 7/8/9 and placement figures on the sweep worker
# pool (all cores; pass e.g. `seeds=10` for the paper's averaging).
sweep seeds="10":
    cargo run --release -p scmp-bench --bin fig7 -- {{seeds}}
    cargo run --release -p scmp-bench --bin fig8 -- {{seeds}}
    cargo run --release -p scmp-bench --bin fig9 -- {{seeds}}
    cargo run --release -p scmp-bench --bin placement -- {{seeds}}

# Same figures pinned to one worker — byte-identical output to `sweep`,
# for determinism triage.
sweep-serial seeds="10":
    cargo run --release -p scmp-bench --bin fig7 -- {{seeds}} --jobs 1
    cargo run --release -p scmp-bench --bin fig8 -- {{seeds}} --jobs 1
    cargo run --release -p scmp-bench --bin fig9 -- {{seeds}} --jobs 1
    cargo run --release -p scmp-bench --bin placement -- {{seeds}} --jobs 1

# Adversarial-channel degradation sweep: delivery ratio and overhead
# across loss rates on the ARPANET topology, invariants asserted per
# cell; writes bench_results/chaos.json. Parallel runs re-check byte
# identity against a serial pass.
chaos seeds="3":
    cargo run --release -p scmp-bench --bin chaos -- {{seeds}}

# Reliable-multicast comparison: the same chaos sweep runs both the
# best-effort and the NACK-recovery tier and prints both curves
# (delivery floors, recovery-latency percentiles, duplicate-NACK
# suppression and repair-cache hit rates asserted per cell). --jobs 2
# arms the serial-vs-parallel byte-identity guard.
chaos-reliable seeds="3":
    cargo run --release -p scmp-bench --bin chaos -- {{seeds}} --jobs 2

# Partition-and-heal series alone: seeded correlated cuts at t=60k
# healing at t=160k, per-cell asserts zero split-brain, zero duplicate
# delivery, and post-heal delivery >= 0.99 inside the bounded
# reconvergence window. --jobs 2 arms the serial-vs-parallel
# byte-identity guard; the committed chaos.json baseline is untouched
# (run `just chaos` to refresh it, partition series included).
partition-chaos seeds="3":
    cargo run --release -p scmp-bench --bin chaos -- {{seeds}} --jobs 2 --partition-only

# Full STRESS boundary-point search: random warm-up, coordinate
# descent to the failure envelope, ddmin minimization; writes
# bench_results/stress.json and pins new reproducers under
# tests/scenarios/corpus/. Parallel runs re-check byte identity
# against a serial pass.
stress:
    cargo run --release -p scmp-bench --bin stress

# Reduced STRESS search for CI: fig5 profile only, no corpus writes,
# serial-vs-parallel byte-identity guard still armed via --jobs.
stress-smoke:
    cargo run --release -p scmp-bench --bin stress -- --smoke --no-pin --jobs 2

# Path-layer scaling study: on-demand provider + CSR topology at
# 1k–10k nodes (memory / events-per-sec / tree-build-latency curves,
# plus a fig8/fig9-shaped run at 5k); writes bench_results/scale.json.
# Parallel runs re-check the deterministic portion against a serial
# pass byte for byte.
scale:
    cargo run --release -p scmp-bench --bin scale

# Reduced scaling study for CI: curve capped at 1k nodes, no 5k fig
# cells, no scale.json write, serial-vs-parallel byte-identity guard
# armed via --jobs.
scale-smoke:
    cargo run --release -p scmp-bench --bin scale -- --smoke --jobs 2

# The repo's benchmark (benchmark/, its own package) at CI size: builds
# it offline against the library crates, runs all five workloads with
# their output checks in < 15 s, then its unit tests. `benchmark/run.sh`
# without --quick is the measured run; see benchmark/README.md.
bench-quick:
    benchmark/run.sh --quick
    cargo test -q --manifest-path benchmark/Cargo.toml

# Query a JSONL telemetry trace, e.g.:
#   just inspect bench_results/failstorm_trace.jsonl --audit
inspect +args:
    cargo run -q -p scmp-bench --bin scmp-inspect -- {{args}}

# Regression gate: replay the scenario corpus (serial vs parallel byte
# identity), re-run the chaos sweep, and hold it to the reliability and
# partition bands of bench_results/chaos.json; writes
# bench_results/regress.json (deterministic: a rerun leaves it
# git-clean). `just regress --smoke` for the CI variant (1 seed, no
# JSON write).
regress *args:
    cargo run --release -p scmp-bench --bin regress -- {{args}}

# Reconstruct causal packet journeys from a committed golden trace:
#   just journey 1        every journey in group 1
#   just journey 1:3      the hop-by-hop journey of g1 payload #3
journey spec="1" trace="tests/golden/failstorm_events.jsonl":
    cargo run -q -p scmp-bench --bin scmp-inspect -- {{trace}} --journey {{spec}}

# End-to-end telemetry walkthrough: sinks, gauges, histograms, spans,
# inspector round trip.
telemetry-tour:
    cargo run --example telemetry_tour

# Refresh the committed golden traces (structured JSONL + journeys)
# after an intentional protocol change; review the diff like code.
golden-update:
    UPDATE_GOLDEN=1 cargo test -p scmp-integration --test telemetry
    UPDATE_GOLDEN=1 cargo test -p scmp-integration --test lossy_control_plane
    UPDATE_GOLDEN=1 cargo test -p scmp-integration --test journey_golden
