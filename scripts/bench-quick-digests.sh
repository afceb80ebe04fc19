#!/usr/bin/env sh
# Print one `WORKLOAD MODEL_DIGEST` line per benchmark workload, from a
# CI-size run (`benchmark/run.sh --quick`). The digest folds every
# cell's event count and protocol statistics, so it moves exactly when
# what a workload computes moves. The committed list is
# tests/golden/bench_quick_digests.txt: scripts/test-offline.sh holds
# the run against it, and `just golden-update` rewrites it.
set -eu
cd "$(dirname "$0")/.."
out=$(benchmark/run.sh --quick)
printf '%s\n' "$out" | awk '
    /^[a-z0-9_]+  seed / { workload = $1 }
    /^  model_digest / && !seen[workload]++ { print workload, $2 }
'
