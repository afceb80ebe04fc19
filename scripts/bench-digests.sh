#!/usr/bin/env sh
# Print one `WORKLOAD MODEL_DIGEST` line per benchmark workload.
#
#   scripts/bench-digests.sh quick   CI size (`benchmark/run.sh --quick`)
#   scripts/bench-digests.sh full    full size: seed 1, tracing off, one
#                                    iteration per workload (`--seconds
#                                    0.1`); about 15 s on 2 vCPUs
#
# The digest folds every cell's event count and protocol statistics, so
# it moves exactly when what a workload computes moves. The committed
# lists are tests/golden/bench_{quick,full}_digests.txt:
# scripts/test-offline.sh holds the runs against them, and `just
# golden-update` rewrites them.
set -eu
cd "$(dirname "$0")/.."
case "${1:-}" in
quick) out=$(benchmark/run.sh --quick) ;;
full) out=$(benchmark/run.sh --trace 0 --seconds 0.1) ;;
*)
    echo "usage: scripts/bench-digests.sh quick|full" >&2
    exit 2
    ;;
esac
printf '%s\n' "$out" | awk '
    /^[a-z0-9_]+  seed / { workload = $1 }
    /^  model_digest / && !seen[workload]++ { print workload, $2 }
'
