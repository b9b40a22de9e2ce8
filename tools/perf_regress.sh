#!/usr/bin/env bash
#
# Simulation-performance regression gate.
#
#   tools/perf_regress.sh [--events-only] [--update] [jobs]
#
# Builds the release-bench preset (-O3 + IPO/LTO -- the configuration
# perf numbers are quoted from; asserts and probe hooks are compiled
# in, as in every build) and runs bench/perf_smoke against the
# checked-in baseline tools/perf_baseline.json:
#
#   events, events/quantum   must match the baseline exactly (the
#               simulation is deterministic)
#   wall-clock, Mticks/s     may regress by at most 20% (skipped by
#               --events-only, which is what CI uses: host speed is
#               machine-dependent, event counts are not)
#
# --update re-records tools/perf_baseline.json from the current build
# instead of checking; use it when a change intentionally alters the
# event count, and quote the new trajectory in the PR.

set -euo pipefail

cd "$(dirname "$0")/.."

EVENTS_ONLY=""
UPDATE=0
JOBS="$(nproc)"
for arg in "$@"; do
    case "$arg" in
        --events-only) EVENTS_ONLY="--events-only" ;;
        --update) UPDATE=1 ;;
        *) JOBS="$arg" ;;
    esac
done

echo "=== release-bench: configure + build ==="
cmake --preset release-bench
cmake --build --preset release-bench -j "$JOBS" --target perf_smoke

BIN=build-release-bench/bench/perf_smoke
BASELINE=tools/perf_baseline.json

if [[ "$UPDATE" == 1 ]]; then
    echo "=== recording new baseline ($BASELINE) ==="
    "$BIN" --json "$BASELINE"
    echo "baseline updated; commit $BASELINE with the change that moved it"
    exit 0
fi

echo "=== perf_smoke --check $BASELINE ${EVENTS_ONLY} ==="
"$BIN" --check "$BASELINE" ${EVENTS_ONLY}
echo "perf regression gate clean"
