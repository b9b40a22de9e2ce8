#!/usr/bin/env bash
#
# Interleaved A/B of the repository benchmark against a base commit.
#
#   tools/perf_ab.sh [--pairs N] [--seconds S] [--seed N] [--base REF]
#                    [--base-tree DIR] [--out DIR] [WORKLOAD...]
#
# Runs `python3 perfbench/run.py --trace 0` for each workload (default:
# all four of BENCHMARK.json) alternately in a base checkout and in
# this working tree:
#
#   base   a `git worktree` of `git merge-base HEAD REF` (REF defaults
#          to HEAD, so the base is the last commit and the A/B measures
#          the uncommitted change), or --base-tree DIR, an existing
#          checkout of the base (a clone or `git archive` export)
#   head   the working tree this script lives in, uncommitted edits
#          included
#
# Each side builds into its own CARGO_TARGET_DIR under the output
# directory and gets one untimed warm-up run.  Then N pairs (default
# 10) run, alternating which side goes first so drift in host load
# lands on both.  The summary prints, per workload and end-to-end
# metric, both sides' median and quartiles, the change of the median,
# and the fraction of pairs the head won (ties count as losses), plus
# failed cells and whether every `model ...` digest line of the head
# matches the base.  Raw outputs stay under --out (default: a fresh
# temporary directory).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

PAIRS=10
SECONDS_PER_RUN=15
SEED=1
BASE_REF=HEAD
BASE_TREE=""
OUT=""
WORKLOADS=()

usage() {
    sed -n '3,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 1
}

while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) PAIRS="${2:?}"; shift 2 ;;
        --seconds) SECONDS_PER_RUN="${2:?}"; shift 2 ;;
        --seed) SEED="${2:?}"; shift 2 ;;
        --base) BASE_REF="${2:?}"; shift 2 ;;
        --base-tree) BASE_TREE="${2:?}"; shift 2 ;;
        --out) OUT="${2:?}"; shift 2 ;;
        -h|--help) usage ;;
        -*) echo "perf_ab: unknown flag $1" >&2; usage ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: bad --pairs" >&2; exit 1; }
if [[ ${#WORKLOADS[@]} -eq 0 ]]; then
    WORKLOADS=(mem-refresh cpu-resident serve-churn fig-grid)
fi

OUT="${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"

WORKTREE=""
cleanup() {
    if [[ -n "$WORKTREE" ]]; then
        git -C "$ROOT" worktree remove --force "$WORKTREE" || true
    fi
}
trap cleanup EXIT

if [[ -z "$BASE_TREE" ]]; then
    BASE_COMMIT="$(git -C "$ROOT" merge-base HEAD "$BASE_REF")"
    WORKTREE="$OUT/base-tree"
    git -C "$ROOT" worktree add --detach "$WORKTREE" "$BASE_COMMIT" >&2
    BASE_TREE="$WORKTREE"
    echo "perf_ab: base = $BASE_COMMIT (merge-base of HEAD and $BASE_REF)"
else
    BASE_TREE="$(cd "$BASE_TREE" && pwd)"
    echo "perf_ab: base = $BASE_TREE"
fi
echo "perf_ab: head = $ROOT (working tree)"
echo "perf_ab: $PAIRS pairs x ${WORKLOADS[*]}, --seconds $SECONDS_PER_RUN" \
     "--seed $SEED; raw outputs in $OUT"

# run SIDE WORKLOAD SECONDS FILE: one perfbench run of one side.
run() {
    local tree="$ROOT"
    [[ "$1" == base ]] && tree="$BASE_TREE"
    CARGO_TARGET_DIR="$OUT/build-$1" python3 "$tree/perfbench/run.py" \
        --workload "$2" --seed "$SEED" --seconds "$3" --trace 0 \
        > "$4" 2>> "$OUT/build-$1.log" || {
        echo "perf_ab: $1 run of $2 failed; see $OUT/build-$1.log" >&2
        exit 1
    }
}

for side in base head; do
    echo "perf_ab: building and warming up $side"
    run "$side" "${WORKLOADS[0]}" 1 "$OUT/warmup-$side.out"
done

for wl in "${WORKLOADS[@]}"; do
    mkdir -p "$OUT/$wl"
    for ((i = 1; i <= PAIRS; ++i)); do
        if ((i % 2)); then order=(base head); else order=(head base); fi
        for side in "${order[@]}"; do
            run "$side" "$wl" "$SECONDS_PER_RUN" "$OUT/$wl/$side-$i.out"
        done
        echo "perf_ab: $wl pair $i/$PAIRS done (${order[0]} first)"
    done
done

python3 - "$OUT" "$PAIRS" "${WORKLOADS[@]}" <<'EOF'
import json
import statistics
import sys

out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
# BENCHMARK.json's end-to-end metrics and their better direction.
metrics = [("wall_s", "lower"), ("sim_minstr_per_s", "higher"),
           ("setup_s", "lower"), ("peak_rss_mb", "lower")]


def load(wl, side, i):
    with open(f"{out}/{wl}/{side}-{i}.out") as f:
        lines = f.read().splitlines()
    model = [l for l in lines if l.startswith("model")]
    return json.loads(lines[-1]), model


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


for wl in workloads:
    runs = {s: [load(wl, s, i) for i in range(1, pairs + 1)]
            for s in ("base", "head")}
    failed = {s: sum(r["failed"] for r, _ in runs[s]) for s in runs}
    same = all(m == runs["base"][0][1]
               for s in runs for _, m in runs[s])
    print(f"\n{wl}: {pairs} pairs; failed cells base {failed['base']}, "
          f"head {failed['head']}; model digests "
          f"{'identical' if same else 'DIFFER'}")
    print(f"  {'metric':<17}{'base q1':>11}{'median':>11}{'q3':>11}"
          f"{'head q1':>11}{'median':>11}{'q3':>11}{'change':>9}"
          f"{'head won':>10}")
    for name, better in metrics:
        vals = {s: [r["metrics"][name]["value"] for r, _ in runs[s]]
                for s in runs}
        bq, hq = quartiles(vals["base"]), quartiles(vals["head"])
        won = sum((h < b) if better == "lower" else (h > b)
                  for b, h in zip(vals["base"], vals["head"]))
        change = (hq[1] / bq[1] - 1.0) * 100.0 if bq[1] else 0.0
        cells = "".join(f"{v:>11.4g}" for v in bq + hq)
        print(f"  {name:<17}{cells}{change:>+8.1f}%{won:>7}/{pairs}")
EOF
