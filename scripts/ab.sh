#!/usr/bin/env sh
# Paired A/B runs of the benchmark BENCHMARK.json declares: <rev> (the
# parent) against the working tree (the change).
#
#   scripts/ab.sh <rev> [pairs] [seconds] [seed_base] [workload...]
#
# Extracts <rev> with `git archive` under target/ab/ (removed on exit)
# and builds the benchmark command there and in the working tree. Pair i
# runs each workload on both sides with seed seed_base + i, back to back;
# the parent runs first on odd pairs. Defaults: 6 pairs, BENCHMARK.json's
# run_seconds, seed_base 24400 and every BENCHMARK.json workload; name
# workloads to confirm one claim on fresh seeds. End-to-end metrics and
# bounds come from the working tree's BENCHMARK.json; nothing under
# perfbench/ is edited.
#
# Each run's last stdout line is its JSON report. For every workload and
# end-to-end metric the script prints both sides' median [q1, q3]
# (quartiles as Python's statistics.quantiles computes them, like
# perfbench/spread.py), the change/parent ratio of the medians, the
# change's wins out of all pairs (ties count for neither; the metric's
# `better` gives the direction), the metric's bound and a verdict:
# `gain` when the change won at least nine tenths of the pairs and its
# median beats the parent's by more than the parent's q3 - q1, `worse`
# when its median is worse than the parent's by more than the bound (a
# share of the parent's median), `-` otherwise. Then it prints
# failed/attempted operations per side. It exits non-zero if any run
# exits non-zero or does not report "correct": true. Needs jq.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$REPO_ROOT"

[ $# -ge 1 ] || {
    echo "usage: scripts/ab.sh <rev> [pairs] [seconds] [seed_base] [workload...]" >&2
    exit 2
}
REV=$(git rev-parse --verify "$1^{commit}")
PAIRS=${2:-6}
RUN_SECONDS=${3:-$(jq -r '.run_seconds' BENCHMARK.json)}
SEED_BASE=${4:-24400}
RUN=$(jq -r '.command | join(" ")' BENCHMARK.json)
BUILD=$(jq -r '.command | .[:(index("--") // length)]
    | map(if . == "run" then "build" else . end) | join(" ")' BENCHMARK.json)
WORKLOADS=$(jq -r '.workloads[].name' BENCHMARK.json)
if [ $# -gt 4 ]; then
    shift 4
    for workload in "$@"; do
        echo "$WORKLOADS" | grep -qx "$workload" \
            || { echo "error: BENCHMARK.json has no workload $workload" >&2; exit 2; }
    done
    WORKLOADS=$*
fi
METRICS=$(jq -r '.end_to_end[] | "\(.name):\(.better):\(.bound)"' BENCHMARK.json)

# Each tree builds into its own perfbench/target.
unset CARGO_TARGET_DIR

PARENT="$REPO_ROOT/target/ab/$(echo "$REV" | cut -c1-12)-$$"
RESULTS="$PARENT.tsv"
LOGS="$PARENT.logs"
cleanup() {
    rm -rf "$PARENT" "$RESULTS" "$LOGS"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
mkdir -p "$PARENT" "$LOGS"
: > "$RESULTS"
git archive "$REV" | tar -x -C "$PARENT"

for tree in "$PARENT" "$REPO_ROOT"; do
    echo "==> build in $tree" >&2
    (cd "$tree" && $BUILD)
done

STATUS=0

# run_side <side> <tree> <workload> <seed> <pair>: one benchmark run,
# its report appended to $RESULTS as tab-separated rows.
run_side() {
    log="$LOGS/$1.$3.$5"
    if ! (cd "$2" && $RUN --workload "$3" --seed "$4" --seconds "$RUN_SECONDS") \
        > "$log.out" 2> "$log.err"; then
        echo "error: $1 $3 seed $4 exited non-zero:" >&2
        tail -n 5 "$log.err" >&2
        STATUS=1
    fi
    report=$(tail -n 1 "$log.out")
    if [ "$(printf '%s' "$report" | jq -r '.correct' 2>/dev/null)" != "true" ]; then
        echo "error: $1 $3 seed $4 did not report \"correct\": true" >&2
        STATUS=1
        return 0
    fi
    printf '%s' "$report" | jq -r --arg side "$1" --arg w "$3" --arg pair "$5" '
        "ops\t\($side)\t\($w)\t\($pair)\t\(.attempted)\t\(.failed)",
        (.metrics | to_entries[]
            | "metric\t\($side)\t\($w)\t\($pair)\t\(.key)\t\(.value.value)")' >> "$RESULTS"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    seed=$((SEED_BASE + i))
    for workload in $WORKLOADS; do
        if [ $((i % 2)) -eq 1 ]; then
            run_side parent "$PARENT" "$workload" "$seed" "$i"
            run_side change "$REPO_ROOT" "$workload" "$seed" "$i"
        else
            run_side change "$REPO_ROOT" "$workload" "$seed" "$i"
            run_side parent "$PARENT" "$workload" "$seed" "$i"
        fi
    done
    echo "==> pair $i/$PAIRS done (seed $seed)" >&2
    i=$((i + 1))
done

echo "ab: $(git rev-parse --short "$REV") (parent) vs working tree (change)," \
    "$PAIRS pairs, $RUN_SECONDS s per run, seeds $((SEED_BASE + 1))-$((SEED_BASE + PAIRS))"
printf '%-18s %-17s %-34s %-34s %7s %6s %6s %7s\n' workload metric \
    "parent median [q1, q3]" "change median [q1, q3]" ratio wins bound verdict
for workload in $WORKLOADS; do
    for spec in $METRICS; do
        awk -F '\t' -v w="$workload" -v spec="$spec" -v pairs="$PAIRS" '
            function sort(a, n,   i, j, t) {
                for (i = 2; i <= n; i++) {
                    t = a[i]
                    for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                    a[j + 1] = t
                }
            }
            # Quartile k of sorted a[1..n], statistics.quantiles default.
            function quart(a, n, k,   m, j, d) {
                if (n == 1) return a[1]
                m = n + 1
                j = int(k * m / 4)
                if (j < 1) j = 1
                if (j > n - 1) j = n - 1
                d = k * m - j * 4
                return (a[j] * (4 - d) + a[j + 1] * d) / 4
            }
            function cell(a, n) {
                if (n == 0) return "-"
                sort(a, n)
                return sprintf("%.4g [%.4g, %.4g]", quart(a, n, 2), quart(a, n, 1), quart(a, n, 3))
            }
            BEGIN { split(spec, m, ":"); name = m[1]; better = m[2]; bound = m[3] }
            $1 == "metric" && $3 == w && $5 == name && $6 != "null" {
                v[$2, $4] = $6 + 0
                if ($2 == "parent") p[++np] = $6 + 0; else c[++nc] = $6 + 0
            }
            END {
                wins = 0
                for (i = 1; i <= pairs; i++) {
                    if (!(("parent", i) in v) || !(("change", i) in v)) continue
                    d = v["change", i] - v["parent", i]
                    if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) wins++
                }
                pc = cell(p, np)
                pm = np ? quart(p, np, 2) : 0
                cc = cell(c, nc)
                cm = nc ? quart(c, nc, 2) : 0
                ratio = (np && nc && pm != 0) ? sprintf("x%.3f", cm / pm) : "-"
                verdict = "-"
                if (np && nc) {
                    gap = (better == "lower") ? pm - cm : cm - pm
                    if (wins * 10 >= pairs * 9 && gap > quart(p, np, 3) - quart(p, np, 1))
                        verdict = "gain"
                    else if (-gap > bound * pm)
                        verdict = "worse"
                }
                printf "%-18s %-17s %-34s %-34s %7s %6s %6s %7s\n", w, name, pc, cc, ratio, wins "/" pairs, bound, verdict
            }' "$RESULTS"
    done
done
for workload in $WORKLOADS; do
    awk -F '\t' -v w="$workload" '
        $1 == "ops" && $3 == w { att[$2] += $5; fail[$2] += $6 }
        END {
            printf "%-18s failed/attempted  parent %d/%d  change %d/%d\n", w,
                fail["parent"], att["parent"], fail["change"], att["change"]
        }' "$RESULTS"
done

exit "$STATUS"
