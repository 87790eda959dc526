#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this tree — the rule a
# performance claim is judged by (choosing-metrics guide, section 8).
#
#   ./ab.sh <parent-ref> <workload>|all [pairs=10]
#
# Exports <parent-ref> under target/ab/<sha>/ (git archive: no branch,
# index or worktree of this checkout is touched), builds each side with
# its own benchmark/run.sh into its own target directory, then makes
# `pairs` pairs of untraced runs. Every pair gets a seed neither side has
# seen (so nothing is read from a warm input cache) and the side that goes
# first alternates. Prints, per end-to-end metric: both medians, both
# first-to-third quartile ranges, and in how many pairs the change read
# better. A gain may be claimed when it won at least nine tenths of the
# pairs and the medians differ by more than the parent's quartile range.
# A metric whose change median is worse than the parent's by more than its
# `bound` in BENCHMARK.json is marked `beyond bound`, and the script then
# exits 1. `all` does this for every workload BENCHMARK.json names, one
# table each, and ends with one summary line per workload and metric —
# the "no other workload moved" half of a claim in one invocation.
#
# Nothing under benchmark/ is edited; BENCHMARK.json is only read (run
# length, the workloads, and each metric's direction and bound).
set -euo pipefail
cd "$(dirname "$0")"
root="$PWD"

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-ref> <workload>|all [pairs=10]" >&2
    exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}"
[ "$pairs" -ge 2 ] 2>/dev/null || { echo "ab.sh: pairs must be a number, at least 2" >&2; exit 2; }
sha="$(git rev-parse --verify --quiet "$ref^{commit}")" \
    || { echo "ab.sh: $ref is not a commit" >&2; exit 2; }
if [ "$workload" = all ]; then
    workloads="$(awk '
        /"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name":/ { split($0, f, "\""); print f[4] }' BENCHMARK.json)"
else
    grep -q "\"name\": \"$workload\"" BENCHMARK.json \
        || { echo "ab.sh: BENCHMARK.json has no workload $workload" >&2; exit 2; }
    workloads="$workload"
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
parent="$target/ab/$sha"
if [ ! -d "$parent/src" ]; then
    mkdir -p "$parent/src"
    git archive "$sha" | tar -x -C "$parent/src"
fi

# One untraced run of one side of $workload on one seed; prints the
# result line.
run() {
    local side="$1" seed="$2"
    if [ "$side" = parent ]; then
        CARGO_TARGET_DIR="$parent/target" bash "$parent/src/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
    else
        CARGO_TARGET_DIR="$target" bash "$root/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
    fi | tail -n 1
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
echo "== building both sides (a 1 s run each) ==" >&2
workload="${workloads%%$'\n'*}"
seconds=1 run parent 1 > /dev/null
seconds=1 run change 1 > /dev/null

# name<TAB>better<TAB>bound for every end-to-end metric.
awk '
    /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name":/ { split($0, f, "\""); name = f[4] }
    on && /"better":/ { split($0, f, "\""); better = f[4] }
    on && /"bound":/ { gsub(/[^0-9.]/, "", $0); print name "\t" better "\t" $0 }
' BENCHMARK.json > "$out/metrics.tsv"

# One side's runs of one metric of $workload, a value per line.
values() {
    grep -o "\"$2\":{\"value\":[^,]*" "$out/$workload.$1.jsonl" | sed 's/.*://'
}

# Seeds start past any a developer is likely to have cached.
first_seed=$(( $(date +%s) % 100000 * 100 ))
for workload in $workloads; do
    for i in $(seq 1 "$pairs"); do
        first_seed=$(( first_seed + 1 ))
        seed=$first_seed
        if [ $(( i % 2 )) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            # run.sh exits non-zero when a run fails its output checks.
            run "$side" "$seed" >> "$out/$workload.$side.jsonl" \
                || { echo "ab.sh: $workload pair $i ($side, seed $seed) failed" >&2; exit 1; }
        done
        echo "$workload pair $i/$pairs (seed $seed, $order)" >&2
    done

    echo
    echo "$workload: $pairs pairs, parent $ref (${sha:0:7}) vs this tree, $seconds s runs"
    printf '%-24s %-34s %-34s %s\n' metric "parent median [q1 .. q3]" "change median [q1 .. q3]" "pairs won"
    while IFS=$'\t' read -r name better bound; do
        for side in parent change; do
            values "$side" "$name" | tr '\n' ' '
            echo
        done | awk -v name="$name" -v better="$better" -v bound="$bound" '
            # statistics.quantiles(v, n=4), exclusive method — what the driver
            # and benchmark/src/metrics.rs use.
            function quantile(v, n, q,    pos, lo) {
                pos = q * (n + 1); lo = int(pos)
                if (lo < 1) lo = 1; if (lo > n - 1) lo = n - 1
                return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
            }
            NR == 1 { n = NF; for (i = 1; i <= n; i++) a[i] = $i }
            NR == 2 { for (i = 1; i <= n; i++) b[i] = $i }
            END {
                for (i = 1; i <= n; i++) {
                    if (a[i] == b[i]) ties++
                    else if ((better == "lower") == (b[i] < a[i])) wins++
                }
                sorted(a, sa, n); sorted(b, sb, n)
                ma = quantile(sa, n, 0.5); mb = quantile(sb, n, 0.5)
                iqr = quantile(sa, n, 0.75) - quantile(sa, n, 0.25)
                moved = mb - ma; if (moved < 0) moved = -moved
                worse = (better == "lower") ? mb - ma : ma - mb
                verdict = ""
                if (worse > bound * ma) verdict = "  beyond bound"
                else if (wins * 10 >= (n - ties) * 9 && moved > iqr) verdict = "  gain"
                else if ((n - ties - wins) * 10 >= (n - ties) * 9 && moved > iqr) verdict = "  LOSS"
                printf "%-24s %-34s %-34s %d/%d%s\n", name,
                    sprintf("%.5g [%.5g .. %.5g]", ma, quantile(sa, n, 0.25), quantile(sa, n, 0.75)),
                    sprintf("%.5g [%.5g .. %.5g]", mb, quantile(sb, n, 0.25), quantile(sb, n, 0.75)),
                    wins, n - ties, verdict
            }'
    done < "$out/metrics.tsv" | tee "$out/table.txt"
    # The same rows, shortened, for the closing summary.
    awk -v w="$workload" '{ mark = ""; for (i = NF; i > 1 && $i !~ /\//; i--) mark = $i " " mark
        printf "%-20s %-24s %8s -> %-8s %s\n", w, $1, $2, $6, mark }' "$out/table.txt" >> "$out/summary.txt"
    echo "every run:"
    for side in parent change; do
        while IFS=$'\t' read -r name _; do
            printf '  %-7s %-24s' "$side" "$name"
            values "$side" "$name" | awk '{ printf " %.5g", $1 } END { print "" }'
        done < "$out/metrics.tsv"
    done
done

if [ "$workloads" != "$workload" ]; then
    echo
    echo "summary (parent median -> change median):"
    cat "$out/summary.txt"
fi
if grep -q "beyond bound" "$out/summary.txt"; then
    echo "ab.sh: a metric is worse than the parent's by more than its bound" >&2
    exit 1
fi
