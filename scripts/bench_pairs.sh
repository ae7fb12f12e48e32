#!/usr/bin/env bash
# Paired end-to-end timing of a parent revision against the working tree
# (guides: choosing-metrics §8; the procedure PRs 12, 13, 15 and 18 ran
# by hand):
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD [PAIRS]
#
# Both sides are exported into temp dirs (`git archive` of PARENT_REV;
# the working tree's tracked and untracked-but-not-ignored files as they
# are on disk), each builds its own ./benchmark, and PAIRS (default 10)
# pairs run on seeds 101, 102, … — one seed per pair, the side that goes
# first alternating — each run exactly what BENCHMARK.json's command
# runs (`--seconds 30 --trace 0`).
# Prints every run, then per metric each side's median and quartiles,
# the per-pair change/parent ratios and the pairs won. Timing on a
# shared box is advisory: CI does not run this.
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: $0 PARENT_REV WORKLOAD [PAIRS]" >&2; exit 2; }
parent=$1 workload=$2 pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

mkdir "$T/parent" "$T/change"
git -C "$root" archive "$parent" | tar -x -C "$T/parent"
(cd "$root" && git ls-files -co --exclude-standard -z |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$T/change"
for side in parent change; do
    (cd "$T/$side" && go build -o "$T/$side.bin" ./benchmark)
done

metrics="ns_per_packet allocs_per_op peak_rss_mb setup_s"
for i in $(seq 1 "$pairs"); do
    seed=$((100 + i))
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        line=$(cd "$T/$side" && "$T/$side.bin" -workload "$workload" -seed "$seed" \
            -seconds 30 -trace 0 | tail -1)
        echo "pair $i seed $seed $side $line"
        for m in $metrics; do
            echo "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" >> "$T/$side.$m"
        done
    done
done

# quartiles prints min, Q1, median, Q3, max of a column of numbers
# (linear interpolation between order statistics).
quartiles() {
    sort -g "$1" | awk '{v[NR] = $1} END {
        printf "min %.6g  Q1 %.6g  median %.6g  Q3 %.6g  max %.6g  (n=%d)\n",
            v[1], q(0.25), q(0.5), q(0.75), v[NR], NR }
        function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }'
}

echo
echo "== $workload: $parent vs working tree, $pairs pairs, seeds 101..$((100 + pairs)) =="
for m in $metrics; do
    echo "-- $m"
    printf '  parent: '; quartiles "$T/parent.$m"
    printf '  change: '; quartiles "$T/change.$m"
    paste "$T/parent.$m" "$T/change.$m" | awk '{
        printf "%s%.3f", (NR == 1 ? "  ratios: " : " "), $2 / $1
        if ($2 < $1) won++; else if ($2 > $1) lost++ }
        END { printf "\n  change wins %d, loses %d of %d pairs\n", won, lost, NR }'
done
