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
# the per-pair change/parent ratios and the pairs won, and appends the
# ledger row to BENCH_history.json: each side's median, interquartile
# range and pairs won per metric, as a workloads-only entry (the next
# `paperbench bench-kernel` trims the ring to its 20 entries). Timing on
# a shared box is advisory: CI does not run this.
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

# figure SIDE STAT METRIC prints one statistic of a side's column:
# median, iqr (Q3 − Q1), or wins (pairs in which the side read lower).
figure() {
    local other=parent
    [ "$1" = parent ] && other=change
    case $2 in
    wins) paste "$T/$1.$3" "$T/$other.$3" | awk '$1 < $2 { n++ } END { print n + 0 }' ;;
    *) quartiles "$T/$1.$3" | awk -v s="$2" '{ print s == "median" ? $6 : $8 - $4 }' ;;
    esac
}

# stats SIDE STAT prints one statistic of a side for every metric, as
# JSON members.
stats() {
    local out="" m
    for m in $metrics; do out="$out${out:+, }\"$m\": $(figure "$1" "$2" "$m")"; done
    echo "$out"
}

# side_json SIDE prints a side's ledger members.
side_json() {
    echo "$(stats "$1" median), \"iqr\": {$(stats "$1" iqr)}, \"wins\": {$(stats "$1" wins)}, \"pairs\": $pairs"
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

hist="$root/BENCH_history.json"
row="  {
    \"generated_at\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\",
    \"go_version\": \"$(go env GOVERSION)\",
    \"workloads\": {
      \"$workload\": {$(side_json change), \"parent\": {$(side_json parent), \"rev\": \"$(git -C "$root" rev-parse --short "$parent")\"}}
    }
  }"
if [ -s "$hist" ]; then
    sed -i '$ d' "$hist"
    sed -i '$ s/$/,/' "$hist"
    printf '%s\n]\n' "$row" >> "$hist"
else
    printf '[\n%s\n]\n' "$row" > "$hist"
fi
echo "ledger row appended to $hist"
