#!/bin/sh
# Telemetry smoke over the CLIs (make telemetry runs the Go suites
# first; this script is the end-to-end half). Every file it writes lives
# in its own temp dir, removed on exit, so concurrent runs from two
# checkouts do not share paths:
#
#   1. paperbench: a short degradation sweep prints its progress as JSON
#      lines on stderr, the last of which must count every job done, and
#      writes the unified run report, which `paperbench report`
#      validates and renders back. The report must carry no retry count
#      (every simulation runs once), no kernel-bench trend (a sweep reads
#      no benchmark files) and no live series (it is written when the
#      sweep has ended).
#   2. ibccsim: the single-run trace with the sampler's CSV and cadence
#      checkpoints on must execute exactly the bare run's events and
#      leave a header plus >= 10 rows.
set -eu

GO=${GO:-go}
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

# --- 1. Sweep progress and run report. ---
2> "$T/progress.jsonl" "$GO" run ./cmd/paperbench degradation -radix 8 -short \
    -intensities 0,0.6 -seeds 1 -progress-jsonl -report "$T/report.json" "$T/deg.json"
tail -1 "$T/progress.jsonl" | grep -q '^{"total":\([0-9]*\),"done":\1,'
"$GO" run ./cmd/paperbench report "$T/report.json"
for key in retries trend live; do
    if grep -q "\"$key\"" "$T/report.json"; then
        echo "telemetry smoke: the run report carries \"$key\"" >&2
        exit 1
    fi
done

# --- 2. Traced run with cadence checkpoints: the bare run's events. ---
"$GO" run ./cmd/ibccsim -radix 8 -trace "$T/trace.csv" -ckpt-every 1ms -ckpt-dir "$T/ck" |
    grep -o 'engine   : [0-9]* events' > "$T/trace-on.txt"
"$GO" run ./cmd/ibccsim -radix 8 | grep -o 'engine   : [0-9]* events' > "$T/trace-off.txt"
cmp "$T/trace-on.txt" "$T/trace-off.txt"
head -1 "$T/trace.csv" | grep -q '^time_s,'
[ "$(wc -l < "$T/trace.csv")" -ge 11 ]
echo "telemetry smoke: ok"
