#!/bin/sh
# Telemetry smoke over the CLIs (make telemetry runs the Go suites
# first; this script is the end-to-end half). Every file it writes lives
# in its own temp dir, removed on exit, so concurrent runs from two
# checkouts do not share paths:
#
#   1. paperbench: a short parameter scan prints its progress as JSON
#      lines on stderr, the last of which must count every job done, and
#      writes the unified run report, which `paperbench report`
#      validates and renders back. The report must carry no retry count
#      (every simulation runs once), no kernel-bench trend (a sweep reads
#      no benchmark files) and no live series (it is written when the
#      sweep has ended).
#   2. ibccsim: the single-run trace with the sampler's CSV and cadence
#      checkpoints on must execute exactly the bare run's events and
#      leave a header plus >= 10 rows.
#   3. ibccsim: the sampler keeps the whole run. 6 ms at -traceint 10us
#      is 600 bins; -trace and -telemetry read the one sampler, so the
#      CSV has a header plus 600 rows and the telemetry line counts 600
#      bins.
#   4. paperbench: Table II over two seeds writes its paper records into
#      the run report, and `paperbench report` renders them. A radix-8
#      fabric over the short windows is not the paper's, so every record
#      that carries a paper value reads "not comparable", with a reason.
set -eu

GO=${GO:-go}
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

# --- 1. Sweep progress and run report. ---
2> "$T/progress.jsonl" "$GO" run ./cmd/paperbench scan -radix 8 -short -scan threshold \
    -progress-jsonl -report "$T/report.json"
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

# --- 3. A whole 600-bin run, as CSV and as bin means. ---
"$GO" run ./cmd/ibccsim -radix 8 -warmup 1ms -measure 5ms -traceint 10us -trace "$T/long.csv" -telemetry |
    grep -q 'telemetry: 10.0us cadence, 600 bins;'
[ "$(wc -l < "$T/long.csv")" -eq 601 ]

# --- 4. Paper records in the run report. ---
"$GO" run ./cmd/paperbench -radix 8 -short -exp table2 -seeds 2 -report "$T/paper.json" > /dev/null
"$GO" run ./cmd/paperbench report "$T/paper.json" > "$T/paper.txt"
verdicts=$(grep -c '"verdict"' "$T/paper.json")
[ "$verdicts" -eq 4 ]
[ "$(grep -c '"verdict": "not comparable: radix 8 builds 32 nodes' "$T/paper.json")" -eq "$verdicts" ]
[ "$(grep -c 'not comparable: radix 8 builds 32 nodes' "$T/paper.txt")" -eq "$verdicts" ]
echo "telemetry smoke: ok"
