#!/bin/sh
# Fault-injection smoke over the CLI (make faults runs the Go suites
# first; this script is the end-to-end half): the hand-written plan of
# EXPERIMENTS.md ("A faulted run") — one link flap plus CNP and data
# loss — runs once at radix 8 under the invariant checker, which exits
# non-zero on any violation. The run must report what the injector did
# (a `faults :` line with the flap's link transition) and a clean audit
# of custody through the Dropped ledger. The plan and the run's output
# live in a temp dir of their own, removed on exit.
set -eu

GO=${GO:-go}
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

cat > "$T/plan.json" <<'PLAN'
{
  "seed": 11,
  "horizon_ps": 3000000000,
  "flaps": [{"link": {"at_switch": true, "node": 0, "port": 1},
             "at_ps": 1000000000, "duration_ps": 200000000}],
  "drop": {"cnp": 0.4, "data": 0.002},
  "sample_every_ps": 100000000
}
PLAN
"$GO" run ./cmd/ibccsim -radix 8 -warmup 1ms -measure 2ms -faults "$T/plan.json" -check > "$T/run.txt"
if ! grep -q '^faults   : .*link downs/ups=[1-9]' "$T/run.txt"; then
    echo "faults smoke: the run reports no link transition:" >&2
    cat "$T/run.txt" >&2
    exit 1
fi
if ! grep -q '^check    : clean (' "$T/run.txt"; then
    echo "faults smoke: the checker did not report a clean run:" >&2
    cat "$T/run.txt" >&2
    exit 1
fi
grep '^faults   : \|^check    : ' "$T/run.txt"
echo "faults smoke: ok"
