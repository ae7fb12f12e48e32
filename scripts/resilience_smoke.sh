#!/bin/sh
# Crash-safety smoke over the CLIs (make resilience runs the Go suites
# first; this script is the end-to-end half):
#
#   1. ibccsim: checkpoint on a cadence, SIGKILL the process mid-flight,
#      resume from the newest checkpoint, and require the summary line
#      to be byte-identical to an uninterrupted run's. All three runs
#      are under -check (the checker rides the same run loop as the
#      checkpoint cadence and attaches to a restored run): a violation
#      is a non-zero exit, and -q prints nothing for a clean audit.
#   2. paperbench: SIGKILL a sweep mid-flight, resume from its artifact
#      store, and require the final artifact set to equal the one an
#      uninterrupted sweep produces.
#   3. paperbench degradation: run the sweep twice into one -out and
#      require the second pass to simulate nothing and write the same
#      curve — -out reaches every sweep command through the one options
#      builder, not just the experiments.
#
# Both kills are kill -9 — no handler runs, so what survives is exactly
# what the atomic-write discipline put on disk.
set -eu

GO=${GO:-go}
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

"$GO" build -o "$T/bin/" ./cmd/ibccsim ./cmd/paperbench

# --- 1. Single run: checkpoint, kill -9, resume, identical summary. ---
RUN="-radix 8 -fracb 100 -p 60 -warmup 200us -measure 10ms -q -check"
"$T/bin/ibccsim" $RUN > "$T/uninterrupted.txt"

"$T/bin/ibccsim" $RUN -ckpt-every 100us -ckpt-dir "$T/ck" &
pid=$!
i=0
while [ -z "$(ls "$T/ck" 2>/dev/null)" ] && [ $i -lt 200 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if [ -z "$(ls "$T/ck" 2>/dev/null)" ]; then
    echo "resilience: no checkpoint written before the kill" >&2
    exit 1
fi

"$T/bin/paperbench" ckpt "$T/ck"
"$T/bin/ibccsim" $RUN -resume-from "$T/ck" > "$T/resumed.txt"
if ! cmp -s "$T/uninterrupted.txt" "$T/resumed.txt"; then
    echo "resilience: resumed summary differs from the uninterrupted run:" >&2
    diff "$T/uninterrupted.txt" "$T/resumed.txt" >&2 || true
    exit 1
fi
echo "resilience: ibccsim kill -9 + resume reproduces the uninterrupted run, audited throughout"

# --- 2. Sweep: kill -9 mid-sweep, resume, identical artifact set. ---
SWEEP="-radix 8 -short -exp fig5 -jobs 1"
"$T/bin/paperbench" $SWEEP -out "$T/full" > /dev/null

"$T/bin/paperbench" $SWEEP -out "$T/cut" > /dev/null 2>&1 &
pid=$!
i=0
while [ "$(ls "$T/cut" 2>/dev/null | grep -c "\.json$" || true)" -lt 1 ] && [ $i -lt 200 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

"$T/bin/paperbench" $SWEEP -out "$T/cut" > /dev/null
(cd "$T/full" && ls ./*.json | grep -v MANIFEST | sort) > "$T/full.list"
(cd "$T/cut" && ls ./*.json | grep -v MANIFEST | sort) > "$T/cut.list"
if ! cmp -s "$T/full.list" "$T/cut.list"; then
    echo "resilience: resumed sweep's artifact set differs from the uninterrupted sweep's:" >&2
    diff "$T/full.list" "$T/cut.list" >&2 || true
    exit 1
fi
if [ -d "$T/cut/quarantine" ] && [ -n "$(ls "$T/cut/quarantine" 2>/dev/null)" ]; then
    echo "resilience: resume quarantined artifacts unexpectedly:" >&2
    ls "$T/cut/quarantine" >&2
    exit 1
fi
echo "resilience: paperbench kill -9 + resume converges on the uninterrupted artifact set"

# --- 3. Degradation sweep: second pass served entirely from artifacts. ---
DEG="-radix 8 -short -intensities 0,0.6 -seeds 2 -jobs 1"
"$T/bin/paperbench" degradation $DEG -out "$T/deg" "$T/deg1.json" > "$T/deg1.txt"
"$T/bin/paperbench" degradation $DEG -out "$T/deg" "$T/deg2.json" > "$T/deg2.txt"
if ! grep -q "^experiment degradation: 8 sims, .* 8 from artifacts$" "$T/deg2.txt"; then
    echo "resilience: second degradation pass was not served from its artifacts:" >&2
    grep "^experiment" "$T/deg1.txt" "$T/deg2.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$T/deg1.json" "$T/deg2.json"; then
    echo "resilience: degradation curve from artifacts differs from the simulated one" >&2
    exit 1
fi
echo "resilience: paperbench degradation re-runs entirely from its -out artifacts"
