#!/bin/sh
# Fault-injection smoke over the CLI (make degradation runs the Go
# suites first; this script is the end-to-end half): a tiny
# graceful-degradation sweep (2 seeds, zero + nonzero intensity) under
# the invariant checker, which exits non-zero on any violation. Its curve
# goes to a temp dir of its own, removed on exit.
set -eu

GO=${GO:-go}
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

"$GO" run ./cmd/paperbench degradation -radix 8 -short -intensities 0,0.6 -seeds 2 -check \
    "$T/degradation.json"
