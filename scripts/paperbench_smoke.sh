#!/bin/sh
# Quick end-to-end smoke of the experiments command (make paperbench):
# one figure at radix 12 with the short windows, parallel, persisting
# every result as a JSON artifact. The artifact store lives in a temp
# dir of its own, removed on exit, so every run simulates the figure
# afresh and two checkouts never share a store.
set -eu

GO=${GO:-go}
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

"$GO" run ./cmd/paperbench -radix 12 -short -exp fig5 -jobs 0 -out "$T/artifacts"
