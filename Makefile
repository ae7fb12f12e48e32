# Tier-1 verification gate. `make check` is what CI and pre-merge runs:
# formatting + vet + build (release and `-tags debug` ownership-checked
# variants) + the full test suite under the race detector, so the
# experiment harness's concurrency (internal/par, internal/exp, the
# parallel sweep drivers) is race-checked on every change.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt-check vet build build-debug test race alloc-budget invariants degradation tournament telemetry resilience bench bench-obs bench-kernel bench-kernel-gate bench-e2e bench-pairs paperbench clean

check: fmt-check vet build build-debug race

fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The debug build enables the packet-pool ownership checker (double
# release panics, poisoned freed packets); its tests exercise the
# checker itself.
build-debug:
	$(GO) build -tags debug ./...
	$(GO) test -tags debug ./internal/ib ./internal/fabric ./internal/cc

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation and state budgets (DESIGN.md §9): steady state allocates
# nothing at radix 8 bare and (to within slice growth) at radix 18 with
# moving hotspots and CC on; a generator's flow slots follow its backlog,
# not the fabric's size, and hand out exactly the packets the old
# per-destination table did; the fabric's port structs stay inside their
# byte budgets and building a fabric allocates per node, not per port.
# The flight recorder's share: a disabled bus and one with only the
# aggregate tier on allocate nothing on the forward path, and a run
# carrying just the sampler and the checker builds no per-hop Event.
alloc-budget:
	$(GO) test -count=1 ./internal/core -run 'ZeroAlloc'
	$(GO) test -count=1 ./internal/obs -run 'Allocs'
	$(GO) test -count=1 ./internal/telemetry -run 'BuildsNoPerHopEvents'
	$(GO) test -count=1 ./internal/traffic -run 'Slots|Differential'
	$(GO) test -count=1 ./internal/fabric -run 'PortLayoutBudget|NewAllocatesPerNodeNotPerPort'

# Runtime invariant + differential kernel suite: the internal/check unit
# tests, the reserved-key kernel properties (lazy ≡ eager order, Passed),
# the fabric's on-demand-event tie-breaks against their pre-elision
# golden, the idle-port bypass against push-then-arbitrate and the
# link-armed rule's clauses, the Table II
# wheel-vs-reference-heap trajectory comparison, the chunked-run
# property and the checker × checkpoint/restore composition property
# (run with -count=1 so the corpora always execute), and an end-to-end
# checked run through the paperbench CLI.
invariants:
	$(GO) test -count=1 ./internal/check
	$(GO) test -count=1 ./internal/sim -run 'Reserve|ExplicitKey|Passed'
	$(GO) test -count=1 ./internal/fabric -run 'Tiebreak|EnqueueAtBusyUntil|CreditAtBusyUntil|TwoCredits|ParkedRing|LinkUpWithCredit|RunToExhaustion|CheckLinkArmed|Bypass'
	$(GO) test -count=1 ./internal/core -run 'Kernel|Check|Differential|Chunked|Golden|ComposesWithChecker'
	$(GO) run ./cmd/paperbench -radix 8 -diff-kernel -seeds 2

# Fault-injection smoke: the fault-layer unit suites, then a tiny
# graceful-degradation sweep (2 seeds, zero + nonzero intensity) through
# the paperbench CLI under the invariant checker — end to end over the
# Dropped custody ledger.
degradation:
	$(GO) test -count=1 ./internal/fault ./internal/fabric -run 'Fault|Drop|Link'
	$(GO) test -count=1 ./internal/core -run 'Fault|ZeroIntensity|CCSurvives|Degradation'
	$(GO) run ./cmd/paperbench -radix 8 -degradation /tmp/ibcc-degradation.json \
		-intensities 0,0.6 -seeds 2 -check

# Backend tournament smoke: the tournament unit suite, then a reduced
# bracket (radix 8, 2 seeds, 2 backends, one fault intensity) through
# the paperbench CLI under the invariant checker, rendered back from
# the JSON artifact with cctinspect.
tournament:
	$(GO) test -count=1 ./internal/tournament
	$(GO) test -count=1 ./internal/cc -run 'Backend|RCM|Registry|NoCC|Oracle'
	$(GO) run ./cmd/paperbench -radix 8 -tournament /tmp/ibcc-tournament.json \
		-cc ibcc,nocc -intensities 0.6 -seeds 2 -check
	$(GO) run ./cmd/cctinspect -tournament /tmp/ibcc-tournament.json

# Telemetry smoke: the telemetry unit suite (histogram quantile bounds,
# sampler zero-perturbation, grid and views, span tracker, report schema,
# HTTP server),
# the obs-layer digest-stability guards, then end to end: a short sweep
# with the live dashboard on an ephemeral port, /metrics.json probed
# mid-sweep and after it, the unified run report written and finally
# validated + rendered back with cctinspect (and held to carrying no
# retry count: every simulation runs once). Last, the single-run trace:
# ibccsim with the sampler's CSV and cadence checkpoints on must execute
# exactly the bare run's events and leave a header plus >= 10 rows.
telemetry:
	$(GO) test -count=1 ./internal/telemetry
	$(GO) test -count=1 ./internal/obs -run 'Digest|Telemetry|MsgCompleted'
	$(GO) test -count=1 ./internal/core -run 'Telemetry'
	$(GO) run ./cmd/paperbench -radix 8 -degradation /tmp/ibcc-telemetry-deg.json \
		-intensities 0,0.6 -seeds 1 -serve 127.0.0.1:0 -serve-probe \
		-report /tmp/ibcc-telemetry-report.json
	$(GO) run ./cmd/cctinspect -report /tmp/ibcc-telemetry-report.json
	! grep -q '"retries"' /tmp/ibcc-telemetry-report.json
	rm -rf /tmp/ibcc-trace-ck
	$(GO) run ./cmd/ibccsim -radix 8 -trace /tmp/ibcc-trace.csv -ckpt-every 1ms -ckpt-dir /tmp/ibcc-trace-ck \
		| grep -o 'engine   : [0-9]* events' > /tmp/ibcc-trace-on.txt
	$(GO) run ./cmd/ibccsim -radix 8 | grep -o 'engine   : [0-9]* events' > /tmp/ibcc-trace-off.txt
	cmp /tmp/ibcc-trace-on.txt /tmp/ibcc-trace-off.txt
	head -1 /tmp/ibcc-trace.csv | grep -q '^time_s,' && [ "$$(wc -l < /tmp/ibcc-trace.csv)" -ge 11 ]

# Crash-safety smoke: the checkpoint format + differential restore
# suites (byte-identical continuation), the artifact store's CRC /
# corrupt-artifact quarantine / manifest suite (including the sweep
# cancelled mid-way that must leave a resumable manifest), then the CLI
# story end to end via scripts/resilience_smoke.sh: SIGKILL an in-flight
# checkpointing run (audited with -check, as is its resumption) and a
# sweep, resume both, require identical output and an identical artifact
# set; re-run a -degradation sweep entirely
# from its artifacts. Last, ten seconds of fuzzing the traffic
# generator's snapshot decoder from its seed corpus of hostile blobs.
resilience:
	$(GO) test -count=1 ./internal/ckpt ./internal/fault -run 'Decode|Encode|SaveAtomic|Validate|Keeper|Latest|Cadence|InjectorState'
	$(GO) test -count=1 ./internal/core -run 'Checkpoint'
	$(GO) test -count=1 ./internal/exp -run 'Quarantine|Corrupt|CRC|Manifest'
	sh scripts/resilience_smoke.sh
	$(GO) test -run FuzzGeneratorRestore -fuzz=FuzzGeneratorRestore -fuzztime=10s ./internal/traffic

bench:
	$(GO) test -bench=. -benchmem

# Flight-recorder overhead: BenchmarkBusDisabled must report 0 allocs/op
# (observability costs nothing when off) and so must
# BenchmarkBusAggregates (with only aggregate readers attached a hop
# builds no Event); BenchmarkBusStream is the per-event tier beside them.
bench-obs:
	$(GO) test ./internal/obs -bench=Bus -benchmem

# Event kernel + packet lifecycle: the timing-wheel and pooled-packet
# hot paths, written machine-readably (events/s, allocs, speedup over
# the pinned pre-wheel baseline) to BENCH_kernel.json.
bench-kernel:
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkKernel' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench BenchmarkPacketLifecycle -benchmem
	$(GO) run ./cmd/paperbench -bench-kernel BENCH_kernel.json

# Kernel performance regression gate: the in-tree best-of-N guard test
# against the committed BENCH_kernel.json, then a fresh paperbench
# measurement (reduced budget, best of 3) compared against the same
# committed baseline — either fails on a >10% steady-state regression.
bench-kernel-gate:
	$(GO) test -count=1 -timeout 20m ./internal/core -run TestKernelBenchGuard
	$(GO) run ./cmd/paperbench -bench-kernel /tmp/ibcc-bench-gate.json \
		-bench-events 8000000 -bench-baseline BENCH_kernel.json

# End-to-end ledger: the four benchmark workloads (benchmark/README.md),
# untraced, seed 1, judged against the committed baseline with the
# same-seed gate; non-zero on any metric read `worse` or any failed
# operation. Takes a few minutes.
bench-e2e:
	$(GO) run ./benchmark -out /tmp/ibcc-e2e.json
	$(GO) run ./benchmark -compare benchmark/baseline.json /tmp/ibcc-e2e.json

# Paired end-to-end timing of a parent revision against the working
# tree (scripts/bench_pairs.sh): `make bench-pairs PARENT=HEAD~1
# WORKLOAD=silent_cc_r36 [PAIRS=10]`. About a minute per pair; not part
# of CI — timing on shared runners is advisory.
bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Quick end-to-end smoke: one figure, parallel, with artifacts.
paperbench:
	$(GO) run ./cmd/paperbench -radix 12 -exp fig5 -jobs 0 -out /tmp/ibcc-artifacts

clean:
	$(GO) clean ./...
