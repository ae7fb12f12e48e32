# Tier-1 verification gate. `make check` is what CI and pre-merge runs:
# formatting + vet + build (release and `-tags debug` ownership-checked
# variants) + the full test suite under the race detector, so the
# experiment harness's concurrency (internal/par, internal/exp, the
# parallel sweep drivers) is race-checked on every change.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt-check vet build build-debug test race examples alloc-budget invariants faults telemetry resilience bench bench-obs bench-kernel bench-kernel-gate bench-e2e bench-pairs paperbench clean

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

# Every example under examples/ built and run to completion (about 10 s
# together); a failing example fails the target.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

# Allocation and state budgets (DESIGN.md §9): steady state allocates
# nothing at radix 8 bare and (to within slice growth) at radix 18 with
# moving hotspots and CC on; a generator's flow slots follow its backlog,
# not the fabric's size, and hand out exactly the packets the old
# per-destination table did; the fabric's port structs stay inside their
# byte budgets, building a fabric allocates per node, not per port, and
# its VoQ slab holds a header per real port and lane (69,984 at radix
# 36), no power-of-two padding.
# The flight recorder's share: a disabled bus and one with only the
# aggregate tier on allocate nothing on the forward path, a run
# carrying just the sampler and the checker builds no per-packet Event,
# and the radix-18 moving-CC run keeps its budget with both attached
# (TestObservedMovingCCZeroAllocAtRadix18, matched by 'ZeroAlloc');
# the bus's port table is sized once, when the fabric attaches it, and
# a row keeps a hop's fields in one cache line; a sampler keeps a whole
# 1,200-bin run in one growing slice of rows, a dozen allocations
# (TestSamplerKeepsWholeRun), while a sweep hub's per-run reader keeps
# no rows and allocates nothing per bin (TestHubReaderAllocs). A run allocates per
# slab, not per object: a whole radix-12 Table II CC-on run and 1 ms at
# radix 36 stay under a fixed count (packets, events and pooled actions
# carved from doubling chunks), Build grows by fewer allocations than
# the hosts it adds from radix 12 to 36 and at radix 36 allocates under
# 3.5 MiB, below the runtime's 4 MiB minimum heap goal, so it starts no
# collection of its own (TestBuildStaysUnderMinHeapGoal), and under the debug tag a
# chunk-carved packet keeps the ownership rules while a restore-built
# one is still adopted.
alloc-budget:
	$(GO) test -count=1 ./internal/core -run 'ZeroAlloc|PerSlab|MinHeapGoal'
	$(GO) test -count=1 ./internal/slab
	$(GO) test -count=1 ./internal/obs -run 'Allocs|TableOnce|PortCountersLayout'
	$(GO) test -count=1 ./internal/telemetry -run 'BuildsNoPerHopEvents|KeepsWholeRun|HubReader'
	$(GO) test -count=1 ./internal/traffic -run 'Slots|Differential'
	$(GO) test -count=1 ./internal/fabric -run 'PortLayoutBudget|NewAllocatesPerNodeNotPerPort|VoQSlabHoldsRealPortsOnly'
	$(GO) test -count=1 -tags debug ./internal/ib -run 'ChunkCarved|RestoreBuilt'

# Runtime invariant + differential kernel suite: the internal/check unit
# tests, the FEL-order probe — which lives in the kernel's run loops —
# on legal and illegal key sequences, a mis-ordering mutant kernel and
# across runs, the reserved-key kernel properties (lazy ≡ eager order, Passed),
# the fabric's on-demand-event tie-breaks against their pre-elision
# golden, the idle-port bypass against push-then-arbitrate and the
# link-armed rule's clauses, the Table II
# wheel-vs-reference-heap trajectory comparison, the chunked-run
# property and the checker × checkpoint/restore composition property
# (run with -count=1 so the corpora always execute), then end to end
# through the paperbench CLI: the differential kernel check and a
# checked parameter scan.
invariants:
	$(GO) test -count=1 ./internal/check
	$(GO) test -count=1 ./internal/sim -run 'KernelOrderProbe|Reserve|ExplicitKey|Passed'
	$(GO) test -count=1 ./internal/fabric -run 'Tiebreak|EnqueueAtBusyUntil|CreditAtBusyUntil|TwoCredits|ParkedRing|LinkUpWithCredit|RunToExhaustion|CheckLinkArmed|Bypass'
	$(GO) test -count=1 ./internal/core -run 'Kernel|Check|Differential|Chunked|Golden|ComposesWithChecker'
	$(GO) run ./cmd/paperbench diff-kernel -radix 8 -short -seeds 2
	$(GO) run ./cmd/paperbench scan -radix 8 -short -scan threshold -check

# Fault-injection smoke: the fault-layer unit suites, then one faulted
# run — EXPERIMENTS.md's hand-written plan, a link flap plus CNP and
# data loss — through the ibccsim CLI under the invariant checker, end
# to end over the Dropped custody ledger (scripts/faults_smoke.sh, in a
# temp dir of its own).
faults:
	$(GO) test -count=1 ./internal/fault ./internal/fabric -run 'Fault|Drop|Link'
	$(GO) test -count=1 ./internal/core -run 'Fault|ZeroIntensity|CCSurvives'
	sh scripts/faults_smoke.sh

# Telemetry smoke: the telemetry unit suite (histogram quantile bounds,
# sampler zero-perturbation, grid and views, span tracker and its
# progress line, report schema), the obs-layer digest-stability guards,
# then end to end via scripts/telemetry_smoke.sh, in a temp dir of its
# own: a short sweep's JSON progress lines and unified run report, the
# single-run trace, whose cadence checkpoints must not change the bare
# run's event count, and a 600-bin run whose CSV and -telemetry line
# both keep every bin.
telemetry:
	$(GO) test -count=1 ./internal/telemetry
	$(GO) test -count=1 ./internal/obs -run 'Digest|Telemetry|MsgCompleted'
	$(GO) test -count=1 ./internal/core -run 'Telemetry'
	sh scripts/telemetry_smoke.sh

# Crash-safety smoke: the checkpoint format + differential restore
# suites (byte-identical continuation), the artifact store's CRC /
# corrupt-artifact quarantine suite (including the sweep cancelled
# mid-way whose finished artifacts a re-run resumes from), then the CLI
# story end to end via scripts/resilience_smoke.sh: SIGKILL an in-flight
# checkpointing run (audited with -check, as is its resumption) and a
# sweep, resume both, require identical output and an identical artifact
# set (the store suite's round trip covers a faulted run's artifact).
# Last, ten seconds each of fuzzing the traffic generator's snapshot
# decoder, the fabric's state restore (FuzzFabricRestore: refused, or
# restored and re-exported to the identical canonical blob), the
# artifact store's lookup and the run-report validator from their seed
# corpora of hostile blobs. The fabric, lookup and report fuzzers cap
# input minimization at 100 runs: their seeds are kilobyte-sized
# documents, and the default 60 s minimization of the
# first new input would eat the whole ten seconds.
resilience:
	$(GO) test -count=1 ./internal/ckpt ./internal/fault -run 'Decode|Encode|SaveAtomic|Validate|Keeper|Latest|Cadence|InjectorState'
	$(GO) test -count=1 ./internal/core -run 'Checkpoint'
	$(GO) test -count=1 ./internal/exp -run 'Quarantine|Corrupt|CRC|Cancelled'
	sh scripts/resilience_smoke.sh
	$(GO) test -run FuzzGeneratorRestore -fuzz=FuzzGeneratorRestore -fuzztime=10s ./internal/traffic
	$(GO) test -run FuzzFabricRestore -fuzz=FuzzFabricRestore -fuzztime=10s -fuzzminimizetime=100x ./internal/fabric
	$(GO) test -run FuzzStoreLookup -fuzz=FuzzStoreLookup -fuzztime=10s -fuzzminimizetime=100x ./internal/exp
	$(GO) test -run FuzzValidateReport -fuzz=FuzzValidateReport -fuzztime=10s -fuzzminimizetime=100x ./internal/telemetry

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
	$(GO) run ./cmd/paperbench bench-kernel BENCH_kernel.json

# Kernel performance regression gate against the committed
# BENCH_kernel.json, each quantity checked once: TestKernelBenchGuard
# times the wheel against the reference heap in one process and fails
# when their ratio exceeds the committed one by >10%, so it holds on any
# host; TestLifecycleEventsPerPacket fails on any rise in the packet
# lifecycle's events per packet, an exact count.
bench-kernel-gate:
	$(GO) test -count=1 -timeout 20m ./internal/core -run TestKernelBenchGuard
	$(GO) test -count=1 ./cmd/paperbench -run TestLifecycleEventsPerPacket

# End-to-end ledger: the four benchmark workloads (benchmark/README.md),
# untraced, seed 1, judged against the committed baseline with the
# same-seed gate; non-zero on any metric read `worse` or any failed
# operation. Takes a few minutes. The result goes to the git-ignored
# .bench_build/e2e.json, which CI uploads.
bench-e2e:
	mkdir -p .bench_build
	$(GO) run ./benchmark -out .bench_build/e2e.json
	$(GO) run ./benchmark -compare benchmark/baseline.json .bench_build/e2e.json

# Paired end-to-end timing of a parent revision against the working
# tree (scripts/bench_pairs.sh): `make bench-pairs PARENT=HEAD~1
# WORKLOAD=silent_cc_r36 [PAIRS=10]`. About a minute per pair; not part
# of CI — timing on shared runners is advisory.
bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Quick end-to-end smoke: one figure, parallel, with artifacts in a
# temp dir of its own (scripts/paperbench_smoke.sh).
paperbench:
	sh scripts/paperbench_smoke.sh

clean:
	$(GO) clean ./...
