# Tier-1 gate plus vet, autovet, the race detector and shuffled test
# order (order-dependence is a bug) — the full pre-merge check. rtebench
# is a module of its own (root ./... never builds it) that imports the
# internal packages, so it is vetted and tested separately.
check: lint
	go build ./...
	go vet ./...
	go test -race -shuffle=on ./...
	cd rtebench && go vet ./... && go test ./...

# Build and run autovet, the repo's own go/analysis suite (see
# internal/analysis): walltime, nilsafe, baregoroutine, kindswitch,
# detrange, errreport, bounded, e2eflow, lockorder and the //autovet:
# directive validator. Driven through `go vet -vettool` so results are
# cached by the go command like any other vet pass. The first (gating)
# run prints human-readable findings; the second run re-reads the cached
# results as JSON into autovet.json (the CI artifact) and the summary
# table counts findings, allows and bounded/nilsafe markers per
# analyzer.
lint:
	go build -o bin/autovet ./cmd/autovet
	@start=$$(date +%s); \
	go vet -vettool=$(abspath bin/autovet) ./... || exit 1; \
	go vet -vettool=$(abspath bin/autovet) -json ./... > autovet.json 2>&1; \
	bin/autovet summary autovet.json; \
	echo "lint wall time: $$(( $$(date +%s) - start ))s"

test:
	go test ./...

# Verification & DSE pipeline benchmarks (see EXPERIMENTS.md "Performance"),
# with the deployment-scoring rungs: the per-move cost of
# Prepared.EvaluateMove (ns/move) and the PlaceReplicas search; the
# simulation-step rungs: kernel dispatch and schedule+cancel (ns/event),
# the OSEK scheduler (ns/event) and the trace recorder (ns/record); and
# the analysis rungs: per-ECU response-time analysis (ns/task) and CAN
# bus analysis (ns/frame) of the scale-1 vehicle.
# Emits BENCH_pipeline.json (name -> ns/op, allocs/op) alongside the
# human-readable output, then enforces the performance budget: every
# place the code runs in parallel (the E13 availability and E14 observer
# campaigns, the DSEAnnealParallel restarts) reports a paired
# par/seq-ratio within its budget, every BenchmarkVerify size within its
# allocs/op ceiling, the incremental DSE path at least 3x faster than the
# bound sweep's full re-verification, and the always-on flight recorder
# within 5% of recorder-off. The flight
# benchmarks interleave on and off within each iteration and report the
# paired "on/off-ratio" metric benchguard gates — pairing cancels
# shared-runner noise a 5% budget could never be measured under from
# independent samples; -count=2 with benchjson keeping the fastest
# repeat adds slack against a one-off bad run.
bench:
	go test -run '^$$' -bench 'BenchmarkVerify$$|BenchmarkVerifyDSESweep|BenchmarkDSEDescend|BenchmarkDSEAnnealParallel|BenchmarkE13Availability|BenchmarkE14Observer|BenchmarkEvaluateMove|BenchmarkPlaceReplicas' -benchmem . > BENCH_pipeline.txt
	go test -run '^$$' -bench 'BenchmarkPlatformFlight|BenchmarkE11Flight|BenchmarkVerifyFlight' -benchmem -benchtime=2s -count=2 . >> BENCH_pipeline.txt
	go test -p 1 -run '^$$' -bench '^(BenchmarkKernelThroughput|BenchmarkKernelCancel|BenchmarkScheduler|BenchmarkRecorderAdd|BenchmarkRTA|BenchmarkAnalyze)$$' -benchmem ./internal/sim ./internal/osek ./internal/trace ./internal/sched ./internal/can >> BENCH_pipeline.txt
	go run ./cmd/benchjson -o BENCH_pipeline.json < BENCH_pipeline.txt
	go run ./cmd/benchguard -bench BENCH_pipeline.json

# Old-vs-new benchmark comparison against the committed baseline: rerun
# the pipeline benchmarks, print the benchstat-style delta table, and
# apply the same budget. CI uploads the table as a PR artifact. The
# baseline ref defaults to HEAD (right for a local pre-commit run, where
# HEAD still holds the previous artifact); CI points it at the PR base.
BENCH_BASEREF ?= HEAD
bench-compare:
	git show $(BENCH_BASEREF):BENCH_pipeline.json > BENCH_baseline.json
	$(MAKE) bench
	go run ./cmd/benchguard -bench BENCH_pipeline.json -old BENCH_baseline.json > BENCH_compare.txt || { cat BENCH_compare.txt; exit 1; }
	cat BENCH_compare.txt

# The complete benchmark suite (E1-E13 harness + platform + pipeline).
bench-all:
	go test -run '^$$' -bench . -benchmem ./...

# Differential fuzzing, each target under its own bounded budget:
# FuzzFaultSweep holds the fail-operational sweep to its reference and
# the delta scorer to full scoring under random fault models;
# FuzzCostFirst holds cost-first move scoring and the Descend/Anneal
# loops to their score-everything references; FuzzFirstFit holds the
# Greedy/Place first-fit packer to the mapping-scan reference packers;
# FuzzReverify holds
# incremental re-verification after random mapping changes to a fresh
# Verify and to the reference derivation; FuzzRank holds the priority
# ranking to the reference comparator; FuzzIPdu holds the in-place signal
# bit walk, Pack and Unpack to the reference walk on random layouts and
# payloads; FuzzKernel holds the typed-heap, free-list kernel to the
# container/heap reference on random schedule/cancel/run programs;
# FuzzReceiverCheck holds the E2E receiver's input boundary to its
# properties (no panic on any bytes, a freshly protected payload checks
# OK, any one corrupted byte does not); FuzzImport holds the template
# importer's input boundary to its properties (no panic on any bytes, an
# export of an imported system imports again to the same export). The
# committed corpus under each package's testdata/fuzz runs first; a
# failure leaves the minimized input there, to be committed as a
# regression seed. -fuzzminimizetime=100x caps minimization at 100 execs
# per input: at the default 60 s, minimizing one new-coverage input
# could take a whole 10 s budget (on a 2-vCPU VM with an empty fuzz
# cache, FuzzCostFirst ran 30 inputs in 10 s without the cap and 3706
# with it). Crashers are still reported; only their minimization is
# shorter.
fuzz:
	go test -run '^$$' -fuzz '^FuzzFaultSweep$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/deploy
	go test -run '^$$' -fuzz '^FuzzCostFirst$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/deploy
	go test -run '^$$' -fuzz '^FuzzFirstFit$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/deploy
	go test -run '^$$' -fuzz '^FuzzReverify$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/core
	go test -run '^$$' -fuzz '^FuzzRank$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/taskset
	go test -run '^$$' -fuzz '^FuzzIPdu$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/com
	go test -run '^$$' -fuzz '^FuzzKernel$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/sim
	go test -run '^$$' -fuzz '^FuzzReceiverCheck$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/e2eprot
	go test -run '^$$' -fuzz '^FuzzImport$$' -fuzztime=10s -fuzzminimizetime=100x -parallel 2 ./internal/model

# Fault-injection smoke suite: the systematic campaign, the escalation
# ladder, the graceful-degradation experiments and the fail-operational
# availability studies (E13/E14) with the replica fail-over/fail-back
# runtime and the observer quorum, under the race detector (the campaign
# runner fans scenarios out across workers).
chaos:
	go test -race -run 'Campaign|Escalation|LimpHome|Debounce|Supervision|Coverage|E12|E13|E14|FailOver|FailBack|Quorum|KillECU|Ladder|Switchover|ResetECUDemotes' \
		./internal/fault ./internal/health ./internal/experiments ./internal/rte

# Observability smoke: simulate the demo vehicle with the always-on
# flight recorder and a 20ms virtual-time sampler, cut an end-of-run
# diagnostic bundle, and drive the autodiag subcommands over it.
diag:
	go run ./cmd/autosim -demo -horizon 500ms -sample 20ms -bundle DIAG_demo.bundle > /dev/null
	go run ./cmd/autodiag summary DIAG_demo.bundle
	go run ./cmd/autodiag dlt -min info DIAG_demo.bundle > /dev/null
	go run ./cmd/autodiag metrics DIAG_demo.bundle > /dev/null
	go run ./cmd/autodiag series -grep sim_events DIAG_demo.bundle > /dev/null
	go run ./cmd/autodiag chrome -o DIAG_demo.trace.json DIAG_demo.bundle

.PHONY: check lint test bench bench-compare bench-all fuzz chaos diag
