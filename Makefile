GO ?= go

.PHONY: all build test race vet bench bench-json bench-gate clean test-faults test-resume test-fabric test-netchaos test-thermal test-batch test-perfbench fuzz-qp reach check

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep engine's concurrency guarantees run under the race detector;
# everything else gets the plain run (race-instrumenting the full MPC
# suite takes too long for a default target).
race:
	$(GO) test -race ./internal/runner/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Machine-readable benchmark snapshot: the sweep-engine scaling benches,
# the co-simulation hot-path benches, JournalAppend (one fleet
# commute's journal record, encoded and written) and FuzzyEvaluate (one
# compiled inference of the fuzzy baseline's rule base on settled-cabin
# inputs), parsed into BENCH_sweep.json so regressions diff across commits. The telemetry pair (RunOnOff vs
# RunOnOffTelemetry) bounds the observability overhead. The second
# snapshot, BENCH_solver.json, covers the MPC solve path — the cold/warm
# pair (QPInteriorPoint vs ...Warm) bounds the workspace-reuse win,
# QPColdFixture times the pinned deep-cold MPC subproblem on the stage
# recursion, the MPCSolveStep pair's qpiters/op and capped/op columns
# carry the host-independent work of a decide (interior-point iterations
# and QPs that ended at their iteration cap). The pair times the two
# kinds of decide: MPCSolveStep's hot steady state meets the comfort
# band, so it times a carried decide (two SQP iterations from the
# shifted plan and curvature), and MPCSolveStepThermal's deep-cold plan
# leans on its comfort slack, so it times a seeded full solve. KKTFactor
# and KKTSolve (internal/qp) split one interior-point iteration's KKT
# work into the factorization and one Newton-step solve at the cold
# fixture's final iterate, and the -benchmem allocs/op column pins the allocation-free
# hot path. The solver benches run single-threaded (-cpu 1): the decide
# path is, and the committed snapshot is taken at GOMAXPROCS=1. They run
# five times (-count 5), and benchjson keeps each metric's median, so one
# slow run on a shared host does not land in the snapshot.
#
# Both snapshots come from one bench set each, which bench-gate reruns
# whole (with a longer -benchtime, the $(1) of the calls below), so a
# gate run rewrites a snapshot with every entry bench-json writes.
sweep_benches = { $(GO) test -run '^$$' -bench 'Sweep16|SweepScalar|SweepBatch|CoSimOnOff|JournalAppend' -benchmem $(1) . ; \
	  $(GO) test -run '^$$' -bench 'Forecast|RunOnOff' -benchmem $(1) ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'FuzzyEvaluate' -benchmem $(1) ./internal/fuzzy ; }
solver_benches = { $(GO) test -run '^$$' -bench 'MPCSolveStep|QPInteriorPoint|QPStructured|QPColdFixture|SQPSolveWarm' -benchmem -cpu 1 -count 5 $(1) . ; \
	  $(GO) test -run '^$$' -bench 'KKTFactor|KKTSolve' -benchmem -cpu 1 -count 5 $(1) ./internal/qp ; }

bench-json:
	$(call sweep_benches,) | $(GO) run ./cmd/benchjson -o BENCH_sweep.json
	$(call solver_benches,) | $(GO) run ./cmd/benchjson -o BENCH_solver.json

# Solver-path regression gate: rerun the solver benches and fail (exit 1)
# when the ns/op of BenchmarkMPCSolveStep or its co-scheduling
# counterpart BenchmarkMPCSolveStepThermal regresses more than 15 %
# against the committed BENCH_solver.json — the backstop that keeps the
# stage recursion's ≥10× win from eroding silently at either decision
# stride — or when either bench's qpiters/op or capped/op rises above
# the snapshot's: those work counts are exact on any host, so they
# catch a solver change that does more work even where ns/op is noise. Like the snapshot, the gate runs at GOMAXPROCS=1 (-cpu 1)
# and five times per bench (-count 5), and compares the median run. On
# pass, the snapshot is rewritten in place so `git diff
# BENCH_solver.json` shows the drift; the KKT layer benches run too, so
# the rewritten snapshot keeps them. The 3 s benchtime
# matches how the committed snapshot was produced; short runs are too
# noisy to gate at 15 % on shared CI hardware.
#
# The second gate reruns the sweep benches and fails when the batched
# sweep throughput bench (BenchmarkSweepBatch, the fix for the
# non-scaling parallel sweep) regresses more than 35 % in ns/op — wider
# than the solver tolerance because whole-sweep wall-clock on shared
# runners swings far more than a single solve step.
bench-gate:
	$(call solver_benches,-benchtime 3s) | $(GO) run ./cmd/benchjson -gate BENCH_solver.json \
	  -gate-bench 'BenchmarkMPCSolveStep,BenchmarkMPCSolveStepThermal' -o BENCH_solver.json
	$(call sweep_benches,-benchtime 3s) | $(GO) run ./cmd/benchjson -gate BENCH_sweep.json \
	  -gate-bench 'BenchmarkSweepBatch' -gate-tol 0.35 -o BENCH_sweep.json

# Fault-injection and observability conformance under the race detector:
# the injector and supervisor unit tests, the telemetry registry/trace
# suite, the fault-axis and telemetry worker-count determinism proofs,
# the golden manifest, and the closed-loop safety property / ladder
# golden. The long fault-conformance sweep (TestFaultConformance) is
# excluded via -short where it self-skips.
test-faults:
	$(GO) test -race ./internal/faults/... ./internal/control/... ./internal/sqp/... ./internal/telemetry/...
	$(GO) test -race -short -run 'Fault|Telemetry|GoldenManifest' ./internal/runner/...
	$(GO) test -race -run 'TestSupervised' ./internal/sim/...

# Crash-safety suite under the race detector: journal WAL round-trip,
# torn-tail tolerance, the SIGKILL kill-and-resume byte-identity proof,
# watchdog/retry, mid-job checkpoint resume, the sim-level
# checkpoint bit-exactness property, the state round trips of the MPC's
# solver counters, the supervisor's ladder and the BMS's cycle
# statistics, and the evbench exit-code contract — plus short fuzz
# smokes of the journal parser and of the packed-trace decoder (the file
# a crashed process leaves behind, a checkpoint and the fabric's wire
# are untrusted input).
test-resume:
	$(GO) test -race -run 'Journal|Watchdog|Retry|Backoff|Checkpoint|Kill' ./internal/runner/...
	$(GO) test -run 'Checkpoint|Restore' ./internal/sim/...
	$(GO) test -run 'StateRoundTrip' ./internal/core/... ./internal/control/... ./internal/bms/...
	$(GO) test ./cmd/evbench/...
	$(GO) test -fuzz=FuzzParseJournal -fuzztime=10s ./internal/runner/
	$(GO) test -run '^$$' -fuzz='^FuzzTraceText$$' -fuzztime=10s ./internal/sim/

# Distributed-fabric suite under the race detector: the sharding /
# lease / quarantine unit tests, the topology byte-identity proof
# (1 and 3 workers vs single-process), the chaos test (subprocess
# workers, SIGKILL one mid-run, restart the coordinator from its
# journal), and the evbench -serve/-join CLI round trip.
test-fabric:
	$(GO) test -race ./internal/fabric/...
	$(GO) test -run 'ServeJoin' ./cmd/evbench/

# Network-chaos suite under the race detector: the seeded fault
# transport/proxy unit tests, the transport-hardening regressions (body
# caps, payload checksums, idempotent completion, flap breaker, the
# per-call deadline that unsticks black-holed workers), the spilling
# record store's bounded-memory proof and journal resume, and the chaos matrix — every seeded fault
# schedule must stitch byte-identical artifacts to a single-process
# run. The explicit -timeout leaves headroom over the injected delays
# and black-hole windows on slow shared runners.
test-netchaos:
	$(GO) test -race -timeout 10m ./internal/netchaos/...
	$(GO) test -race -timeout 10m -run 'NetChaos|Complete|FlapBreaker|CallDeadline|SpillStore|SpillingCoordinator|MemStore|DuplicateCompletion' ./internal/fabric/

# Cold-climate thermal suite: the battery thermal network and heat-pump
# unit tests, depot preconditioning, the Arrhenius, cycle-stress and
# calendar aging factors, the co-scheduling MPC extension (stage-vs-one-stage
# equivalence on the enlarged stage problem), and the sim-level thermal
# integration — end-to-end cold runs, checkpoint bit-exactness with
# thermal state, and the bitwise trajectory golden.
test-thermal:
	$(GO) test ./internal/thermal/... ./internal/charging/...
	$(GO) test -run 'Thermal|Calendar|CycleStress' ./internal/battery/... ./internal/core/... ./internal/sim/...
	$(GO) test -run 'Cold' ./internal/experiments/...

# Coverage-guided fuzzing of the QP interior-point solver: one-stage
# 2-variable problems (FuzzSolve) and the stage Riccati recursion
# (FuzzStageKKT — ill-conditioned, non-SPD and degenerate stage QPs, each
# solved in its stage layout and in its one-stage form: no panic,
# Optimal only with a finite X, a problem without an equality pivot
# failing cleanly; go test fuzzes one target per invocation, so the two
# run back to back).
fuzz-qp:
	$(GO) test -fuzz='^FuzzSolve$$' -fuzztime=1m ./internal/qp/
	$(GO) test -fuzz='^FuzzStageKKT$$' -fuzztime=1m ./internal/qp/

# Batched-execution suite: the lane-group controller tests, the fused
# integrator's RK4 oracle, the sim-level lane-independence properties
# (lane i of an N-lane batch is bit-identical to the 1-lane run of its
# config across controllers × cycles × batch sizes, fault injection,
# and mixed thermal/cabin-only lanes; checkpoint/resume on batch
# boundaries), and the pool's batch planning / sweep-equivalence tests
# under the race detector — plain and under journal, record-streaming,
# retry, and watchdog options, a failing lane splitting its unit, and a
# multi-lane drain-and-resume from checkpoints.
test-batch:
	$(GO) test -run 'Batch|IntegrateLanes' ./internal/control/... ./internal/sim/...
	$(GO) test -race -run 'Batch|PlanUnits' ./internal/runner/...

# The benchmark harness is its own module (perfbench/go.mod), so
# ./... from the root never compiles it: vet and test it explicitly so
# an API change it depends on (sim.NewBatch, control.Batch, ...) fails
# the gate instead of the next benchmark run.
test-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Reachability gate: build every binary under cmd/ and examples/ plus
# the perfbench module with inlining off, log, grouped by package, each
# function or method under internal/ that no binary links, and fail on
# one that reach_test.go's reachAllowed does not name (with the tests
# that share it), or on an allowlist entry that is linked or gone.
reach:
	$(GO) test -tags reach -run '^TestReach$$' -count=1 -v .

# Pre-merge gate: full build + vet + tests, fault, crash-safety,
# distributed-fabric, network-chaos, cold-climate thermal, and
# batched-execution suites, the benchmark module's vet + tests, the
# reachability gate, and short fuzz smokes of the QP solver and the
# journal parser.
check: all test-faults test-resume test-fabric test-netchaos test-thermal test-batch test-perfbench reach
	$(GO) test -fuzz='^FuzzSolve$$' -fuzztime=10s ./internal/qp/
	$(GO) test -fuzz='^FuzzStageKKT$$' -fuzztime=10s ./internal/qp/
