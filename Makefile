# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; `make bench` emits the -benchmem record as JSON so every PR can
# append to the perf trajectory (see DESIGN.md §3).

GO      ?= go
BENCH_OUT ?= bench.json

.PHONY: all build vet test race bench bench-hot bench-smoke bench-tree bench-transport bench-wire bench-gate bench-e2e golden loc fuzz-smoke check docs-check

# The committed perf record the bench-gate compares against: one file,
# updated in place by a perf PR (BENCH_pr*.json are the per-PR history).
BENCH_BASELINE ?= BENCH_baseline.json

all: vet build test

# The full local gate: everything CI runs, in one target. go vet is the
# de-flake guard — it must stay both here and in CI.
check: vet build test race fuzz-smoke bench-smoke docs-check

# The docs gate (CI runs it as its own job): the README must exist —
# doc.go points at it — and the tree must be gofmt-clean and vet-clean so
# pkgsite/godoc render what we think they render. It also holds the one
# dependency the docs promise is gone: nothing in the module may pull
# net/rpc (and its reflective call path) back in. And the daemons' signal
# handling stays in one place: internal/daemon owns SIGINT/SIGTERM, so a
# signal.NotifyContext under cmd/ is a second stop path. And there is one
# concurrent work-stealing runtime, the worker's goroutine shard engine:
# internal/p2p is the deterministic ring only, so a go statement or a chan
# type in its non-test code is a second one coming back. And the worker
# has one multicore engine with two schedulers (DESIGN.md §7): a second
# Remaining() interval.Interval method in internal/worker's non-test code
# is a second fold implementation coming back. And a single resolution is
# a job table with one job (DESIGN.md §13): a farmer.New or farmer.Restore
# call in the simulator's or the chaos harness's non-test code is a second
# kind of root coming back.
docs-check:
	@test -f README.md || { echo "docs-check: README.md is missing (doc.go references it)"; exit 1; }
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "docs-check: gofmt -l flags:"; echo "$$out"; exit 1; fi
	@if $(GO) list -deps ./... | grep -qx 'net/rpc'; then echo "docs-check: net/rpc is a dependency again (go list -deps ./...)"; exit 1; fi
	@if grep -rn 'signal\.NotifyContext' cmd; then echo "docs-check: signal handling belongs to internal/daemon (daemon.Run, daemon.SignalContext), not cmd/"; exit 1; fi
	@if find internal/p2p -name '*.go' ! -name '*_test.go' | xargs grep -nE '^[[:space:]]*go[[:space:]]|\<chan\>' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then echo "docs-check: internal/p2p is the deterministic ring; concurrent peers run on the worker's shard engine (gridbb.SolveP2P)"; exit 1; fi
	@if find internal/gridsim internal/harness -name '*.go' ! -name '*_test.go' | xargs grep -nE 'farmer\.(New|Restore)\(' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then echo "docs-check: gridsim and the harness build their roots through a jobs.Table (one job per single resolution), never farmer.New or farmer.Restore"; exit 1; fi
	@folds="$$(find internal/worker -name '*.go' ! -name '*_test.go' | xargs grep -nE '^func \([^)]*\) Remaining\(\) interval\.Interval')"; if [ "$$(echo "$$folds" | grep -c .)" -gt 1 ]; then echo "$$folds"; echo "docs-check: internal/worker has one multicore engine (shardEngine, two schedulers); a second Remaining is a second fold"; exit 1; fi
	$(GO) vet ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrent runtime (farmer monitor, p2p ring, gridbb workers) under
# the race detector; CI runs this as its own job.
race:
	$(GO) test -race ./...

# Full benchmark sweep as a JSON event stream (one test2json object per
# line; the BenchmarkResult lines carry ns/op, B/op and allocs/op).
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime 1s . > $(BENCH_OUT)
	@echo "benchmark record written to $(BENCH_OUT)"

# The two hot-loop benchmarks the perf acceptance gates watch, and the
# bounding call they spend their time in.
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkTable1EngineThroughput|BenchmarkExplorerInteriorStep|BenchmarkBoundChild' -benchmem -benchtime 2s -count 3 .

# The hierarchical-farmer throughput record (flat vs 2-level tree, plus
# root-cost flatness in the subtree count). ns/op is aggregate: read the
# flat-vs-tree ratio on a multicore box — on one core both topologies
# serialize and only the root-flatness rows are meaningful (BENCH_pr5.json).
bench-tree:
	$(GO) test -run '^$$' -bench BenchmarkFarmerTreeThroughput -benchmem -benchtime 1s -count 2 .

# The hardening overhead record (DESIGN.md §10): raw vs hardened transport
# over loopback. The bar is hardened within 5% of raw; the hardened row's
# absolute cost is held by bench-gate against $(BENCH_BASELINE).
bench-transport:
	$(GO) test -run '^$$' -bench BenchmarkHardenedCallOverhead -benchmem -benchtime 1s -count 5 .

# The wire record (DESIGN.md §11): bytes and latency per steady-state
# fold through a counting TCP proxy, plus the hardened-call overhead the
# codec must not regress. Both bars — wire-B/fold and the per-call ns/op
# and allocs/op — are the $(BENCH_BASELINE) rows bench-gate holds.
bench-wire:
	$(GO) test -run '^$$' -bench 'BenchmarkWireBytesPerFold|BenchmarkHardenedCallOverhead' -benchmem -benchtime 1s -count 3 .

# The CI perf gate (DESIGN.md §12): the protocol-hot benchmarks — wire
# fold, hardened loopback call, single-farmer request, multi-tenant
# job-table request, durable snapshot write — and the engine's two hot loops (node throughput and the
# interior step, which must stay at 0 allocs/op) with the one bounding call
# under them (BoundChild, per bound family), three repetitions each,
# best-of compared by cmd/benchgate against the gate section of
# $(BENCH_BASELINE); fails on a regression beyond the record's allowance.
# Deterministic metrics (wire-B/fold, file-B, allocs/op) hold across
# hosts; ns/op is host-relative, hence the percentage allowance.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkWireBytesPerFold|BenchmarkHardenedCallOverhead|BenchmarkFarmerRequestThroughput|BenchmarkJobTableRequestThroughput|BenchmarkCheckpointSave|BenchmarkTable1EngineThroughput|BenchmarkExplorerInteriorStep|BenchmarkBoundChild' -benchmem -benchtime 1s -count 3 . | $(GO) run ./cmd/benchgate -baseline $(BENCH_BASELINE)

# The hostile-input fuzzers, briefly: the corpus seeds plus a few seconds
# of fresh mutation on every gate run, so the invariants cannot silently
# rot between dedicated fuzzing sessions. Four frontiers: the coordinator
# boundary (no panic, INTERVALS stays a partition fragment, rejections are
# counted), the multi-tenant job boundary (hostile job tags and cross-job
# intervals land in rejection counters, the partition invariant holds per
# job), the wire codec (no panic or over-read on arbitrary
# frames; decoded frames re-encode canonically), and the checkpoint
# snapshot parser (arbitrary on-disk bytes either load cleanly or fail
# with ErrCorrupt — never panic, never a silently wrong snapshot). The
# fifth is not about hostile input: the engines' one bounding call,
# BoundChild, held to its definition on fuzzer-written walks over every
# domain (DESIGN.md §2). go test runs one fuzz target per invocation,
# hence the separate lines.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCoordinatorBoundary$$' -fuzztime 10s ./internal/farmer
	$(GO) test -run '^$$' -fuzz '^FuzzJobBoundary$$' -fuzztime 10s ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzBoundChild$$' -fuzztime 10s ./gridbb

# Every benchmark exactly once: not a measurement, a compile-and-run guard
# so bench_test.go cannot bit-rot between perf PRs. CI runs this on every
# push (BenchmarkFarmerTreeThroughput included, so the tree record cannot
# bit-rot either), and the race job runs the full test suite — the
# chaos scenarios included (tree-churn, ring-restart, and the disk-fault
# schedules in farmer-failover and multi-job-churn) — under the race
# detector.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The end-to-end perf ledger (bench/README.md): BENCHMARK.json's command —
# every named workload untraced then traced, each checked against its
# pinned answer. Results land in bench/out/.
bench-e2e:
	bash bench/run.sh

# Regenerate the committed goldens — the chaos harness's scenario traces
# (internal/harness/testdata/*.trace) and the simulator's pinned counts
# (internal/gridsim/testdata/*.golden) — from the current behaviour. A
# behaviour-preserving change never needs this: `go test` diffs against
# them, and a refactor is done when they hold unchanged.
golden:
	$(GO) test ./internal/harness ./internal/gridsim -run Golden -update

# Comment-free, blank-free, non-test Go lines: the size the simplicity
# rounds are measured in (ROADMAP.md aim 2). bench/ is the measuring
# instrument, not the system, and is left out of the total.
LOC = xargs cat | grep -cvE '^\s*(//|$$)'
loc:
	@echo "internal/flowshop  $$(find internal/flowshop -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/qap       $$(find internal/qap -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/core      $$(find internal/core -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/bb        $$(find internal/bb -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/harness   $$(find internal/harness -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/gridsim   $$(find internal/gridsim -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/transport $$(find internal/transport -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/farmer    $$(find internal/farmer -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/worker    $$(find internal/worker -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/jobs      $$(find internal/jobs -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/p2p       $$(find internal/p2p -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "internal/daemon    $$(find internal/daemon -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "gridbb             $$(find gridbb -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "cmd                $$(find cmd -name '*.go' ! -name '*_test.go' | $(LOC))"
	@echo "whole tree         $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | $(LOC))"
