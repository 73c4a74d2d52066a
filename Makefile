GO ?= go

.PHONY: all build test test-race check bench microbench fuzz-wire fuzz-json experiments examples fmt vet lines clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# gofmt -l prints the files it would rewrite; any name fails the gate.
# The allocation budgets are run again without -race, under which
# sync.Pool drops items on purpose and the tests skip themselves. The
# crash-recovery torture test, the log-truncation test and the golden
# file of the paper's figures run once more uncached, so a passing
# result is never read from the test cache. The router's cell client
# shares each cell's free list of connections among goroutines, and
# parking and re-driving a cell's applies race with its health, so their
# tests run ten times under -race, and so does the store test whose
# writers share every tracker (a write's lock-free routing pass reads
# forms another writer is republishing), and so do the System tests
# whose queries race engine swaps and whose ingestion must not wait on
# a held configuration mutex (≈ 0.3 s a run together). Every microbenchmark runs once
# (-benchtime 1x, ≈ 12 s), so none of them can rot unseen. Coalescing,
# group commit, admission and the lock stripes interleave only under
# concurrency, which go test -race ./... never drives, so the contended
# benchmarks run once more under -race at -cpu 2, with a bounded count
# (b.N is requests in the served ones and events in
# ConcurrentRecordBatch).
# stqload is read by its exit code alone, and so are the five examples:
# nothing else drives the public facade end to end (privatecounts alone
# reaches the private release path), so a panic there must fail the gate.
# benchmark/ is a module of its own, so the root ./... patterns do not
# reach it; its -quick run drives all five workloads, checks every answer
# against the oracle and writes nothing.
check:
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -count=1 -run 'TestColdQueryAllocBudget|TestHotQueryAllocBudget' ./internal/query
	$(GO) test -count=1 -run 'TestJSONDecodeZeroAllocs' .
	$(GO) test -count=1 -run 'TestCellExchangeAllocBudget' ./internal/cluster
	$(GO) test -count=1 -run 'TestStaticCountNoAllocs' ./internal/core
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -race -cpu 2 -run '^$$' -bench 'BenchmarkServedContended' -benchtime 64x .
	$(GO) test -race -cpu 2 -run '^$$' -bench 'BenchmarkConcurrentRecordBatch' -benchtime 32768x .
	$(GO) test -race -count=10 -run 'TestCellClient' ./internal/cluster
	$(GO) test -race -count=10 -run 'TestConcurrentWritersShareTrackers' ./internal/core
	$(GO) test -race -count=10 -run 'TestConcurrentQueryIngest|TestIngestNeverWaitsOnConfiguration' .
	$(GO) test -race -count=10 -run 'TestClusterKillBetweenApplies|TestClusterRejoinBeforeBatchReturns|TestClusterKeptGroupIsNotAppliedAgain|TestClusterDuplicateApplyCountsOnce|TestClusterIngestAfterCellRestart' .
	$(GO) test -race -count=1 -run 'TestTortureCrashRecovery|TestTruncatedLogRecoversWholeBatches|TestQuickFiguresGolden' ./internal/wal . ./cmd/stqbench
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzClusterFrames -fuzztime=10s -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzSegmentWindow -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzSumSteps -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzJSONRequestBodies -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzWALSegment -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzManifestMaterialize -fuzztime=10s -run '^$$' ./internal/cluster
	$(GO) run ./cmd/stqload -quick
	$(MAKE) examples
	cd benchmark && $(GO) vet . && $(GO) test . && $(GO) run . -quick

# The repository's benchmark (BENCHMARK.json): every workload in full
# mode, results under benchmark/out/. Compare two result files with
# `bash benchmark/run.sh -compare base.json candidate.json`.
bench:
	bash benchmark/run.sh

# Package micro-benchmarks, for measuring while you work.
microbench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Longer fuzz run over the wire decoder (make check runs a 10s smoke).
fuzz-wire:
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=2m -run '^$$' ./internal/wire

# Longer differential run of the JSON request scanner against
# encoding/json (make check runs a 10s smoke).
fuzz-json:
	$(GO) test -fuzz=FuzzJSONRequestBodies -fuzztime=2m -run '^$$' .

experiments:
	$(GO) run ./cmd/stqbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/celltower
	$(GO) run ./examples/trafficflow
	$(GO) run ./examples/placement
	$(GO) run ./examples/privatecounts

fmt:
	gofmt -w .

# The size every change reports: Go lines in files git tracks, outside
# benchmark/, first without the tests and then with them.
lines:
	@printf 'non-test Go lines outside benchmark/: %s\n' "$$(git ls-files -z '*.go' ':!:benchmark/' ':!:*_test.go' | xargs -0 cat | wc -l)"
	@printf 'Go lines outside benchmark/, tests included: %s\n' "$$(git ls-files -z '*.go' ':!:benchmark/' | xargs -0 cat | wc -l)"

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out
