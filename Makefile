GO ?= go

.PHONY: all build test test-race check bench bench-json bench-faults bench-obs bench-concurrent bench-wal bench-history bench-partition bench-cluster bench-serve bench-wire fuzz-wire experiments examples fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The gated smokes write their -quick numbers to a scratch directory and
# are gated from there: the committed BENCH_*.json hold full-mode runs
# (make bench-partition, bench-cluster, bench-wire, bench-serve), which a
# smoke must not overwrite. benchmark/ is a module of its own, so the
# root ./... patterns do not reach it.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestTortureCrashRecovery' ./internal/wal
	$(GO) run ./cmd/stqbench -faults -quick -faults-out ""
	$(GO) run ./cmd/stqbench -obs -quick -obs-out ""
	$(GO) run ./cmd/stqbench -concurrent -quick -concurrent-out ""
	$(GO) run ./cmd/stqbench -wal -quick -wal-out ""
	$(GO) run ./cmd/stqbench -history -quick -history-out ""
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s -run '^$$' ./internal/wire
	out=$$(mktemp -d) && \
	$(GO) run ./cmd/stqbench -partition -quick -partition-out $$out/partition.json && \
	$(GO) run ./cmd/stqbench -cluster -quick -cluster-out $$out/cluster.json && \
	$(GO) run ./cmd/stqbench -wire -quick -wire-out $$out/wire.json && \
	$(GO) run ./cmd/stqload -quick -out $$out/serve.json && \
	$(GO) run ./cmd/benchjson -gates $$out/serve.json $$out/partition.json $$out/cluster.json $$out/wire.json && \
	rm -rf $$out
	cd benchmark && $(GO) vet . && $(GO) test .

bench:
	$(GO) test -bench=. -benchmem ./...

# Fast-path query/ingest micro-benchmarks as machine-readable JSON.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkTransientQuery|BenchmarkSnapshotQuery|BenchmarkStaticQuery|BenchmarkRegionBuild|BenchmarkIngest' \
		-benchmem ./internal/core | $(GO) run ./cmd/benchjson > BENCH_query.json
	@cat BENCH_query.json

# Fault-injection sweep: degraded-mode intervals, containment, and
# determinism under seeded crash/drop plans.
bench-faults:
	$(GO) run ./cmd/stqbench -faults -faults-out BENCH_faults.json

# Observability overhead gate: end-to-end query path with instrumentation
# disabled vs enabled; fails above a 2% enabled overhead.
bench-obs:
	$(GO) run ./cmd/stqbench -obs -obs-out BENCH_obs.json

# Mixed ingest+query concurrency scaling: sharded store + plan cache vs
# the emulated global-lock baseline at 1/2/4/8 goroutines; fails below a
# 2x speedup at 8.
bench-concurrent:
	$(GO) run ./cmd/stqbench -concurrent -concurrent-out BENCH_concurrent.json

# Durability sweep: sustained durable-append rate, append-latency
# percentiles, recovery and checkpoint time per fsync policy; fails
# below 50k events/s with interval fsync.
bench-wal:
	$(GO) run ./cmd/stqbench -wal -wal-out BENCH_wal.json

# Tiered-history memory gate: month-scale synthetic stream into a
# hot-only reference store vs the sealing tiered store; fails below a
# 10x resident-memory reduction, above 2x warm-query latency, or on any
# non-bit-identical answer.
bench-history:
	$(GO) run ./cmd/stqbench -history -history-out BENCH_history.json

# Spatially partitioned multi-store gate: concurrent cell-aligned
# ingest and scatter-gather queries at 1/2/4/8 partitions vs the
# single-store baseline; fails on any non-bit-identical answer, above
# 1.5x query overhead, or (with enough cores) below 3x ingest speedup
# at 4 partitions.
bench-partition:
	$(GO) run ./cmd/stqbench -partition -partition-out BENCH_partition.json
	$(GO) run ./cmd/benchjson -gates BENCH_partition.json

# Multi-process scale-out gate: C in-process cells (real servers on
# loopback sockets) behind a router at 1/2/4 cells; fails on any
# non-bit-identical routed answer or (with enough cores) below 2x
# ingest speedup at 4 cells (overhead floor when cores are scarce).
bench-cluster:
	$(GO) run ./cmd/stqbench -cluster -cluster-out BENCH_cluster.json
	$(GO) run ./cmd/benchjson -gates BENCH_cluster.json

# Serving-layer load gate: cmd/stqload drives an in-process stqd stack
# (self-serve mode) end to end over HTTP — closed-loop client pool,
# warmup + measurement phases, per-kind latency percentiles — and fails
# above the p99 latency gate or below the throughput floor.
bench-serve:
	$(GO) run ./cmd/stqload -out BENCH_serve.json
	$(GO) run ./cmd/benchjson -gates BENCH_serve.json

# Binary wire protocol gate: pooled codec micro-benchmarks (must be
# 0 allocs/frame), an 8-client HTTP ingest smoke on both surfaces
# (binary must ingest ≥3x the JSON events/s), and JSON/wire answer
# bit-identity across engines and partition counts.
bench-wire:
	$(GO) run ./cmd/stqbench -wire -wire-out BENCH_wire.json
	$(GO) run ./cmd/benchjson -gates BENCH_wire.json

# Longer fuzz run over the wire decoder (make check runs a 10s smoke).
fuzz-wire:
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=2m -run '^$$' ./internal/wire

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

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
