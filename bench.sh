#!/bin/sh
# bench.sh — record the violation-detection benchmarks for trajectory
# tracking. Emits BENCH_detect.json (bulk detection), BENCH_incr.json
# (incremental session vs per-delta re-detection), BENCH_stream.json
# (time-to-first-violation via Checker.Violations vs full Detect on the
# dirty 10k-tuple workload, plus the stream encoder's ns/violation per
# encoding), BENCH_serve.json (cindserve's violation
# streaming throughput per negotiated encoding — ndjson/json/binary, each
# as the thin-client serving rate and the _decoded end-to-end rate — vs
# the direct in-process iterator),
# BENCH_reason.json (minimize-then-detect: detection under a redundant
# constraint set vs its minimized equivalent), BENCH_wal.json (the delta
# path with WAL durability at each fsync policy vs in-memory) and
# BENCH_shard.json (scatter-gather detection at 1/2/4 shards on the
# 100k-tuple generated workload, reporting the simulated-cluster critical
# path as tuples/s) and BENCH_sql.json (detection through the
# database/sql backend vs the in-memory engine at 10k/100k tuples), all
# go test -json event streams whose "output" lines carry the ns/op, B/op
# and allocs/op figures.
# Usage: ./bench.sh [extra go test args, e.g. -benchtime=10x]
set -eu

go test -bench=ViolationDetection -benchmem -run '^$' -json "$@" . > BENCH_detect.json

# The incremental benchmarks run a fixed delta count: the workload database
# grows under the write mix, so a time-based -benchtime would let large
# iteration counts drift the instance far past the stated 10k tuples.
go test -bench=Incremental -benchmem -run '^$' -benchtime=500x -json . > BENCH_incr.json

# The stream benchmarks: time-to-first-violation at the facade, and the
# per-violation cost of the stream encoder in each encoding
# (BenchmarkStreamEncode/{ndjson,json,binary} in internal/stream).
go test -bench='StreamFirstViolation|StreamEncode' -benchmem -run '^$' -json "$@" . ./internal/stream > BENCH_stream.json

# Served vs direct streamed-violations throughput: the violations endpoint
# in every negotiated encoding (serving rate + _decoded end-to-end rate)
# against the in-process Checker.Violations baseline.
go test -bench=ViolationsThroughput -benchmem -run '^$' -json "$@" ./internal/server > BENCH_serve.json

# Reasoning: minimize-then-detect (detection under a redundant constraint
# set vs the ConstraintSet.Minimize'd set, plus the one-off minimize cost
# and the implication micro-benchmarks).
go test -bench=Reason -benchmem -run '^$' -json "$@" . > BENCH_reason.json

# Durability: the delta path through the handler with the WAL at each sync
# policy vs the in-memory baseline (what "acknowledged means durable"
# costs per batch).
go test -bench=WALDeltaApply -benchmem -run '^$' -json "$@" ./internal/server > BENCH_wal.json

# Sharding: per-shard detection plus k-way merge at 1/2/4 shards; the
# tuples/s metric is the critical path (slowest simulated node + merge),
# the figure a real fleet is bounded by.
go test -bench=ShardedDetect -benchmem -run '^$' -benchtime=3x -json ./internal/shard > BENCH_shard.json

# SQL backend: warm-mirror detection through WithSQLBackend over the
# embedded engine vs the in-memory engine, 10k and 100k checking tuples
# (the PERFORMANCE.md backend comparison). Fixed iterations: the 100k SQL
# run is ~1.3s/op, a time-based -benchtime would stretch the suite.
go test -bench=SQLBackendDetect -benchmem -run '^$' -benchtime=3x -json . > BENCH_sql.json

# Human-readable summary of the recorded metric lines.
for f in BENCH_detect.json BENCH_incr.json BENCH_stream.json BENCH_serve.json BENCH_reason.json BENCH_wal.json BENCH_shard.json BENCH_sql.json; do
	grep -o '"Output":"[^"]*ns/op[^"]*"' "$f" \
		| sed 's/"Output":"//; s/\\t/\t/g; s/\\n"$//' || true
done

echo "wrote BENCH_detect.json BENCH_incr.json BENCH_stream.json BENCH_serve.json BENCH_reason.json BENCH_wal.json BENCH_shard.json BENCH_sql.json"
