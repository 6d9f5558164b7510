#!/bin/sh
# bench.sh — snapshot the cloudsim hot-path, chat codec, diylint, PRNG
# source, and fleet benchmarks into BENCH_cloudsim.json so
# interceptor-chain, window-lookup, log ingestion, Insights-scan,
# trace-store, stanza and room-document codec, analyzer-suite,
# PRNG-seeding, and fleet-throughput regressions show up as a diff.
# `make bench` runs this.
set -eu
cd "$(dirname "$0")/.."

OUT=BENCH_cloudsim.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkDoInterceptors|BenchmarkWindowNarrow|BenchmarkLogsIngest|BenchmarkInsightsScan|BenchmarkTraceRecord|BenchmarkServiceMap|BenchmarkStanzaEncode|BenchmarkStanzaDecode|BenchmarkRoomDocRoundTrip|BenchmarkDiylint' -benchmem \
	./internal/cloudsim/plane ./internal/cloudsim/metrics ./internal/cloudsim/logs ./internal/cloudsim/trace ./internal/proto/xmpp ./internal/apps/chat ./internal/analysis | tee "$RAW"

# The seeded PRNG source against its math/rand twins: construction
# plus one NormFloat64 (the per-account pattern) and a steady-state
# draw.
go test -run '^$' -bench 'BenchmarkNewSource|BenchmarkSourceDraw' -benchmem \
	./internal/rng | tee -a "$RAW"

# Fleet runs take hundreds of ms to seconds each. The 1000-account
# trio (bare vs telemetry vs traced) runs five timed iterations
# because the bench gate checks their ns/request ratios —
# single-iteration noise swings those ratios by ±10 points. The
# 10000-account scale run keeps one iteration so `make bench` stays
# fast.
go test -run '^$' -bench 'BenchmarkFleet(Telemetry|Traced)?/accounts=1000$' -benchmem -benchtime 5x \
	./internal/fleet | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkFleet/accounts=10000$' -benchmem -benchtime 1x \
	./internal/fleet | tee -a "$RAW"

# Benchmarks that b.ReportMetric extra columns (accounts/sec,
# ns/request) shift the field positions, so scan value/unit pairs
# instead of assuming fixed columns.
awk '
BEGIN { print "[" }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = "0"; by = "0"; al = "0"; acc = ""; req = ""
	for (i = 3; i < NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op") ns = v
		else if (u == "B/op") by = v
		else if (u == "allocs/op") al = v
		else if (u == "accounts/sec") acc = v
		else if (u == "ns/request") req = v
	}
	extra = ""
	if (acc != "") extra = extra ", \"accounts_per_sec\": " acc
	if (req != "") extra = extra ", \"ns_per_request\": " req
	printf "%s  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", sep, name, $2, ns, by, al, extra
	sep = ",\n"
}
END { print "\n]" }
' "$RAW" >"$OUT"

echo "bench: wrote $OUT"
