#!/bin/sh
# check.sh — the repo's full verification gate: static analysis plus
# the test suite under the race detector. CI and `make check` run this.
set -eu
cd "$(dirname "$0")/.."

echo ">> gofmt -l . (every Go file formatted)"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "check: gofmt -l found unformatted files:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo ">> go vet ./..."
go vet ./...

echo ">> diylint ./... (domain invariants: wallclock, globalrand, moneyfloat, spanhygiene, planeroute, metricname, loggroup, hotpath, droppederr, maporder, globalstate, shardsafe)"
go run ./cmd/diylint ./...

echo ">> ledger parity (Tables 1-3, the metrics and logs views of the shared timed Table 3 run, and the traced X-Ray run bit-identical to committed goldens; observability/logging/tracing on == off)"
go test ./internal/experiments -run 'TestLedgerParity|TestObservabilityPreservesLedger|TestLogsPreserveLedger|TestTracePreservesLedger'

echo ">> alarm determinism (two identically-seeded runs, transition logs diffed)"
LOG1=$(mktemp) LOG2=$(mktemp)
trap 'rm -f "$LOG1" "$LOG2"' EXIT
go test ./internal/cloudsim/metrics -run TestAlarmTransitionsDeterministic -count=1 -v 2>&1 \
	| grep 'transition:' >"$LOG1"
go test ./internal/cloudsim/metrics -run TestAlarmTransitionsDeterministic -count=1 -v 2>&1 \
	| grep 'transition:' >"$LOG2"
if ! [ -s "$LOG1" ]; then
	echo "check: alarm determinism test produced no transitions" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> log-stream determinism (two identically-seeded runs, full event dumps diffed)"
go test ./internal/experiments -run TestLogStreamsDeterministic -count=1 -v 2>&1 \
	| grep 'logline:' >"$LOG1"
go test ./internal/experiments -run TestLogStreamsDeterministic -count=1 -v 2>&1 \
	| grep 'logline:' >"$LOG2"
if ! [ -s "$LOG1" ]; then
	echo "check: log-stream determinism test produced no log lines" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> table 3 double-run at a non-default seed (timed and traced runs, all four blocks diffed)"
go run ./cmd/experiments -table 3 -sends 60 -seed 7 >"$LOG1"
go run ./cmd/experiments -table 3 -sends 60 -seed 7 >"$LOG2"
if ! [ -s "$LOG1" ]; then
	echo "check: table 3 run produced no output" >&2
	exit 1
fi
if ! grep -q 'REPORT log lines alone' "$LOG1"; then
	echo "check: table 3 run did not reach its final block" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> fleet determinism (1,000-account golden at GOMAXPROCS=1 and NumCPU; control-tower telemetry on == off)"
GOMAXPROCS=1 go test ./internal/experiments -run TestLedgerParityFleet -count=1
go test ./internal/experiments -run TestLedgerParityFleet -count=1

echo ">> fleet double-run (report + control-tower dashboard diffed across worker counts)"
GOMAXPROCS=1 go run ./cmd/diyctl fleet -accounts 300 -span 15m >"$LOG1" 2>/dev/null
go run ./cmd/diyctl fleet -accounts 300 -span 15m >"$LOG2" 2>/dev/null
if ! [ -s "$LOG1" ]; then
	echo "check: fleet run produced no report" >&2
	exit 1
fi
if ! grep -q 'Fleet control tower' "$LOG1"; then
	echo "check: fleet run rendered no control-tower dashboard" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> traced-fleet double-run (sampled kept-sets, service map and critical path diffed across worker counts)"
GOMAXPROCS=1 go run ./cmd/diyctl trace -fleet -accounts 200 -span 10m >"$LOG1" 2>/dev/null
go run ./cmd/diyctl trace -fleet -accounts 200 -span 10m >"$LOG2" 2>/dev/null
if ! grep -q 'Fleet trace rollup' "$LOG1"; then
	echo "check: traced fleet run rendered no trace rollup" >&2
	exit 1
fi
diff "$LOG1" "$LOG2"

echo ">> telemetry CLI double-run (diyctl logs and metrics: both plane interceptors with reads interleaved; host-time overhead lines filtered)"
for cmd in logs metrics; do
	OUT1=$(go run ./cmd/diyctl "$cmd")
	OUT2=$(go run ./cmd/diyctl "$cmd")
	printf '%s\n' "$OUT1" | grep -v overhead >"$LOG1"
	printf '%s\n' "$OUT2" | grep -v overhead >"$LOG2"
	if ! [ -s "$LOG1" ]; then
		echo "check: diyctl $cmd produced no output" >&2
		exit 1
	fi
	diff "$LOG1" "$LOG2"
done

echo ">> differential fuzzing (hand-written chat codecs against encoding/json and encoding/xml, lazy PRNG source against math/rand, 10s each)"
go test -run '^$' -fuzz '^FuzzRoomDoc$' -fuzztime 10s ./internal/apps/chat
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/proto/xmpp
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 10s ./internal/rng

echo ">> go test -race ./... (includes the fleet scheduler under the race detector)"
go test -race ./...

echo "check: all green"
