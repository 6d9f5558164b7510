package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/core"
	"repro/internal/pricing"
)

// TestLedgerParityXRay3 pins the store-derived Table 3 bit-for-bit:
// medians read back from columnar annotations, query match counts,
// the service map and critical-path renders, the scan counters, and
// the example trace rendered from storage.
func TestLedgerParityXRay3(t *testing.T) {
	x, err := RunXRay3(Table3Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ledger_xray3.golden", x.Render())
}

// sharedTraced runs the traced Table 3 workload at 60 sends and
// derives the store block from it; RunXRay3 is this pair of calls.
func sharedTraced(t *testing.T) (*chatRun, *XRay3) {
	t.Helper()
	r, err := runChat3(Table3Config{Sends: 60}, core.CloudOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	x, err := r.xray3()
	if err != nil {
		t.Fatal(err)
	}
	return r, x
}

// liveMedians reads the lambda annotations of the run's live traces,
// as the client saw them, independently of the trace store.
func liveMedians(t *testing.T, r *chatRun) (billed, run time.Duration, cost pricing.Money) {
	t.Helper()
	var bs, rs []time.Duration
	var cs []pricing.Money
	for i, tr := range r.traces {
		b, rn, err := lambdaMillis(tr.Find("lambda", r.d.FnName))
		if err != nil {
			t.Fatalf("live trace %d: %v", i, err)
		}
		bs, rs, cs = append(bs, b), append(rs, rn), append(cs, tr.Cost(r.cloud.Book))
	}
	return p50(bs), p50(rs), p50(cs)
}

// The trace-derived Table 3 must agree with the monitoring-derived
// numbers: both observe the same invocations, one through span
// annotations, the other through published metric samples.
func TestTrace3AgreesWithMetrics(t *testing.T) {
	r, x := sharedTraced(t)
	billed, run, cost := liveMedians(t, r)
	metricMs := func(name string) time.Duration {
		return time.Duration(r.cloud.Metrics.Percentile(r.d.FnName, name, r.from, time.Time{}, 50) * float64(time.Millisecond))
	}
	if m := metricMs(metrics.MetricLambdaBilledMs); billed != m {
		t.Errorf("billed medians disagree: traces %v, metrics %v", billed, m)
	}
	// Run-time annotations are whole milliseconds; the metric keeps
	// sub-millisecond precision, so truncate before comparing.
	if m := metricMs(metrics.MetricLambdaRunMs); run != m.Truncate(time.Millisecond) {
		t.Errorf("run medians disagree: traces %v, metrics %v", run, m)
	}
	// The calibrated Table 3 ballpark: 200 ms billed, ~134 ms run.
	if billed != 200*time.Millisecond {
		t.Errorf("med billed = %v, want 200ms", billed)
	}
	if run < 120*time.Millisecond || run > 150*time.Millisecond {
		t.Errorf("med run = %v, want ≈134ms", run)
	}
	if cost <= 0 {
		t.Error("median cost per send is zero")
	}
	// The services the function calls are each reached on every send,
	// and the in-function time they account for fits inside the run.
	var inside time.Duration
	callees := 0
	for _, e := range x.Map.Edges {
		if e.From != "lambda" {
			continue
		}
		callees++
		if e.Requests < x.Samples {
			t.Errorf("lambda -> %s: %d calls over %d sends", e.To, e.Requests, x.Samples)
		}
		inside += e.Total / time.Duration(x.Samples)
	}
	if callees != 3 {
		t.Errorf("lambda calls %d services, want kms, s3 and sqs", callees)
	}
	if inside <= 0 || inside > run+50*time.Millisecond {
		t.Errorf("per-send callee time %v inconsistent with run %v", inside, run)
	}
}

// The store-derived numbers must agree with the live-trace-derived
// ones: the live traces are the client-side span trees as they
// happened, RunXRay3 reads the same flows back out of columnar storage
// afterwards.
func TestXRay3MatchesTrace3(t *testing.T) {
	r, x := sharedTraced(t)
	billed, run, cost := liveMedians(t, r)
	if x.MedBilled != billed {
		t.Errorf("billed medians disagree: store %v, live %v", x.MedBilled, billed)
	}
	if x.MedRun != run {
		t.Errorf("run medians disagree: store %v, live %v", x.MedRun, run)
	}
	if x.MedCostPerSend != cost {
		t.Errorf("cost medians disagree: store %v, live %v", x.MedCostPerSend, cost)
	}
	if x.ColdStarts != r.cold {
		t.Errorf("cold starts disagree: store query %d, live stats %d", x.ColdStarts, r.cold)
	}
	// The store kept everything (sampling off) and the analytics saw
	// every send.
	if x.Stats.Decided != x.Stats.Kept || x.Stats.Stored != int64(x.Samples) {
		t.Errorf("sampling-off store stats %+v inconsistent with %d sends", x.Stats, x.Samples)
	}
	if x.Map.Traces != x.Samples || x.Crit.Traces != x.Samples {
		t.Errorf("analytics saw %d/%d traces, want %d", x.Map.Traces, x.Crit.Traces, x.Samples)
	}
	if x.XRayCost <= 0 {
		t.Error("x-ray inventory priced at zero")
	}
	out := x.Render()
	for _, frag := range []string{"trace store", "service map", "critical path", "chat-send"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

// TestTracePreservesLedger is the storage-parity gate: a run with the
// X-Ray-sim store on must be bit-identical to the same run with it
// off. The trace store is read-only over the economy — it never meters
// its own inventory and its spans only describe what happened — so
// flipping it may not move a latency sample or a nanodollar. The fleet
// side of the same contract is TestLedgerParityFleetTraced.
func TestTracePreservesLedger(t *testing.T) {
	render := func(tbl *Table3) string {
		var sb strings.Builder
		sb.WriteString(tbl.Render())
		sb.WriteString(tbl.MedBilled.String())
		sb.WriteString(tbl.MedRun.String())
		sb.WriteString(tbl.MedE2E.String())
		sb.WriteString(tbl.P95Run.String())
		sb.WriteString(tbl.P99E2E.String())
		sb.WriteString(tbl.CostPer100K.String())
		return sb.String()
	}
	_, views := sharedTimed(t)
	on := views.Stats
	r, err := runChat3(Table3Config{}, core.CloudOptions{DisableTracing: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	off := r.table3()
	if got, want := render(off), render(on); got != want {
		t.Errorf("tracing off diverges from tracing on:\n%s", firstDiff(want, got))
	}
	// Both match the pinned golden (the same file TestLedgerParityTable3
	// checks), so "on == off" cannot drift away from the seed together.
	var sb strings.Builder
	sb.WriteString(off.Render())
	checkGoldenPrefix(t, "ledger_table3.golden", sb.String())
}

// checkGoldenPrefix asserts got is a prefix of the named golden —
// used when a test re-derives the rendered table but not the trailing
// raw-fingerprint line another test pins.
func checkGoldenPrefix(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden %s: %v", name, err)
	}
	if !strings.HasPrefix(string(want), got) {
		t.Errorf("output is not a prefix of golden %s\n%s", name, firstDiff(string(want), got))
	}
}

// TestXRay3DefaultsDeterministic replays the default store-derived run
// and requires byte-identical renders — the single-account form of the
// replay contract check.sh enforces on the fleet dashboard.
func TestXRay3DefaultsDeterministic(t *testing.T) {
	a, err := RunXRay3(Table3Config{Sends: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunXRay3(Table3Config{Sends: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ar, br := a.Render(), b.Render(); ar != br {
		t.Errorf("replay diverged:\n%s", firstDiff(ar, br))
	}
}
