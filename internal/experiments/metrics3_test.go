package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/core"
)

// The acceptance gate for the observability layer: Table 3 numbers
// reconstructed purely from auto-published series must equal the ones
// measured directly from InvocationStats in the same run (the pinned
// table3 golden).
func TestMetrics3MatchesTable3(t *testing.T) {
	_, v := sharedTimed(t)
	m3, t3 := v.Metrics, v.Stats
	if m3.MedBilled != t3.MedBilled {
		t.Errorf("metrics-derived MedBilled = %v, stats-derived = %v", m3.MedBilled, t3.MedBilled)
	}
	if m3.MedBilled != 200*time.Millisecond {
		t.Errorf("MedBilled = %v, want the paper's 200ms", m3.MedBilled)
	}
	if m3.PeakMemoryMB != t3.PeakMemoryMB {
		t.Errorf("metrics-derived peak = %d MB, stats-derived = %d MB", m3.PeakMemoryMB, t3.PeakMemoryMB)
	}
	if m3.ColdStarts != t3.ColdStarts {
		t.Errorf("metrics-derived cold starts = %d, stats-derived = %d", m3.ColdStarts, t3.ColdStarts)
	}
	if m3.MedRunMs < 120 || m3.MedRunMs > 150 {
		t.Errorf("metrics-derived median run = %v ms, want the paper's ≈134ms band", m3.MedRunMs)
	}
	if m3.Invocations != m3.Samples {
		t.Errorf("lambda plane requests in window = %d, want one per send (%d)", m3.Invocations, m3.Samples)
	}
	if len(m3.Rows) == 0 {
		t.Fatal("no per-op RED rows published")
	}
	// The budget alarm must have gone INSUFFICIENT_DATA -> OK -> ALARM
	// on the default run's spend.
	states := []metrics.AlarmState{metrics.StateInsufficient}
	for _, tr := range m3.BudgetTransitions {
		if tr.From != states[len(states)-1] {
			t.Errorf("transition %v does not chain from %v", tr, states[len(states)-1])
		}
		states = append(states, tr.To)
	}
	if states[len(states)-1] != metrics.StateAlarm {
		t.Errorf("budget alarm ended %v, want ALARM (spend crosses the demo budget)", states[len(states)-1])
	}
}

// The parity proof the tentpole rides on: installing the metrics
// interceptor must not move a single duration or nanodollar in the
// Table 3 run.
func TestObservabilityPreservesLedger(t *testing.T) {
	_, on := sharedTimed(t)
	r, err := runChat3(Table3Config{}, core.CloudOptions{DisableObservability: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if off := r.table3(); *on.Stats != *off {
		t.Errorf("observability changed the measured run:\n  on:  %+v\n  off: %+v", on.Stats, off)
	}
}

// The three views of plane spend must agree to the nanodollar on the
// timed Table 3 run: the per-op plane.cost.nanodollars series, the
// cost_nanodollars field of every plane/* log event, and the final
// reading of the cumulative account.cost.nanodollars gauge.
func TestSinksAgreeOnCost(t *testing.T) {
	r, _ := sharedTimed(t)
	var series, gauge int64
	for _, st := range r.cloud.Metrics.SeriesStats() {
		switch {
		case st.Metric == metrics.MetricPlaneCostNanos:
			series += int64(st.Sum)
		case st.Namespace == metrics.AccountNamespace && st.Metric == metrics.MetricAccountCostNanos:
			gauge = int64(st.Last)
		}
	}
	var logged int64
	for _, g := range r.cloud.Logs.Groups() {
		if !strings.HasPrefix(g, logs.PlaneGroup("")) {
			continue
		}
		for _, e := range r.cloud.Logs.Events(g, time.Time{}, time.Time{}) {
			n, err := strconv.ParseInt(e.Fields["cost_nanodollars"], 10, 64)
			if err != nil {
				t.Fatalf("%s %s seq %d: cost_nanodollars: %v", g, e.Stream, e.Seq, err)
			}
			logged += n
		}
	}
	if series <= 0 {
		t.Fatalf("plane cost series sum to %d nanodollars; the run spent nothing", series)
	}
	if logged != series || gauge != series {
		t.Errorf("sinks disagree on plane spend: metrics series %d, plane log events %d, account gauge %d (nanodollars)",
			series, logged, gauge)
	}
}

func TestLedgerParityMetrics3(t *testing.T) {
	_, v := sharedTimed(t)
	m3 := v.Metrics
	var sb strings.Builder
	sb.WriteString(m3.Render())
	// Raw fingerprint below the rendered table, like the other parity
	// goldens: every derived number at full precision.
	fmt.Fprintf(&sb, "raw: billed=%dns runms=%v peak=%dMB cold=%d invocations=%d series=%d alarms=%d obslist=%dnd obsbilled=%dnd transitions=%d\n",
		int64(m3.MedBilled), m3.MedRunMs, m3.PeakMemoryMB, m3.ColdStarts, m3.Invocations,
		m3.SeriesCount, m3.AlarmCount, int64(m3.ObsList), int64(m3.ObsBilled), len(m3.BudgetTransitions))
	checkGolden(t, "ledger_metrics3.golden", sb.String())
}
