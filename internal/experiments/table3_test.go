package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// defaultTimedRun is the default Table 3 run, made once and shared by
// every test that reads it: the stats, metrics and logs goldens, the
// on==off parity tests' "on" side, and the whole-run monitoring checks.
var defaultTimedRun = sync.OnceValues(func() (*timedRun, error) {
	r, err := runChat3(Table3Config{}, core.CloudOptions{}, false)
	if err != nil {
		return nil, err
	}
	v, err := r.views()
	return &timedRun{r, v}, err
})

type timedRun struct {
	run   *chatRun
	views *Table3Views
}

func sharedTimed(t *testing.T) (*chatRun, *Table3Views) {
	t.Helper()
	tr, err := defaultTimedRun()
	if err != nil {
		t.Fatal(err)
	}
	return tr.run, tr.views
}

// Table 3's stats medians are upper medians: index len/2 of the sorted
// samples. The ledger_table3 golden's raw line pins this choice.
func TestTable3MedianIsUpper(t *testing.T) {
	if got := median([]time.Duration{2, 1}); got != 2 {
		t.Errorf("median of 2 samples = %v, want the larger", got)
	}
	samples := make([]time.Duration, 200)
	for i := range samples {
		samples[len(samples)-1-i] = time.Duration(i + 1)
	}
	if got := median(samples); got != 101 {
		t.Errorf("median of 200 samples = %v, want sample 101", got)
	}
	if got := p50(samples); got != 100 {
		t.Errorf("nearest-rank p50 of 200 samples = %v, want sample 100", got)
	}
}

// The agreement checks name the signal that disagrees and both values.
func TestTable3AgreementNamesMismatch(t *testing.T) {
	r, v := sharedTimed(t)
	if err := r.agree(v); err != nil {
		t.Fatalf("untampered views disagree: %v", err)
	}
	for _, tc := range []struct {
		signal string
		tamper func(m *Metrics3, l *Logs3)
	}{
		{"metrics peak MB", func(m *Metrics3, _ *Logs3) { m.PeakMemoryMB++ }},
		{"metrics billed median", func(m *Metrics3, _ *Logs3) { m.MedBilled += time.Millisecond }},
		{"logs cold starts", func(_ *Metrics3, l *Logs3) { l.ColdStarts++ }},
		{"logs run median ms", func(m *Metrics3, l *Logs3) { l.MedRunMs = m.MedRunMs + 0.006 }},
		{"logs invocations", func(_ *Metrics3, l *Logs3) { l.Invocations-- }},
	} {
		m, l := *v.Metrics, *v.Logs
		tc.tamper(&m, &l)
		err := r.agree(&Table3Views{Stats: v.Stats, Metrics: &m, Logs: &l})
		if err == nil || !strings.Contains(err.Error(), tc.signal+":") {
			t.Errorf("tampered %s: got error %v", tc.signal, err)
		}
	}
	// REPORT lines print two decimals, so the logs run median may sit
	// up to 0.005 ms off the exact one (the metrics median).
	l := *v.Logs
	l.MedRunMs = v.Metrics.MedRunMs + 0.004
	if err := r.agree(&Table3Views{Stats: v.Stats, Metrics: v.Metrics, Logs: &l}); err != nil {
		t.Errorf("logs run median within REPORT rounding rejected: %v", err)
	}

	tr, err := runChat3(Table3Config{Sends: 10}, core.CloudOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	x, err := tr.xray3()
	if err != nil {
		t.Fatal(err)
	}
	x.MedCostPerSend++
	if err := tr.agreeTraced(x); err == nil || !strings.Contains(err.Error(), "live cost median:") {
		t.Errorf("tampered live cost median: got error %v", err)
	}
}
