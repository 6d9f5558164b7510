package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The acceptance gate for the log plane: Table 3 numbers reconstructed
// purely from Lambda REPORT log lines must equal the ones measured
// directly from InvocationStats in the same run (the pinned table3
// golden).
func TestLogs3MatchesTable3(t *testing.T) {
	_, v := sharedTimed(t)
	l3, t3 := v.Logs, v.Stats
	if l3.MedBilled != t3.MedBilled {
		t.Errorf("logs-derived MedBilled = %v, stats-derived = %v", l3.MedBilled, t3.MedBilled)
	}
	if l3.MedBilled != 200*time.Millisecond {
		t.Errorf("MedBilled = %v, want the paper's 200ms", l3.MedBilled)
	}
	if l3.PeakMemoryMB != t3.PeakMemoryMB {
		t.Errorf("logs-derived peak = %d MB, stats-derived = %d MB", l3.PeakMemoryMB, t3.PeakMemoryMB)
	}
	if l3.ColdStarts != t3.ColdStarts {
		t.Errorf("logs-derived cold starts = %d, stats-derived = %d", l3.ColdStarts, t3.ColdStarts)
	}
	if l3.MedRunMs < 120 || l3.MedRunMs > 150 {
		t.Errorf("logs-derived median run = %v ms, want the paper's ≈134ms band", l3.MedRunMs)
	}
	if l3.Invocations != l3.Samples {
		t.Errorf("REPORT lines in window = %d, want one per send (%d)", l3.Invocations, l3.Samples)
	}
	if !strings.HasPrefix(l3.SampleReport, "REPORT RequestId: ") ||
		!strings.Contains(l3.SampleReport, "Billed Duration: ") ||
		!strings.Contains(l3.SampleReport, "Memory Size: 448 MB") {
		t.Errorf("sample REPORT line malformed: %q", l3.SampleReport)
	}
	if l3.IngestedBytes <= 0 || l3.LogsList <= 0 {
		t.Errorf("log plane metered nothing: ingested=%d list=%v", l3.IngestedBytes, l3.LogsList)
	}
	if len(l3.Groups) == 0 {
		t.Fatal("no log groups after the run")
	}
}

// The parity proof the tentpole rides on: installing the log
// interceptor and service sinks must not move a single duration or
// nanodollar in the Table 3 run.
func TestLogsPreserveLedger(t *testing.T) {
	_, on := sharedTimed(t)
	r, err := runChat3(Table3Config{}, core.CloudOptions{DisableLogging: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if off := r.table3(); *on.Stats != *off {
		t.Errorf("logging changed the measured run:\n  on:  %+v\n  off: %+v", on.Stats, off)
	}
}

func TestLedgerParityLogs3(t *testing.T) {
	_, v := sharedTimed(t)
	l3 := v.Logs
	var sb strings.Builder
	sb.WriteString(l3.Render())
	// Raw fingerprint below the rendered table, like the other parity
	// goldens: every derived number at full precision.
	fmt.Fprintf(&sb, "raw: billed=%dns runms=%v peak=%dMB cold=%d reports=%d groups=%d ingested=%d stored=%d logslist=%dnd logsbilled=%dnd\n",
		int64(l3.MedBilled), l3.MedRunMs, l3.PeakMemoryMB, l3.ColdStarts, l3.Invocations,
		len(l3.Groups), l3.IngestedBytes, l3.StoredBytes, int64(l3.LogsList), int64(l3.LogsBilled))
	checkGolden(t, "ledger_logs3.golden", sb.String())
}

// TestLogStreamsDeterministic emits the full event dump of a seeded
// run as t.Log lines; scripts/check.sh runs it twice and diffs the
// output, proving two identically-seeded runs produce byte-identical
// log streams.
func TestLogStreamsDeterministic(t *testing.T) {
	r, err := runChat3(Table3Config{Sends: 25}, core.CloudOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	dump := r.cloud.Logs.Dump()
	if len(dump) == 0 {
		t.Fatal("empty log dump")
	}
	for _, line := range dump {
		t.Logf("logline: %s", line)
	}
}
