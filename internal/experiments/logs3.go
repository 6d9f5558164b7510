package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim/logs"
	"repro/internal/pricing"
)

// Logs3 re-derives Table 3 purely from CloudWatch Logs — no access to
// InvocationStats, traces, or metrics series, only the REPORT lines
// the lambda platform writes into the log plane as the workload runs,
// read back through Insights-style queries. On real AWS these lines
// are the primary operator-facing evidence of per-invoke billing, so
// this closes the loop from the other direction than Metrics3: the
// paper's numbers fall out of the raw log text alone.
type Logs3 struct {
	Samples int

	// The Table 3 headline stats, parsed out of REPORT lines over the
	// measurement window (sends only, like Table 3).
	MedBilled    time.Duration
	MedRunMs     float64 // p50 of the REPORT "Duration" field
	PeakMemoryMB int64   // max of the REPORT "Max Memory Used" field
	// ColdStarts counts REPORT lines carrying an "Init Duration"
	// segment — the platform's cold-start marker.
	ColdStarts int
	// Invocations counts REPORT lines in the window — one per send.
	Invocations int

	// SampleReport is the window's last REPORT line verbatim, the
	// artifact an operator would actually read.
	SampleReport string

	// The log plane's inventory after the run, and what ingesting and
	// storing it costs at CloudWatch Logs' 2017 prices.
	Groups        []logs.GroupInfo
	IngestedBytes int64
	StoredBytes   int64
	LogsList      pricing.Money
	LogsBilled    pricing.Money
}

// Insights pipelines over the function's log group; REPORT lines carry
// every Table 3 quantity.
const (
	logs3QueryBilled = `filter @message like "REPORT RequestId" | parse @message "Billed Duration: * ms" as billed_ms | stats count(*) as n, pct(billed_ms, 50) as med_billed_ms`
	logs3QueryRun    = `filter @message like "REPORT RequestId" | parse @message "Duration: * ms" as run_ms | stats pct(run_ms, 50) as med_run_ms`
	logs3QueryPeak   = `filter @message like "REPORT RequestId" | parse @message "Max Memory Used: * MB" as peak_mb | stats max(peak_mb) as peak_mb`
	logs3QueryCold   = `filter @message like "Init Duration" | stats count(*) as cold_starts`
	logs3QuerySample = `filter @message like "REPORT RequestId" | sort @timestamp desc | limit 1 | fields @message`
)

// logs3 reconstructs Table 3 from the timed run's log plane alone.
func (r *chatRun) logs3() (*Logs3, error) {
	cloud := r.cloud
	// cell reads one cell of a query's first row, num parses it. The
	// first failure sticks in err and turns later reads into no-ops.
	var err error
	cell := func(query, column string) string {
		if err != nil {
			return ""
		}
		res, qerr := cloud.Logs.Query(logs.LambdaGroup(r.d.FnName), query, r.from, time.Time{})
		if qerr != nil {
			err = fmt.Errorf("logs3 query %q: %w", query, qerr)
			return ""
		}
		return res.Value(0, column)
	}
	num := func(query, column string) float64 {
		s := cell(query, column)
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("logs3 query %q: column %s = %q: %w", query, column, s, perr)
		}
		return v
	}

	out := &Logs3{
		Samples:      len(r.billed),
		MedBilled:    time.Duration(num(logs3QueryBilled, "med_billed_ms") * float64(time.Millisecond)),
		Invocations:  int(num(logs3QueryBilled, "n")),
		MedRunMs:     num(logs3QueryRun, "med_run_ms"),
		PeakMemoryMB: int64(num(logs3QueryPeak, "peak_mb")),
		ColdStarts:   int(num(logs3QueryCold, "cold_starts")),
		SampleReport: cell(logs3QuerySample, "@message"),
	}
	if err != nil {
		return nil, err
	}

	// The log plane's own bill, through the standard engine.
	out.Groups = cloud.Logs.Inventory()
	out.IngestedBytes = cloud.Logs.IngestedBytes()
	out.StoredBytes = cloud.Logs.StoredBytes()
	logMeter := pricing.NewMeter()
	for _, u := range cloud.Logs.Usage() {
		out.LogsList += cloud.Book.ListPrice(u)
		logMeter.Add(u)
	}
	out.LogsBilled = pricing.Compute(cloud.Book, logMeter).
		TotalOf(pricing.CWLogsIngestGB, pricing.CWLogsStorageGBMo)
	return out, nil
}

// Render prints the re-derived table, the group inventory, and the log
// plane's bill.
func (l *Logs3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3 re-derived from Lambda REPORT log lines alone (CloudWatch Logs-sim)\n")
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Billed", l.MedBilled.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %7.0f ms\n", "Med. Lambda Time Run", l.MedRunMs)
	fmt.Fprintf(&sb, "  %-38s %7d MB\n", "Peak Memory Used", l.PeakMemoryMB)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(samples)", l.Samples)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(cold starts in window)", l.ColdStarts)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(REPORT lines in window)", l.Invocations)

	sb.WriteString("\nthe operator's evidence, verbatim (window's last REPORT line):\n")
	fmt.Fprintf(&sb, "  %s\n", strings.ReplaceAll(l.SampleReport, "\t", "  "))

	sb.WriteString("\nInsights queries used:\n")
	for _, q := range []string{logs3QueryBilled, logs3QueryRun, logs3QueryPeak, logs3QueryCold} {
		fmt.Fprintf(&sb, "  %s\n", q)
	}

	sb.WriteString("\nlog groups after the run:\n")
	fmt.Fprintf(&sb, "  %-24s %8s %8s %10s\n", "GROUP", "STREAMS", "EVENTS", "BYTES")
	for _, g := range l.Groups {
		fmt.Fprintf(&sb, "  %-24s %8d %8d %10d\n", g.Name, g.Streams, g.Events, g.Bytes)
	}

	fmt.Fprintf(&sb, "\ncloudwatch logs: %d bytes ingested, %d stored -> %s/mo list, %s/mo after the 5 GB/5 GB free tier\n",
		l.IngestedBytes, l.StoredBytes, dollars6(l.LogsList), dollars6(l.LogsBilled))
	return sb.String()
}
