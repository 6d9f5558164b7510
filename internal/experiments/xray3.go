package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/pricing"
)

// XRay3 re-derives Table 3's billed-time numbers from the X-Ray-sim
// trace *store* rather than from live client-side trace objects: every
// number below is read back out of columnar storage through
// TraceView/SegmentView handles, filter-expression queries, and the
// service-map and critical-path analytics — the exposition that the
// store loses nothing the live span trees had, plus what aggregates
// cannot provide (where the wall time goes, per-request dollars, and
// what the tracing itself would have billed).
type XRay3 struct {
	Samples int

	// ColdStarts counts sends matching the filter expression
	// `annotation.cold_start = true` — the query-derived form of the
	// stats-derived count Table 3 reports.
	ColdStarts int
	// SlowSends counts sends matching `duration > 500ms`.
	SlowSends int

	// Billed/run medians from the stored lambda-segment annotations.
	MedBilled time.Duration
	MedRun    time.Duration
	// MedDuration is the median stored root duration (client-observed).
	MedDuration time.Duration
	// MedCostPerSend is the median list-price cost of one stored trace.
	MedCostPerSend pricing.Money

	// Map and Crit are the analytics derived from the same storage.
	Map  *trace.ServiceMap
	Crit *trace.CriticalProfile

	// Stats and XRayCost are the store's own billable inventory: what
	// recording and scanning these traces would cost at 2017 X-Ray
	// list price ($5.00/M recorded, $0.50/M scanned).
	Stats    trace.StoreStats
	XRayCost pricing.Money

	// Example is the first stored trace rendered from the store.
	Example string
}

// RunXRay3 runs the traced Table 3 workload with sampling off (every
// trace kept, the single-account default) and derives the Table 3
// numbers from the trace store's columns.
func RunXRay3(cfg Table3Config) (*XRay3, error) {
	r, err := runChat3(cfg, core.CloudOptions{}, true)
	if err != nil {
		return nil, err
	}
	return r.xray3()
}

// xray3 derives the X-Ray block from the trace store alone. If it
// disagrees with the live traces, the block comes back with the error.
func (r *chatRun) xray3() (*XRay3, error) {
	cloud, sends := r.cloud, len(r.traces)
	st := cloud.Tracer
	views := st.Stored()
	if len(views) != sends {
		return nil, fmt.Errorf("xray3: stored %d traces, want %d", len(views), sends)
	}

	var billed, run, durs []time.Duration
	var costs []pricing.Money
	for i, v := range views {
		lsp, ok := v.Find("lambda", r.d.FnName)
		if !ok {
			return nil, fmt.Errorf("xray3 trace %d: no lambda segment", i)
		}
		b, rn, err := lambdaMillis(lsp)
		if err != nil {
			return nil, fmt.Errorf("xray3 trace %d: %w", i, err)
		}
		billed = append(billed, b)
		run = append(run, rn)
		durs = append(durs, v.Duration())
		costs = append(costs, v.Cost(cloud.Book))
	}

	cold, err := st.Query(`annotation.cold_start = true`, cloud.Book, time.Time{}, time.Time{})
	if err != nil {
		return nil, fmt.Errorf("xray3 cold query: %w", err)
	}
	slow, err := st.Query(`duration > 500ms`, cloud.Book, time.Time{}, time.Time{})
	if err != nil {
		return nil, fmt.Errorf("xray3 slow query: %w", err)
	}

	out := &XRay3{
		Samples:        sends,
		ColdStarts:     len(cold),
		SlowSends:      len(slow),
		MedBilled:      p50(billed),
		MedRun:         p50(run),
		MedDuration:    p50(durs),
		MedCostPerSend: p50(costs),
		Map:            st.ServiceMap(cloud.Book, time.Time{}, time.Time{}),
		Crit:           st.CriticalProfile(time.Time{}, time.Time{}),
		Example:        views[0].Render(cloud.Book),
	}
	// Take the inventory last so the golden pins the scan count of the
	// exact read sequence above.
	out.Stats = st.Stats()
	for _, u := range st.Usage() {
		out.XRayCost += cloud.Book.ListPrice(u)
	}
	return out, r.agreeTraced(out)
}

// Render prints the store-derived Table 3 with the analytics.
func (x *XRay3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3 re-derived from the X-Ray-sim trace store\n")
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Billed", x.MedBilled.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Run", x.MedRun.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. trace duration", x.MedDuration.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10s\n", "Med. cost per send (list price)", fmt.Sprintf("$%.8f", x.MedCostPerSend.Dollars()))
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(samples)", x.Samples)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(cold starts, by annotation query)", x.ColdStarts)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(sends slower than 500ms, by query)", x.SlowSends)
	sb.WriteString("  service map:\n")
	indentInto(&sb, x.Map.Render())
	sb.WriteString("  critical path:\n")
	indentInto(&sb, x.Crit.Render())
	fmt.Fprintf(&sb, "  x-ray inventory: %d decided, %d kept, %d stored, %d scanned; list price $%.8f\n",
		x.Stats.Decided, x.Stats.Kept, x.Stats.Stored, x.Stats.Scanned, x.XRayCost.Dollars())
	sb.WriteString("  example trace (first send, rendered from storage):\n")
	indentInto(&sb, x.Example)
	return sb.String()
}

// indentInto appends a rendered block indented two levels.
func indentInto(sb *strings.Builder, block string) {
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		sb.WriteString("    " + line + "\n")
	}
}

// agreeTraced checks the store-derived block against the run's live
// traces and its metrics series, which observe the same invocations.
func (r *chatRun) agreeTraced(x *XRay3) error {
	var billed, run []time.Duration
	var costs []pricing.Money
	for i, tr := range r.traces {
		// A missing span is nil and has no annotations to read.
		b, rn, err := lambdaMillis(tr.Find("lambda", r.d.FnName))
		if err != nil {
			return fmt.Errorf("xray3 live trace %d: %w", i, err)
		}
		billed = append(billed, b)
		run = append(run, rn)
		costs = append(costs, tr.Cost(r.cloud.Book))
	}
	// Run-time annotations are whole milliseconds; the metric keeps
	// sub-millisecond precision.
	metricsRun := time.Duration(r.cloud.Metrics.Percentile(r.d.FnName, metrics.MetricLambdaRunMs,
		r.from, time.Time{}, 50) * float64(time.Millisecond))

	var errs []error
	same(&errs, "live billed median", p50(billed), x.MedBilled)
	same(&errs, "live run median", p50(run), x.MedRun)
	same(&errs, "live cost median", p50(costs), x.MedCostPerSend)
	same(&errs, "live cold starts", r.cold, x.ColdStarts)
	same(&errs, "metrics run median", metricsRun.Truncate(time.Millisecond), x.MedRun)
	return errors.Join(errs...)
}

// lambdaMillis reads the billed_ms and run_ms annotations of a lambda
// span, live (*trace.Span) or stored (trace.SegmentView).
func lambdaMillis(s interface{ Annotation(string) (string, bool) }) (billed, run time.Duration, err error) {
	var ms [2]int64
	for i, key := range []string{"billed_ms", "run_ms"} {
		v, _ := s.Annotation(key)
		if ms[i], err = strconv.ParseInt(v, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("lambda span annotation %s: %w", key, err)
		}
	}
	return time.Duration(ms[0]) * time.Millisecond, time.Duration(ms[1]) * time.Millisecond, nil
}
