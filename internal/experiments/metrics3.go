package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/pricing"
)

// Metrics3 re-derives Table 3 purely from the monitoring service — no
// access to InvocationStats or traces, only the series the lambda
// platform and the plane interceptor auto-publish as the workload
// runs. This is how the paper's numbers were actually collected (they
// are CloudWatch statistics), and it closes the loop on the DIY
// argument: a self-hosted operator gets the same dashboard the
// provider would sell them, plus the line on the bill that dashboard
// itself would cost.
type Metrics3 struct {
	Samples int

	// The Table 3 headline stats, from the per-function lambda series
	// over the measurement window (sends only, like Table 3).
	MedBilled    time.Duration
	MedRunMs     float64 // nearest-rank p50 of lambda.run.ms
	PeakMemoryMB int64
	ColdStarts   int
	// Invocations counts the lambda plane.requests series over the
	// same window — one per send, a consistency check between the
	// interceptor's RED series and the platform's own samples.
	Invocations int

	// Rows is the whole run's per-(service, op) RED+cost table from
	// the interceptor-published series.
	Rows []metrics.OpStat

	// What observing all of the above would cost at CloudWatch's 2017
	// prices: the series/alarm inventory, its list price, and the bill
	// after the 10-metric/10-alarm free tier.
	SeriesCount int
	AlarmCount  int
	ObsList     pricing.Money
	ObsBilled   pricing.Money

	// The monthly budget alarm watching the account spend gauge, and
	// the transitions it went through during the run.
	Budget            pricing.Money
	BudgetTransitions []metrics.Transition
}

// metrics3Budget is the budget alarm's threshold: low enough that the
// default 200-send run crosses it partway through, demonstrating the
// OK -> ALARM transition on real spend.
var metrics3Budget = pricing.FromDollars(0.001)

// metrics3AlarmPeriod is the budget alarm's evaluation period.
const metrics3AlarmPeriod = 30 * time.Minute

// metrics3 reconstructs Table 3 from the timed run's metrics alone.
func (r *chatRun) metrics3() *Metrics3 {
	mon := r.cloud.Metrics
	// Flush the alarm grid past the end of the run: one catch-up call
	// replays every elapsed period deterministically.
	mon.EvaluateAlarms(r.cloud.Clock.Now().Add(metrics3AlarmPeriod))

	fn := r.d.FnName
	var zero time.Time
	out := &Metrics3{
		Samples:      len(r.billed),
		MedBilled:    time.Duration(mon.Percentile(fn, metrics.MetricLambdaBilledMs, r.from, zero, 50) * float64(time.Millisecond)),
		MedRunMs:     mon.Percentile(fn, metrics.MetricLambdaRunMs, r.from, zero, 50),
		PeakMemoryMB: int64(mon.Max(fn, metrics.MetricLambdaPeakMB, r.from, zero)),
		ColdStarts:   int(mon.Sum(fn, metrics.MetricLambdaCold, r.from, zero)),
		Invocations:  mon.Count("lambda/"+fn, metrics.MetricPlaneRequests, r.from, zero),
		Rows:         mon.TopTable(zero, zero),
		SeriesCount:  mon.SeriesCount(),
		AlarmCount:   mon.AlarmCount(),

		Budget:            metrics3Budget,
		BudgetTransitions: r.budget.Transitions(),
	}
	obsMeter := pricing.NewMeter()
	for _, u := range mon.Usage() {
		out.ObsList += r.cloud.Book.ListPrice(u)
		obsMeter.Add(u)
	}
	out.ObsBilled = pricing.Compute(r.cloud.Book, obsMeter).
		TotalOf(pricing.CWMetricMonths, pricing.CWAlarmMonths)
	return out
}

// Render prints the re-derived table, the per-op dashboard, and the
// observability bill.
func (m *Metrics3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3 re-derived from the monitoring service alone (CloudWatch-sim)\n")
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Billed", m.MedBilled.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %7.0f ms\n", "Med. Lambda Time Run", m.MedRunMs)
	fmt.Fprintf(&sb, "  %-38s %7d MB\n", "Peak Memory Used", m.PeakMemoryMB)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(samples)", m.Samples)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(cold starts in window)", m.ColdStarts)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(lambda plane requests in window)", m.Invocations)

	sb.WriteString("\nper-op RED+cost, whole run (plane interceptor series):\n")
	fmt.Fprintf(&sb, "  %-34s %7s %6s %6s %9s %9s %14s\n",
		"SERIES", "REQS", "ERR", "DENY", "P50", "P99", "AVG $/REQ")
	for _, r := range m.Rows {
		fmt.Fprintf(&sb, "  %-34s %7.0f %6.0f %6.0f %7.1fms %7.1fms %14s\n",
			r.Namespace, r.Requests, r.Errors, r.Denials, r.P50Ms, r.P99Ms,
			nanodollarsPerReq(r.CostNanos, r.Requests))
	}

	fmt.Fprintf(&sb, "\nobservability itself: %d series + %d alarm(s) -> %s/mo list, %s/mo after the 10/10 free tier\n",
		m.SeriesCount, m.AlarmCount, dollars6(m.ObsList), dollars6(m.ObsBilled))

	fmt.Fprintf(&sb, "\nbudget alarm (%s/mo threshold) transitions:\n", dollars6(m.Budget))
	if len(m.BudgetTransitions) == 0 {
		sb.WriteString("  (none)\n")
	}
	for _, tr := range m.BudgetTransitions {
		fmt.Fprintf(&sb, "  %s\n", tr)
	}
	return sb.String()
}

// nanodollarsPerReq renders a mean per-request cost from a summed
// nanodollar series, at full nanodollar precision (these are far below
// a cent).
func nanodollarsPerReq(costNanos, reqs float64) string {
	if reqs == 0 {
		return "-"
	}
	return fmt.Sprintf("$%.9f", costNanos/reqs/1e9)
}

// dollars6 renders a Money at micro-dollar precision (Money.String
// rounds to cents, useless for sub-cent observability prices).
func dollars6(m pricing.Money) string {
	return fmt.Sprintf("$%.6f", m.Dollars())
}
