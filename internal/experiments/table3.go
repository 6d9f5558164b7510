package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/pricing"
)

// Table3 holds the chat prototype statistics (§6.2), measured by
// driving the actual application through the simulated platform.
type Table3 struct {
	MedBilled    time.Duration
	MedRun       time.Duration
	MedE2E       time.Duration
	AllocatedMB  int
	PeakMemoryMB int64
	// CostPer100K is the marginal Lambda cost of 100,000 requests at
	// the measured billed time, with no free-tier credit (request fee
	// plus GB-seconds).
	CostPer100K pricing.Money
	Samples     int
	ColdStarts  int
	// Tail behaviour (not in the paper's table; extra observability).
	P95Run time.Duration
	P99E2E time.Duration
}

// Table3Config parameterizes the prototype run.
type Table3Config struct {
	// Sends is the number of measured messages (default 200).
	Sends int
	// MemoryMB is the function allocation (default 448, the paper's).
	MemoryMB int
	// Backend selects the chat state store ("" = S3, "dynamo").
	Backend string
	// Seed overrides the latency model's random seed (0 = default).
	Seed int64
}

// gapBetweenSends spaces the sends (≈2000 messages/day).
const gapBetweenSends = 40 * time.Second

// Table3Views is one timed run read three ways, as each invocation on
// AWS lands in the client's stats, CloudWatch and a REPORT log line.
type Table3Views struct {
	Stats   *Table3
	Metrics *Metrics3
	Logs    *Logs3
}

// RunTable3 deploys the chat prototype on a fresh simulated cloud,
// exchanges messages between two members, and reports the medians the
// paper's Table 3 lists.
func RunTable3(cfg Table3Config) (*Table3, error) {
	v, err := RunTable3Views(cfg)
	if err != nil {
		return nil, err
	}
	return v.Stats, nil
}

// RunTable3Views runs the Table 3 workload once and derives the table
// from the invocation stats, the metrics service and the log plane.
func RunTable3Views(cfg Table3Config) (*Table3Views, error) {
	r, err := runChat3(cfg, core.CloudOptions{}, false)
	if err != nil {
		return nil, err
	}
	return r.views()
}

// views derives the three views of a timed run. If they disagree on a
// signal they share, the views come back with the error.
func (r *chatRun) views() (*Table3Views, error) {
	logs, err := r.logs3()
	if err != nil {
		return nil, err
	}
	v := &Table3Views{Stats: r.table3(), Metrics: r.metrics3(), Logs: logs}
	return v, r.agree(v)
}

// chatRun is the chat prototype deployed once, both members sessioned,
// and driven through a run of sends.
type chatRun struct {
	cloud *core.Cloud
	d     *core.Deployment
	// from opens the measurement window: after the two session
	// invocations, before the first send. Table 3 measures sends only.
	from time.Time
	// Per-send samples. Only timed runs have e2e (to Bob's decrypted
	// delivery) and a budget alarm; only traced runs keep live traces.
	billed, run, e2e []time.Duration
	peak             int64
	cold             int
	traces           []*trace.Trace
	budget           *metrics.Alarm
}

// runChat3 runs the one chat workload behind every Table 3 derivation.
// Timed runs SendTimed with Bob long-polling; traced runs SendTraced
// with no receiver. Each shape draws its own latency stream, pinned by
// goldens.
func runChat3(cfg Table3Config, opts core.CloudOptions, traced bool) (*chatRun, error) {
	if cfg.Sends <= 0 {
		cfg.Sends = 200
	}
	if cfg.MemoryMB == 0 {
		cfg.MemoryMB = 448
	}
	if cfg.Seed != 0 {
		params := netsim.DefaultParams()
		params.Seed = cfg.Seed
		opts.NetParams = &params
	}
	cloud, err := core.NewCloud(opts)
	if err != nil {
		return nil, err
	}
	r := &chatRun{cloud: cloud}
	if !traced {
		// The budget alarm goes in before any spend, anchored at the
		// clock's epoch so the evaluation grid is reproducible.
		r.budget, err = cloud.Metrics.PutAlarm(
			metrics.BudgetAlarm("monthly-budget", metrics3Budget, metrics3AlarmPeriod),
			cloud.Clock.Now(), nil)
		if err != nil {
			return nil, err
		}
	}
	r.d, err = chat.Install(cloud, "proto", chat.App{
		Members:  []string{"alice", "bob"},
		MemoryMB: cfg.MemoryMB,
		Backend:  cfg.Backend,
	})
	if err != nil {
		return nil, err
	}
	alice := chat.NewClient(r.d, "alice", "laptop")
	bob := chat.NewClient(r.d, "bob", "phone")
	for _, c := range []*chat.Client{alice, bob} {
		if _, err := c.Session(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Sends; i++ {
		cloud.Clock.Advance(gapBetweenSends)
		sendStart := cloud.Clock.Now()
		if i == 0 {
			r.from = sendStart
		}
		var stats lambda.InvocationStats
		if traced {
			var tr *trace.Trace
			if tr, stats, err = alice.SendTraced(fmt.Sprintf("traced message %d", i)); err != nil {
				return nil, fmt.Errorf("table3 traced send %d: %w", i, err)
			}
			r.traces = append(r.traces, tr)
		} else {
			var sentAt time.Time
			if stats, sentAt, err = alice.SendTimed(fmt.Sprintf("message %d from the prototype run", i)); err != nil {
				return nil, fmt.Errorf("table3 send %d: %w", i, err)
			}
			// Bob's long poll was outstanding before the send: E2E runs
			// from the send initiation to his decrypted delivery.
			pollCtx := bob.PollContext(sendStart)
			msgs, err := bob.Receive(pollCtx, 20*time.Second)
			if err != nil {
				return nil, fmt.Errorf("table3 receive %d: %w", i, err)
			}
			if len(msgs) != 1 {
				return nil, fmt.Errorf("table3 receive %d: got %d messages", i, len(msgs))
			}
			// Causality check on the simulated timeline: Bob's decrypted
			// delivery can never precede the instant Alice's send completed.
			if delivered := pollCtx.Cursor.Now(); delivered.Before(sentAt) {
				return nil, fmt.Errorf("table3 receive %d: delivered at %v before send completed at %v", i, delivered, sentAt)
			}
			r.e2e = append(r.e2e, pollCtx.Cursor.Now().Sub(sendStart))
		}
		r.billed = append(r.billed, stats.BilledTime)
		r.run = append(r.run, stats.RunTime)
		r.peak = max(r.peak, stats.PeakMemoryBytes)
		if stats.ColdStart {
			r.cold++
		}
	}
	return r, nil
}

// table3 derives Table 3 from the per-send invocation stats.
func (r *chatRun) table3() *Table3 {
	fn, _ := r.cloud.Lambda.Function(r.d.FnName)
	medBilled := median(r.billed)
	book := r.cloud.Book
	perRequest := book.LambdaPerMillionRequests.MulFloat(1.0/1e6) +
		book.LambdaPerGBSecond.MulFloat(medBilled.Seconds()*float64(fn.MemoryMB)/1024)

	return &Table3{
		MedBilled:    medBilled,
		MedRun:       median(r.run),
		MedE2E:       median(r.e2e),
		P95Run:       percentile(r.run, 95),
		P99E2E:       percentile(r.e2e, 99),
		AllocatedMB:  fn.MemoryMB,
		PeakMemoryMB: r.peak >> 20,
		CostPer100K:  perRequest.MulFloat(100_000),
		Samples:      len(r.billed),
		ColdStarts:   r.cold,
	}
}

// agree checks that the views of one timed run report the same value
// for every signal they share; a difference is a telemetry-sink bug.
func (r *chatRun) agree(v *Table3Views) error {
	medBilled, medRunMs := p50(r.billed), float64(p50(r.run))/float64(time.Millisecond)
	s, m, l := v.Stats, v.Metrics, v.Logs
	var errs []error
	same(&errs, "metrics billed median", medBilled, m.MedBilled)
	same(&errs, "metrics run median ms", medRunMs, m.MedRunMs)
	same(&errs, "metrics peak MB", s.PeakMemoryMB, m.PeakMemoryMB)
	same(&errs, "metrics cold starts", s.ColdStarts, m.ColdStarts)
	same(&errs, "metrics invocations", s.Samples, m.Invocations)
	same(&errs, "logs billed median", medBilled, l.MedBilled)
	// REPORT prints the run time to two decimals.
	if math.Abs(l.MedRunMs-medRunMs) > 0.005+1e-9 {
		same(&errs, "logs run median ms", medRunMs, l.MedRunMs)
	}
	same(&errs, "logs peak MB", s.PeakMemoryMB, l.PeakMemoryMB)
	same(&errs, "logs cold starts", s.ColdStarts, l.ColdStarts)
	same(&errs, "logs invocations", s.Samples, l.Invocations)
	return errors.Join(errs...)
}

// same records a disagreement when a signal's two values differ.
func same[T comparable](errs *[]error, signal string, want, got T) {
	if want != got {
		*errs = append(*errs, fmt.Errorf("table3 derivations disagree on %s: %v vs %v", signal, want, got))
	}
}

// Render prints the statistics in the paper's Table 3 layout.
func (t *Table3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Statistics collected for our chat service\n")
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Billed", t.MedBilled.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Run", t.MedRun.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "E2E Chat Latency (median)", t.MedE2E.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %7d MB\n", "Lambda Memory Allocated", t.AllocatedMB)
	fmt.Fprintf(&sb, "  %-38s %7d MB\n", "Peak Memory Used", t.PeakMemoryMB)
	fmt.Fprintf(&sb, "  %-38s %10s\n", "Med. Lambda Cost per 100K Requests", t.CostPer100K)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(samples)", t.Samples)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(cold starts)", t.ColdStarts)
	fmt.Fprintf(&sb, "  %-38s %10v\n", "(p95 run)", t.P95Run.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "(p99 E2E)", t.P99E2E.Round(time.Millisecond))
	return sb.String()
}

// median returns the middle sample, the upper one for even counts
// (sample 101 of 200), as the ledger_table3 golden pins.
func median(samples []time.Duration) time.Duration { return percentile(samples, 50) }

// percentile returns the sample at index len*p/100 of the sorted
// samples, clamped to the last.
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), samples...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := len(cp) * p / 100
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// p50 is the nearest-rank median the telemetry sinks share.
func p50[T time.Duration | pricing.Money](samples []T) T {
	if len(samples) == 0 {
		return 0
	}
	cp := slices.Clone(samples)
	slices.Sort(cp)
	return cp[metrics.NearestRank(len(cp), 50)]
}
