package metrics

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/plane"
	"repro/internal/pricing"
)

// PlaneInterceptor returns a plane.Use interceptor that auto-publishes
// RED and cost series for every call routed through the plane it is
// installed on — no per-service instrumentation:
//
//	<service>/<op>  plane.requests          1 per call
//	<service>/<op>  plane.errors            1 per failed call
//	<service>/<op>  plane.denials           1 per IAM-denied call
//	<service>/<op>  plane.latency.ms        cursor time consumed by the call
//	<service>/<op>  plane.cost.nanodollars  list price of the call's metered usage
//	account         account.cost.nanodollars  cumulative priced spend (gauge)
//
// Samples are timestamped at the flow cursor's post-call instant;
// cursor-less flows fall back to the service clock so alarms still see
// them. The interceptor only reads the request — it never meters or
// mutates — so installing it cannot move a ledger-parity golden by a
// nanodollar (scripts/check.sh proves this each run).
//
// The hot path is interned and direct: each (service, op) resolves its
// five series handles once, and a call's samples go straight into the
// store under its mutex — one lock per call, no names formatted (the
// `hotpath` diylint analyzer keeps it that way).
func PlaneInterceptor(s *Service, book *pricing.PriceBook, clk clock.Clock) plane.Interceptor {
	pub := &publisher{
		svc:       s,
		book:      book,
		clk:       clk,
		account:   s.Handle(AccountNamespace, MetricAccountCostNanos),
		byService: make(map[string]map[string]*opHandles),
	}
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			err := next(req)
			pub.publish(req, err)
			return err
		}
	}
}

// opHandles caches the five resolved series handles for one
// (service, op) namespace, so steady-state publication does no key
// building or map insertion — two map reads and a handful of inserts.
type opHandles struct {
	requests Handle
	errs     Handle
	denials  Handle
	latency  Handle
	cost     Handle
}

// publisher is the per-interceptor publication state, shared by every
// call on every plane the interceptor instance is installed on (core
// installs one instance fleet-wide, so the cumulative gauge spans the
// whole account).
type publisher struct {
	svc     *Service
	book    *pricing.PriceBook
	clk     clock.Clock
	account Handle

	// Guarded by svc.mu, the lock every sample lands under.
	byService map[string]map[string]*opHandles
	cum       int64
}

// publish inserts the call's samples under one hold of the store
// mutex, which pairs each cumulative-gauge update with its sample (the
// gauge series stays monotone) and keeps one call's samples adjacent.
func (p *publisher) publish(req *plane.Request, err error) {
	t0 := hostNow()
	at := req.Ctx.Now()
	if at.IsZero() && p.clk != nil {
		at = p.clk.Now()
	}
	atNs := at.UnixNano()
	var cost pricing.Money
	for _, u := range req.Metered() {
		cost += p.book.ListPrice(u)
	}
	s := p.svc
	s.mu.Lock()
	h := p.resolveLocked(req.Call.Service, req.Call.Op)
	s.insertLocked(h.requests, atNs, 1)
	n := int64(3) // requests, cost and the account gauge
	switch {
	case errors.Is(err, iam.ErrDenied):
		s.insertLocked(h.denials, atNs, 1)
		n++
	case err != nil:
		s.insertLocked(h.errs, atNs, 1)
		n++
	}
	if start := req.Start(); !start.IsZero() && !at.Before(start) {
		s.insertLocked(h.latency, atNs, float64(at.Sub(start))/float64(time.Millisecond))
		n++
	}
	s.insertLocked(h.cost, atNs, float64(cost.Nanodollars()))
	p.cum += cost.Nanodollars()
	s.insertLocked(p.account, atNs, float64(p.cum))
	s.samples += n
	s.mu.Unlock()
	if t0 != 0 {
		s.addOverhead(hostNow() - t0)
	}
}

// resolveLocked interns the five series handles for (service, op),
// building the "service/op" namespace string only on first sight.
// Caller holds p.svc.mu.
func (p *publisher) resolveLocked(service, op string) *opHandles {
	ops := p.byService[service]
	if ops == nil {
		ops = make(map[string]*opHandles)
		p.byService[service] = ops
	}
	h := ops[op]
	if h == nil {
		ns := service + "/" + op
		s := p.svc
		h = &opHandles{
			requests: s.handleLocked(ns, MetricPlaneRequests),
			errs:     s.handleLocked(ns, MetricPlaneErrors),
			denials:  s.handleLocked(ns, MetricPlaneDenials),
			latency:  s.handleLocked(ns, MetricPlaneLatencyMs),
			cost:     s.handleLocked(ns, MetricPlaneCostNanos),
		}
		ops[op] = h
	}
	return h
}

// BudgetAlarm returns the configuration for a monthly-cost budget
// alarm over the cumulative spend gauge PlaneInterceptor publishes:
// Max over each period climbs with the ledger, so the alarm fires
// within one period of list-price spend crossing the budget. Periods
// with no API calls count as not breaching (no spend means no news,
// not missing data).
func BudgetAlarm(name string, budget pricing.Money, period time.Duration) AlarmConfig {
	return AlarmConfig{
		Name:        name,
		Namespace:   AccountNamespace,
		Metric:      MetricAccountCostNanos,
		Stat:        StatMax,
		Period:      period,
		EvalPeriods: 1,
		Comparison:  GreaterThanThreshold,
		Threshold:   float64(budget.Nanodollars()),
		Missing:     MissingNotBreaching,
	}
}

// Usage reports the monitoring inventory as meterable usage — one
// custom-metric month per stored series and one alarm-month per alarm,
// the quantities CloudWatch billed by in 2017. The inventory is
// deliberately not pushed into the account meter automatically (the
// paper's Tables 1–3 predate the observability layer); callers price
// it on demand via PriceBook.ListPrice or a scratch meter.
func (s *Service) Usage() []pricing.Usage {
	return []pricing.Usage{
		{Kind: pricing.CWMetricMonths, Quantity: float64(s.SeriesCount()), Resource: "cloudwatch"},
		{Kind: pricing.CWAlarmMonths, Quantity: float64(s.AlarmCount()), Resource: "cloudwatch"},
	}
}

// SelfPublish records the service's self-telemetry counters as metric
// series under TelemetryNamespace, timestamped at. The telemetry plane
// observes itself through the same registry it serves — `diyctl
// metrics` surfaces these like any other series. Opt-in (core publishes
// only when CloudOptions.SelfTelemetry is set) because the series
// count feeds the CloudWatch inventory bill.
func (s *Service) SelfPublish(at time.Time) {
	st := s.SelfStats()
	s.Record(TelemetryNamespace, MetricTelemetrySamples, at, float64(st.Samples))
	s.Record(TelemetryNamespace, MetricTelemetryOverheadNs, at, float64(st.OverheadNs))
}

// SelfStats is the metrics plane's observation of itself.
type SelfStats struct {
	// Samples counts samples published by plane interceptors.
	Samples int64
	// OverheadNs is cumulative host-clock time spent inside the plane
	// interceptor's publish step. Zero unless SetHostClock was called:
	// the simulator measures its own cost only when a real-time source
	// is explicitly injected, keeping simulated runs deterministic.
	OverheadNs int64
}

// SelfStats reports the service's self-telemetry counters.
func (s *Service) SelfStats() SelfStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SelfStats{
		Samples:    s.samples,
		OverheadNs: atomic.LoadInt64(&s.overheadNs),
	}
}

// addOverhead accumulates host-clock interceptor time.
func (s *Service) addOverhead(ns int64) {
	if ns > 0 {
		atomic.AddInt64(&s.overheadNs, ns)
	}
}

// hostClock, when set, is a real-time nanosecond source used solely to
// measure the interceptor's own overhead (SelfStats.OverheadNs).
var hostClock atomic.Value // of func() int64

// SetHostClock injects a host (wall) nanosecond clock for interceptor
// overhead measurement. The simulator core never sets one — simulated
// runs measure zero overhead and stay deterministic; diyctl injects
// time.Now-based nanos so interactive runs can report the telemetry
// tax in `diyctl metrics`.
func SetHostClock(fn func() int64) {
	if fn == nil {
		return
	}
	hostClock.Store(fn)
}

// hostNow reads the injected host clock, or 0 when none is set.
func hostNow() int64 {
	if fn, ok := hostClock.Load().(func() int64); ok {
		return fn()
	}
	return 0
}

// HostNow exposes the injected host clock to the rest of the module:
// nanoseconds from the SetHostClock source, or 0 when none is set.
// The fleet control tower times its host-side phases (profile
// generation, shard drain, aggregation, per-account install vs replay)
// through this so simulated and test runs — which never inject a host
// clock — measure zero everywhere and stay bit-identical, while
// interactive diyctl runs see real durations.
func HostNow() int64 { return hostNow() }
