package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/apps/email"
	"repro/internal/apps/filetransfer"
	"repro/internal/apps/iot"
	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/telemetry"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// The traced run is a single-goroutine copy of the fleet engine's
// per-account loop (internal/fleet/account.go), built only from public
// APIs, with a span around every layer boundary it can reach from
// outside: install phases, the timeline drain, each request, each
// service plane's handler stage (a plane.Use interceptor) and the app
// handler (a core.App wrapper). Before any of its numbers are trusted,
// every account's meter ledger must equal fleet.Run's.

// operator is the fleet engine's account user name.
const operator = "op"

// tracedAccount is one account's outcome in the traced run.
type tracedAccount struct {
	index       int
	requests    int
	coldStarts  int
	invocations int64
	lambdaCold  int64
	ledger      string
}

// tracedRun is the traced run's product.
type tracedRun struct {
	accounts []tracedAccount
	stats    layerStats
	wallNs   int64
	requests int
}

// runTraced replays the fleet's accounts one after another on the
// calling goroutine, recording spans.
func runTraced(cfg fleet.Config, shared *core.Shared) (*tracedRun, error) {
	if cfg.Book == nil {
		cfg.Book = shared.Book
	}
	rec := newRecorder()
	out := &tracedRun{}
	t0 := time.Now()
	if cfg.Tower != nil {
		cfg.Tower.Begin(cfg.Accounts, cfg.Shards, cfg.Seed, cfg.Span)
	}
	for i := 0; i < cfg.Accounts; i++ {
		a, err := runTracedAccount(&cfg, shared, rec, i)
		if err != nil {
			return nil, fmt.Errorf("traced account %06d: %w", i, err)
		}
		out.accounts = append(out.accounts, a)
		out.requests += a.requests
		out.stats.fold(rec.spans)
		rec.spans = rec.spans[:0]
	}
	if cfg.Tower != nil {
		id := rec.begin(layerObserve)
		cfg.Tower.Finalize()
		rec.end(id)
		out.stats.fold(rec.spans)
	}
	out.wallNs = time.Since(t0).Nanoseconds()
	return out, nil
}

// tracedSim is the traced copy of the engine's accountSim.
type tracedSim struct {
	cfg      *fleet.Config
	rec      *recorder
	profile  workload.AccountProfile
	tl       *clock.Timeline
	cloud    *core.Cloud
	dep      *core.Deployment
	end      time.Time
	arrivals *workload.Poisson
	payload  *rand.Rand

	owner, peer *chat.Client
	requests    int
	coldStarts  int
	err         error
}

// runTracedAccount replays account index. The traced run never
// samples, so the account's slot in the sub-fleet is its index.
func runTracedAccount(cfg *fleet.Config, shared *core.Shared, rec *recorder, index int) (tracedAccount, error) {
	a := &tracedSim{cfg: cfg, rec: rec, end: clock.Epoch.Add(cfg.Span)}
	if err := a.install(shared, index); err != nil {
		return tracedAccount{}, err
	}

	id := rec.begin(layerTimeline)
	a.scheduleNext()
	events := a.tl.RunUntil(a.end)
	rec.end(id)
	if a.err != nil {
		return tracedAccount{}, a.err
	}

	if cfg.Tower != nil {
		id := rec.begin(layerObserve)
		a.observe(index, events)
		a.cloud.Metrics.Recycle()
		rec.end(id)
	} else {
		a.cloud.Metrics.Recycle()
	}
	inv, cold := a.cloud.Lambda.Stats(a.dep.FnName)
	return tracedAccount{
		index:       index,
		requests:    a.requests,
		coldStarts:  a.coldStarts,
		invocations: inv,
		lambdaCold:  cold,
		ledger:      renderLedger(a.cloud.Meter),
	}, nil
}

// install draws the account's profile, builds its cloud, deploys its
// app and warms it up, one span per phase.
func (a *tracedSim) install(shared *core.Shared, index int) error {
	cfg := a.cfg
	id := a.rec.begin(layerInstallCloud)
	p := workload.Profile(cfg.Seed, index)
	a.profile = p
	a.tl = clock.NewTimeline()
	params := shared.Params
	params.Seed = workload.Substream(p.Seed, "netsim")
	var sampling *trace.SamplerConfig
	if cfg.Trace {
		sampling = &trace.SamplerConfig{Seed: workload.Substream(p.Seed, "trace")}
	}
	cloud, err := core.NewCloud(core.CloudOptions{
		Name:                 fmt.Sprintf("fleet-%06d", p.Index),
		Shared:               shared,
		Clock:                a.tl.Clock(),
		NetParams:            &params,
		DisableObservability: cfg.Tower == nil,
		DisableLogging:       true,
		DisableTracing:       !cfg.Trace,
		TraceSampling:        sampling,
	})
	if err != nil {
		return err
	}
	a.cloud = cloud
	a.payload = rand.New(rand.NewSource(workload.Substream(p.Seed, "payload")))
	planes := []*plane.Plane{cloud.Gateway.Plane(), cloud.Lambda.Plane(), cloud.KMS.Plane(),
		cloud.S3.Plane(), cloud.SQS.Plane(), cloud.Dynamo.Plane(), cloud.SES.Plane()}
	for i, pl := range planes {
		pl.Use(a.rec.interceptor(planeLayers[i].layer))
	}
	a.rec.end(id)

	id = a.rec.begin(layerInstallDeploy)
	var app core.App
	switch p.Kind {
	case workload.KindChat:
		app = chat.App{Members: []string{"owner", "peer"}, MemoryMB: 448}
	case workload.KindEmail:
		app = email.App{}
	case workload.KindFiledrop:
		app = filetransfer.App{}
	case workload.KindIoT:
		app = iot.App{AlertRules: map[string]float64{"temperature_c": 60}}
	default:
		return fmt.Errorf("unknown app kind %d", p.Kind)
	}
	a.dep, err = core.Install(cloud, operator, timedApp{App: app, rec: a.rec})
	a.rec.end(id)
	if err != nil {
		return err
	}

	id = a.rec.begin(layerInstallWarmup)
	err = a.warmUp()
	// The first arrival's gap measures from the end of the warm-up.
	a.arrivals = workload.NewPoisson(workload.Substream(p.Seed, "arrivals"), p.RequestsPerDay, cloud.Clock.Now())
	a.rec.end(id)
	return err
}

// warmUp opens the chat sessions or registers the IoT device.
func (a *tracedSim) warmUp() error {
	switch a.profile.Kind {
	case workload.KindChat:
		a.owner = chat.NewClient(a.dep, "owner", "laptop")
		a.peer = chat.NewClient(a.dep, "peer", "phone")
		if _, err := a.owner.Session(); err != nil {
			return err
		}
		_, err := a.peer.Session()
		return err
	case workload.KindIoT:
		dev, _ := json.Marshal(iot.Device{Name: "sensor", Kind: "thermo"})
		_, err := a.invoke(a.dep.ClientContext(), nil, "register", dev)
		return err
	}
	return nil
}

// observe hands the account's telemetry to the control tower, as the
// engine does once an account completes.
func (a *tracedSim) observe(slot, events int) {
	cfg := a.cfg
	var span pricing.Money
	for _, u := range a.cloud.Meter.Snapshot() {
		span += cfg.Book.ListPrice(u)
	}
	cfg.Tower.ObserveAccount(a.cloud.Metrics, telemetry.AccountObservation{
		Slot: slot, Index: a.profile.Index, Kind: a.profile.Kind.String(),
		Requests: a.requests, ColdStarts: a.coldStarts, Events: events,
		MonthlyCostNanos: span.MulFloat(float64(30*24*time.Hour) / float64(cfg.Span)).Nanodollars(),
	})
	if !cfg.Trace {
		return
	}
	st := a.cloud.Tracer
	smap := st.ServiceMap(cfg.Book, time.Time{}, time.Time{})
	crit := st.CriticalProfile(time.Time{}, time.Time{})
	stats := st.Stats()
	var list int64
	for _, u := range st.Usage() {
		list += cfg.Book.ListPrice(u).Nanodollars()
	}
	cfg.Tower.ObserveTraces(telemetry.TraceObservation{
		Slot: slot, Decided: stats.Decided, Kept: stats.Kept, Stored: stats.Stored,
		Scanned: stats.Scanned, ListNanos: list, Map: smap, Crit: crit,
	})
}

func (a *tracedSim) scheduleNext() {
	if next := a.arrivals.Next(); next.Before(a.end) {
		a.tl.Schedule(next, a.step)
	}
}

// step serves one arrival inside a request span and schedules the
// next. Errors latch and stop the chain.
func (a *tracedSim) step(now time.Time) {
	if a.err != nil {
		return
	}
	id := a.rec.begin(layerRequest)
	cold, err := a.request(now)
	a.rec.end(id)
	if err != nil {
		a.err = fmt.Errorf("request %d: %w", a.requests, err)
		return
	}
	a.requests++
	if cold {
		a.coldStarts++
	}
	a.scheduleNext()
}

// request serves one arrival for the account's app kind and reports
// whether it hit a cold container.
func (a *tracedSim) request(now time.Time) (bool, error) {
	switch a.profile.Kind {
	case workload.KindChat:
		body := a.body()
		var stats lambda.InvocationStats
		var err error
		if a.cfg.Trace {
			_, stats, err = a.owner.SendTraced(body)
		} else {
			stats, _, err = a.owner.SendTimed(body)
		}
		if err != nil {
			return false, err
		}
		msgs, err := a.peer.Receive(a.peer.PollContext(now), 20*time.Second)
		if err != nil {
			return false, err
		}
		if len(msgs) != 1 {
			return false, fmt.Errorf("chat receive: got %d messages, want 1", len(msgs))
		}
		return stats.ColdStart, nil
	case workload.KindEmail:
		raw := fmt.Sprintf("From: friend@example.org\r\nSubject: note %d\r\n\r\n%s", a.requests, a.body())
		_, coldBefore := a.cloud.Lambda.Stats(a.dep.FnName)
		ctx, tr := a.requestContext("email-inbound")
		err := a.cloud.SES.Deliver(ctx, "friend@example.org", operator+"@"+email.MailDomain, []byte(raw))
		tr.Finish(ctx.Now())
		if err != nil {
			return false, err
		}
		_, coldAfter := a.cloud.Lambda.Stats(a.dep.FnName)
		return coldAfter > coldBefore, nil
	case workload.KindFiledrop:
		req, err := json.Marshal(filetransfer.UploadRequest{
			Name: fmt.Sprintf("drop-%06d", a.requests), To: "peer", Data: []byte(a.body()),
		})
		if err != nil {
			return false, err
		}
		ctx, tr := a.requestContext("filedrop-upload")
		stats, err := a.invoke(ctx, tr, "upload", req)
		return stats.ColdStart, err
	default:
		op, body := "report", []byte(nil)
		if a.requests%12 == 11 {
			op = "dashboard"
		} else {
			b, err := json.Marshal(iot.Report{
				Device:  "sensor",
				Metrics: map[string]float64{"temperature_c": 20 + 30*a.payload.Float64()},
			})
			if err != nil {
				return false, err
			}
			body = b
		}
		ctx, tr := a.requestContext("iot-" + op)
		stats, err := a.invoke(ctx, tr, op, body)
		return stats.ColdStart, err
	}
}

// requestContext returns the arrival's client context, traced when the
// run samples traces.
func (a *tracedSim) requestContext(op string) (*sim.Context, *trace.Trace) {
	if !a.cfg.Trace {
		return a.dep.ClientContext(), nil
	}
	return a.dep.TracedContext(op)
}

// invoke sends one op, finishes its trace and requires status 200.
func (a *tracedSim) invoke(ctx *sim.Context, tr *trace.Trace, op string, body []byte) (lambda.InvocationStats, error) {
	resp, stats, err := a.dep.Invoke(ctx, op, body)
	tr.Finish(ctx.Now())
	if err == nil && resp.Status != 200 {
		err = fmt.Errorf("op %s: status %d: %s", op, resp.Status, resp.Body)
	}
	return stats, err
}

// body draws a payload from the account's payload stream, exactly as
// the engine does.
func (a *tracedSim) body() string {
	n := a.profile.BodyBytes/2 + a.payload.Intn(a.profile.BodyBytes)
	return strings.Repeat("x", n)
}

// interceptor times a plane's handler stage as a span of layer l.
func (r *recorder) interceptor(l layer) plane.Interceptor {
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			id := r.begin(l)
			err := next(req)
			r.end(id)
			return err
		}
	}
}

// timedApp is an app whose Lambda handler runs inside an app span.
// Name and Spec delegate, so Install provisions exactly what the
// wrapped app would.
type timedApp struct {
	core.App
	rec *recorder
}

func (t timedApp) Handler() lambda.Handler {
	h := t.App.Handler()
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		id := t.rec.begin(layerApp)
		resp, err := h(env, ev)
		t.rec.end(id)
		return resp, err
	}
}

// renderLedger formats a meter snapshot the way the engine's
// CaptureLedgers does: one line per usage dimension.
func renderLedger(m *pricing.Meter) string {
	var sb strings.Builder
	for _, u := range m.Snapshot() {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%.9f\n", u.Kind, u.Resource, u.App, u.Quantity)
	}
	return sb.String()
}

// checkParity compares each traced account with fleet.Run's outcome
// for the same profile and names the first that differs.
func checkParity(tr *tracedRun, res *fleet.Result) error {
	if len(tr.accounts) != len(res.PerAccount) {
		return fmt.Errorf("traced run simulated %d accounts, fleet.Run %d", len(tr.accounts), len(res.PerAccount))
	}
	for i, a := range tr.accounts {
		f := res.PerAccount[i]
		switch {
		case a.index != f.Index:
			return fmt.Errorf("slot %d: traced account %06d, fleet.Run account %06d", i, a.index, f.Index)
		case a.requests != f.Requests || a.coldStarts != f.ColdStarts:
			return fmt.Errorf("account %06d: traced %d requests/%d cold, fleet.Run %d/%d",
				a.index, a.requests, a.coldStarts, f.Requests, f.ColdStarts)
		case a.ledger != f.Ledger:
			return fmt.Errorf("account %06d: meter ledgers differ", a.index)
		}
	}
	return nil
}
