package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
	"repro/internal/proto/xmpp"
	"repro/internal/workload"
)

// Leaf layers run inside the Lambda handler, out of reach of a span
// taken from outside, so they are timed by calling their public
// functions in isolation on workload-shaped inputs.

// nsPerCall runs f in batches of at least batch length and returns the
// median batch's ns per call. f gets a call counter to cycle inputs.
func nsPerCall(f func(i int)) float64 {
	const batches, batch = 7, 20 * time.Millisecond
	var per []float64
	i := 0
	for b := 0; b < batches; b++ {
		start, n := time.Now(), 0
		for time.Since(start) < batch {
			for k := 0; k < 16; k++ {
				f(i)
				i++
				n++
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// payloads draws request bodies the way the fleet engine does: each
// profile's size drawn uniformly from [½, 1½]× its mean body. With
// chatOnly, only chat accounts contribute (the XMPP codec carries chat
// traffic alone).
func payloads(seed int64, n int, chatOnly bool) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		p := workload.Profile(seed, i)
		if chatOnly && p.Kind != workload.KindChat {
			continue
		}
		rng := rand.New(rand.NewSource(workload.Substream(p.Seed, "payload")))
		out = append(out, []byte(strings.Repeat("x", p.BodyBytes/2+rng.Intn(p.BodyBytes))))
	}
	return out
}

// leafTimings measures every leaf metric, in ns per call.
func leafTimings(seed int64) (map[string]float64, error) {
	out := map[string]float64{}

	// XMPP codec on chat-sized group messages.
	bodies := payloads(seed, 64, true)
	msgs := make([]*xmpp.Message, len(bodies))
	raws := make([][]byte, len(bodies))
	for i, b := range bodies {
		msgs[i] = &xmpp.Message{
			From: "owner@" + chat.Domain + "/laptop", To: "room@" + chat.Domain,
			Type: "groupchat", ID: fmt.Sprintf("owner-%d", i+1), Body: string(b),
		}
		raw, err := xmpp.Encode(msgs[i])
		if err != nil {
			return nil, err
		}
		raws[i] = raw
	}
	var err error
	out["codec.xmpp_encode_ns"] = nsPerCall(func(i int) {
		if _, e := xmpp.Encode(msgs[i%len(msgs)]); e != nil {
			err = e
		}
	})
	out["codec.xmpp_decode_ns"] = nsPerCall(func(i int) {
		if _, e := xmpp.Decode(raws[i%len(raws)]); e != nil {
			err = e
		}
	})

	// Envelope crypto on the whole app mix's payloads.
	key, kerr := envelope.NewDataKey()
	if kerr != nil {
		return nil, kerr
	}
	pts := payloads(seed, 64, false)
	aad := []byte("inbox:peer")
	sealed := make([][]byte, len(pts))
	for i, pt := range pts {
		if sealed[i], err = envelope.Seal(key, pt, aad); err != nil {
			return nil, err
		}
	}
	out["crypto.seal_ns"] = nsPerCall(func(i int) {
		if _, e := envelope.Seal(key, pts[i%len(pts)], aad); e != nil {
			err = e
		}
	})
	out["crypto.open_ns"] = nsPerCall(func(i int) {
		if _, e := envelope.Open(key, sealed[i%len(sealed)], aad); e != nil {
			err = e
		}
	})

	// The plane pipeline, bare and with the CloudWatch-sim interceptor.
	bare, perr := planeDoNs(false)
	if perr != nil {
		return nil, perr
	}
	metered, perr := planeDoNs(true)
	if perr != nil {
		return nil, perr
	}
	out["plane.pipeline_ns"] = bare
	out["telemetry.metrics_intercept_ns"] = metered - bare

	// X-Ray-sim publication: decide, record, and the tick-boundary
	// fold amortized over 64 traces.
	store := trace.NewStore(nil)
	at := clock.Epoch
	out["telemetry.trace_record_ns"] = nsPerCall(func(i int) {
		at = at.Add(40 * time.Second)
		if store.Decide("client", "chat-send", at) {
			store.Record(chatTrace(at))
		}
		if i%64 == 63 {
			store.Flush()
		}
		if i%100_000 == 99_999 {
			store = trace.NewStore(nil)
		}
	})

	// One timeline event: schedule it and pop it, as each arrival does.
	tl := clock.NewTimeline()
	noop := func(time.Time) {}
	out["timeline.step_ns"] = nsPerCall(func(int) {
		tl.ScheduleAfter(time.Second, noop)
		tl.Step()
	})
	return out, err
}

// planeDoNs times one plane.Do with IAM, the latency model and the
// meter, optionally behind the metrics interceptor.
func planeDoNs(intercept bool) (float64, error) {
	iamSvc := iam.New()
	if err := iamSvc.PutRole(&iam.Role{
		Name: "fn",
		Policies: []iam.Policy{{
			Name:       "all",
			Statements: []iam.Statement{iam.AllowStatement([]string{"*"}, []string{"*"})},
		}},
	}); err != nil {
		return 0, err
	}
	p := plane.New(iamSvc, pricing.NewMeter(), netsim.NewDefaultModel())
	if intercept {
		p.Use(metrics.PlaneInterceptor(metrics.New(), pricing.Default2017(), clock.NewVirtual()))
	}
	ctx := &sim.Context{Principal: "fn", App: "chat", Cursor: sim.NewCursor(clock.Epoch), FunctionMemMB: 448}
	call := &plane.Call{
		Service:  "s3",
		Op:       "s3:GetObject",
		Action:   "s3:GetObject",
		Resource: "op-chat/room",
		Latency:  &plane.Latency{Hop: netsim.HopKMS, MemoryCoupled: true},
		Usage:    []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
	}
	handler := func(*plane.Request) error { return nil }
	var err error
	ns := nsPerCall(func(int) {
		if e := p.Do(ctx, call, handler); e != nil {
			err = e
		}
	})
	return ns, err
}

// chatTrace builds one finished chat-send trace: client → gateway →
// lambda → {kms, s3, sqs}.
func chatTrace(start time.Time) *trace.Trace {
	ms := func(n int) time.Time { return start.Add(time.Duration(n) * time.Millisecond) }
	tr := trace.New("chat-send", start)
	gw := tr.Root().StartChild("gateway", "/op/chat/xmpp", ms(1))
	fn := gw.StartChild("lambda", "op-chat", ms(2))
	fn.Annotate("cold_start", "false")
	fn.AddUsage(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1})
	for i, c := range []struct {
		svc, op string
		kind    pricing.Kind
	}{
		{"kms", "kms:Decrypt", pricing.KMSRequests},
		{"s3", "s3:GetObject", pricing.S3GetRequests},
		{"s3", "s3:PutObject", pricing.S3PutRequests},
		{"sqs", "sqs:SendMessage", pricing.SQSRequests},
	} {
		sp := fn.StartChild(c.svc, c.op, ms(3+10*i))
		sp.AddUsage(pricing.Usage{Kind: c.kind, Quantity: 1})
		sp.Finish(ms(10 + 10*i))
	}
	fn.Finish(ms(120))
	gw.Finish(ms(130))
	tr.Finish(ms(140))
	return tr
}
