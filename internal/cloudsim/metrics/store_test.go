package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// TestHandleInterningInvisible pins that interning a handle is free:
// until a sample lands, the series does not exist for listings,
// counts, or the inventory bill.
func TestHandleInterningInvisible(t *testing.T) {
	s := New()
	h := s.Handle("svc/op", MetricPlaneRequests)
	if got := s.SeriesCount(); got != 0 {
		t.Fatalf("SeriesCount = %d after interning only, want 0", got)
	}
	if got := s.Metrics("svc/op"); len(got) != 0 {
		t.Fatalf("Metrics listed %v for an unsampled series", got)
	}
	if got := s.Namespaces(); len(got) != 0 {
		t.Fatalf("Namespaces listed %v for an unsampled series", got)
	}
	s.Record("svc/op", MetricPlaneRequests, t0, 1)
	if got := s.SeriesCount(); got != 1 {
		t.Fatalf("SeriesCount = %d after first sample, want 1", got)
	}
	// Re-interning resolves to the same handle.
	if h2 := s.Handle("svc/op", MetricPlaneRequests); h2 != h {
		t.Fatalf("re-interning returned handle %d, want %d", h2, h)
	}
}

// TestConcurrentPlanePublishers drives concurrent plane.Do calls
// through one metrics and one logs interceptor while a reader queries
// both stores, then checks that no sample or event was lost or
// duplicated: exact per-op request counts, a cumulative gauge that
// ends at the total priced spend, and gap-free sequence numbers in
// every log stream. Run under -race this is the data-race gate for the
// direct publication path.
func TestConcurrentPlanePublishers(t *testing.T) {
	s := New()
	ls := logs.New(clock.NewVirtual())
	p := obsPlane(t, s, true)
	p.Use(logs.PlaneInterceptor(ls, pricing.Default2017(), clock.NewVirtual()))
	ops := []string{"s3:GetObject", "s3:HeadObject"}
	const goroutines, per = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0.Add(time.Duration(g) * time.Hour))}
			call := &plane.Call{
				Service:  "s3",
				Op:       ops[g%len(ops)],
				Action:   "s3:GetObject",
				Resource: "bucket/x",
				Latency:  &plane.Latency{Hop: netsim.HopS3},
				Usage:    []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
			}
			for i := 0; i < per; i++ {
				if err := p.Do(ctx, call, func(*plane.Request) error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	var zero time.Time
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				s.SeriesCount()
				s.Max(AccountNamespace, MetricAccountCostNanos, zero, zero)
				ls.Events(logs.PlaneGroup("s3"), zero, zero)
				ls.IngestedBytes()
			}
		}
	}()
	wg.Wait()
	close(done)
	<-readerDone

	perOp := goroutines / len(ops) * per
	for _, op := range ops {
		ns := "s3/" + op
		if got := s.Count(ns, MetricPlaneRequests, zero, zero); got != perOp {
			t.Errorf("%s: %d request samples, want %d", ns, got, perOp)
		}
		if got := s.Count(ns, MetricPlaneCostNanos, zero, zero); got != perOp {
			t.Errorf("%s: %d cost samples, want %d", ns, got, perOp)
		}
	}
	// Each GET is priced at 400 nanodollars; the gauge is cumulative.
	if got, want := s.Max(AccountNamespace, MetricAccountCostNanos, zero, zero), float64(goroutines*per*400); got != want {
		t.Errorf("account gauge max = %v, want %v", got, want)
	}
	var stored int64
	for _, st := range s.SeriesStats() {
		stored += int64(st.Count)
	}
	if got := s.SelfStats().Samples; got != stored {
		t.Errorf("SelfStats.Samples = %d, store holds %d", got, stored)
	}

	seqs := make(map[string][]int64)
	for _, e := range ls.Events(logs.PlaneGroup("s3"), zero, zero) {
		seqs[e.Stream] = append(seqs[e.Stream], e.Seq)
	}
	for _, op := range ops {
		got := seqs[op]
		if len(got) != perOp {
			t.Errorf("stream %s: %d events, want %d", op, len(got), perOp)
			continue
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i, seq := range got {
			if seq != int64(i) {
				t.Errorf("stream %s: sequence %d at position %d, want gap-free 0..%d", op, seq, i, perOp-1)
				break
			}
		}
	}
	if got := ls.SelfStats().Events; got != int64(goroutines*per) {
		t.Errorf("logs SelfStats.Events = %d, want %d", got, goroutines*per)
	}
}

// TestChunkedStatsAgainstBruteForce crosses chunk and bucket
// boundaries (several thousand samples, shuffled arrival order) and
// compares every windowed statistic against a straight recomputation,
// so the chunked columns, the out-of-order shift path, and the bucket
// pre-aggregation all agree with the obvious implementation.
func TestChunkedStatsAgainstBruteForce(t *testing.T) {
	s := New()
	const n = 3 * chunkLen // three full chunks and change
	rng := rand.New(rand.NewSource(42))
	type dat struct {
		at time.Time
		v  float64
	}
	all := make([]dat, n)
	for i := range all {
		all[i] = dat{at: t0.Add(time.Duration(i) * time.Second), v: rng.Float64() * 1000}
	}
	// Publish in shuffled order: exercises the insert-shift path across
	// chunk boundaries and the bucket invalidation it triggers.
	perm := rng.Perm(n)
	for _, i := range perm {
		s.Record("svc/op", MetricPlaneLatencyMs, all[i].at, all[i].v)
	}

	windows := []struct{ lo, hi int }{
		{0, n},                           // everything
		{0, 10},                          // inside the first bucket
		{bucketSize - 3, bucketSize + 3}, // straddling a bucket edge
		{chunkLen - 5, chunkLen + 5},     // straddling a chunk edge
		{chunkLen, 2 * chunkLen},         // exactly one whole chunk
		{17, n - 17},                     // partial edges both sides
	}
	for _, w := range windows {
		from, to := all[w.lo].at, all[w.hi-1].at
		var sum, min, max float64
		for i := w.lo; i < w.hi; i++ {
			v := all[i].v
			sum += v
			if i == w.lo || v < min {
				min = v
			}
			if i == w.lo || v > max {
				max = v
			}
		}
		if got := s.Count("svc/op", MetricPlaneLatencyMs, from, to); got != w.hi-w.lo {
			t.Errorf("window [%d,%d): Count = %d, want %d", w.lo, w.hi, got, w.hi-w.lo)
		}
		if got := s.Min("svc/op", MetricPlaneLatencyMs, from, to); got != min {
			t.Errorf("window [%d,%d): Min = %v, want %v", w.lo, w.hi, got, min)
		}
		if got := s.Max("svc/op", MetricPlaneLatencyMs, from, to); got != max {
			t.Errorf("window [%d,%d): Max = %v, want %v", w.lo, w.hi, got, max)
		}
		// Bucketed summation reorders float adds, so compare against the
		// in-order sum with a relative tolerance instead of bit equality.
		if got := s.Sum("svc/op", MetricPlaneLatencyMs, from, to); !closeEnough(got, sum) {
			t.Errorf("window [%d,%d): Sum = %v, want %v", w.lo, w.hi, got, sum)
		}
	}
}

func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}
