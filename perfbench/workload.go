package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/telemetry"
)

// workloadDef is one benchmark workload: a fleet configuration whose
// seed comes from the command line. README.md records why each exists.
type workloadDef struct {
	name     string
	accounts int
	span     time.Duration
	// observed turns on head-sampled tracing and a fresh control tower
	// on every run.
	observed bool
}

var workloads = []workloadDef{
	{name: "fleet-mix", accounts: 2000, span: 30 * time.Minute},
	{name: "install-churn", accounts: 10000, span: 10 * time.Second},
	{name: "fleet-observed", accounts: 2000, span: 30 * time.Minute, observed: true},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// config is the fleet configuration of one run.
func (w workloadDef) config(seed int64, workers int) fleet.Config {
	cfg := fleet.Config{Accounts: w.accounts, Seed: seed, Span: w.span, Shards: 64, Workers: workers}
	if w.observed {
		cfg.Trace = true
		cfg.Tower = telemetry.NewTower(telemetry.Options{})
	}
	return cfg
}

// refConfig names the workload's simulated configuration in
// references.txt. Tracing and the tower never move a simulated result,
// so fleet-observed shares fleet-mix's references.
func (w workloadDef) refConfig() string {
	return fmt.Sprintf("a%d-s%v", w.accounts, w.span)
}

// setup is everything between process start and the first timed run:
// the shared provider state (the ed25519 attestation keygen) and a
// warm-up fleet a tenth the workload's size, which grows the heap and
// the pools to their working size.
func setup(w workloadDef, seed int64, workers int) (*core.Shared, error) {
	shared, err := core.NewShared(nil, nil)
	if err != nil {
		return nil, err
	}
	cfg := w.config(seed, workers)
	cfg.Accounts = w.accounts / 10
	if _, err := fleet.Run(cfg); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return shared, nil
}

// probeSetup measures set-up time by starting this program k times
// with --probe-setup, which sets up and exits. Each sample spans the
// process from exec to exit, so it includes runtime start and package
// init. It returns the median in seconds.
func probeSetup(w workloadDef, seed int64, k int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < k; i++ {
		cmd := exec.Command(exe, "--probe-setup", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return median(samples), nil
}

// runSample is one timed fleet.Run.
type runSample struct {
	wallNs   int64
	requests int
	accounts int
	peakHeap uint64 // bytes
	digest   digest
	err      error
}

// measure repeats timed runs until the budget is spent, and at least
// minRuns times. Each run starts after a forced GC so it does not pay
// for its predecessor's garbage.
func measure(w workloadDef, seed int64, workers int, budget time.Duration) []runSample {
	const minRuns = 2
	start := time.Now()
	var out []runSample
	for {
		runtime.GC()
		s := timedRun(w.config(seed, workers))
		out = append(out, s)
		// Stop when another run of this length would overrun the budget.
		if len(out) >= minRuns && time.Since(start)+time.Duration(s.wallNs) > budget {
			return out
		}
	}
}

// timedRun times one fleet.Run and digests its outputs; the caller
// compares digests.
func timedRun(cfg fleet.Config) runSample {
	hs := startHeapSampler()
	t0 := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(t0).Nanoseconds()
	peak := hs.stop()
	s := runSample{wallNs: wall, peakHeap: peak, err: err}
	if err != nil {
		return s
	}
	s.requests, s.accounts = res.TotalRequests, res.Simulated
	s.digest = digestOf(res)
	return s
}

// heapSampler polls the heap in use (live objects plus unswept
// garbage) every millisecond. Its peak is the 99th percentile of the
// samples: the highest heap the run holds for more than a moment, which
// a retained cache raises but the timing of one GC cycle does not.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		sample := []rtmetrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var samples []uint64
		for {
			rtmetrics.Read(sample)
			samples = append(samples, sample[0].Value.Uint64())
			select {
			case <-h.quit:
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				h.peak <- samples[len(samples)*99/100]
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak it saw, in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.peak
}

// runtimeCounters are the cumulative runtime counters the per-layer
// allocation and GC metrics difference.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntimeCounters() runtimeCounters {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// median of a non-empty sample set.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
