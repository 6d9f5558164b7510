package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// perLayerMetrics runs the traced copy of the workload on one
// goroutine, proves it reproduces fleet.Run's ledgers, and derives the
// per-layer metrics from its spans, from the runtime counters of the
// end-to-end runs (before, after) and from the leaf timings. It
// returns an error, and no metrics, when parity fails.
func perLayerMetrics(w workloadDef, seed int64, shared *core.Shared, runs []runSample, before, after runtimeCounters) (map[string]metricValue, error) {
	// The untraced reference: the engine on one worker, capturing
	// ledgers as the traced run does. It runs before and after the
	// traced run, and the overhead is taken against their mean, so a
	// drift in host speed across the three runs cancels to first order.
	untraced := func() (*fleet.Result, int64, error) {
		runtime.GC()
		cfg := w.config(seed, 1)
		cfg.CaptureLedgers = true
		t0 := time.Now()
		res, err := fleet.Run(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("untraced reference run: %w", err)
		}
		return res, time.Since(t0).Nanoseconds(), nil
	}
	ref, preNs, err := untraced()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr, err := runTraced(w.config(seed, 1), shared)
	if err != nil {
		return nil, err
	}
	_, postNs, err := untraced()
	if err != nil {
		return nil, err
	}
	untracedNs := (preNs + postNs) / 2
	if err := checkParity(tr, ref); err != nil {
		return nil, fmt.Errorf("ledger parity failed, no layer metrics: %w", err)
	}

	m := map[string]metricValue{}
	st := &tr.stats
	reqs, accts := float64(tr.requests), float64(len(tr.accounts))
	perReq := func(v int64) float64 { return ratio(float64(v), reqs) }
	perAcct := func(v int64) float64 { return ratio(float64(v), accts) }
	set := func(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

	// Request-path spans all sit under a timeline span; install spans
	// and their plane calls are booked per account instead.
	rs := layerTimeline
	set("app.self_ns_per_request", perReq(st.self[rs][layerApp]), "ns/req")
	set("app.calls_per_request", perReq(st.calls[rs][layerApp]), "calls/req")
	for _, p := range planeLayers {
		set("plane."+p.name+".self_ns_per_request", perReq(st.self[rs][p.layer]), "ns/req")
		set("plane."+p.name+".calls_per_request", perReq(st.calls[rs][p.layer]), "calls/req")
	}
	set("client.self_ns_per_request", perReq(st.self[rs][layerRequest]), "ns/req")
	set("timeline.self_ns_per_request", perReq(st.self[rs][layerTimeline]), "ns/req")
	set("install.cloud_ns_per_account", perAcct(st.total[layerInstallCloud][layerInstallCloud]), "ns/account")
	set("install.deploy_ns_per_account", perAcct(st.total[layerInstallDeploy][layerInstallDeploy]), "ns/account")
	set("install.warmup_ns_per_account", perAcct(st.total[layerInstallWarmup][layerInstallWarmup]), "ns/account")
	set("telemetry.observe_ns_per_account", perAcct(st.total[layerObserve][layerObserve]), "ns/account")

	var inv, cold int64
	for _, a := range tr.accounts {
		inv += a.invocations
		cold += a.lambdaCold
	}
	set("lambda.cold_start_frac", ratio(float64(cold), float64(inv)), "frac")

	var e2eReqs float64
	for _, s := range runs {
		e2eReqs += float64(s.requests)
	}
	set("alloc_bytes_per_request", ratio(float64(after.allocBytes-before.allocBytes), e2eReqs), "B/req")
	set("allocs_per_request", ratio(float64(after.allocObjects-before.allocObjects), e2eReqs), "allocs/req")
	set("gc.cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "frac")

	set("traced.coverage_frac", ratio(float64(st.selfSum()), float64(tr.wallNs)), "frac")
	set("traced.overhead_frac", ratio(float64(tr.wallNs), float64(untracedNs))-1, "frac")

	leaves, err := leafTimings(seed)
	if err != nil {
		return nil, fmt.Errorf("leaf timings: %w", err)
	}
	for n, v := range leaves {
		set(n, v, "ns/call")
	}
	return m, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedNames(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
