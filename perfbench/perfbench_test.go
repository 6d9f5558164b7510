package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// tiny is a workload small enough for unit tests. No seed of it is
// pinned in references.txt, so checks replay it on two workers.
var tiny = workloadDef{name: "tiny", accounts: 6, span: 10 * time.Minute}

func TestSelfTimeArithmetic(t *testing.T) {
	// timeline [0,100] ─ request [10,80] ─┬─ gateway [20,60] ─ app [25,55]
	//                                      └─ sqs [65,75]
	// install.deploy [200,230] ─ s3 [210,220]
	spans := []span{
		{layer: layerTimeline, parent: -1, start: 0, end: 100},
		{layer: layerRequest, parent: 0, start: 10, end: 80},
		{layer: layerGateway, parent: 1, start: 20, end: 60},
		{layer: layerApp, parent: 2, start: 25, end: 55},
		{layer: layerSQS, parent: 1, start: 65, end: 75},
		{layer: layerInstallDeploy, parent: -1, start: 200, end: 230},
		{layer: layerS3, parent: 5, start: 210, end: 220},
	}
	var st layerStats
	st.fold(spans)
	tl := layerTimeline
	for _, c := range []struct {
		root, l     layer
		self, total int64
	}{
		{tl, layerTimeline, 30, 100},
		{tl, layerRequest, 20, 70},
		{tl, layerGateway, 10, 40},
		{tl, layerApp, 30, 30},
		{tl, layerSQS, 10, 10},
		{layerInstallDeploy, layerInstallDeploy, 20, 30},
		{layerInstallDeploy, layerS3, 10, 10},
	} {
		if got := st.self[c.root][c.l]; got != c.self {
			t.Errorf("self[%d][%d] = %d, want %d", c.root, c.l, got, c.self)
		}
		if got := st.total[c.root][c.l]; got != c.total {
			t.Errorf("total[%d][%d] = %d, want %d", c.root, c.l, got, c.total)
		}
		if got := st.calls[c.root][c.l]; got != 1 {
			t.Errorf("calls[%d][%d] = %d, want 1", c.root, c.l, got)
		}
	}
	// An install-phase plane call is not a request's plane call.
	if st.calls[tl][layerS3] != 0 {
		t.Errorf("install s3 call booked under the timeline")
	}
	if got := st.selfSum(); got != 130 {
		t.Errorf("selfSum = %d, want the root durations' 130", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin(layerTimeline)
	req := r.begin(layerRequest)
	app := r.begin(layerApp)
	r.end(app)
	sqs := r.begin(layerSQS)
	r.end(sqs)
	r.end(req)
	r.end(root)
	want := []int32{-1, root, req, req}
	for i, sp := range r.spans {
		if sp.parent != want[i] {
			t.Errorf("span %d parent = %d, want %d", i, sp.parent, want[i])
		}
		if sp.end < sp.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if len(r.stack) != 0 {
		t.Errorf("stack not empty after closing every span")
	}
}

func TestDigestMismatchFails(t *testing.T) {
	res, err := fleet.Run(tiny.config(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	good := runSample{wallNs: 1e6, requests: res.TotalRequests, accounts: res.Simulated, digest: digestOf(res)}
	bad := good
	res.Latencies[0]++
	bad.digest = digestOf(res)
	if d := bad.digest.diff(good.digest); len(d) != 1 || d[0] != "latencies" {
		t.Fatalf("diff = %v, want [latencies]", d)
	}

	var out bytes.Buffer
	r := result{Correct: true}
	if err := checkRuns(tiny, 3, []runSample{good, bad, good}, &r, &out); err != nil {
		t.Fatal(err)
	}
	n := int64(good.requests)
	if r.Correct || r.Attempted != 3*n || r.Failed != n {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false/%d/%d", r.Correct, r.Attempted, r.Failed, 3*n, n)
	}
	if !strings.Contains(out.String(), "run 2: outputs differ from the two-worker replay in [latencies]") {
		t.Fatalf("mismatch not named:\n%s", out.String())
	}

	// A run whose fleet.Run errored fails as many requests as the
	// others attempted.
	r = result{Correct: true}
	if err := checkRuns(tiny, 3, []runSample{good, {err: os.ErrInvalid}}, &r, &out); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != n || r.Attempted != 2*n {
		t.Fatalf("errored run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

func TestGoldenCheckNamesLine(t *testing.T) {
	res, err := fleet.Run(tiny.config(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if msg := reportDiff(res, "Fleet: something else\n"); !strings.HasPrefix(msg, "line 1: ") {
		t.Fatalf("golden mismatch = %q, want the first differing line", msg)
	}
}

func TestParityNamesFirstAccount(t *testing.T) {
	shared, err := core.NewShared(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := runTraced(tiny.config(5, 1), shared)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny.config(5, 1)
	cfg.CaptureLedgers = true
	ref, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkParity(tr, ref); err != nil {
		t.Fatalf("traced run diverges from fleet.Run: %v", err)
	}
	ref.PerAccount[4].Ledger += "extra\n"
	ref.PerAccount[5].Ledger += "extra\n"
	if err := checkParity(tr, ref); err == nil || !strings.Contains(err.Error(), "account 000004") {
		t.Fatalf("parity error = %v, want it to name account 000004", err)
	}
}

// benchmarkSpec reads the metric lists of the repository's
// BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)

	e2e := map[string]metricValue{}
	endToEndMetrics([]runSample{{wallNs: 2e9, requests: 100, accounts: 10, peakHeap: 1 << 20}}, 0.5, e2e)
	shared, err := core.NewShared(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := perLayerMetrics(tiny, 2, shared, nil, readRuntimeCounters(), readRuntimeCounters())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  map[string]metricValue
		want []string
	}{{"end-to-end", e2e, endToEnd}, {"per-layer", layers, perLayer}} {
		got := sortedNames(c.got)
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s metrics %v, BENCHMARK.json lists %v", c.kind, got, c.want)
		}
		for _, n := range got {
			if !metricName.MatchString(n) {
				t.Errorf("metric name %q does not match %s", n, metricName)
			}
		}
	}
}

func TestBaselineWarnsOnHostShape(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.txt")
	other := currentHost(7)
	saved := other.line() + "\n" + `{"correct":true,"attempted":1,"failed":0,"metrics":{"ns_per_request":{"value":100,"unit":"ns"}}}` + "\n"
	if err := os.WriteFile(path, []byte(saved), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	now := map[string]metricValue{"ns_per_request": {110, "ns"}}
	if err := compareBaseline(path, currentHost(1), now, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warning: baseline host shape") || !strings.Contains(out.String(), "(+10.0%)") {
		t.Fatalf("comparison output:\n%s", out.String())
	}
	out.Reset()
	if err := compareBaseline(path, other, now, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "warning") {
		t.Fatalf("same host shape warned:\n%s", out.String())
	}
}
