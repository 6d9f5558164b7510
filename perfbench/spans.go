package main

import "time"

// layer names one timed boundary of the traced run. The order fixes
// the array index of each layer's totals.
type layer uint8

const (
	layerInstallCloud  layer = iota // core.NewCloud plus the timing interceptors
	layerInstallDeploy              // core.Install / chat.Install
	layerInstallWarmup              // chat sessions, IoT device registration
	layerTimeline                   // Timeline.RunUntil over the account's span
	layerRequest                    // one workload arrival, client side included
	layerApp                        // the app's Lambda handler
	layerGateway                    // handler stage of each service plane ...
	layerLambda
	layerKMS
	layerS3
	layerSQS
	layerDynamo
	layerSES
	layerObserve // tower and trace rollups of one account
	numLayers
)

// planeLayers maps the services whose planes get a timing interceptor
// to their layer, in metric-name order.
var planeLayers = []struct {
	name  string
	layer layer
}{
	{"gateway", layerGateway},
	{"lambda", layerLambda},
	{"kms", layerKMS},
	{"s3", layerS3},
	{"sqs", layerSQS},
	{"dynamo", layerDynamo},
	{"ses", layerSES},
}

// span is one timed interval. Spans are recorded in the order they
// open, so a parent always precedes its children.
type span struct {
	layer      layer
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the recorder's base instant
}

// recorder collects the spans of one goroutine. Calls nest strictly
// (every boundary is a synchronous call), so an open-span stack gives
// each span its parent.
type recorder struct {
	base  time.Time
	spans []span
	stack []int32
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span of the given layer under the innermost open one.
func (r *recorder) begin(l layer) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{layer: l, parent: parent, start: r.now()})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	r.spans[id].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// layerStats accumulates, per (root layer, layer) pair, the spans'
// count, total duration and self time. The root layer tells install
// work from request work: a plane call under install.warmup is not a
// request's plane call.
type layerStats struct {
	calls [numLayers][numLayers]int64
	total [numLayers][numLayers]int64
	self  [numLayers][numLayers]int64
}

// fold adds a closed span set to the totals. A span's self time is its
// duration minus its direct children's durations; the children of one
// span never overlap, because calls nest on one goroutine.
func (s *layerStats) fold(spans []span) {
	childNs := make([]int64, len(spans))
	root := make([]layer, len(spans))
	for i, sp := range spans {
		root[i] = sp.layer
		if sp.parent >= 0 {
			root[i] = root[sp.parent]
			childNs[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range spans {
		d := sp.end - sp.start
		s.calls[root[i]][sp.layer]++
		s.total[root[i]][sp.layer] += d
		s.self[root[i]][sp.layer] += d - childNs[i]
	}
}

// selfSum is the sum of every span's self time, which equals the sum
// of the root spans' durations.
func (s *layerStats) selfSum() int64 {
	var n int64
	for r := range s.self {
		for l := range s.self[r] {
			n += s.self[r][l]
		}
	}
	return n
}
