// Command perfbench is the fleet-replay benchmark. It runs fleet.Run
// through its public API on one of three workloads, for a fixed host
// time, and reports host-time metrics: simulated time is never one.
// Every run's simulated outputs are checked against a reference. With
// --trace 1 it reports per-layer metrics instead, from a
// single-goroutine traced copy of the per-account loop that must first
// reproduce every account's meter ledger, and from isolated timings of
// the leaf layers.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/fleet"
)

// setupProbes is how many times a run re-measures its own set-up.
const setupProbes = 3

// benchWorkers is the fleet worker count of the timed runs. One
// worker leaves the second CPU of a two-CPU host to the garbage
// collector and the host, which keeps run-to-run spread and the heap
// peak steady; the engine's results do not depend on it.
const benchWorkers = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "fleet-mix", "workload: fleet-mix, install-churn or fleet-observed")
	seed := fs.Int64("seed", 1, "workload seed, passed as fleet.Config.Seed")
	seconds := fs.Int("seconds", 30, "host seconds of timed runs")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	baseline := fs.String("baseline", "", "saved output of an earlier run to compare with")
	probe := fs.Bool("probe-setup", false, "set up and exit (used to time set-up)")
	writeRefs := fs.Int("write-references", 0, "print the reference digests of seeds 1..N and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRefs > 0 {
		return writeReferences(*writeRefs, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *seed == 0 {
		*seed = 1 // fleet.Config's default, so references line up
	}
	shared, err := setup(w, *seed, benchWorkers)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	if *probe {
		return 0
	}
	host := currentHost(benchWorkers)
	before := readRuntimeCounters()
	runs := measure(w, *seed, benchWorkers, time.Duration(*seconds)*time.Second)
	after := readRuntimeCounters()

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	if err := checkRuns(w, *seed, runs, &res, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traceMode == 0 {
		setupS, err := probeSetup(w, *seed, setupProbes)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		endToEndMetrics(runs, setupS, res.Metrics)
	} else {
		layers, err := perLayerMetrics(w, *seed, shared, runs, before, after)
		if err != nil {
			fmt.Fprintln(stdout, "traced run:", err)
			res.Correct = false
		} else {
			res.Metrics = layers
		}
	}

	fmt.Fprintln(stdout, host.line())
	for _, n := range sortedNames(res.Metrics) {
		fmt.Fprintf(stdout, "%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if *baseline != "" {
		if err := compareBaseline(*baseline, host, res.Metrics, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkRuns compares every run's outputs with the reference, and
// books attempted and failed simulated requests: a run that errored or
// whose outputs differ fails all of its requests. At seed 1 of a
// 30-minute workload it also replays the golden fleet and checks its
// report, booked as one more run.
func checkRuns(w workloadDef, seed int64, runs []runSample, res *result, out io.Writer) error {
	ref, ok, err := reference(w.refConfig(), seed)
	if err != nil {
		return err
	}
	source := "pinned reference"
	if !ok {
		// No pinned digest for this seed: replay on two workers, which
		// the engine's determinism contract says must agree.
		cfg := w.config(seed, 2)
		cfg.Trace, cfg.Tower = false, nil
		rep, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		ref, source = digestOf(rep), "two-worker replay"
	}
	var expect int64 = 1
	for _, s := range runs {
		if s.err == nil {
			expect = int64(s.requests)
		}
	}
	for i, s := range runs {
		var why string
		switch {
		case s.err != nil:
			why = "fleet.Run failed: " + s.err.Error()
		case len(s.digest.diff(ref)) > 0:
			why = fmt.Sprintf("outputs differ from the %s in %v", source, s.digest.diff(ref))
		}
		n := expect
		if s.err == nil {
			n = int64(s.requests)
		}
		res.Attempted += n
		if why != "" {
			res.Failed += n
			res.Correct = false
			fmt.Fprintf(out, "run %d: %s\n", i+1, why)
		}
	}
	if seed == 1 && w.span == 30*time.Minute {
		msg, n, err := checkGolden()
		if err != nil {
			return err
		}
		res.Attempted += n
		if msg != "" {
			res.Failed += n
			res.Correct = false
			fmt.Fprintf(out, "golden run: report differs from %s: %s\n", goldenPath, msg)
		}
	}
	fmt.Fprintf(out, "workload %s seed %d: %d runs of %d accounts, %d requests each; outputs checked against the %s; failed_frac %g\n",
		w.name, seed, len(runs), w.accounts, expect, source, float64(res.Failed)/float64(res.Attempted))
	return nil
}

// endToEndMetrics reports the median over runs of each end-to-end
// metric.
func endToEndMetrics(runs []runSample, setupS float64, m map[string]metricValue) {
	var nsPerReq, accPerS, heapMB []float64
	for _, s := range runs {
		if s.err != nil || s.requests == 0 {
			continue
		}
		nsPerReq = append(nsPerReq, float64(s.wallNs)/float64(s.requests))
		accPerS = append(accPerS, float64(s.accounts)/(float64(s.wallNs)/1e9))
		heapMB = append(heapMB, float64(s.peakHeap)/1e6)
	}
	if len(nsPerReq) == 0 {
		return
	}
	m["ns_per_request"] = metricValue{median(nsPerReq), "ns"}
	m["accounts_per_s"] = metricValue{median(accPerS), "1/s"}
	m["peak_heap_mb"] = metricValue{median(heapMB), "MB"}
	m["setup_s"] = metricValue{setupS, "s"}
}

// writeReferences prints the digest of every distinct workload
// configuration for seeds 1..n, in references.txt's format.
func writeReferences(n int, stdout, stderr io.Writer) int {
	seen := map[string]bool{}
	for _, w := range workloads {
		if seen[w.refConfig()] {
			continue
		}
		seen[w.refConfig()] = true
		for seed := int64(1); seed <= int64(n); seed++ {
			cfg := w.config(seed, 2)
			cfg.Trace, cfg.Tower = false, nil
			res, err := fleet.Run(cfg)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s %d %s\n", w.refConfig(), seed, digestOf(res))
		}
	}
	return 0
}
