package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// hostShape is what a result depends on besides the code: it is
// printed with every result, and a baseline taken on another shape is
// flagged as not comparable.
type hostShape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Workers    int    `json:"workers"`
}

const hostPrefix = "host: "

func currentHost(workers int) hostShape {
	return hostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    workers,
	}
}

func (h hostShape) line() string {
	b, _ := json.Marshal(h) // a struct of ints and strings always marshals
	return hostPrefix + string(b)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// compareBaseline reads a saved benchmark output (its host line and
// result line) and writes each metric's change against it to w,
// warning first when the baseline came from another host shape.
func compareBaseline(path string, host hostShape, now map[string]metricValue, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	defer f.Close()
	var baseHost *hostShape
	var base *result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, hostPrefix):
			var h hostShape
			if err := json.Unmarshal([]byte(line[len(hostPrefix):]), &h); err != nil {
				return fmt.Errorf("baseline host line: %w", err)
			}
			baseHost = &h
		case strings.HasPrefix(line, "{"):
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("baseline result line: %w", err)
			}
			base = &r
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	if base == nil {
		return fmt.Errorf("baseline %s holds no result line", path)
	}
	switch {
	case baseHost == nil:
		fmt.Fprintf(w, "warning: baseline %s records no host shape; the comparison may not be like for like\n", path)
	case *baseHost != host:
		fmt.Fprintf(w, "warning: baseline host shape %s differs from this run's %s; the comparison is not like for like\n",
			baseHost.line(), host.line())
	}
	names := make([]string, 0, len(now))
	for n := range now {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, ok := base.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%s: %g %s (not in baseline)\n", n, now[n].Value, now[n].Unit)
			continue
		}
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(now[n].Value/b.Value-1))
		}
		fmt.Fprintf(w, "%s: %g -> %g %s (%s)\n", n, b.Value, now[n].Value, now[n].Unit, change)
	}
	return nil
}
