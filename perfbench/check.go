package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

// digest fingerprints a fleet run's simulated outputs, one hash per
// part, so a mismatch can name the part that moved.
type digest struct {
	Accounts  string // per-account kind, requests, cold starts, monthly cost
	Latencies string // every request latency, in account order
	Gaps      string // the cold-start-vs-gap histogram
}

// digestParts names the digest's parts in the order String prints them.
var digestParts = []string{"accounts", "latencies", "gaps"}

func (d digest) parts() []string { return []string{d.Accounts, d.Latencies, d.Gaps} }

func (d digest) String() string { return strings.Join(d.parts(), " ") }

// diff names the parts in which got differs from want.
func (d digest) diff(want digest) []string {
	var out []string
	g, w := d.parts(), want.parts()
	for i := range g {
		if g[i] != w[i] {
			out = append(out, digestParts[i])
		}
	}
	return out
}

func parseDigest(s string) (digest, error) {
	f := strings.Fields(s)
	if len(f) != len(digestParts) {
		return digest{}, fmt.Errorf("digest %q: want %d parts", s, len(digestParts))
	}
	return digest{Accounts: f[0], Latencies: f[1], Gaps: f[2]}, nil
}

// digestOf hashes the outputs of a fleet run. Simulated time and money
// only: nothing host-dependent goes in.
func digestOf(res *fleet.Result) digest {
	acc, lat, gap := sha256.New(), sha256.New(), sha256.New()
	for _, a := range res.PerAccount {
		putInts(acc, int64(a.Index), int64(a.Kind), int64(a.Requests), int64(a.ColdStarts), a.MonthlyCost.Nanodollars())
	}
	for _, l := range res.Latencies {
		putInts(lat, int64(l))
	}
	for _, b := range res.GapBuckets {
		gap.Write([]byte(b.Label))
		putInts(gap, int64(b.UpTo), int64(b.Requests), int64(b.ColdStarts))
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }
	return digest{Accounts: sum(acc), Latencies: sum(lat), Gaps: sum(gap)}
}

func putInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// references.txt pins the digest of every workload configuration for
// seeds 1-100, one "<config> <seed> <digest>" line each, written by
// --write-references at the commit that added the benchmark.
//
//go:embed references.txt
var referenceText string

// reference looks up the pinned digest for a configuration and seed.
func reference(config string, seed int64) (digest, bool, error) {
	sc := bufio.NewScanner(strings.NewReader(referenceText))
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 3)
		if len(f) != 3 || f[0] != config {
			continue
		}
		if s, err := strconv.ParseInt(f[1], 10, 64); err != nil || s != seed {
			continue
		}
		d, err := parseDigest(f[2])
		return d, err == nil, err
	}
	return digest{}, false, nil
}

// goldenPath is the fleet golden, relative to the repository root. It
// pins experiments.DefaultFleetConfig: 1,000 accounts, 30 minutes,
// seed 1.
const goldenPath = "internal/experiments/testdata/ledger_fleet.golden"

// checkGolden runs the golden's fleet and compares its rendered report
// with the golden, read without changing it. It returns the first
// difference ("" when they match) and the requests the run served.
func checkGolden() (string, int64, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return "", 0, fmt.Errorf("reading the fleet golden: %w", err)
	}
	cfg := experiments.DefaultFleetConfig()
	cfg.Workers = 2
	res, err := fleet.Run(cfg)
	if err != nil {
		return "", 0, fmt.Errorf("golden fleet: %w", err)
	}
	return reportDiff(res, string(golden)), int64(res.TotalRequests), nil
}

// reportDiff compares a run's rendered report with a golden and
// describes the first differing line, or returns "" when they match.
func reportDiff(res *fleet.Result, golden string) string {
	rep := &experiments.FleetReport{Result: res}
	got := rep.Render() + rep.RawFingerprint() + rep.RenderAccounts()
	if got == golden {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(golden, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(gl), len(wl))
}
