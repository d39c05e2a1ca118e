// Command bftrace digests Chrome trace files written by bfc -trace or
// bfsim -trace: it validates them against the trace-event schema, prints
// where compile time went phase by phase, and — given a committed baseline
// of expected phase shares — fails when the distribution drifts beyond a
// tolerance, so a compile-time regression in one phase (a router blowup, a
// scheduler slowdown) is caught by CI rather than hidden inside a total.
// Traces of memoized compiles (bfc -incremental) carry the block-memo cache
// disposition on their "compile" spans; bftrace sums those counters and
// prints a memo reuse line under the phase table.
//
// Usage:
//
//	bftrace trace.json                         # per-phase breakdown
//	bftrace -write-baseline ci/phase-baseline.json *.json
//	bftrace -baseline ci/phase-baseline.json *.json
//
// Shares are compared absolutely: a baseline share of 0.40 with tolerance
// 0.30 accepts anything in [0.10, 0.70]. The default tolerance is generous
// by design — phase shares vary with machine load; only structural shifts
// should fail the check. A phase present in the traces but not in the
// baseline, or the reverse, is such a shift and fails at any tolerance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"biocoder/internal/obs"
)

// phaseNames are the compiler pipeline phases bftrace accounts for: the
// direct children of the "compile" root span plus the front-end spans
// ("parse", "lower") that precede it, and the static-oracle passes bfc
// runs after it ("verify", "analysis", "pinsafe": bfc -verify -analyze
// -pins). Nested detail spans ("block …" with its "schedule", "place" and
// "codegen" stages, "edge …", "route", pinsafe's
// "interference"/"assign"/"broadcast") are deliberately excluded — their
// time is already inside their parent phase's duration and would
// double-count.
var phaseNames = []string{"parse", "lower", "ssi", "topology", "blocks", "edges", "fold", "check",
	"verify", "analysis", "pinsafe"}

// baseline is the committed phase-share snapshot CI diffs against.
type baseline struct {
	Tolerance float64            `json:"tolerance"`
	Phases    map[string]float64 `json:"phases"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bftrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "check phase shares against this baseline JSON; non-zero exit on drift")
	writePath := fs.String("write-baseline", "", "write the measured phase shares as a new baseline JSON")
	tol := fs.Float64("tol", 0.30, "absolute share drift tolerated per phase (overridden by the baseline's own tolerance)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "bftrace: need at least one trace file")
		return 2
	}

	totals := map[string]float64{} // phase -> µs, summed over all files
	var memo memoCounters
	for _, path := range fs.Args() {
		if err := accumulate(path, totals, &memo); err != nil {
			fmt.Fprintf(stderr, "bftrace: %s: %v\n", path, err)
			return 1
		}
	}
	shares := phaseShares(totals)
	if len(shares) == 0 {
		fmt.Fprintln(stderr, "bftrace: no compile-phase events in the given traces")
		return 1
	}

	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
	fmt.Fprintf(stdout, "%-10s %12s %7s\n", "phase", "total", "share")
	for _, n := range names {
		fmt.Fprintf(stdout, "%-10s %10.2fms %6.1f%%\n", n, totals[n]/1000, shares[n]*100)
	}
	if memo.hits+memo.misses > 0 {
		fmt.Fprintf(stdout, "memo: %d hit(s), %d miss(es) (%.0f%% block reuse) across %d memoized compile(s)\n",
			memo.hits, memo.misses,
			100*float64(memo.hits)/float64(memo.hits+memo.misses), memo.compiles)
	}

	if *writePath != "" {
		bl := baseline{Tolerance: *tol, Phases: shares}
		data, err := json.MarshalIndent(bl, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "bftrace: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*writePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bftrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote baseline to %s\n", *writePath)
	}

	if *baselinePath != "" {
		return checkBaseline(*baselinePath, shares, *tol, stdout, stderr)
	}
	return 0
}

// memoCounters aggregates the block-memo cache disposition recorded on
// the "compile" root spans of memoized compiles (bfc -incremental).
type memoCounters struct {
	hits, misses int
	compiles     int // "compile" spans that carried memo counters
}

// accumulate validates one trace file and adds its per-phase durations
// (µs) into totals and its memo cache counters into memo. Only
// compile-track complete events with known phase names count toward the
// phase table; runtime and per-block detail events are ignored.
func accumulate(path string, totals map[string]float64, memo *memoCounters) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ct, err := obs.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	if err := ct.Validate(); err != nil {
		return err
	}
	known := map[string]bool{}
	for _, n := range phaseNames {
		known[n] = true
	}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" || ev.Tid != obs.CompileTrack {
			continue
		}
		if known[ev.Name] {
			totals[ev.Name] += ev.Dur
		}
		if ev.Name == "compile" {
			// JSON numbers decode as float64.
			h, okH := ev.Args["memo_hits"].(float64)
			m, okM := ev.Args["memo_misses"].(float64)
			if okH || okM {
				memo.hits += int(h)
				memo.misses += int(m)
				memo.compiles++
			}
		}
	}
	return nil
}

// phaseShares normalizes the per-phase totals to fractions of their sum.
func phaseShares(totals map[string]float64) map[string]float64 {
	var sum float64
	for _, d := range totals {
		sum += d
	}
	out := map[string]float64{}
	if sum <= 0 {
		return out
	}
	for n, d := range totals {
		out[n] = d / sum
	}
	return out
}

func checkBaseline(path string, shares map[string]float64, tol float64, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "bftrace: %v\n", err)
		return 1
	}
	var bl baseline
	if err := json.Unmarshal(data, &bl); err != nil {
		fmt.Fprintf(stderr, "bftrace: %s: %v\n", path, err)
		return 1
	}
	if bl.Tolerance > 0 {
		tol = bl.Tolerance
	}
	names := map[string]bool{}
	for n := range shares {
		names[n] = true
	}
	for n := range bl.Phases {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	failed := 0
	for _, n := range sorted {
		got, inTraces := shares[n]
		want, inBaseline := bl.Phases[n]
		if inTraces != inBaseline {
			where := "the traces but not the baseline"
			if inBaseline {
				where = "the baseline but not the traces"
			}
			fmt.Fprintf(stderr, "bftrace: phase %q is in %s\n", n, where)
			failed++
			continue
		}
		if drift := math.Abs(got - want); drift > tol {
			fmt.Fprintf(stderr, "bftrace: phase %q share %.3f drifted from baseline %.3f by %.3f (tolerance %.3f)\n",
				n, got, want, drift, tol)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "phase shares within %.2f of baseline %s\n", tol, path)
	return 0
}
