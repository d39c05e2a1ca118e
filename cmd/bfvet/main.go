// Command bfvet is the static verifier and linter for BioCoder programs
// and compiled DMFB executables — "go vet" for bioassays.
//
// For every BioScript source given (positional arguments or -assay), bfvet
// lints the pre-SSI control-flow graph (fluid linearity, droplet
// conservation, dead sensor readings, dry-variable flow), compiles the
// program for the target chip, and then verifies the compiled executable by
// symbolically replaying every activation sequence (fluidic constraints,
// port and device discipline, split symmetry, droplet conservation across
// every CFG edge). With -exe, a serialized executable is verified directly.
//
// The analyze subcommand instead runs the abstract-interpretation analyses
// of internal/analysis over the compiled program: droplet volume and
// concentration intervals (BF301-BF303), static best/worst-case timing
// bounds with inferred loop bounds (BF310-BF312), and cross-contamination
// hazards with suggested wash insertion points (BF320-BF321).
//
// The pins subcommand runs the pin-constrained safety analysis of
// internal/pinsafe: it derives the electrode interference graph, reports
// the minimum safe control-pin count (DSATUR), and verifies a pin map —
// the derived one, or an explicit map given with -pinmap — by broadcast
// replay (BF501-BF503). -pins bounds the acceptable pin count, -o writes
// the derived map out, and -deadline additionally checks the static timing
// bounds (BF310-BF312) as under analyze.
//
// The deps subcommand runs the inter-block effect and dependency analysis of
// internal/depgraph: per-block effect summaries (droplet transfers, sensor
// reads, reservoir traffic, chip footprint) with content-addressed block
// fingerprints, plus the three proof obligations behind parallel and
// incremental compilation — inter-block dependency violations (BF601),
// effect-summary divergence against symbolic replay (BF602), and fingerprint
// instability under canonicalization (BF603). -dot exports the block
// dependency graph in Graphviz dot syntax.
//
// Usage:
//
//	bfvet protocol.bio ...
//	bfvet -assay "PCR"
//	bfvet -exe protocol.bfx
//	bfvet -chip chip.cfg -Werror -json protocol.bio
//	bfvet analyze protocol.bio
//	bfvet analyze -deadline 10m -target DNA=0.25:0.05 -json protocol.bio
//	bfvet pins protocol.bio
//	bfvet pins -pins 24 -o protocol.pins -json protocol.bio
//	bfvet pins -pinmap board.pins -Werror protocol.bio
//	bfvet deps protocol.bio
//	bfvet deps -assay "PCR" -dot pcr.dot -json
//
// Diagnostics print one per line as CODE severity [location]: message, or as
// a JSON array with -json. bfvet exits 1 when any error-severity diagnostic
// is found (-Werror promotes warnings — including analysis warnings under
// the analyze subcommand), 2 on usage or I/O problems.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "analyze" {
		return runAnalyze(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "pins" {
		return runPins(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "deps" {
		return runDeps(args[1:], stdout, stderr)
	}
	return runVerify(args, stdout, stderr)
}

// job is one program to verify or analyze: a named lazily built CFG.
type job struct {
	name  string
	graph func() (*cfg.Graph, error)
}

func buildJobs(assayName string, files []string, stderr io.Writer) ([]job, bool) {
	var jobs []job
	if assayName != "" {
		a := assays.ByName(assayName)
		if a == nil {
			fmt.Fprintf(stderr, "bfvet: unknown assay %q (try -list)\n", assayName)
			return nil, false
		}
		jobs = append(jobs, job{name: a.Name, graph: func() (*cfg.Graph, error) { return a.Build().Build() }})
	}
	for _, file := range files {
		file := file
		jobs = append(jobs, job{name: file, graph: func() (*cfg.Graph, error) {
			src, err := os.ReadFile(file)
			if err != nil {
				return nil, err
			}
			bs, err := biocoder.ParseScript(string(src))
			if err != nil {
				return nil, err
			}
			return bs.Build()
		}})
	}
	return jobs, true
}

func loadChip(path string, stderr io.Writer) (*arch.Chip, bool) {
	if path == "" {
		return arch.Default(), true
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "bfvet:", err)
		return nil, false
	}
	chip, err := arch.ParseConfig(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "bfvet:", err)
		return nil, false
	}
	return chip, true
}

func listAssays(stdout io.Writer) {
	for _, a := range assays.All() {
		fmt.Fprintf(stdout, "%-32s %s\n", a.Name, a.Source)
	}
}

func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	assayName := fs.String("assay", "", "verify a benchmark assay by name")
	exeFile := fs.String("exe", "", "verify a serialized executable (.bfx)")
	chipCfg := fs.String("chip", "", "chip configuration file (default: the paper's 15x19 chip)")
	wError := fs.Bool("Werror", false, "treat warnings as errors")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	list := fs.Bool("list", false, "list benchmark assays and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		listAssays(stdout)
		return 0
	}

	chip, ok := loadChip(*chipCfg, stderr)
	if !ok {
		return 2
	}

	jobs, ok := buildJobs(*assayName, fs.Args(), stderr)
	if !ok {
		return 2
	}
	if len(jobs) == 0 && *exeFile == "" {
		fmt.Fprintln(stderr, "bfvet: nothing to verify (give .bio files, -assay, or -exe)")
		fs.Usage()
		return 2
	}

	failed := false
	var targets []jsonTarget
	report := func(name string, rep *verify.Report) {
		if *asJSON {
			targets = append(targets, jsonTarget{Name: name, Diags: diagsJSON(rep)})
			passTimes(stderr, name, rep)
		} else {
			for _, d := range rep.Diags {
				fmt.Fprintf(stdout, "%s: %s\n", name, d)
			}
		}
		if rep.HasErrors() || (*wError && rep.Count(verify.Warning) > 0) {
			failed = true
		}
	}

	for _, j := range jobs {
		g, err := j.graph()
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: %v\n", j.name, err)
			failed = true
			continue
		}
		// Lint the source-level IR before SSI conversion, while diagnostics
		// still map onto the protocol the author wrote.
		rep := verify.Run(&verify.Unit{Graph: g})
		prog, err := biocoder.CompileGraph(g, chip)
		if err != nil {
			report(j.name, rep)
			fmt.Fprintf(stderr, "bfvet: %s: compile: %v\n", j.name, err)
			failed = true
			continue
		}
		rep.Merge(verify.Run(&verify.Unit{
			Graph:     prog.Graph,
			Exec:      prog.Executable,
			Placement: prog.Placement,
		}))
		report(j.name, rep)
	}

	if *exeFile != "" {
		f, err := os.Open(*exeFile)
		if err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
		prog, err := biocoder.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: %v\n", *exeFile, err)
			return 1
		}
		report(*exeFile, verify.Run(&verify.Unit{Exec: prog.Executable}))
	}

	if *asJSON {
		if err := writeJSON(stdout, targets); err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfvet analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	assayName := fs.String("assay", "", "analyze a benchmark assay by name")
	chipCfg := fs.String("chip", "", "chip configuration file (default: the paper's 15x19 chip)")
	wError := fs.Bool("Werror", false, "treat analysis warnings as errors")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON results")
	deadline := fs.Duration("deadline", 0, "fail when the assay cannot finish within this wall-clock budget (BF312)")
	loopBound := fs.Int("loop-bound", 0, "assumed trip count for loops with no derivable bound (default 64)")
	capacity := fs.Float64("capacity", 0, "mixer module capacity in µL (default 40)")
	minVolume := fs.Float64("min-volume", 0, "smallest reliably actuated droplet volume in µL (default 1)")
	list := fs.Bool("list", false, "list benchmark assays and exit")
	var targetsReq []analysis.Target
	fs.Func("target", "require reagent=frac[:tol] reachable at some output (BF303); repeatable", func(s string) error {
		t, err := parseTarget(s)
		if err != nil {
			return err
		}
		targetsReq = append(targetsReq, t)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		listAssays(stdout)
		return 0
	}

	chip, ok := loadChip(*chipCfg, stderr)
	if !ok {
		return 2
	}
	jobs, ok := buildJobs(*assayName, fs.Args(), stderr)
	if !ok {
		return 2
	}
	if len(jobs) == 0 {
		fmt.Fprintln(stderr, "bfvet analyze: nothing to analyze (give .bio files or -assay)")
		fs.Usage()
		return 2
	}

	conf := analysis.Config{
		Deadline:         *deadline,
		AssumedLoopBound: *loopBound,
		MixerCapacityUL:  *capacity,
		MinVolumeUL:      *minVolume,
		Targets:          targetsReq,
	}

	failed := false
	var targets []jsonTarget
	for _, j := range jobs {
		g, err := j.graph()
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: %v\n", j.name, err)
			failed = true
			continue
		}
		prog, err := biocoder.CompileGraph(g, chip)
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: compile: %v\n", j.name, err)
			failed = true
			continue
		}
		res, err := analysis.Analyze(&verify.Unit{
			Graph: prog.Graph,
			Exec:  prog.Executable,
		}, conf)
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: analyze: %v\n", j.name, err)
			failed = true
			continue
		}
		if *asJSON {
			t := jsonTarget{Name: j.name}
			analysisJSON(&t, res)
			targets = append(targets, t)
			passTimes(stderr, j.name, res.Report)
		} else {
			printAnalysis(stdout, j.name, res)
		}
		if res.Report.HasErrors() || (*wError && res.Report.Count(verify.Warning) > 0) {
			failed = true
		}
	}

	if *asJSON {
		if err := writeJSON(stdout, targets); err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

func runPins(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfvet pins", flag.ContinueOnError)
	fs.SetOutput(stderr)
	assayName := fs.String("assay", "", "analyze a benchmark assay by name")
	chipCfg := fs.String("chip", "", "chip configuration file (default: the paper's 15x19 chip)")
	wError := fs.Bool("Werror", false, "treat warnings as errors")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON results")
	pinBudget := fs.Int("pins", 0, "fail when the minimum safe pin count exceeds this budget")
	pinmapFile := fs.String("pinmap", "", "verify this pin map (X Y PIN lines) instead of deriving one")
	outFile := fs.String("o", "", "write the verified pin map to this file")
	deadline := fs.Duration("deadline", 0, "also check the static timing bounds against this wall-clock budget (BF312)")
	list := fs.Bool("list", false, "list benchmark assays and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		listAssays(stdout)
		return 0
	}

	chip, ok := loadChip(*chipCfg, stderr)
	if !ok {
		return 2
	}
	jobs, ok := buildJobs(*assayName, fs.Args(), stderr)
	if !ok {
		return 2
	}
	if len(jobs) == 0 {
		fmt.Fprintln(stderr, "bfvet pins: nothing to analyze (give .bio files or -assay)")
		fs.Usage()
		return 2
	}
	if *outFile != "" && len(jobs) > 1 {
		fmt.Fprintln(stderr, "bfvet pins: -o wants exactly one target")
		return 2
	}

	var pinMap *pinsafe.PinMap
	if *pinmapFile != "" {
		f, err := os.Open(*pinmapFile)
		if err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
		pinMap, err = pinsafe.ParsePinMap(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
	}

	failed := false
	var targets []jsonTarget
	for _, j := range jobs {
		g, err := j.graph()
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: %v\n", j.name, err)
			failed = true
			continue
		}
		prog, err := biocoder.CompileGraph(g, chip)
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: compile: %v\n", j.name, err)
			failed = true
			continue
		}
		unit := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable}
		res, err := pinsafe.Analyze(unit, pinsafe.Config{Map: pinMap})
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: pins: %v\n", j.name, err)
			failed = true
			continue
		}
		rep := res.Report
		if *deadline > 0 {
			// The deadline check is the analyze subcommand's BF310-BF312
			// semantics, scoped to the timing codes so pins output stays
			// about pins.
			ares, err := analysis.Analyze(unit, analysis.Config{Deadline: *deadline})
			if err != nil {
				fmt.Fprintf(stderr, "bfvet: %s: analyze: %v\n", j.name, err)
				failed = true
				continue
			}
			for _, code := range []string{"BF310", "BF311", "BF312"} {
				rep.Merge(verify.NewReport(ares.Report.ByCode(code)))
			}
			rep.PassTimes = append(rep.PassTimes, ares.Report.PassTimes...)
		}
		overBudget := *pinBudget > 0 && res.MinPins > *pinBudget
		if *asJSON {
			t := jsonTarget{Name: j.name}
			pinsJSON(&t, res, rep)
			targets = append(targets, t)
			passTimes(stderr, j.name, rep)
		} else {
			for _, d := range rep.Diags {
				fmt.Fprintf(stdout, "%s: %s\n", j.name, d)
			}
			what := "derived map"
			if !res.Derived {
				what = *pinmapFile
			}
			fmt.Fprintf(stdout, "%s: %d electrodes, %d interference edge(s), minimum %d safe pin(s) (%s: %d pin(s))\n",
				j.name, res.Electrodes, len(res.Conflicts), res.MinPins, what, res.Map.NumPins())
		}
		if overBudget {
			fmt.Fprintf(stderr, "bfvet: %s: minimum safe pin count %d exceeds the budget of %d\n",
				j.name, res.MinPins, *pinBudget)
			failed = true
		}
		if rep.HasErrors() || (*wError && rep.Count(verify.Warning) > 0) {
			failed = true
		}
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				fmt.Fprintln(stderr, "bfvet:", err)
				return 2
			}
			err = res.Map.Write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "bfvet:", err)
				return 2
			}
		}
	}

	if *asJSON {
		if err := writeJSON(stdout, targets); err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

func printAnalysis(w io.Writer, name string, res *analysis.Result) {
	for _, d := range res.Report.Diags {
		fmt.Fprintf(w, "%s: %s\n", name, d)
	}
	if t := res.Timing; t != nil {
		qual := ""
		if t.Unbounded {
			qual = " (assumed loop bounds)"
		}
		fmt.Fprintf(w, "%s: timing: best %d cycles (%v), worst %d cycles (%v)%s\n",
			name, t.BestCycles, t.Best, t.WorstCycles, t.Worst, qual)
		for _, l := range t.Loops {
			how := "bound"
			if l.Exact {
				how = "exact"
			} else if l.Assumed {
				how = "assumed"
			}
			fmt.Fprintf(w, "%s: loop at %s: %d..%d iterations (%s)\n", name, l.Header, l.Lower, l.Upper, how)
		}
	}
	for _, o := range res.Outputs {
		var concs []string
		for r := range o.Conc {
			concs = append(concs, r)
		}
		sort.Strings(concs)
		parts := make([]string, 0, len(concs))
		for _, r := range concs {
			parts = append(parts, fmt.Sprintf("%s %v", r, o.Conc[r]))
		}
		fmt.Fprintf(w, "%s: output at %s: volume %v µL, %s\n", name, o.Port, o.Vol, strings.Join(parts, ", "))
	}
	if n := len(res.Hazards); n > 0 {
		fmt.Fprintf(w, "%s: %d cross-contamination hazard(s), %d wash insertion point(s) suggested\n",
			name, n, len(res.Suggestions))
	}
}

// parseTarget parses "reagent=frac" or "reagent=frac:tol".
func parseTarget(s string) (analysis.Target, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return analysis.Target{}, fmt.Errorf("want reagent=frac[:tol], got %q", s)
	}
	fracStr, tolStr, hasTol := strings.Cut(rest, ":")
	frac, err := strconv.ParseFloat(fracStr, 64)
	if err != nil {
		return analysis.Target{}, fmt.Errorf("bad fraction in %q: %v", s, err)
	}
	tol := 0.01
	if hasTol {
		tol, err = strconv.ParseFloat(tolStr, 64)
		if err != nil {
			return analysis.Target{}, fmt.Errorf("bad tolerance in %q: %v", s, err)
		}
	}
	return analysis.Target{Reagent: name, Fraction: frac, Tolerance: tol}, nil
}
