package main

import (
	"fmt"
	"math/rand"
	"time"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/depgraph"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

// verdicter runs the protocol author's loop on one BioScript source:
// ParseScript → Compile → verify.Run → depgraph.Analyze → pinsafe.Analyze →
// analysis.Analyze, with every option at its default, as
// `bfc -verify -analyze -pins` and `bfvet deps` do.
type verdicter struct {
	key depgraph.Key
}

func newVerdicter() (*verdicter, error) {
	key, err := depgraph.KeyFor(biocoder.Version, biocoder.DefaultChip(), biocoder.Options{}.CanonicalText())
	if err != nil {
		return nil, err
	}
	return &verdicter{key: key}, nil
}

// verdictOut is one full verdict: the program, its serialized executable,
// the diagnostics of all four checkers by code, and verify's error count.
type verdictOut struct {
	prog         *biocoder.Compiled
	exe          string
	codes        map[string]int
	verifyErrors int
}

// verdict runs the whole chain on src. short names the assay in per-assay
// metrics; tc, when non-nil, records a span around every call.
func (v *verdicter) verdict(src string, tc *tracing, short ...string) (*verdictOut, error) {
	key := "compile"
	if len(short) > 0 {
		key = "compile." + short[0]
	}
	f := tc.begin("parse")
	bs, err := biocoder.ParseScript(src)
	tc.end(f, "parser")
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	opt := biocoder.Options{}
	if tc != nil {
		opt.Tracer = tc.tr
	}
	f = tc.begin("biocoder.Compile")
	prog, err := biocoder.Compile(bs, opt)
	tc.end(f, key)
	if f != nil {
		tc.add(key+".ms", ms(f.sp.Duration))
	}
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	f = tc.begin("verify")
	vrep := verify.Run(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Placement: prog.Placement})
	tc.end(f, "verify")
	tc.passTimes(f, "verify", vrep.PassTimes)

	unit := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable}
	f = tc.begin("depgraph")
	dres, err := depgraph.Analyze(unit, depgraph.Config{Key: v.key})
	tc.end(f, "depgraph")
	if err != nil {
		return nil, fmt.Errorf("depgraph: %w", err)
	}
	tc.passTimes(f, "depgraph", dres.Report.PassTimes)

	pconf := pinsafe.Config{}
	if tc != nil {
		pconf.Tracer = tc.tr
	}
	f = tc.begin("pinsafe.Analyze")
	pres, err := pinsafe.Analyze(unit, pconf)
	tc.end(f, "pinsafe")
	if err != nil {
		return nil, fmt.Errorf("pinsafe: %w", err)
	}

	f = tc.begin("analysis")
	ares, err := analysis.Analyze(unit, analysis.Config{})
	tc.end(f, "analysis")
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	tc.passTimes(f, "analysis", ares.Report.PassTimes)

	exe, err := exeText(prog)
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	return &verdictOut{
		prog:         prog,
		exe:          exe,
		codes:        countCodes(vrep, dres.Report, pres.Report, ares.Report),
		verifyErrors: vrep.Count(verify.Error),
	}, nil
}

// check compares a verdict with the recorded reference of its script.
func (o *verdictOut) check(ref *scriptRef) error {
	if o.verifyErrors != 0 {
		return fmt.Errorf("verify reports %d errors", o.verifyErrors)
	}
	if got := hash(o.exe); got != ref.ExeSHA256 {
		return fmt.Errorf("executable sha256 %s, recorded %s", got[:12], ref.ExeSHA256[:12])
	}
	if d := diffCodes(o.codes, ref.Codes); d != "" {
		return fmt.Errorf("diagnostic counts differ: %s", d)
	}
	return nil
}

// author is the protocol author's closed loop: one client, passes over the
// five smaller scripts in a seed-chosen order, every pass identical.
type author struct {
	e       *env
	v       *verdicter
	order   []string
	sources map[string]string
}

func setupAuthor(e *env) (runner, error) {
	srcs, err := loadScripts(e.root)
	if err != nil {
		return nil, err
	}
	v, err := newVerdicter()
	if err != nil {
		return nil, err
	}
	a := &author{e: e, v: v, sources: srcs}
	for _, i := range rand.New(rand.NewSource(e.seed)).Perm(len(smallScripts)) {
		a.order = append(a.order, smallScripts[i])
	}
	for _, f := range a.order {
		if e.refs.Scripts[f] == nil {
			return nil, fmt.Errorf("refs.json has no entry for %s", f)
		}
	}
	// One compile of each script finishes the compiler's lazy set-up
	// before the first timed pass, and makes set-up time rest on compile
	// work rather than on a few milliseconds of server start (NOTES.md).
	for _, f := range a.order {
		bs, err := biocoder.ParseScript(srcs[f])
		if err == nil {
			_, err = biocoder.Compile(bs, biocoder.Options{})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return a, nil
}

func (a *author) close() {}

// measure runs whole passes until window has elapsed. verdict_s sums each
// script's median verdict time over the passes, in process CPU seconds (see
// NOTES.md), so one slow op in one pass does not move it; alloc_mb is the
// heap allocated per pass by the verdicts alone, without the control
// repetitions ctl runs between them.
func (a *author) measure(window time.Duration, tc *tracing, ctl *control) (map[string]float64, error) {
	per := map[string][]float64{}
	var alloc uint64
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < window {
		pf := tc.begin("pass")
		for _, f := range a.order {
			m0 := totalAlloc()
			c0 := cpuTime()
			out, err := a.v.verdict(a.sources[f], tc, shortOf[f])
			per[f] = append(per[f], (cpuTime() - c0).Seconds())
			alloc += totalAlloc() - m0
			if err == nil {
				err = out.check(a.e.refs.Scripts[f])
			}
			a.e.ops.op(wrap(err, "author %s", f))
			ctl.pace(float64(time.Since(start)) / float64(window))
		}
		tc.end(pf, "")
		passes++
	}
	verdict := 0.0
	for _, f := range a.order {
		verdict += median(per[f])
	}
	tc.finish(float64(passes))
	return map[string]float64{
		"verdict_s": verdict,
		"alloc_mb":  float64(alloc) / mib / float64(passes),
	}, nil
}

func (a *author) headline(m map[string]float64) float64 { return m["verdict_s"] }
