package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/codegen"
	"biocoder/internal/exec"
	"biocoder/internal/ir"
	"biocoder/internal/obs"
	"biocoder/internal/sensor"
)

// operate is the chip operator's closed loop over all six Table 1 assays:
// each pass runs the eight scripted Table 1 scenarios, one seeded
// uniform-sensor run per assay (§7.1), and one run per assay with a
// mid-assay stuck electrode under RunWithPolicy with the full Recompiler —
// the default of `bfsim -recover recompile`.
type operate struct {
	e      *env
	assays []*opAssay
	// first-pass outcomes every later pass must reproduce exactly.
	faultCycles map[string][2]int
}

type opAssay struct {
	a     *assays.Assay
	short string
	prog  *biocoder.Compiled
	seed  int64 // sensor seed of the seeded run
	stuck biocoder.StuckAt
}

func setupOperate(e *env) (runner, error) {
	rng := rand.New(rand.NewSource(e.seed))
	o := &operate{e: e, faultCycles: map[string][2]int{}}
	for _, a := range assays.All() {
		oa, err := newOpAssay(e, a, rng)
		if err != nil {
			return nil, err
		}
		o.assays = append(o.assays, oa)
	}
	return o, nil
}

// newOpAssay compiles one assay and draws its sensor seed and stuck cell.
func newOpAssay(e *env, a *assays.Assay, rng *rand.Rand) (*opAssay, error) {
	if e.refs.Assays[a.Name] == nil {
		return nil, fmt.Errorf("refs.json has no entry for %s", a.Name)
	}
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	oa := &opAssay{a: a, short: shortOf[a.Name], prog: prog, seed: 1 + rng.Int63n(assaySeedPool)}
	if oa.stuck, err = probeStuck(a, prog, rng.Intn(stuckBand)); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return oa, nil
}

// faultSensors is the sensor model of a faulted run, as in the recovery
// corpus test: the assay's first scenario over its uniform ranges.
func faultSensors(a *assays.Assay) sensor.Model {
	u := uniformFor(a, 1)
	if len(a.Scenarios) == 0 {
		return u
	}
	m := sensor.NewScripted(a.Scenarios[0].Script)
	m.Fallback = u
	return m
}

// probeStuck is the stuck-cell probe of recovery_corpus_test.go with a
// shifted start: it runs the assay cleanly, recording every droplet move,
// starts back moves before the middle of the run, and walks back to the
// first move whose target cell, marked defective, still admits a
// recompile. The fault is then detectable (a move is commanded onto it)
// and recoverable (a placement avoids it).
func probeStuck(a *assays.Assay, prog *biocoder.Compiled, back int) (biocoder.StuckAt, error) {
	type move struct {
		cycle int
		cell  biocoder.Point
	}
	var moves []move
	prev := map[ir.FluidID]biocoder.Point{}
	opts := biocoder.RunOptions{Sensors: faultSensors(a)}
	opts.FrameHook = func(cycle int, label string, frame codegen.Frame, ds []*exec.Droplet) {
		for _, d := range ds {
			if p, ok := prev[d.ID]; ok && p.Manhattan(d.Pos) == 1 {
				moves = append(moves, move{cycle, d.Pos})
			}
			prev[d.ID] = d.Pos
		}
	}
	clean, err := prog.Run(opts)
	if err != nil {
		return biocoder.StuckAt{}, fmt.Errorf("clean probe run: %w", err)
	}
	if len(moves) == 0 {
		return biocoder.StuckAt{}, fmt.Errorf("no droplet moves observed")
	}
	mid := len(moves) - 1
	for i, mv := range moves {
		if mv.cycle*2 >= clean.Cycles {
			mid = i
			break
		}
	}
	start := mid - back
	if start < 0 {
		start = 0
	}
	recompile := biocoder.Recompiler(func() (*biocoder.BioSystem, error) { return a.Build(), nil }, biocoder.Options{})
	for i := start; i >= 0; i-- {
		mv := moves[i]
		if _, err := recompile(context.Background(), []biocoder.Point{mv.cell}); err == nil {
			// FrameHook reports the post-increment cycle; the move was
			// commanded at machine cycle mv.cycle-1.
			return biocoder.StuckAt{Cell: mv.cell, Cycle: mv.cycle - 1}, nil
		}
	}
	return biocoder.StuckAt{}, fmt.Errorf("no recompilable stuck cell found")
}

// stuckBand is how many moves before the middle of the run the seed may
// move the start of the stuck-cell probe.
const stuckBand = 16

func (o *operate) close() {}

// measure runs whole passes until window has elapsed, pacing ctl's
// repetitions between operations. Host time is process CPU time (see
// NOTES.md).
//
//   - sim_mcycles_s: simulated cycles ÷ host seconds over every clean run.
//   - recover_s: the sum over assays of the median host time of its
//     faulted run, so one slow recompile in one pass does not move it.
//   - alloc_mb: heap allocated per pass by the workload's own operations.
func (o *operate) measure(window time.Duration, tc *tracing, ctl *control) (map[string]float64, error) {
	var (
		cycles  int
		simTime time.Duration
		alloc   uint64
		faulted = map[string][]float64{}
	)
	simCycles := map[string]int{}
	simHost := map[string]time.Duration{}
	start := time.Now()
	// step runs one operation, charges its allocation to the pass and
	// counts it, then runs the control repetitions now due.
	step := func(op func() error) {
		m0 := totalAlloc()
		err := op()
		alloc += totalAlloc() - m0
		o.e.ops.op(err)
		ctl.pace(float64(time.Since(start)) / float64(window))
	}
	clean := func(oa *opAssay, m sensor.Model) (*biocoder.Result, error) {
		f := tc.begin("run")
		c0 := cpuTime()
		res, err := oa.prog.Run(biocoder.RunOptions{Sensors: m})
		d := cpuTime() - c0
		tc.end(f, "exec")
		if err != nil {
			return nil, err
		}
		cycles += res.Cycles
		simTime += d
		simCycles[oa.short] += res.Cycles
		simHost[oa.short] += d
		return res, nil
	}
	passes := 0
	for passes == 0 || time.Since(start) < window {
		pf := tc.begin("pass")
		for _, oa := range o.assays {
			for _, sc := range oa.a.Scenarios {
				step(func() error {
					m := sensor.NewScripted(sc.Script)
					m.Fallback = sensor.NewUniform(1)
					res, err := clean(oa, m)
					if err == nil {
						dev := (res.Time.Seconds() - sc.PaperTime.Seconds()) / sc.PaperTime.Seconds()
						if dev > 0.005 || dev < -0.005 {
							err = fmt.Errorf("simulated %v, paper %v (%+.2f%%)", res.Time, sc.PaperTime, 100*dev)
						}
					}
					return wrap(err, "operate %s/%s", oa.a.Name, sc.Name)
				})
			}
		}
		for _, oa := range o.assays {
			step(func() error {
				res, err := clean(oa, uniformFor(oa.a, oa.seed))
				if err == nil {
					if want := o.e.refs.Assays[oa.a.Name].SeedCycles[oa.seed-1]; res.Cycles != want {
						err = fmt.Errorf("%d cycles, recorded %d", res.Cycles, want)
					}
				}
				return wrap(err, "operate %s seed %d", oa.a.Name, oa.seed)
			})
		}
		for _, oa := range o.assays {
			step(func() error {
				c0 := cpuTime()
				err := o.faulted(oa, tc)
				faulted[oa.short] = append(faulted[oa.short], (cpuTime() - c0).Seconds())
				return wrap(err, "operate %s stuck (%d,%d)@%d", oa.a.Name, oa.stuck.Cell.X, oa.stuck.Cell.Y, oa.stuck.Cycle)
			})
		}
		tc.end(pf, "")
		passes++
	}
	recover := 0.0
	for _, oa := range o.assays {
		recover += median(faulted[oa.short])
	}
	if tc != nil {
		roots := tc.forest()
		rec := obs.NamedTotal(roots, "recovery-recompile") + obs.NamedTotal(roots, "recovery-repair")
		tc.set("exec.recovery_ms", (ms(rec)-tc.acc["hook_ms"])/float64(passes))
		for short, c := range simCycles {
			tc.set("exec.ns_per_cycle."+short, float64(simHost[short].Nanoseconds())/float64(c))
		}
	}
	tc.finish(float64(passes))
	return map[string]float64{
		"sim_mcycles_s": float64(cycles) / 1e6 / simTime.Seconds(),
		"recover_s":     recover,
		"alloc_mb":      float64(alloc) / mib / float64(passes),
		"pass_s":        time.Since(start).Seconds() / float64(passes),
	}, nil
}

func (o *operate) headline(m map[string]float64) float64 { return m["pass_s"] }

// faulted runs the assay with its stuck electrode under the recovery
// controller and checks that the fault was detected and the run resumed
// on a recompiled program. The first pass records cycles and lost time;
// later passes must reproduce them exactly.
func (o *operate) faulted(oa *opAssay, tc *tracing) error {
	build := func() (*biocoder.BioSystem, error) { return oa.a.Build(), nil }
	full := biocoder.Recompiler(build, biocoder.Options{})
	pol := biocoder.RecoveryPolicy{Recompile: full}
	if tc != nil {
		pol.Tracer = tc.tr
		pol.Recompile = func(ctx context.Context, faults []biocoder.Point) (*biocoder.Compiled, error) {
			f := tc.begin("recompile")
			p, err := biocoder.Recompiler(build, biocoder.Options{Tracer: tc.tr})(ctx, faults)
			tc.end(f, "compile."+oa.short)
			tc.add("compile."+oa.short+".ms", ms(f.sp.Duration))
			tc.add("hook_ms", ms(f.sp.Duration))
			return p, err
		}
	}
	f := tc.begin("recover")
	res, err := oa.prog.RunWithPolicy(biocoder.RunOptions{
		Sensors:     faultSensors(oa.a),
		Degradation: &biocoder.Degradation{Stuck: []biocoder.StuckAt{oa.stuck}},
	}, pol)
	tc.end(f, "exec")
	if err != nil {
		return err
	}
	if res.Recoveries < 1 || len(res.Events) == 0 {
		return fmt.Errorf("fault went undetected")
	}
	last := res.Events[len(res.Events)-1]
	if last.Kind != "stuck-electrode" || !last.Recompiled || last.Action != "resume" {
		return fmt.Errorf("last recovery %s recompiled=%t action=%s, want a recompiled resume", last.Kind, last.Recompiled, last.Action)
	}
	tc.add("exec.lost_cycles", float64(res.LostTime))
	got := [2]int{res.Cycles, res.LostTime}
	if want, ok := o.faultCycles[oa.short]; ok && got != want {
		return fmt.Errorf("cycles/lost %v, first pass %v", got, want)
	}
	o.faultCycles[oa.short] = got
	return nil
}

func wrap(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
