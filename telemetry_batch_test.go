// The exec machine records a run of hold cycles once, times its length,
// and flushes the batch before any hook reads the telemetry. A MetricsHook
// therefore sees per-cycle telemetry, and a run with one must end with
// exactly the telemetry and trace of a run without.
package biocoder_test

import (
	"context"
	"reflect"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/codegen"
	"biocoder/internal/exec"
	"biocoder/internal/obs"
)

// hookedRun runs twice through run — once plain, once with a MetricsHook
// that checks the telemetry on every call — and requires identical
// telemetry and traces.
func hookedRun(t *testing.T, opts func() biocoder.RunOptions, run func(biocoder.RunOptions) (*biocoder.Result, error)) {
	t.Helper()
	plain, err := run(opts())
	if err != nil {
		t.Fatal(err)
	}
	o := opts()
	calls := 0
	o.MetricsHook = func(cycle int, m *obs.Metrics) {
		calls++
		checkHistSums(t, cycle, m)
	}
	hooked, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("MetricsHook never ran")
	}
	for _, r := range [...]*biocoder.Result{plain, hooked} {
		for i := range r.Metrics.Recoveries {
			r.Metrics.Recoveries[i].RecompileNanos = 0 // wall clock
		}
	}
	if !reflect.DeepEqual(plain.Metrics, hooked.Metrics) {
		t.Errorf("telemetry differs between batched and per-cycle recording:\nbatched   %+v\nper-cycle %+v", plain.Metrics, hooked.Metrics)
	}
	if !reflect.DeepEqual(plain.Trace, hooked.Trace) {
		t.Errorf("trace differs between batched and per-cycle recording")
	}
}

// checkHistSums requires the telemetry a hook sees to be flushed: it
// counts every cycle run so far, and both histograms count each of them.
func checkHistSums(t *testing.T, cycle int, m *obs.Metrics) {
	t.Helper()
	if m.Cycles != cycle {
		t.Fatalf("cycle %d: the hook sees telemetry for %d cycles", cycle, m.Cycles)
	}
	active, droplets := 0, 0
	for _, n := range m.ActiveHist {
		active += n
	}
	for _, n := range m.DropletHist {
		droplets += n
	}
	if active != m.Cycles || droplets != m.Cycles {
		t.Fatalf("cycle %d: histograms sum to %d active and %d droplet cycles, metrics count %d cycles",
			cycle, active, droplets, m.Cycles)
	}
}

func TestBatchedTelemetryMatchesPerCycle(t *testing.T) {
	for _, a := range assays.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hookedRun(t, func() biocoder.RunOptions {
				return biocoder.RunOptions{Sensors: corpusSensors(a), Metrics: true}
			}, prog.Run)
		})
	}
}

// holdAndNextMove finds, in a clean run, a stretch of at least
// minHold cycles in which no droplet moves, and the first move after it:
// the cycle in the middle of the stretch, and the cell the move enters.
func holdAndNextMove(t *testing.T, prog *biocoder.Compiled, a *assays.Assay, minHold int, ok func(biocoder.Point) bool) (mid int, cell biocoder.Point) {
	t.Helper()
	prev := map[string]biocoder.Point{}
	last := 0 // machine cycle of the last move
	found := false
	opts := biocoder.RunOptions{Sensors: corpusSensors(a)}
	opts.FrameHook = func(cycle int, label string, frame codegen.Frame, ds []*exec.Droplet) {
		for _, d := range ds {
			id := d.ID.String()
			if p, seen := prev[id]; seen && p.Manhattan(d.Pos) == 1 {
				// FrameHook reports the post-increment cycle.
				if !found && cycle-1-last >= minHold && ok(d.Pos) {
					mid, cell, found = (last+cycle-1)/2, d.Pos, true
				}
				last = cycle - 1
			}
			prev[id] = d.Pos
		}
	}
	if _, err := prog.Run(opts); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("no hold of %d cycles followed by a usable move", minHold)
	}
	return mid, cell
}

// A stuck electrode failing inside a hold, found at the next move onto it
// and recovered by recompile-and-resume, and a transient droplet loss
// inside a hold: both runs record the same telemetry batched as per cycle.
func TestBatchedTelemetryMatchesPerCycleUnderFaults(t *testing.T) {
	a := assays.PCR()
	build := func() (*biocoder.BioSystem, error) { return a.Build(), nil }
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recompile := biocoder.Recompiler(build, biocoder.Options{})
	opts := func() biocoder.RunOptions {
		return biocoder.RunOptions{Sensors: corpusSensors(a), Metrics: true}
	}
	const minHold = 1000
	t.Run("stuck electrode", func(t *testing.T) {
		mid, cell := holdAndNextMove(t, prog, a, minHold, func(c biocoder.Point) bool {
			_, err := recompile(context.Background(), []biocoder.Point{c})
			return err == nil
		})
		hookedRun(t, func() biocoder.RunOptions {
			o := opts()
			o.Degradation = &biocoder.Degradation{Stuck: []biocoder.StuckAt{{Cell: cell, Cycle: mid}}}
			return o
		}, func(o biocoder.RunOptions) (*biocoder.Result, error) {
			rr, err := prog.RunWithPolicy(o, biocoder.RecoveryPolicy{Recompile: recompile})
			if err != nil {
				return nil, err
			}
			if rr.Recoveries != 1 || rr.Events[0].Action != "resume" {
				t.Fatalf("want one resumed recovery, got %+v", rr.Events)
			}
			return rr.Result, nil
		})
	})
	t.Run("droplet loss", func(t *testing.T) {
		mid, _ := holdAndNextMove(t, prog, a, minHold, func(biocoder.Point) bool { return true })
		hookedRun(t, opts, func(o biocoder.RunOptions) (*biocoder.Result, error) {
			rr, err := prog.RunWithPolicy(o, biocoder.RecoveryPolicy{Faults: []biocoder.Fault{{Cycle: mid}}})
			if err != nil {
				return nil, err
			}
			if rr.Recoveries != 1 || rr.Events[0].DetectCycle != mid {
				t.Fatalf("want one loss detected at cycle %d, got %+v", mid, rr.Events)
			}
			return rr.Result, nil
		})
	})
}
