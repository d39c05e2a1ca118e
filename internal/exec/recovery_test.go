package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/lang"
	"biocoder/internal/place"
	"biocoder/internal/sched"
	"biocoder/internal/sensor"
)

func recoveryAssay(bs *lang.BioSystem) {
	f := bs.NewFluid("F", 10)
	c := bs.NewContainer("c")
	bs.MeasureFluid(f, c)
	bs.Vortex(c, 5*time.Second)
	bs.Weigh(c, "w")
	bs.If("w", lang.LessThan, 0.5)
	bs.StoreFor(c, 95, 2*time.Second)
	bs.EndIf()
	bs.Drain(c, "")
}

func TestRecoveryFromDropletLoss(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)

	clean, err := Run(ex, chip, Options{Sensors: sensor.Constant(0.9)})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	res, err := RunWithPolicy(ex, chip, Options{Sensors: sensor.Constant(0.9)},
		RecoveryPolicy{Faults: []Fault{{Cycle: 300}}, MaxAttempts: 3})
	if err != nil {
		t.Fatalf("RunWithPolicy: %v", err)
	}
	if res.Recoveries != 1 || res.Attempts != 2 {
		t.Errorf("recoveries/attempts = %d/%d, want 1/2", res.Recoveries, res.Attempts)
	}
	// The final run completes the assay; total time includes the wasted
	// prefix plus flush overhead.
	if res.Collected != clean.Collected || res.Dispensed != clean.Dispensed {
		t.Errorf("recovered outcome differs: %d/%d vs clean %d/%d",
			res.Dispensed, res.Collected, clean.Dispensed, clean.Collected)
	}
	if res.Time <= clean.Time {
		t.Errorf("recovered run (%v) must cost more than a clean run (%v)", res.Time, clean.Time)
	}
	wasted := res.Cycles - clean.Cycles
	if wasted < 300 {
		t.Errorf("lost time %d cycles should cover the wasted prefix (≥300)", wasted)
	}
}

func TestRecoveryMultipleFaults(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	res, err := RunWithPolicy(ex, chip, Options{Sensors: sensor.Constant(0.9)},
		RecoveryPolicy{Faults: []Fault{{Cycle: 200}, {Cycle: 400}}, MaxAttempts: 5})
	if err != nil {
		t.Fatalf("RunWithPolicy: %v", err)
	}
	if res.Recoveries != 2 || res.Attempts != 3 {
		t.Errorf("recoveries/attempts = %d/%d, want 2/3", res.Recoveries, res.Attempts)
	}
}

func TestRecoveryGivesUp(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	// More faults than attempts allowed.
	faults := []Fault{{Cycle: 100}, {Cycle: 100}, {Cycle: 100}, {Cycle: 100}}
	_, err := RunWithPolicy(ex, chip, Options{Sensors: sensor.Constant(0.9)},
		RecoveryPolicy{Faults: faults, MaxAttempts: 3})
	if err == nil || !strings.Contains(err.Error(), "recovery attempts") {
		t.Fatalf("want give-up error, got %v", err)
	}
}

func TestRecoveryNoFaultsIsPlainRun(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	res, err := RunWithPolicy(ex, chip, Options{Sensors: sensor.Constant(0.9)}, RecoveryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 || res.Attempts != 1 || res.LostTime != 0 {
		t.Errorf("clean recovery run should be a plain run: %+v", res)
	}
	plain, err := Run(ex, chip, Options{Sensors: sensor.Constant(0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != plain.Cycles {
		t.Errorf("cycles differ: %d vs %d", res.Cycles, plain.Cycles)
	}
}

func TestLossDetectionIsPrompt(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	o := Options{Sensors: sensor.Constant(0.9)}
	o.faults = []Fault{{Cycle: 250}}
	_, err := Run(ex, chip, o)
	loss, ok := errAsLoss(err)
	if !ok {
		t.Fatalf("want loss signal, got %v", err)
	}
	// Detection happens within one cycle of the loss.
	if loss.Cycle < 250 || loss.Cycle > 251 {
		t.Errorf("loss detected at cycle %d, injected at 250", loss.Cycle)
	}
	if loss.Droplet == "" {
		t.Error("loss signal should name the droplet")
	}
}

// compileFaulty mirrors the compile helper but returns errors (the
// recompile hook must report failure, not abort the test) and accepts a
// defective-electrode set, exercising the same compile-around pipeline
// biocoder.Recompiler uses.
func compileFaulty(chip *arch.Chip, rec func(bs *lang.BioSystem), faults []arch.Point) (*codegen.Executable, error) {
	bs := lang.New()
	rec(bs)
	g, err := bs.Build()
	if err != nil {
		return nil, err
	}
	if err := cfg.ToSSI(g); err != nil {
		return nil, err
	}
	topo, err := place.BuildTopologyFaulty(chip, faults)
	if err != nil {
		return nil, err
	}
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		return nil, err
	}
	pl, err := place.Place(g, sr, topo, place.Virtual)
	if err != nil {
		return nil, err
	}
	ex, err := codegen.Generate(g, sr, pl, topo)
	if err != nil {
		return nil, err
	}
	if err := ex.Check(); err != nil {
		return nil, err
	}
	return ex, nil
}

// probeStuckCell runs the assay cleanly and picks a mid-assay droplet move
// whose target cell, marked defective, still admits a recompilation —
// guaranteeing the stuck electrode is both detectable (a move is
// commanded onto it) and recoverable (the placement can avoid it).
func probeStuckCell(t *testing.T, ex *codegen.Executable, chip *arch.Chip, opts Options, rec func(bs *lang.BioSystem)) StuckAt {
	t.Helper()
	type move struct {
		cycle int
		cell  arch.Point
	}
	var moves []move
	prev := map[string]arch.Point{}
	o := opts
	o.FrameHook = func(cycle int, label string, frame codegen.Frame, ds []*Droplet) {
		for _, d := range ds {
			id := d.ID.String()
			if p, ok := prev[id]; ok && p.Manhattan(d.Pos) == 1 {
				moves = append(moves, move{cycle, d.Pos})
			}
			prev[id] = d.Pos
		}
	}
	clean, err := Run(ex, chip, o)
	if err != nil {
		t.Fatalf("clean probe run: %v", err)
	}
	if len(moves) == 0 {
		t.Fatal("no droplet moves observed")
	}
	// Prefer a move past the midpoint (so recovery has real work to save),
	// falling back toward earlier ones until recompilation succeeds.
	start := 0
	for i, mv := range moves {
		if mv.cycle*2 >= clean.Cycles {
			start = i
			break
		}
	}
	for i := start; i >= 0; i-- {
		mv := moves[i]
		if _, err := compileFaulty(chip, rec, []arch.Point{mv.cell}); err == nil {
			// FrameHook reports the post-increment cycle; the move was
			// commanded at machine cycle mv.cycle-1.
			return StuckAt{Cell: mv.cell, Cycle: mv.cycle - 1}
		}
	}
	t.Fatal("no recompilable stuck cell found")
	return StuckAt{}
}

func TestRecoveryRecompileResume(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	opts := Options{Sensors: sensor.Constant(0.9), Metrics: true}
	clean, err := Run(ex, chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	sa := probeStuckCell(t, ex, chip, opts, recoveryAssay)

	recompiles := 0
	pol := RecoveryPolicy{
		Recompile: func(ctx context.Context, faults []arch.Point) (*codegen.Executable, error) {
			recompiles++
			return compileFaulty(chip, recoveryAssay, faults)
		},
	}
	o := opts
	o.Degradation = &Degradation{Stuck: []StuckAt{sa}}
	res, err := RunWithPolicy(ex, chip, o, pol)
	if err != nil {
		t.Fatalf("RunWithPolicy: %v", err)
	}
	if res.Attempts != 2 || res.Recoveries != 1 {
		t.Errorf("attempts/recoveries = %d/%d, want 2/1", res.Attempts, res.Recoveries)
	}
	if recompiles != 1 {
		t.Errorf("recompiled %d times, want 1", recompiles)
	}
	if res.Collected != clean.Collected || res.Dispensed < clean.Dispensed {
		t.Errorf("recovered outcome %d/%d vs clean %d/%d",
			res.Dispensed, res.Collected, clean.Dispensed, clean.Collected)
	}
	if len(res.Events) != 1 {
		t.Fatalf("events = %+v, want exactly one", res.Events)
	}
	ev := res.Events[0]
	if ev.Kind != "stuck-electrode" || ev.Action != "resume" || !ev.Recompiled {
		t.Errorf("event %+v: want a recompiled stuck-electrode resume", ev)
	}
	if ev.Cell != sa.Cell {
		t.Errorf("event cell %v, want %v", ev.Cell, sa.Cell)
	}
	if ev.LostCycles != res.LostTime {
		t.Errorf("single-event LostCycles %d != LostTime %d", ev.LostCycles, res.LostTime)
	}
	if want := chip.Duration(res.Cycles); res.Time != want {
		t.Errorf("Time %v inconsistent with Cycles (%v)", res.Time, want)
	}
	// Accounting lands in telemetry too.
	if res.Metrics == nil || len(res.Metrics.Recoveries) != 1 {
		t.Fatalf("metrics should carry one recovery sample: %+v", res.Metrics)
	}
	rs := res.Metrics.Recoveries[0]
	if rs.Action != "resume" || rs.X != sa.Cell.X || rs.Y != sa.Cell.Y {
		t.Errorf("recovery sample %+v does not match the event", rs)
	}
}

func TestRecoveryRestartBaseline(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	opts := Options{Sensors: sensor.Constant(0.9)}
	sa := probeStuckCell(t, ex, chip, opts, recoveryAssay)

	pol := RecoveryPolicy{
		Restart: true,
		Recompile: func(ctx context.Context, faults []arch.Point) (*codegen.Executable, error) {
			return compileFaulty(chip, recoveryAssay, faults)
		},
	}
	runPol := func(p RecoveryPolicy) *RecoveryResult {
		o := opts
		o.Degradation = &Degradation{Stuck: []StuckAt{sa}}
		res, err := RunWithPolicy(ex, chip, o, p)
		if err != nil {
			t.Fatalf("RunWithPolicy: %v", err)
		}
		return res
	}
	restart := runPol(pol)
	if restart.Events[0].Action != "restart" || !restart.Events[0].Recompiled {
		t.Errorf("restart baseline event %+v: want recompiled restart", restart.Events[0])
	}
	pol.Restart = false
	resume := runPol(pol)
	if resume.Events[0].Action != "resume" {
		t.Fatalf("resume event %+v", resume.Events[0])
	}
	// The point of checkpointed resume: strictly less wasted time than
	// whole-program restart on the same fault.
	if resume.LostTime >= restart.LostTime {
		t.Errorf("resume lost %d cycles, restart lost %d: resume should be strictly cheaper",
			resume.LostTime, restart.LostTime)
	}
}

func TestRecoveryRecompileFailureFallsBack(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	opts := Options{Sensors: sensor.Constant(0.9)}
	sa := probeStuckCell(t, ex, chip, opts, recoveryAssay)

	// Recompilation refuses: every attempt restarts on the unchanged
	// program, which keeps hitting the same dead electrode until the
	// budget is spent (hardware does not heal on restart).
	pol := RecoveryPolicy{
		MaxAttempts: 3,
		Recompile: func(ctx context.Context, faults []arch.Point) (*codegen.Executable, error) {
			return nil, fmt.Errorf("no spare placement")
		},
	}
	o := opts
	o.Degradation = &Degradation{Stuck: []StuckAt{sa}}
	_, err := RunWithPolicy(ex, chip, o, pol)
	if err == nil || !strings.Contains(err.Error(), "recovery attempts") {
		t.Fatalf("want give-up error, got %v", err)
	}
}

func TestRecoveryStuckWithoutRecompileExhausts(t *testing.T) {
	// The §8.4 restart baseline cannot beat a permanent fault: without a
	// recompile hook the same cell kills every attempt.
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	opts := Options{Sensors: sensor.Constant(0.9)}
	sa := probeStuckCell(t, ex, chip, opts, recoveryAssay)
	o := opts
	o.Degradation = &Degradation{Stuck: []StuckAt{sa}}
	_, err := RunWithPolicy(ex, chip, o, RecoveryPolicy{MaxAttempts: 2})
	if err == nil || !strings.Contains(err.Error(), "recovery attempts") {
		t.Fatalf("want give-up error, got %v", err)
	}
}

// TestRecoveryConcurrentRecompile drives several recovery controllers —
// each recompiling on detection — in parallel; `go test -race` holds the
// pipeline to its concurrency contract under recovery load.
func TestRecoveryConcurrentRecompile(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	opts := Options{Sensors: sensor.Constant(0.9)}
	sa := probeStuckCell(t, ex, chip, opts, recoveryAssay)

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Degradation = &Degradation{Stuck: []StuckAt{sa}}
			pol := RecoveryPolicy{
				Recompile: func(ctx context.Context, faults []arch.Point) (*codegen.Executable, error) {
					return compileFaulty(chip, recoveryAssay, faults)
				},
			}
			res, err := RunWithPolicy(ex, chip, o, pol)
			if err == nil && res.Recoveries != 1 {
				err = fmt.Errorf("recoveries = %d, want 1", res.Recoveries)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

func TestRecoveryTransientThenPermanent(t *testing.T) {
	// Both fault classes in one run: a transient loss (flush + restart)
	// followed by a permanent fault (recompile + resume).
	chip := arch.Default()
	ex := compile(t, chip, recoveryAssay)
	opts := Options{Sensors: sensor.Constant(0.9)}
	sa := probeStuckCell(t, ex, chip, opts, recoveryAssay)
	o := opts
	o.Degradation = &Degradation{Stuck: []StuckAt{{Cell: sa.Cell, Cycle: sa.Cycle + 400}}}
	pol := RecoveryPolicy{
		MaxAttempts: 4,
		Faults:      []Fault{{Cycle: 100}},
		Recompile: func(ctx context.Context, faults []arch.Point) (*codegen.Executable, error) {
			return compileFaulty(chip, recoveryAssay, faults)
		},
	}
	res, err := RunWithPolicy(ex, chip, o, pol)
	if err != nil {
		t.Fatalf("RunWithPolicy: %v", err)
	}
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want at least the loss and the stuck electrode", res.Recoveries)
	}
	kinds := map[string]bool{}
	for _, ev := range res.Events {
		kinds[ev.Kind] = true
	}
	if !kinds["droplet-loss"] || !kinds["stuck-electrode"] {
		t.Errorf("events %+v: want both fault classes", res.Events)
	}
}
