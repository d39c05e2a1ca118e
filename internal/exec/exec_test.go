package exec

import (
	"strings"
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

// compile runs the whole compiler for a recorded protocol.
func compile(t *testing.T, chip *arch.Chip, rec func(bs *lang.BioSystem)) *codegen.Executable {
	t.Helper()
	bs := lang.New()
	rec(bs)
	g, err := bs.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := cfg.ToSSI(g); err != nil {
		t.Fatalf("ToSSI: %v", err)
	}
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	pl, err := place.Place(g, sr, topo, place.Virtual)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	ex, err := codegen.Generate(g, sr, pl, topo)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := ex.Check(); err != nil {
		t.Fatalf("executable check: %v", err)
	}
	return ex
}

func TestRunSingleBlock(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		a := bs.NewFluid("Sample", lang.Microliters(10))
		b := bs.NewFluid("Reagent", lang.Microliters(10))
		c := bs.NewContainer("c")
		bs.MeasureFluid(a, c)
		bs.MeasureFluid(b, c)
		bs.Vortex(c, 2*time.Second)
		bs.Drain(c, "")
	})
	res, err := Run(ex, chip, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dispensed != 2 || res.Collected != 1 {
		t.Errorf("dispensed/collected = %d/%d, want 2/1", res.Dispensed, res.Collected)
	}
	// ~1s dispense + 2s vortex + 10ms merge + 100ms output + routing.
	if res.Time < 3*time.Second || res.Time > 10*time.Second {
		t.Errorf("exec time = %v, expected a few seconds", res.Time)
	}
	if res.Cycles != int(res.Time/chip.CyclePeriod) {
		t.Errorf("cycles/time mismatch: %d vs %v", res.Cycles, res.Time)
	}
}

// The replenishment conditional must take both paths depending on the
// scripted weight readings, and the trace must show which (§7.1).
func TestRunConditionalBothPaths(t *testing.T) {
	chip := arch.Default()
	build := func() *codegen.Executable {
		return compile(t, chip, func(bs *lang.BioSystem) {
			f := bs.NewFluid("F", 10)
			c := bs.NewContainer("c")
			bs.MeasureFluid(f, c)
			bs.Weigh(c, "w")
			bs.If("w", lang.LessThan, 3.57)
			bs.MeasureFluid(f, c) // replenish
			bs.Vortex(c, time.Second)
			bs.EndIf()
			bs.Drain(c, "")
		})
	}

	low, err := Run(build(), chip, Options{
		Sensors: sensor.NewScripted(map[string][]float64{"w": {2.0}}),
	})
	if err != nil {
		t.Fatalf("Run(low): %v", err)
	}
	if low.Dispensed != 2 {
		t.Errorf("low path should replenish: dispensed = %d, want 2", low.Dispensed)
	}
	if len(low.Trace.Conditions) != 1 || !low.Trace.Conditions[0].Value {
		t.Errorf("low path condition trace wrong: %+v", low.Trace.Conditions)
	}

	high, err := Run(build(), chip, Options{
		Sensors: sensor.NewScripted(map[string][]float64{"w": {4.0}}),
	})
	if err != nil {
		t.Fatalf("Run(high): %v", err)
	}
	if high.Dispensed != 1 {
		t.Errorf("high path should not replenish: dispensed = %d, want 1", high.Dispensed)
	}
	if len(high.Trace.Conditions) != 1 || high.Trace.Conditions[0].Value {
		t.Errorf("high path condition trace wrong: %+v", high.Trace.Conditions)
	}
	if low.Time <= high.Time {
		t.Errorf("replenishing path should take longer: %v vs %v", low.Time, high.Time)
	}
}

func TestRunLoopIterations(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Loop(4)
		bs.StoreFor(c, 95, 2*time.Second)
		bs.EndLoop()
		bs.Drain(c, "")
	})
	res, err := Run(ex, chip, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The loop header is visited 5 times (4 iterations + final exit test).
	headerVisits := 0
	bodyVisits := 0
	for _, v := range res.Trace.Visits {
		if strings.HasPrefix(v.Label, "b") {
			switch {
			case strings.Contains(v.Label, "b2"): // header per lowering order
				headerVisits++
			case strings.Contains(v.Label, "b3"):
				bodyVisits++
			}
		}
	}
	if bodyVisits != 4 {
		t.Errorf("loop body executed %d times, want 4 (visits: %v)", bodyVisits, res.Trace.Visits)
	}
	if headerVisits != 5 {
		t.Errorf("loop header executed %d times, want 5", headerVisits)
	}
	// 4 heats of 2s each plus overhead.
	if res.Time < 8*time.Second {
		t.Errorf("loop time %v too short for 4x2s heats", res.Time)
	}
	if got := res.DryEnv["$loop1"]; got != 4 {
		t.Errorf("loop counter final value = %g, want 4", got)
	}
}

func TestRunWhileLoop(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "conc")
		bs.While("conc", lang.GreaterThan, 0.5)
		bs.StoreFor(c, 60, time.Second)
		bs.Weigh(c, "conc")
		bs.EndWhile()
		bs.Drain(c, "")
	})
	res, err := Run(ex, chip, Options{
		Sensors: sensor.NewScripted(map[string][]float64{"conc": {0.9, 0.8, 0.7, 0.2}}),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// First reading 0.9 enters; 0.8, 0.7 continue; 0.2 exits: 3 iterations.
	trues := 0
	for _, c := range res.Trace.Conditions {
		if c.Value {
			trues++
		}
	}
	if trues != 3 {
		t.Errorf("loop iterations = %d, want 3", trues)
	}
	if len(res.Trace.Readings) != 4 {
		t.Errorf("sensor readings = %d, want 4", len(res.Trace.Readings))
	}
}

func TestRunSplitAndConservation(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 12)
		a := bs.NewContainer("a")
		b := bs.NewContainer("b")
		bs.MeasureFluid(f, a)
		bs.SplitInto(a, b)
		bs.Drain(a, "")
		bs.Drain(b, "")
	})
	res, err := Run(ex, chip, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dispensed != 1 || res.Collected != 2 {
		t.Errorf("dispensed/collected = %d/%d, want 1/2", res.Dispensed, res.Collected)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	chip := arch.Default()
	rec := func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "w")
		bs.If("w", lang.LessThan, 0.5)
		bs.Vortex(c, time.Second)
		bs.EndIf()
		bs.Drain(c, "")
	}
	r1, err := Run(compile(t, chip, rec), chip, Options{Sensors: sensor.NewUniform(123)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(compile(t, chip, rec), chip, Options{Sensors: sensor.NewUniform(123)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Time != r2.Time {
		t.Errorf("same seed, different runs: %v vs %v", r1.Time, r2.Time)
	}
}

func TestRunPCRReplenishment(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		pcrMix := bs.NewFluid("PCRMasterMix", lang.Microliters(10))
		template := bs.NewFluid("Template", lang.Microliters(10))
		tube := bs.NewContainer("tube")
		bs.MeasureFluid(pcrMix, tube)
		bs.Vortex(tube, time.Second)
		bs.MeasureFluid(template, tube)
		bs.Vortex(tube, time.Second)
		bs.StoreFor(tube, 95, 45*time.Second)
		bs.Loop(3)
		bs.StoreFor(tube, 95, 20*time.Second)
		bs.Weigh(tube, "weightSensor")
		bs.If("weightSensor", lang.LessThan, 3.57)
		bs.MeasureFluid(pcrMix, tube)
		bs.StoreFor(tube, 95, 45*time.Second)
		bs.Vortex(tube, time.Second)
		bs.EndIf()
		bs.StoreFor(tube, 50, 30*time.Second)
		bs.StoreFor(tube, 68, 45*time.Second)
		bs.EndLoop()
		bs.StoreFor(tube, 68, 5*time.Minute)
		bs.Drain(tube, "PCR")
	})
	// Script: replenish on iteration 2 only.
	res, err := Run(ex, chip, Options{
		Sensors: sensor.NewScripted(map[string][]float64{"weightSensor": {4.0, 3.0, 4.0}}),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dispensed != 3 { // pcrMix + template + one replenishment
		t.Errorf("dispensed = %d, want 3", res.Dispensed)
	}
	// 45+3*(20+30+45)+45(replenish)+300 = 675s of heating plus overhead.
	if res.Time < 11*time.Minute || res.Time > 14*time.Minute {
		t.Errorf("PCR time = %v, want ≈11.5 minutes", res.Time)
	}
	if len(res.Trace.Readings) != 3 {
		t.Errorf("readings = %d, want 3", len(res.Trace.Readings))
	}
}

func TestRunRejectsRunaway(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "w")
		bs.While("w", lang.GreaterThan, -1) // never false; w is only read once
		bs.StoreFor(c, 60, time.Second)
		bs.EndWhile()
		bs.Drain(c, "")
	})
	_, err := Run(ex, chip, Options{
		Sensors:   sensor.Constant(1),
		MaxCycles: 50_000,
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("runaway loop not detected: %v", err)
	}
}

func TestFrameHookObservesDroplets(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Vortex(c, time.Second)
		bs.Drain(c, "")
	})
	frames := 0
	sawDroplet := false
	_, err := Run(ex, chip, Options{
		FrameHook: func(cycle int, label string, frame codegen.Frame, droplets []*Droplet) {
			frames++
			if len(droplets) > 0 {
				sawDroplet = true
				for _, d := range droplets {
					if !chip.InBounds(d.Pos) {
						t.Errorf("droplet %s off chip at %v", d.ID, d.Pos)
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 || !sawDroplet {
		t.Errorf("frame hook saw %d frames, droplets=%v", frames, sawDroplet)
	}
}

// Volume bookkeeping: merges sum, splits halve.
func TestVolumeTracking(t *testing.T) {
	chip := arch.Default()
	ex := compile(t, chip, func(bs *lang.BioSystem) {
		a := bs.NewFluid("A", 10)
		b := bs.NewFluid("B", 6)
		c := bs.NewContainer("c")
		bs.MeasureFluid(a, c)
		bs.MeasureFluid(b, c) // 16 µL total
		bs.Vortex(c, time.Second)
		bs.Drain(c, "")
	})
	var lastVolume float64
	_, err := Run(ex, chip, Options{
		FrameHook: func(cycle int, label string, frame codegen.Frame, droplets []*Droplet) {
			for _, d := range droplets {
				lastVolume = d.Volume
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastVolume != 16 {
		t.Errorf("merged volume = %g, want 16", lastVolume)
	}
}
