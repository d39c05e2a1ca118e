package jit

import (
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/exec"
	"biocoder/internal/lang"
	"biocoder/internal/place"
	"biocoder/internal/sched"
	"biocoder/internal/sensor"
)

// parallelAssay dispenses three droplets and mixes them pairwise: the
// static compiler overlaps the dispenses and mixes; the JIT's serial
// heuristic cannot.
func parallelAssay(bs *lang.BioSystem) {
	f := bs.NewFluid("F", 10)
	g := bs.NewFluid("G", 10)
	a := bs.NewContainer("a")
	b := bs.NewContainer("b")
	bs.MeasureFluid(f, a)
	bs.MeasureFluid(g, b)
	bs.Vortex(a, 10*time.Second)
	bs.Vortex(b, 10*time.Second)
	bs.Weigh(a, "w")
	bs.If("w", lang.LessThan, 0.5)
	bs.Vortex(a, 5*time.Second)
	bs.EndIf()
	bs.Drain(a, "")
	bs.Drain(b, "")
}

func build(t *testing.T) *cfg.Graph {
	t.Helper()
	bs := lang.New()
	parallelAssay(bs)
	g, err := bs.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// staticTime compiles the same graph with the full offline pipeline.
func staticTime(t *testing.T, chip *arch.Chip, opts exec.Options) time.Duration {
	t.Helper()
	g := build(t)
	if err := cfg.ToSSI(g); err != nil {
		t.Fatal(err)
	}
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(g, sr, topo, place.Virtual)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := codegen.Generate(g, sr, pl, topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(ex, chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Time
}

func TestJITSlowerThanStatic(t *testing.T) {
	chip := arch.Default()
	opts := exec.Options{Sensors: sensor.Constant(1)} // branch not taken
	static := staticTime(t, chip, opts)

	jitRes, err := Run(build(t), chip, opts, DefaultPause)
	if err != nil {
		t.Fatalf("jit.Run: %v", err)
	}
	if jitRes.AssayTime <= static {
		t.Errorf("serial JIT schedules should be slower: jit %v vs static %v", jitRes.AssayTime, static)
	}
	if jitRes.CompileOverhead <= 0 {
		t.Error("JIT must accumulate compile pauses")
	}
	if jitRes.Total != jitRes.AssayTime+jitRes.CompileOverhead {
		t.Error("total time must include pauses")
	}
	if jitRes.BlockVisits < 3 {
		t.Errorf("block visits = %d, want several", jitRes.BlockVisits)
	}
}

func TestJITProducesSameOutcome(t *testing.T) {
	chip := arch.Default()
	opts := exec.Options{Sensors: sensor.Constant(0.1)} // branch taken
	jitRes, err := Run(build(t), chip, opts, DefaultPause)
	if err != nil {
		t.Fatal(err)
	}
	// Outcomes (droplet I/O and conditions) must match the static
	// compiler's — only timing differs.
	if jitRes.Exec.Dispensed != 2 || jitRes.Exec.Collected != 2 {
		t.Errorf("JIT run outcome wrong: %d/%d", jitRes.Exec.Dispensed, jitRes.Exec.Collected)
	}
	if len(jitRes.Exec.Trace.Conditions) != 1 || !jitRes.Exec.Trace.Conditions[0].Value {
		t.Errorf("condition trace: %+v", jitRes.Exec.Trace.Conditions)
	}
}

func TestSerialScheduleNoOverlap(t *testing.T) {
	bs := lang.New()
	parallelAssay(bs)
	g, err := bs.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.ToSSI(g); err != nil {
		t.Fatal(err)
	}
	chip := arch.Default()
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sched.Schedule(g, sched.Config{
		Res: topo.Resources(), CyclePeriod: chip.CyclePeriod, Serial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bsch := range sr.Blocks {
		var ops []*sched.Item
		for _, it := range bsch.Items {
			if !it.IsStorage() {
				ops = append(ops, it)
			}
		}
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := ops[i], ops[j]
				if a.Start < b.End && b.Start < a.End {
					t.Errorf("serial schedule overlaps %v and %v", a, b)
				}
			}
		}
	}
}
