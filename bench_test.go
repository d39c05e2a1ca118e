// Benchmarks regenerating the paper's evaluation (§7): one benchmark per
// Table 1 row (reporting simulated execution time against the paper's
// number), plus the figure-level and ablation studies DESIGN.md indexes:
// the single-basic-block back end (Fig. 9), static-offline versus
// JIT-interpreted compilation (Fig. 14 / §8.3), placement with and without
// live-range splitting (§6.3.3 vs §6.3.4), list versus serial scheduling,
// and the scheduling-failure boundary as the chip shrinks (§6.6).
//
// Run with:
//
//	go test -bench . -benchmem
package biocoder_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/jit"
	"biocoder/internal/sensor"
)

// benchScenario compiles once and measures repeated simulated executions,
// reporting the simulated assay time next to the paper's reported time.
func benchScenario(b *testing.B, a *assays.Assay, sc assays.Scenario) {
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var last *biocoder.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := sensor.NewScripted(sc.Script)
		model.Fallback = sensor.NewUniform(1)
		last, err = prog.Run(biocoder.RunOptions{Sensors: model})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Time.Seconds(), "sim_s")
	b.ReportMetric(sc.PaperTime.Seconds(), "paper_s")
	b.ReportMetric(float64(last.Cycles)/b.Elapsed().Seconds()*float64(b.N), "cycles/s")
}

// BenchmarkTable1 regenerates every row of Table 1.
func BenchmarkTable1(b *testing.B) {
	short := map[string]string{
		"Opiate detection immunoassay": "Opiate",
		"Probabilistic PCR":            "ProbPCR",
		"PCR w/droplet replenishment":  "PCRReplenish",
		"Image probe synthesis":        "ImageProbe",
		"Neurotransmitter sensing":     "Neurotransmitter",
		"PCR":                          "PCR",
	}
	for _, a := range assays.All() {
		for _, sc := range a.Scenarios {
			name := short[a.Name]
			if sc.Name != "default" {
				name += "/" + sc.Name
			}
			a, sc := a, sc
			b.Run(name, func(b *testing.B) { benchScenario(b, a, sc) })
		}
	}
}

// BenchmarkCompile measures offline compilation itself (the cost the static
// scheme pays once, before the assay starts).
func BenchmarkCompile(b *testing.B) {
	for _, a := range assays.All() {
		a := a
		b.Run(strings.ReplaceAll(a.Name, " ", ""), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := biocoder.Compile(a.Build(), biocoder.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleBlock is the degenerate case of §5 / Fig. 9: one basic
// block (dispense two droplets, mix, output) through schedule, placement,
// routing, and execution.
func BenchmarkSingleBlock(b *testing.B) {
	build := func() *biocoder.BioSystem {
		bs := biocoder.New()
		s := bs.NewFluid("Sample", biocoder.Microliters(10))
		r := bs.NewFluid("Reagent", biocoder.Microliters(10))
		c := bs.NewContainer("c")
		bs.MeasureFluid(s, c)
		bs.MeasureFluid(r, c)
		bs.Vortex(c, 2*time.Second)
		bs.Drain(c, "")
		return bs
	}
	var sim time.Duration
	for i := 0; i < b.N; i++ {
		prog, err := biocoder.Compile(build(), biocoder.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := prog.Run(biocoder.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sim = res.Time
	}
	b.ReportMetric(sim.Seconds(), "sim_s")
}

// BenchmarkStaticVsJIT compares the paper's offline compiler against the
// prior dynamic interpretation scheme it replaces (Fig. 14): the JIT pays a
// pause at every block visit and can only afford greedy serial schedules.
// The reported end-to-end times show who wins and by how much.
func BenchmarkStaticVsJIT(b *testing.B) {
	assay := assays.PCRReplenish()
	script := assay.Scenarios[0].Script

	b.Run("static", func(b *testing.B) {
		prog, err := biocoder.Compile(assay.Build(), biocoder.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var total time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prog.Run(biocoder.RunOptions{Sensors: sensor.NewScripted(script)})
			if err != nil {
				b.Fatal(err)
			}
			total = res.Time
		}
		b.ReportMetric(total.Seconds(), "endtoend_s")
	})
	b.Run("jit", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			g, err := assay.Build().Build()
			if err != nil {
				b.Fatal(err)
			}
			res, err := jit.Run(g, arch.Default(),
				biocoder.RunOptions{Sensors: sensor.NewScripted(script)}, jit.DefaultPause)
			if err != nil {
				b.Fatal(err)
			}
			total = res.Total
		}
		b.ReportMetric(total.Seconds(), "endtoend_s")
	})
}

// BenchmarkPlacers compares CFG placement with live-range splitting (§6.3.4,
// the paper's approach: blocks place independently, droplets route on edges)
// against the homed emulation of interference-graph placement (§6.3.3:
// Δ_E empty, extra in-block transport).
func BenchmarkPlacers(b *testing.B) {
	assay := assays.PCRReplenish()
	script := assay.Scenarios[0].Script
	for _, mode := range []struct {
		name string
		opt  biocoder.Options
	}{
		{"split", biocoder.Options{}},
		{"homed", biocoder.Options{NoLiveRangeSplitting: true}},
		{"free", biocoder.Options{FreePlacement: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			prog, err := biocoder.Compile(assay.Build(), mode.opt)
			if err != nil {
				b.Fatal(err)
			}
			edgeCycles := 0
			for _, ec := range prog.Executable.Edges {
				edgeCycles += ec.Seq.NumCycles
			}
			var sim time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prog.Run(biocoder.RunOptions{Sensors: sensor.NewScripted(script)})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Time
			}
			b.ReportMetric(sim.Seconds(), "sim_s")
			b.ReportMetric(float64(edgeCycles), "edge_cycles")
		})
	}
}

// BenchmarkSchedulers compares the parallel list scheduler against the
// serial greedy baseline on a workload with real operation-level
// parallelism: three independent sample preparations that the list
// scheduler overlaps across the chip's module slots.
func BenchmarkSchedulers(b *testing.B) {
	parallelPrep := func() *biocoder.BioSystem {
		bs := biocoder.New()
		f := bs.NewFluid("Sample", biocoder.Microliters(10))
		r := bs.NewFluid("Reagent", biocoder.Microliters(10))
		names := []string{"a", "b", "c"}
		cs := make([]*biocoder.Container, len(names))
		for i, n := range names {
			cs[i] = bs.NewContainer(n)
			bs.MeasureFluid(f, cs[i])
			bs.MeasureFluid(r, cs[i])
			bs.Vortex(cs[i], 30*time.Second)
		}
		for _, c := range cs {
			bs.Drain(c, "")
		}
		return bs
	}
	for _, mode := range []struct {
		name string
		opt  biocoder.Options
	}{
		{"list", biocoder.Options{}},
		{"minslack", biocoder.Options{MinSlackScheduling: true}},
		{"serial", biocoder.Options{SerialSchedules: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			prog, err := biocoder.Compile(parallelPrep(), mode.opt)
			if err != nil {
				b.Fatal(err)
			}
			var sim time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prog.Run(biocoder.RunOptions{Sensors: sensor.NewUniform(1)})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Time
			}
			b.ReportMetric(sim.Seconds(), "sim_s")
		})
	}
}

// BenchmarkChipSizes probes the §6.6 failure boundary: with no off-chip
// storage, compilation fails at the scheduler once droplet demand exceeds
// module capacity. The metric `compiled` is 1 when the chip suffices.
func BenchmarkChipSizes(b *testing.B) {
	chips := []struct {
		name string
		chip *arch.Chip
	}{
		{"33x33", arch.Large()},
		{"19x15", arch.Default()},
		{"13x11", benchChip13x11()},
		{"9x9", arch.Small()},
		{"7x7", benchChip7x7()},
		{"5x5", benchChip5x5()},
	}
	assay := assays.PCR()
	for _, c := range chips {
		c := c
		b.Run(c.name, func(b *testing.B) {
			ok := 0.0
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				prog, err := biocoder.Compile(assay.Build(), biocoder.Options{Chip: c.chip})
				if err != nil {
					continue
				}
				ok = 1
				res, err := prog.Run(biocoder.RunOptions{Sensors: sensor.NewUniform(1)})
				if err != nil {
					ok = 0
					continue
				}
				sim = res.Time
			}
			b.ReportMetric(ok, "compiled")
			b.ReportMetric(sim.Seconds(), "sim_s")
		})
	}
}

func benchChip13x11() *arch.Chip {
	return &arch.Chip{
		Cols: 13, Rows: 11, CyclePeriod: 10 * time.Millisecond,
		Devices: []arch.Device{
			{Kind: arch.Sensor, Name: "sensor1", Loc: arch.Rect{X: 2, Y: 2, W: 1, H: 1}},
			{Kind: arch.Heater, Name: "heater1", Loc: arch.Rect{X: 7, Y: 2, W: 2, H: 2}},
		},
		Ports: []arch.Port{
			{Name: "in1", Kind: arch.Input, Side: arch.West, Cell: arch.Point{X: 0, Y: 2}},
			{Name: "in2", Kind: arch.Input, Side: arch.West, Cell: arch.Point{X: 0, Y: 6}},
			{Name: "in3", Kind: arch.Input, Side: arch.North, Cell: arch.Point{X: 4, Y: 0}},
			{Name: "out1", Kind: arch.Output, Side: arch.East, Cell: arch.Point{X: 12, Y: 4}},
		},
	}
}

func benchChip7x7() *arch.Chip {
	return &arch.Chip{
		Cols: 7, Rows: 7, CyclePeriod: 10 * time.Millisecond,
		Devices: []arch.Device{
			{Kind: arch.Sensor, Name: "sensor1", Loc: arch.Rect{X: 1, Y: 1, W: 1, H: 1}},
			{Kind: arch.Heater, Name: "heater1", Loc: arch.Rect{X: 4, Y: 1, W: 1, H: 1}},
		},
		Ports: []arch.Port{
			{Name: "in1", Kind: arch.Input, Side: arch.West, Cell: arch.Point{X: 0, Y: 2}},
			{Name: "in2", Kind: arch.Input, Side: arch.West, Cell: arch.Point{X: 0, Y: 5}},
			{Name: "out1", Kind: arch.Output, Side: arch.East, Cell: arch.Point{X: 6, Y: 3}},
		},
	}
}

// BenchmarkRecovery measures the cost of droplet-loss recovery (§8.4):
// a transient loss early vs late in vanilla PCR, recovered by flush and
// re-execution with fresh reagents.
func BenchmarkRecovery(b *testing.B) {
	prog, err := biocoder.Compile(mustAssay(b, "PCR"), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		cycle int
	}{{"clean", 0}, {"early_loss", 5_000}, {"late_loss", 60_000}} {
		f := f
		b.Run(f.name, func(b *testing.B) {
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				var faults []biocoder.Fault
				if f.cycle > 0 {
					faults = []biocoder.Fault{{Cycle: f.cycle}}
				}
				res, err := prog.RunWithPolicy(biocoder.RunOptions{Sensors: sensor.NewUniform(1)},
					biocoder.RecoveryPolicy{Faults: faults, MaxAttempts: 3})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.Time
			}
			b.ReportMetric(sim.Seconds(), "sim_s")
		})
	}
}

func benchChip5x5() *arch.Chip {
	// One 3x3 module slot total: too small to host PCR's heater and the
	// mixing/storage work concurrently — the §6.6 failure case.
	return &arch.Chip{
		Cols: 5, Rows: 5, CyclePeriod: 10 * time.Millisecond,
		Devices: []arch.Device{
			{Kind: arch.Sensor, Name: "sensor1", Loc: arch.Rect{X: 2, Y: 2, W: 1, H: 1}},
		},
		Ports: []arch.Port{
			{Name: "in1", Kind: arch.Input, Side: arch.West, Cell: arch.Point{X: 0, Y: 2}},
			{Name: "out1", Kind: arch.Output, Side: arch.East, Cell: arch.Point{X: 4, Y: 2}},
		},
	}
}

// BenchmarkRouter isolates droplet routing: concurrent transfers across the
// default chip, the hot inner operation of code generation.
func BenchmarkRouter(b *testing.B) {
	prog, err := biocoder.Compile(mustAssay(b, "PCR w/droplet replenishment"), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	_ = prog
	// Recompiling exercises the router on every edge and event boundary.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := biocoder.Compile(mustAssay(b, "PCR w/droplet replenishment"), biocoder.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func mustAssay(b *testing.B, name string) *biocoder.BioSystem {
	b.Helper()
	a := assays.ByName(name)
	if a == nil {
		b.Fatalf("unknown assay %q", name)
	}
	return a.Build()
}

// BenchmarkOpiateRandom runs the decision tree under the paper's random
// sensor mode (§7.1): execution time varies with the sampled outcome, as
// Table 1's P/N split illustrates.
func BenchmarkOpiateRandom(b *testing.B) {
	a := assays.Opiate()
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var minT, maxT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := sensor.NewUniform(int64(i))
		for v, r := range a.Ranges {
			u.SetRange(v, r.Min, r.Max)
		}
		res, err := prog.Run(biocoder.RunOptions{Sensors: u})
		if err != nil {
			b.Fatal(err)
		}
		if minT == 0 || res.Time < minT {
			minT = res.Time
		}
		if res.Time > maxT {
			maxT = res.Time
		}
	}
	b.ReportMetric(minT.Seconds(), "min_sim_s")
	b.ReportMetric(maxT.Seconds(), "max_sim_s")
}

var _ = fmt.Sprintf // keep fmt for ad-hoc debugging of bench output
