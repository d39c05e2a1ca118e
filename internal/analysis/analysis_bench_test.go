package analysis

// Micro-benchmarks for the abstract-interpretation engine: the generic
// worklist solver on the volume problem, the interval transfer primitives,
// loop-bound timing analysis, symbolic-replay touch extraction, and the
// whole Analyze pipeline; the last two on the smallest and the largest
// assay. Run with:
//
//	go test ./internal/analysis -bench . -benchmem

import (
	"testing"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/verify"
)

// benchUnit compiles a benchmark assay once for the default chip.
func benchUnit(b *testing.B, name string) *verify.Unit {
	b.Helper()
	a := assays.ByName(name)
	if a == nil {
		b.Fatalf("unknown assay %q", name)
	}
	g, err := a.Build().Build()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := biocoder.CompileGraph(g, arch.Default())
	if err != nil {
		b.Fatal(err)
	}
	return &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Chip: prog.Chip}
}

func BenchmarkSolveVolumes(b *testing.B) {
	u := benchUnit(b, "PCR")
	conf := Config{}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &volProblem{conf: conf, outputs: new([]OutputState)}
		solve(u.Graph, p)
	}
}

func BenchmarkVolumeReporting(b *testing.B) {
	u := benchUnit(b, "PCR")
	conf := Config{}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := &reporter{}
		analyzeVolumes(u.Graph, conf, rep)
	}
}

func BenchmarkIntervalTransfer(b *testing.B) {
	// The hot transfer primitive: volume-weighted mixing of exact drops,
	// as every Mix instruction performs per solver visit.
	args := []drop{
		{Vol: Exact(10), Conc: map[string]Interval{"A": Exact(1)}},
		{Vol: Exact(10), Conc: map[string]Interval{"B": Exact(1)}},
		{Vol: Range(5, 15), Conc: map[string]Interval{"A": Range(0.2, 0.8)}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixDrops(args)
	}
}

func BenchmarkAnalyzeTiming(b *testing.B) {
	u := benchUnit(b, "Probabilistic PCR") // conditional loop: bound inference + collapse
	conf := Config{}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := &reporter{}
		if tb := analyzeTiming(u, conf, rep); tb == nil {
			b.Fatal("timing analysis failed")
		}
	}
}

// layerAssays are the smallest and the largest benchmark assays; layer
// benchmarks run on both, so a hotspot that grows with assay size shows.
var layerAssays = []struct{ short, name string }{
	{"PCR", "PCR"},
	{"Opiate", "Opiate detection immunoassay"},
}

func BenchmarkReplayTouches(b *testing.B) {
	for _, a := range layerAssays {
		b.Run(a.short, func(b *testing.B) {
			u := benchUnit(b, a.name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verify.ReplayTouches(u)
			}
		})
	}
}

func BenchmarkAnalyzeFull(b *testing.B) {
	for _, a := range layerAssays {
		b.Run(a.short, func(b *testing.B) {
			u := benchUnit(b, a.name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(u, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
