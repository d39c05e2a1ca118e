package analysis

// Micro-benchmarks for the abstract-interpretation engine: the generic
// worklist solver on the volume problem, the interval transfer primitives,
// loop-bound timing analysis, symbolic-replay touch extraction, and the
// whole Analyze pipeline; the last two on the smallest and the largest
// assay and on image_probe.bio. Run with:
//
//	go test ./internal/analysis -bench . -benchmem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/verify"
)

// benchUnit compiles a benchmark assay, or a BioScript file of
// internal/assays/scripts, once for the default chip.
func benchUnit(b *testing.B, name string) *verify.Unit {
	b.Helper()
	var g *cfg.Graph
	if strings.HasSuffix(name, ".bio") {
		src, err := os.ReadFile(filepath.Join("..", "assays", "scripts", name))
		if err != nil {
			b.Fatal(err)
		}
		bs, err := biocoder.ParseScript(string(src))
		if err != nil {
			b.Fatal(err)
		}
		if g, err = bs.Build(); err != nil {
			b.Fatal(err)
		}
	} else {
		a := assays.ByName(name)
		if a == nil {
			b.Fatalf("unknown assay %q", name)
		}
		var err error
		if g, err = a.Build().Build(); err != nil {
			b.Fatal(err)
		}
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

// layerAssays are the smallest and the largest Table 1 assays, and
// image_probe.bio, most of the benchmark's author workload.
var layerAssays = []struct{ short, name string }{
	{"PCR", "PCR"},
	{"Opiate", "Opiate detection immunoassay"},
	{"Image", "image_probe.bio"},
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
