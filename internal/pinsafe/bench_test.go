package pinsafe_test

// Layer benchmark for the pin-safety analysis (interference graph, DSATUR
// assignment, broadcast replay) on the smallest and the largest benchmark
// assay, and on image_probe.bio, most of the benchmark's author workload.
// Run with:
//
//	go test ./internal/pinsafe -run '^$' -bench . -benchmem

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

func BenchmarkAnalyze(b *testing.B) {
	for _, a := range []struct{ short, name string }{
		{"PCR", "PCR"},
		{"Opiate", "Opiate detection immunoassay"},
		{"Image", "image_probe.bio"},
	} {
		b.Run(a.short, func(b *testing.B) {
			g, err := benchGraph(a.name)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := biocoder.CompileGraph(g, arch.Default())
			if err != nil {
				b.Fatal(err)
			}
			u := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pinsafe.Analyze(u, pinsafe.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGraph builds a benchmark assay by name, or a BioScript file of
// internal/assays/scripts.
func benchGraph(name string) (*cfg.Graph, error) {
	if !strings.HasSuffix(name, ".bio") {
		return assays.ByName(name).Build().Build()
	}
	src, err := os.ReadFile(filepath.Join("..", "assays", "scripts", name))
	if err != nil {
		return nil, err
	}
	bs, err := biocoder.ParseScript(string(src))
	if err != nil {
		return nil, err
	}
	return bs.Build()
}
