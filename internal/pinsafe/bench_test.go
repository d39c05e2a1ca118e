package pinsafe_test

// Layer benchmark for the pin-safety analysis (interference graph, DSATUR
// assignment, broadcast replay) on the smallest and the largest benchmark
// assay. Run with:
//
//	go test ./internal/pinsafe -run '^$' -bench . -benchmem

import (
	"testing"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

func BenchmarkAnalyze(b *testing.B) {
	for _, a := range []struct{ short, name string }{
		{"PCR", "PCR"},
		{"Opiate", "Opiate detection immunoassay"},
	} {
		b.Run(a.short, func(b *testing.B) {
			g, err := assays.ByName(a.name).Build().Build()
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
