// Layer benchmarks on the smallest and the largest Table 1 assays (PCR and
// opiate): loading a saved executable, static verification, and
// simulation with and without telemetry. Opiate is almost all hold cycles,
// so its numbers show what a hold costs in each layer.
//
//	go test -run '^$' -bench 'Benchmark(Load|Verify|Run)$' -benchmem .
package biocoder_test

import (
	"bytes"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/sensor"
	"biocoder/internal/verify"
)

// layerAssays returns the assays the layer benchmarks cover.
func layerAssays() []struct {
	name string
	a    *assays.Assay
} {
	return []struct {
		name string
		a    *assays.Assay
	}{{"PCR", assays.PCR()}, {"Opiate", assays.Opiate()}}
}

func compileLayer(b *testing.B, a *assays.Assay) *biocoder.Compiled {
	b.Helper()
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkLoad(b *testing.B) {
	for _, la := range layerAssays() {
		b.Run(la.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := compileLayer(b, la.a).Save(&buf); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := biocoder.Load(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	for _, la := range layerAssays() {
		b.Run(la.name, func(b *testing.B) {
			prog := compileLayer(b, la.a)
			u := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Chip: prog.Chip}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := verify.Run(u).Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRun simulates the assay's first scripted scenario, plain and
// with Metrics on.
func BenchmarkRun(b *testing.B) {
	for _, la := range layerAssays() {
		prog := compileLayer(b, la.a)
		for _, metrics := range []bool{false, true} {
			name := la.name + "/plain"
			if metrics {
				name = la.name + "/metrics"
			}
			b.Run(name, func(b *testing.B) {
				var cycles int
				for i := 0; i < b.N; i++ {
					model := sensor.NewScripted(la.a.Scenarios[0].Script)
					model.Fallback = sensor.NewUniform(1)
					res, err := prog.Run(biocoder.RunOptions{Sensors: model, Metrics: metrics})
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
			})
		}
	}
}
