// Layer benchmarks on the smallest and the largest Table 1 assays (PCR and
// opiate): loading a saved executable, static verification, and
// simulation with and without telemetry. Opiate is almost all hold cycles,
// so its numbers show what a hold costs in each layer. Verification also
// runs on image_probe.bio, most of the benchmark's author workload.
//
//	go test -run '^$' -bench 'Benchmark(Load|Verify|Run)$' -benchmem .
package biocoder_test

import (
	"bytes"
	"os"
	"path/filepath"
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
	run := func(b *testing.B, prog *biocoder.Compiled) {
		u := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Chip: prog.Chip}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := verify.Run(u).Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, la := range layerAssays() {
		b.Run(la.name, func(b *testing.B) { run(b, compileLayer(b, la.a)) })
	}
	// Image probe synthesis as the benchmark's author workload compiles
	// it, from its BioScript source: the largest of the author's scripts.
	b.Run("Image", func(b *testing.B) {
		src, err := os.ReadFile(filepath.Join("internal", "assays", "scripts", "image_probe.bio"))
		if err != nil {
			b.Fatal(err)
		}
		bs, err := biocoder.ParseScript(string(src))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := biocoder.Compile(bs, biocoder.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, prog)
	})
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
