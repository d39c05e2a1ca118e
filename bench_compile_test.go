package biocoder_test

// Compile-path benchmarks for the compile pipeline: one worker vs parallel
// fan-out, cold vs warm memo, one-block-edit recompilation, and a recovery
// recompile around a fault. TestWriteBenchCompileJSON
// runs the same scenarios under testing.Benchmark and emits a
// machine-readable BENCH_compile.json when BENCH_COMPILE_OUT is set (CI
// archives it), so backend speedups and regressions are diffable across
// PRs.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/depgraph"
)

const benchAssay = "Opiate detection immunoassay"

func benchGraph(b *testing.B) *biocoder.BioSystem {
	b.Helper()
	return assays.ByName(benchAssay).Build()
}

func benchCompile(b *testing.B, opt biocoder.Options) *biocoder.Compiled {
	b.Helper()
	g, err := benchGraph(b).Build()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := biocoder.CompileGraphOptions(g, biocoder.DefaultChip(), opt)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkCompileSerial is the baseline: default options, one worker.
func BenchmarkCompileSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCompile(b, biocoder.Options{})
	}
}

// BenchmarkCompileParallel fans block synthesis out over the CPUs; output
// is byte-identical to one worker's (held by
// TestParallelCompileMatchesSerial).
func BenchmarkCompileParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCompile(b, biocoder.Options{Workers: runtime.NumCPU()})
	}
}

// BenchmarkCompileWarmMemo recompiles an unedited program against a warm
// block memo: every block is a fingerprint hit, so the measured cost is
// parse + SSI + fingerprinting + σ-translation, with no synthesis.
func BenchmarkCompileWarmMemo(b *testing.B) {
	memo := biocoder.NewMemo()
	benchCompile(b, biocoder.Options{Memo: memo}) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompile(b, biocoder.Options{Memo: memo})
	}
}

// BenchmarkRecompileOneBlockEdit measures the incremental loop a protocol
// author sits in: a memo warmed by the previous revision, then a compile
// of a revision with one edited block — only that block (and blocks whose
// fingerprints it shifts) re-synthesizes.
func BenchmarkRecompileOneBlockEdit(b *testing.B) {
	compile := func(incubate time.Duration, memo *biocoder.Memo) {
		g, err := incrementalProtocol(incubate).Build()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := biocoder.CompileGraphOptions(g, biocoder.DefaultChip(),
			biocoder.Options{Memo: memo}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		memo := biocoder.NewMemo()
		compile(10*time.Second, memo)
		b.StartTimer()
		compile(20*time.Second, memo)
	}
}

// benchFault returns the first chip cell, in row-major order, that one of
// the benchmark assay's blocks touches and that the assay still compiles
// around.
func benchFault(b *testing.B) biocoder.Point {
	b.Helper()
	prog := benchCompile(b, biocoder.Options{})
	cells := map[biocoder.Point]bool{}
	for _, bc := range prog.Executable.Blocks {
		for _, c := range depgraph.BlockFootprint(prog.Chip, bc) {
			cells[c] = true
		}
	}
	chip := biocoder.DefaultChip()
	for y := 0; y < chip.Rows; y++ {
		for x := 0; x < chip.Cols; x++ {
			c := biocoder.Point{X: x, Y: y}
			if !cells[c] {
				continue
			}
			_, err := biocoder.Compile(assays.ByName(benchAssay).Build(),
				biocoder.Options{FaultyElectrodes: []biocoder.Point{c}})
			if err == nil {
				return c
			}
		}
	}
	b.Fatal("the benchmark assay compiles around no cell it touches")
	return biocoder.Point{}
}

// BenchmarkRecoveryFull is a recovery recompile: the whole program against
// a topology with one of its cells faulty, as Recompiler does.
func BenchmarkRecoveryFull(b *testing.B) {
	fault := benchFault(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompile(b, biocoder.Options{FaultyElectrodes: []biocoder.Point{fault}})
	}
}

// TestWriteBenchCompileJSON emits the compile benchmarks in machine-readable
// form to the path in BENCH_COMPILE_OUT (skipped when unset).
func TestWriteBenchCompileJSON(t *testing.T) {
	out := os.Getenv("BENCH_COMPILE_OUT")
	if out == "" {
		t.Skip("BENCH_COMPILE_OUT not set")
	}
	scenarios := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"compileSerial", BenchmarkCompileSerial},
		{"compileParallel", BenchmarkCompileParallel},
		{"compileWarmMemo", BenchmarkCompileWarmMemo},
		{"recompileOneBlockEdit", BenchmarkRecompileOneBlockEdit},
		{"recoveryFull", BenchmarkRecoveryFull},
	}
	type row struct {
		N           int     `json:"n"`
		NsPerOp     int64   `json:"nsPerOp"`
		MsPerOp     float64 `json:"msPerOp"`
		OpsPerSec   float64 `json:"opsPerSec"`
		BytesPerOp  int64   `json:"bytesPerOp"`
		AllocsPerOp int64   `json:"allocsPerOp"`
	}
	doc := struct {
		Version string         `json:"compilerVersion"`
		GoOS    string         `json:"goos"`
		GoArch  string         `json:"goarch"`
		CPUs    int            `json:"cpus"`
		Assay   string         `json:"assay"`
		Results map[string]row `json:"results"`
	}{
		Version: biocoder.Version,
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Assay:   benchAssay,
		Results: map[string]row{},
	}
	for _, sc := range scenarios {
		r := testing.Benchmark(sc.fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", sc.name)
		}
		ns := r.NsPerOp()
		doc.Results[sc.name] = row{
			N:           r.N,
			NsPerOp:     ns,
			MsPerOp:     float64(ns) / 1e6,
			OpsPerSec:   1e9 / float64(ns),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		t.Logf("%-22s %s", sc.name, r)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
