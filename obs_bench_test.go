// Overhead accounting for the observability layer: compilation with and
// without a tracer, simulation with and without telemetry, and the
// zero-allocation guarantee of the nil-tracer fast path. The *_test pairs
// let `go test -bench 'Traced|Telemetry' -benchmem` show the cost of
// instrumentation directly; TestObservabilityOverhead enforces a generous
// ceiling so a hot-path regression fails CI rather than drifting in.
package biocoder_test

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/obs"
	"biocoder/internal/pinsafe"
	"biocoder/internal/sensor"
	"biocoder/internal/verify"
)

func compileOnce(b *testing.B, tracer *biocoder.Tracer) {
	b.Helper()
	bs := assays.PCRReplenish().Build()
	if _, err := biocoder.Compile(bs, biocoder.Options{Tracer: tracer}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCompileTraced measures compilation with a live tracer attached;
// compare against BenchmarkCompileUntraced for the instrumentation cost.
func BenchmarkCompileTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileOnce(b, biocoder.NewTracer())
	}
}

// BenchmarkCompileUntraced is the nil-tracer baseline.
func BenchmarkCompileUntraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileOnce(b, nil)
	}
}

func runOnce(b *testing.B, prog *biocoder.Compiled, metrics bool) {
	b.Helper()
	a := assays.PCRReplenish()
	model := sensor.NewScripted(a.Scenarios[0].Script)
	model.Fallback = sensor.NewUniform(1)
	if _, err := prog.Run(biocoder.RunOptions{Sensors: model, Metrics: metrics}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunTelemetry measures simulation with per-cycle telemetry on;
// compare against BenchmarkRunPlain for the per-cycle recording cost.
func BenchmarkRunTelemetry(b *testing.B) {
	prog, err := biocoder.Compile(assays.PCRReplenish().Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, prog, true)
	}
}

// BenchmarkRunPlain is the telemetry-off baseline.
func BenchmarkRunPlain(b *testing.B) {
	prog, err := biocoder.Compile(assays.PCRReplenish().Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, prog, false)
	}
}

func pinsOnce(b *testing.B, prog *biocoder.Compiled, tracer *biocoder.Tracer) {
	b.Helper()
	_, err := pinsafe.Analyze(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable},
		pinsafe.Config{Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPinsTraced measures the pin-safety analysis with a live tracer
// (its interference/assign/broadcast spans recorded); compare against
// BenchmarkPinsUntraced for the instrumentation cost.
func BenchmarkPinsTraced(b *testing.B) {
	prog, err := biocoder.Compile(assays.PCRReplenish().Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pinsOnce(b, prog, biocoder.NewTracer())
	}
}

// BenchmarkPinsUntraced is the nil-tracer baseline for the pin-safety
// analysis.
func BenchmarkPinsUntraced(b *testing.B) {
	prog, err := biocoder.Compile(assays.PCRReplenish().Build(), biocoder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pinsOnce(b, prog, nil)
	}
}

// TestNilTracerZeroAlloc pins down the untraced fast path: starting and
// ending spans and setting attributes on a nil tracer must not allocate,
// so instrumented code paths cost nothing when observability is off.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *obs.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("phase")
		sp.SetInt("n", 42)
		sp.SetStr("s", "x")
		sp.SetFloat("f", 1.5)
		sp.SetBool("b", true)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f times per span; want 0", allocs)
	}
}

// TestNilMetricsRecoveryZeroAlloc extends the guard to the recovery
// instrumentation: recording recovery accounting against nil metrics (and
// spanning a nil tracer around the recompile, as the controller does)
// must not allocate — fault handling costs nothing when telemetry is off.
func TestNilMetricsRecoveryZeroAlloc(t *testing.T) {
	var m *obs.Metrics
	var tr *obs.Tracer
	sample := obs.RecoverySample{
		Kind: "stuck-electrode", X: 3, Y: 4, Droplet: "a.1",
		DetectCycle: 100, Action: "resume", Recompiled: true,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("recovery-recompile")
		sp.SetInt("faults", 1)
		sp.SetBool("ok", true)
		sp.End()
		m.RecordRecovery(sample)
	})
	if allocs != 0 {
		t.Fatalf("nil-metrics recovery path allocated %.1f times; want 0", allocs)
	}
}

// TestNilRegistryZeroAlloc extends the guard to the metrics registry: the
// per-cycle exec hot path pre-resolves instrument handles, and with the
// registry off those handles are nil — operating on them (and on the nil
// registry itself) must not allocate.
func TestNilRegistryZeroAlloc(t *testing.T) {
	var reg *obs.Registry
	var c *obs.Counter
	var g *obs.Gauge
	var h *obs.Histogram
	var s *obs.Summary
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		h.Observe(0.25)
		s.Observe(1.5)
		if reg.Counter("x", "") != nil || reg.Gauge("x", "") != nil {
			t.Fatal("nil registry returned a live handle")
		}
		if reg.Histogram("x", "", nil) != nil || reg.Summary("x", "") != nil {
			t.Fatal("nil registry returned a live handle")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-registry path allocated %.1f times per iteration; want 0", allocs)
	}
}

// TestNilRegistryCompileZeroOverhead pins that a compile without a registry
// never touches the registry plumbing: phases record no samples and the
// whole-compile accounting is skipped entirely.
func TestNilRegistryCompileZeroOverhead(t *testing.T) {
	bs := assays.PCRReplenish().Build()
	if _, err := biocoder.Compile(bs, biocoder.Options{Registry: nil}); err != nil {
		t.Fatal(err)
	}
}

// TestCompilePhaseMetrics checks that every compile, memoized or not,
// records biocoder_compile_phase_seconds under the phase names of the
// trace, and nothing for the per-block stages, which the blocks phase
// already covers.
func TestCompilePhaseMetrics(t *testing.T) {
	for _, memo := range []*biocoder.Memo{nil, biocoder.NewMemo()} {
		reg := biocoder.NewRegistry()
		opt := biocoder.Options{Registry: reg, Memo: memo, FoldEdges: true}
		if _, err := biocoder.Compile(assays.ByName("PCR").Build(), opt); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteExposition(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := obs.ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"ssi", "topology", "blocks", "edges", "fold", "check"} {
			if v, ok := e.Value("biocoder_compile_phase_seconds_count", obs.L("phase", phase)); !ok || v != 1 {
				t.Errorf("memo=%t: phase %s has %v sample(s) (present %t), want 1", memo != nil, phase, v, ok)
			}
		}
		for _, stage := range []string{"schedule", "place", "codegen"} {
			if _, ok := e.Value("biocoder_compile_phase_seconds_count", obs.L("phase", stage)); ok {
				t.Errorf("memo=%t: per-block stage %s recorded as a compile phase", memo != nil, stage)
			}
		}
	}
}

// TestObservabilityOverhead compares wall-clock medians of untraced vs
// traced compilation and plain vs telemetry runs. The bound is deliberately
// loose — its job is to catch a hot-path regression such as unbounded
// per-cycle allocation, not to benchmark: on a single-core runner the
// telemetry arm's per-cycle histogram updates plus GC sharing the one CPU
// already sit near 2x, so the gate trips at 2.5x of the median of three
// measurements, each from a freshly collected heap (garbage left behind by
// earlier tests otherwise inflates the allocation-heavier arm).
func TestObservabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	measure := func(fn func(*testing.B)) int64 {
		samples := make([]int64, 3)
		for i := range samples {
			runtime.GC()
			samples[i] = testing.Benchmark(fn).NsPerOp()
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[1]
	}
	base := measure(BenchmarkRunPlain)
	inst := measure(BenchmarkRunTelemetry)
	if 2*inst > 5*base {
		t.Errorf("telemetry run %dns/op vs plain %dns/op: more than 2.5x overhead", inst, base)
	}
	base = measure(BenchmarkCompileUntraced)
	inst = measure(BenchmarkCompileTraced)
	if 2*inst > 5*base {
		t.Errorf("traced compile %dns/op vs untraced %dns/op: more than 2.5x overhead", inst, base)
	}
	base = measure(BenchmarkPinsUntraced)
	inst = measure(BenchmarkPinsTraced)
	if 2*inst > 5*base {
		t.Errorf("traced pins analysis %dns/op vs untraced %dns/op: more than 2.5x overhead", inst, base)
	}
}
