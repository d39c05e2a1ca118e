package main

import (
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/assays"
)

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{405*time.Minute + 30*time.Second, "405m 30s"},
		{7*time.Minute + 21*time.Second, "7m 21s"},
		{59 * time.Second, "0m 59s"},
		{11*time.Minute + 40*time.Second + 499*time.Millisecond, "11m 40s"},
		{11*time.Minute + 40*time.Second + 501*time.Millisecond, "11m 41s"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestDashes(t *testing.T) {
	if got := dashes(4); got != "----" {
		t.Errorf("dashes(4) = %q", got)
	}
}

// TestCompilePhasesNonZero keeps the Sched, Place and Codegen columns live:
// they read the per-block stage spans of the compile pipeline, and a compile
// that stopped recording them would report 0.0ms for the largest assay.
func TestCompilePhasesNonZero(t *testing.T) {
	tracer := biocoder.NewTracer()
	a := assays.ByName("Opiate detection immunoassay")
	if _, err := biocoder.Compile(a.Build(), biocoder.Options{Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	sched, place, route, cg := compilePhases(tracer)
	if sched <= 0 || place <= 0 || route <= 0 || cg <= 0 {
		t.Errorf("opiate compile phases sched=%v place=%v route=%v codegen=%v; want all non-zero",
			sched, place, route, cg)
	}
}
