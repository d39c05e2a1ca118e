package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biocoder/internal/obs"
)

// writeTestTrace writes a synthetic but schema-valid compile trace with a
// known phase distribution: blocks 50µs, edges 30µs, check 20µs under a
// 100µs compile root. The root, a block's schedule/place/codegen stages
// and the nested route span must not count toward shares.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	events := []obs.TraceEvent{
		{Name: "compile", Ph: "X", Ts: 0, Dur: 100, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "blocks", Ph: "X", Ts: 0, Dur: 50, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "block b0", Ph: "X", Ts: 0, Dur: 50, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "schedule", Ph: "X", Ts: 0, Dur: 20, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "place", Ph: "X", Ts: 20, Dur: 10, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "codegen", Ph: "X", Ts: 30, Dur: 20, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "route", Ph: "X", Ts: 35, Dur: 10, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "edges", Ph: "X", Ts: 50, Dur: 30, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "check", Ph: "X", Ts: 80, Dur: 20, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBreakdown(t *testing.T) {
	trace := writeTestTrace(t)
	var out, errb bytes.Buffer
	if code := run([]string{trace}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"blocks", "50.0%", "edges", "30.0%", "check", "20.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("breakdown missing %q:\n%s", want, out.String())
		}
	}
	for _, nested := range []string{"schedule", "place", "codegen", "route"} {
		if strings.Contains(out.String(), nested) {
			t.Errorf("nested %s span must not appear as a phase:\n%s", nested, out.String())
		}
	}
}

// The static-oracle passes bfc runs after compiling are phases of their
// own; pinsafe's nested passes are not.
func TestOraclePhases(t *testing.T) {
	events := []obs.TraceEvent{
		{Name: "compile", Ph: "X", Ts: 0, Dur: 40, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "blocks", Ph: "X", Ts: 0, Dur: 40, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "verify", Ph: "X", Ts: 40, Dur: 20, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "analysis", Ph: "X", Ts: 60, Dur: 10, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "pinsafe", Ph: "X", Ts: 70, Dur: 30, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "interference", Ph: "X", Ts: 70, Dur: 25, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"blocks", "40.0%", "verify", "20.0%", "analysis", "10.0%", "pinsafe", "30.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("breakdown missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "interference") {
		t.Errorf("nested interference span must not appear as a phase:\n%s", out.String())
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	trace := writeTestTrace(t)
	base := filepath.Join(t.TempDir(), "baseline.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-write-baseline", base, trace}, &out, &errb); code != 0 {
		t.Fatalf("write-baseline exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", base, trace}, &out, &errb); code != 0 {
		t.Fatalf("self-check exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "within") {
		t.Errorf("expected pass message, got:\n%s", out.String())
	}
}

func TestBaselineDrift(t *testing.T) {
	trace := writeTestTrace(t)
	base := filepath.Join(t.TempDir(), "baseline.json")
	bl := `{"tolerance": 0.05, "phases": {"blocks": 0.9, "edges": 0.05, "check": 0.05}}`
	if err := os.WriteFile(base, []byte(bl), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", base, trace}, &out, &errb); code != 1 {
		t.Fatalf("expected drift failure (exit 1), got %d\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "drifted from baseline") {
		t.Errorf("missing drift diagnostic:\n%s", errb.String())
	}
}

// TestBaselinePhaseSet checks that a baseline naming other phases than the
// traces fails even when every share sits within the tolerance: here the
// baseline still has a top-level codegen phase where the traces have
// check, both at 0.2, under a tolerance of 0.3.
func TestBaselinePhaseSet(t *testing.T) {
	trace := writeTestTrace(t)
	base := filepath.Join(t.TempDir(), "baseline.json")
	bl := `{"tolerance": 0.3, "phases": {"blocks": 0.5, "edges": 0.3, "codegen": 0.2}}`
	if err := os.WriteFile(base, []byte(bl), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", base, trace}, &out, &errb); code != 1 {
		t.Fatalf("expected a phase-set failure (exit 1), got %d\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	for _, want := range []string{
		`phase "check" is in the traces but not the baseline`,
		`phase "codegen" is in the baseline but not the traces`,
	} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("missing %q:\n%s", want, errb.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestMemoCounters checks that the block-memo cache disposition recorded on
// the "compile" spans of memoized compiles is summed across files and
// printed, and that traces without a memo (no counters) stay silent.
func TestMemoCounters(t *testing.T) {
	events := []obs.TraceEvent{
		{Name: "compile", Ph: "X", Ts: 0, Dur: 100, Pid: 1, Tid: obs.CompileTrack, Cat: "compile",
			Args: map[string]any{"workers": 4, "memo_hits": 3, "memo_misses": 2}},
		{Name: "blocks", Ph: "X", Ts: 0, Dur: 80, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
		{Name: "edges", Ph: "X", Ts: 80, Dur: 20, Pid: 1, Tid: obs.CompileTrack, Cat: "compile"},
	}
	path := filepath.Join(t.TempDir(), "memo.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path, path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "memo: 6 hit(s), 4 miss(es) (60% block reuse) across 2 memoized compile(s)") {
		t.Errorf("memo disposition line missing or wrong:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "blocks") || !strings.Contains(out.String(), "edges") {
		t.Errorf("fan-out phases missing from the table:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{writeTestTrace(t)}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "memo:") {
		t.Errorf("trace without a memo printed a memo line:\n%s", out.String())
	}
}
