package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cleanScript = `fluid water 10
fluid buffer 10
container c
measure water into c
measure buffer into c
vortex c 1s
drain c out
`

func writeScript(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "protocol.bio")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCleanScript(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{writeScript(t, cleanScript)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean protocol produced diagnostics:\n%s", stdout.String())
	}
}

func TestRunAssay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-assay", "PCR"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("PCR assay produced diagnostics:\n%s", stdout.String())
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout.String(), "PCR") {
		t.Errorf("assay listing lacks PCR:\n%s", stdout.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
	if code := run([]string{"-assay", "No Such Assay"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown assay: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.bio")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

func TestRunJSONVerify(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := writeScript(t, cleanScript)
	if code := run([]string{"-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var targets []jsonTarget
	if err := json.Unmarshal(stdout.Bytes(), &targets); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(targets) != 1 || targets[0].Name != path {
		t.Fatalf("targets = %+v, want one entry for %s", targets, path)
	}
	if len(targets[0].Diags) != 0 {
		t.Errorf("clean protocol has diagnostics: %+v", targets[0].Diags)
	}
}

func TestAnalyzeAssay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"analyze", "-assay", "PCR"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"timing: best", "loop at", "output at"} {
		if !strings.Contains(out, want) {
			t.Errorf("analysis output lacks %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"analyze", "-json", "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var targets []jsonTarget
	if err := json.Unmarshal(stdout.Bytes(), &targets); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(targets))
	}
	tgt := targets[0]
	if tgt.Timing == nil || tgt.Timing.WorstCycles <= 0 {
		t.Errorf("timing missing or empty: %+v", tgt.Timing)
	}
	if len(tgt.Outputs) == 0 {
		t.Error("no output intervals in JSON")
	}
	for _, d := range tgt.Diags {
		if d.Severity == "error" {
			t.Errorf("unexpected error diagnostic: %+v", d)
		}
	}
}

// The -Werror regression: analysis warnings (PCR emits BF320 contamination
// warnings) must flip the exit code under -Werror, exactly like verifier
// warnings do.
func TestAnalyzeWerrorPromotesWarnings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"analyze", "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("without -Werror: exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "BF320") {
		t.Skip("corpus no longer emits contamination warnings; pick another warning source")
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"analyze", "-Werror", "-assay", "PCR"}, &stdout, &stderr); code != 1 {
		t.Errorf("with -Werror: exit %d, want 1", code)
	}
}

func TestAnalyzeDeadlineFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// PCR needs ~11m40s; a 1-minute budget is provably missed.
	if code := run([]string{"analyze", "-deadline", "1m", "-assay", "PCR"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1 for an impossible deadline", code)
	}
	if !strings.Contains(stdout.String(), "BF312") {
		t.Errorf("no BF312 in output:\n%s", stdout.String())
	}
}

func TestAnalyzeTargetFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"analyze", "-target", "Template=0.5:0.01", "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Errorf("reachable target: exit %d, want 0\n%s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"analyze", "-target", "Template=0.9", "-assay", "PCR"}, &stdout, &stderr); code != 1 {
		t.Errorf("unreachable target: exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "BF303") {
		t.Errorf("no BF303 in output:\n%s", stdout.String())
	}
	if code := run([]string{"analyze", "-target", "garbage", "-assay", "PCR"}, &stdout, &stderr); code != 2 {
		t.Errorf("malformed -target: exit %d, want 2", code)
	}
}

func TestAnalyzeUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"analyze"}, &stdout, &stderr); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
	if code := run([]string{"analyze", "-assay", "No Such Assay"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown assay: exit %d, want 2", code)
	}
}

func TestPinsAssay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"pins", "-assay", "PCR"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"electrodes", "interference edge(s)", "safe pin(s)", "derived map"} {
		if !strings.Contains(out, want) {
			t.Errorf("pins summary lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BF5") {
		t.Errorf("derived map for a corpus assay must verify clean:\n%s", out)
	}
}

func TestPinsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"pins", "-json", "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var targets []jsonTarget
	if err := json.Unmarshal(stdout.Bytes(), &targets); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(targets))
	}
	tgt := targets[0]
	if tgt.Pins == nil {
		t.Fatal("no pins object in JSON")
	}
	if tgt.Pins.Electrodes <= 0 || tgt.Pins.MinPins <= 0 || tgt.Pins.MinPins >= tgt.Pins.Electrodes {
		t.Errorf("implausible pin summary: %+v", tgt.Pins)
	}
	if !tgt.Pins.Derived || tgt.Pins.MapPins != tgt.Pins.MinPins {
		t.Errorf("derived map should use exactly the minimum pins: %+v", tgt.Pins)
	}
	if !strings.Contains(stderr.String(), ": pass ") {
		t.Errorf("no pass timings on stderr:\n%s", stderr.String())
	}
	if len(tgt.Diags) != 0 {
		t.Errorf("derived map has diagnostics: %+v", tgt.Diags)
	}
}

// Pass timings go to stderr, so every -json document is the same from one
// run to the next.
func TestJSONDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "-assay", "PCR"},
		{"analyze", "-json", "-assay", "PCR"},
		{"pins", "-json", "-assay", "PCR"},
		{"deps", "-json", "-assay", "PCR"},
	} {
		var outs [2]string
		for i := range outs {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), ": pass ") {
				t.Errorf("%v: no pass timings on stderr:\n%s", args, stderr.String())
			}
			outs[i] = stdout.String()
		}
		if outs[0] != outs[1] {
			t.Errorf("%v: two runs print different documents:\n%s\n---\n%s", args, outs[0], outs[1])
		}
	}
}

func TestPinsBudgetFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// PCR needs 6 pins at minimum; a budget of 1 is provably exceeded.
	if code := run([]string{"pins", "-pins", "1", "-assay", "PCR"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1 for an impossible pin budget", code)
	}
	if !strings.Contains(stderr.String(), "exceeds the budget") {
		t.Errorf("no budget message on stderr:\n%s", stderr.String())
	}
}

// The -o / -pinmap round trip: a derived map written out must parse back
// and verify clean when handed back as an explicit map.
func TestPinsMapRoundTrip(t *testing.T) {
	var stdout, stderr bytes.Buffer
	mapPath := filepath.Join(t.TempDir(), "pcr.pins")
	if code := run([]string{"pins", "-o", mapPath, "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("derive: exit %d, stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(mapPath); err != nil {
		t.Fatalf("no map written: %v", err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"pins", "-pinmap", mapPath, "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), mapPath) {
		t.Errorf("summary does not name the explicit map:\n%s", stdout.String())
	}
}

func TestPinsDeadlineFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// PCR needs ~11m40s; a 1-second budget is provably missed.
	if code := run([]string{"pins", "-deadline", "1s", "-assay", "PCR"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1 for an impossible deadline", code)
	}
	if !strings.Contains(stdout.String(), "BF312") {
		t.Errorf("no BF312 in output:\n%s", stdout.String())
	}
}

func TestPinsUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"pins"}, &stdout, &stderr); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
	if code := run([]string{"pins", "-assay", "No Such Assay"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown assay: exit %d, want 2", code)
	}
	if code := run([]string{"pins", "-pinmap", filepath.Join(t.TempDir(), "missing.pins"), "-assay", "PCR"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing pin map: exit %d, want 2", code)
	}
	badMap := writeScript(t, "not a pin map\n")
	if code := run([]string{"pins", "-pinmap", badMap, "-assay", "PCR"}, &stdout, &stderr); code != 2 {
		t.Errorf("malformed pin map: exit %d, want 2", code)
	}
	if code := run([]string{"pins", "-o", filepath.Join(t.TempDir(), "x.pins"), writeScript(t, cleanScript), writeScript(t, cleanScript)}, &stdout, &stderr); code != 2 {
		t.Errorf("-o with two targets: exit %d, want 2", code)
	}
}

func TestDepsAssay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"deps", "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"block b1", "fp ", "footprint", "distinct fingerprint"} {
		if !strings.Contains(out, want) {
			t.Errorf("deps summary lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BF60") {
		t.Errorf("bundled assay raised a BF6xx diagnostic:\n%s", out)
	}
}

func TestDepsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"deps", "-json", "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var targets []struct {
		Name  string `json:"name"`
		Diags []struct {
			Code string `json:"code"`
		} `json:"diagnostics"`
		Blocks []struct {
			Label          string `json:"label"`
			Fingerprint    string `json:"fingerprint"`
			FootprintCells int    `json:"footprintCells"`
		} `json:"blocks"`
		Deps []struct {
			FromLabel string   `json:"fromLabel"`
			Droplets  []string `json:"droplets"`
		} `json:"deps"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &targets); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if len(targets) != 1 || targets[0].Name != "PCR" {
		t.Fatalf("targets = %+v", targets)
	}
	if len(targets[0].Diags) != 0 {
		t.Errorf("PCR has BF6xx diagnostics: %+v", targets[0].Diags)
	}
	if len(targets[0].Blocks) < 4 || len(targets[0].Deps) == 0 {
		t.Fatalf("blocks/deps missing: %+v", targets[0])
	}
	for _, b := range targets[0].Blocks {
		if len(b.Fingerprint) != 64 {
			t.Errorf("block %s: fingerprint %q is not a sha256 hex digest", b.Label, b.Fingerprint)
		}
	}
}

func TestDepsDOT(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dot := filepath.Join(t.TempDir(), "pcr.dot")
	if code := run([]string{"deps", "-dot", dot, "-assay", "PCR"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "digraph") || !strings.Contains(s, "->") {
		t.Errorf("dot export looks malformed:\n%s", s)
	}
}

func TestDepsUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"deps"}, &stdout, &stderr); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
	if code := run([]string{"deps", "-assay", "No Such Assay"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown assay: exit %d, want 2", code)
	}
	if code := run([]string{"deps", "-dot", "x.dot", writeScript(t, cleanScript), writeScript(t, cleanScript)}, &stdout, &stderr); code != 2 {
		t.Errorf("-dot with two targets: exit %d, want 2", code)
	}
	if code := run([]string{"deps", "-dot", "-", "-json", "-assay", "PCR"}, &stdout, &stderr); code != 2 {
		t.Errorf("-dot - with -json: exit %d, want 2", code)
	}
}
