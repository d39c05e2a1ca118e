package codegen_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/exec"
	"biocoder/internal/lang"
	"biocoder/internal/place"
	"biocoder/internal/sched"
	"biocoder/internal/sensor"
)

// compileExt runs the full back end from an external test package.
func compileExt(t *testing.T, chip *arch.Chip, rec func(bs *lang.BioSystem)) *codegen.Executable {
	t.Helper()
	bs := lang.New()
	rec(bs)
	g, err := bs.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := cfg.ToSSI(g); err != nil {
		t.Fatalf("ToSSI: %v", err)
	}
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	pl, err := place.Place(g, sr, topo, place.Virtual)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	ex, err := codegen.Generate(g, sr, pl, topo)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ex
}

func replenishProtocol(bs *lang.BioSystem) {
	mix := bs.NewFluid("PCRMasterMix", lang.Microliters(10))
	tube := bs.NewContainer("tube")
	bs.MeasureFluid(mix, tube)
	bs.StoreFor(tube, 95, 10*time.Second)
	bs.Loop(3)
	bs.StoreFor(tube, 95, 5*time.Second)
	bs.Weigh(tube, "weightSensor")
	bs.If("weightSensor", lang.LessThan, 3.57)
	bs.MeasureFluid(mix, tube)
	bs.Vortex(tube, time.Second)
	bs.EndIf()
	bs.StoreFor(tube, 68, 5*time.Second)
	bs.EndLoop()
	bs.Drain(tube, "PCR")
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	chip := arch.Default()
	ex := compileExt(t, chip, replenishProtocol)

	var buf bytes.Buffer
	if err := codegen.Encode(&buf, ex); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := codegen.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	// Structural equality of graph and code.
	if got, want := decoded.Graph.String(), ex.Graph.String(); got != want {
		t.Errorf("graph dump mismatch:\n--- decoded ---\n%s--- original ---\n%s", got, want)
	}
	if len(decoded.Blocks) != len(ex.Blocks) || len(decoded.Edges) != len(ex.Edges) {
		t.Fatalf("code counts: %d/%d blocks, %d/%d edges",
			len(decoded.Blocks), len(ex.Blocks), len(decoded.Edges), len(ex.Edges))
	}
	for id, bc := range ex.Blocks {
		dc := decoded.Blocks[id]
		if dc.Seq.NumCycles != bc.Seq.NumCycles {
			t.Errorf("block %d cycles %d != %d", id, dc.Seq.NumCycles, bc.Seq.NumCycles)
		}
		if len(dc.Seq.Events) != len(bc.Seq.Events) {
			t.Errorf("block %d events %d != %d", id, len(dc.Seq.Events), len(bc.Seq.Events))
		}
		if len(dc.Seq.Runs) != len(bc.Seq.Runs) {
			t.Fatalf("block %d run counts differ: %d != %d", id, len(dc.Seq.Runs), len(bc.Seq.Runs))
		}
		for i, r := range bc.Seq.Runs {
			if d := dc.Seq.Runs[i]; d.Len != r.Len || !slices.Equal(d.Frame, r.Frame) {
				t.Fatalf("block %d run %d: %v x%d != %v x%d", id, i, d.Frame, d.Len, r.Frame, r.Len)
			}
		}
	}

	// Behavioral equality: the decoded executable must simulate to the
	// same result.
	script := map[string][]float64{"weightSensor": {4, 3, 4}}
	r1, err := exec.Run(ex, chip, exec.Options{Sensors: sensor.NewScripted(script)})
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	r2, err := exec.Run(decoded, chip, exec.Options{Sensors: sensor.NewScripted(script)})
	if err != nil {
		t.Fatalf("run decoded: %v", err)
	}
	if r1.Cycles != r2.Cycles || r1.Dispensed != r2.Dispensed || r1.Collected != r2.Collected {
		t.Errorf("behavior mismatch: %d/%d/%d vs %d/%d/%d",
			r1.Cycles, r1.Dispensed, r1.Collected, r2.Cycles, r2.Dispensed, r2.Collected)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	ex := compileExt(t, arch.Default(), replenishProtocol)
	var a, b bytes.Buffer
	if err := codegen.Encode(&a, ex); err != nil {
		t.Fatal(err)
	}
	if err := codegen.Encode(&b, ex); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	ex := compileExt(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Vortex(c, time.Second)
		bs.Drain(c, "")
	})
	var buf bytes.Buffer
	if err := codegen.Encode(&buf, ex); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := []struct {
		name    string
		corrupt func(string) string
	}{
		{"bad magic", func(s string) string { return "nonsense v9\n" + s }},
		{"truncated", func(s string) string { return s[:len(s)/2] }},
		{"teleporting track", func(s string) string {
			// Replace the second cell of a multi-cell track with a
			// far-away coordinate, breaking motion continuity.
			lines := strings.Split(s, "\n")
			for i, l := range lines {
				fields := strings.Fields(l)
				if len(fields) >= 6 && fields[0] == "track" && !strings.Contains(fields[4], "x") {
					fields[4] = "9,9"
					lines[i] = strings.Join(fields, " ")
					return strings.Join(lines, "\n")
				}
			}
			t.Fatal("no suitable track line to corrupt")
			return s
		}},
		{"garbage line", func(s string) string {
			return strings.Replace(s, "[graph]", "[graph]\nfrobnicate 1 2 3", 1)
		}},
		// Lines cut short after their directive used to index past their
		// fields and panic.
		{"short cycles line", func(s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "cycles" }, func([]string) string { return "cycles" })
		}},
		{"short track line", func(s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "track" }, func(f []string) string { return "track " + f[1] })
		}},
		{"short edge line", func(s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "edge" }, func([]string) string { return "edge 0" })
		}},
		// strconv reads NaN and Inf, and BF109's old volume <= 0 test
		// passed NaN.
		{"NaN dispense volume", func(s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "instr" && strings.Contains(f[len(f)-1], "volume=") },
				func(f []string) string { return strings.Join(f[:len(f)-1], " ") + " volume=NaN" })
		}},
		{"infinite event volume", func(s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "event" && strings.Contains(f[len(f)-1], "volume=") },
				func(f []string) string { return strings.Join(f[:len(f)-1], " ") + " volume=+Inf" })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := codegen.Decode(strings.NewReader(tc.corrupt(good))); err == nil {
				t.Error("corrupted executable accepted")
			}
		})
	}
}

// A sequence's declared cycle count bounds what its tracks may claim: a
// negative count, a track running past the count, or a count declared
// after the tracks is a decode error (they used to panic, or be silently
// cut off).
func TestDecodeRejectsBadCycleSpans(t *testing.T) {
	ex := compileExt(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.StoreFor(c, 95, time.Second)
		bs.Drain(c, "")
	})
	var buf bytes.Buffer
	if err := codegen.Encode(&buf, ex); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(t *testing.T, s string) string
	}{
		{"negative cycles", "negative cycle count", func(t *testing.T, s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "cycles" && f[1] != "0" },
				func([]string) string { return "cycles -1" })
		}},
		{"track past cycles", "runs past", func(t *testing.T, s string) string {
			// The assay lasts a few hundred cycles.
			return replaceLine(t, s, func(f []string) bool { return f[0] == "track" && len(f) > 3 },
				func(f []string) string {
					return strings.Join(f, " ") + " " + strings.Split(f[len(f)-1], "x")[0] + "x100000"
				})
		}},
		{"cycles after tracks", "after the tracks", func(t *testing.T, s string) string {
			return replaceLine(t, s, func(f []string) bool { return f[0] == "track" },
				func(f []string) string { return strings.Join(f, " ") + "\ncycles 1" })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := codegen.Decode(strings.NewReader(tc.corrupt(t, buf.String())))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// replaceLine rewrites the first line whose fields satisfy match.
func replaceLine(t *testing.T, s string, match func([]string) bool, repl func([]string) string) string {
	t.Helper()
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if f := strings.Fields(l); len(f) > 1 && match(f) {
			lines[i] = repl(f)
			return strings.Join(lines, "\n")
		}
	}
	t.Fatal("no line to corrupt")
	return s
}

func TestRLETrackEncoding(t *testing.T) {
	// A long hold must encode compactly.
	ex := compileExt(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.StoreFor(c, 95, time.Minute) // 6000 cycles of holding
		bs.Drain(c, "")
	})
	var buf bytes.Buffer
	if err := codegen.Encode(&buf, ex); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 20_000 {
		t.Errorf("encoding of a 1-minute hold is %d bytes; RLE should compress holds", buf.Len())
	}
	if !strings.Contains(buf.String(), "x") {
		t.Error("no run-length markers in encoding")
	}
}
