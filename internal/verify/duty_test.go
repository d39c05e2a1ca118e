package verify_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/verify"
)

// TestDutyPass compiles a real assay and checks the BF401 duty warning in
// both directions: silent at the default one-hour hold limit, firing once
// the limit is tightened below the assay's longest legitimate hold (PCR's
// thermocycling holds droplets for minutes).
func TestDutyPass(t *testing.T) {
	g, err := assays.PCR().Build().Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := biocoder.CompileGraphOptions(g, arch.Default(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	unit := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Placement: prog.Placement}

	if rep := verify.Run(unit); len(rep.Diags) != 0 {
		t.Fatalf("default limit: expected clean report, got:\n%s", rep)
	}

	old := verify.DutyHoldLimit
	verify.DutyHoldLimit = 10 * time.Second // 1000 cycles at 10 ms
	defer func() { verify.DutyHoldLimit = old }()

	rep := verify.Run(unit)
	if len(rep.Diags) == 0 {
		t.Fatal("tightened limit: expected BF401 warnings, got clean report")
	}
	for _, d := range rep.Diags {
		if d.Code != "BF401" {
			t.Errorf("unexpected diagnostic %s: %s", d.Code, d.Msg)
		}
		if d.Sev != verify.Warning {
			t.Errorf("BF401 should be a warning, got %v", d.Sev)
		}
		if !strings.Contains(d.Msg, "actuated continuously") {
			t.Errorf("unexpected message: %s", d.Msg)
		}
	}
}

// dutyReference is the per-cycle scan BF401 is defined by: each cycle adds
// one to a cell's streak per occurrence of the cell in the frame, and a
// cycle without the cell ends its streak.
func dutyReference(frames []codegen.Frame) map[arch.Point]int {
	run, worst := map[arch.Point]int{}, map[arch.Point]int{}
	for _, f := range frames {
		seen := map[arch.Point]bool{}
		for _, c := range f {
			seen[c] = true
			run[c]++
			worst[c] = max(worst[c], run[c])
		}
		for c := range run {
			if !seen[c] {
				delete(run, c)
			}
		}
	}
	return worst
}

// BF401 extends a streak by a whole run of identical frames at once; the
// streaks it reports must be the per-cycle scan's, on the compiled opiate
// assay and on a hand-built sequence mixing a shared hold frame, an equal
// frame that is not shared, a duplicated cell and broken streaks.
func TestDutyStreaksMatchPerCycleScan(t *testing.T) {
	prog, err := biocoder.Compile(assays.Opiate().Build(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := *prog.Executable
	ex.Blocks = map[int]*codegen.BlockCode{}
	for id, bc := range prog.Executable.Blocks {
		ex.Blocks[id] = bc
	}
	a, b := arch.Point{X: 1, Y: 1}, arch.Point{X: 2, Y: 1}
	hold := codegen.Frame{a}
	frames := []codegen.Frame{hold, hold, hold, {a}, {a, b}, {a, b}, {b}, {a}, {a, a}, {a, a}, {a, a}, {b}}
	hand := &codegen.BlockCode{
		Block: &cfg.Block{ID: 1 << 20, Label: "hand"},
		Seq:   &codegen.Sequence{NumCycles: len(frames), Frames: frames},
	}
	ex.Blocks[hand.Block.ID] = hand

	old := verify.DutyHoldLimit
	verify.DutyHoldLimit = prog.Chip.CyclePeriod // every streak over one cycle
	defer func() { verify.DutyHoldLimit = old }()

	want := map[string]bool{}
	addWant := func(scope string, seq *codegen.Sequence) {
		for c, n := range dutyReference(seq.Frames) {
			if n > 1 {
				want[fmt.Sprintf("%s: electrode (%d,%d) actuated continuously for %d cycles", scope, c.X, c.Y, n)] = true
			}
		}
	}
	for _, bc := range ex.Blocks {
		addWant("block "+bc.Block.Label, bc.Seq)
	}
	for _, ec := range ex.Edges {
		addWant("edge "+ec.From.Label+"->"+ec.To.Label, ec.Seq)
	}
	got := map[string]bool{}
	for _, d := range verify.Run(&verify.Unit{Exec: &ex}).Diags {
		if d.Code == "BF401" {
			got[d.Pos.Scope+": "+d.Msg[:strings.Index(d.Msg, " (limit")]] = true
		}
	}
	if len(got) != len(want) {
		t.Errorf("BF401 reports %d electrodes, the per-cycle scan %d", len(got), len(want))
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing %q", w)
		}
	}
	// a: a streak of 6, then 1 + 2×3 = 7 with the duplicated cell; b: 3.
	for _, w := range []string{"(1,1) actuated continuously for 7 cycles", "(2,1) actuated continuously for 3 cycles"} {
		if w = "block " + hand.Block.Label + ": electrode " + w; !got[w] {
			t.Errorf("hand-built sequence: missing %q", w)
		}
	}
}
