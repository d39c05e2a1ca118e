package exec

import (
	"errors"
	"strings"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
)

// Permanent-fault model tests: stuck-at-off electrodes must be detected
// through the feedback loop exactly when a droplet fails to follow a
// commanded move — and only then.

// moveSeq dispenses one droplet at (0,1), holds it one cycle, moves it to
// (1,1), then back to (0,1), and outputs it there.
func moveSeq() *codegen.Sequence {
	return &codegen.Sequence{
		NumCycles: 3,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}}, // hold
			{{X: 1, Y: 1}}, // move east
			{{X: 0, Y: 1}}, // move back west
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			outputEvent(3, fid("a"), arch.Point{X: 0, Y: 1}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
}

func TestStuckElectrodeDetection(t *testing.T) {
	ex, chip := miniExec(t, moveSeq())
	_, err := Run(ex, chip, Options{
		MaxCycles:   10_000,
		Degradation: &Degradation{Stuck: []StuckAt{{Cell: arch.Point{X: 1, Y: 1}, Cycle: 0}}},
	})
	var stuck *StuckElectrodeError
	if !errors.As(err, &stuck) {
		t.Fatalf("want StuckElectrodeError, got %v", err)
	}
	if (stuck.Cell != arch.Point{X: 1, Y: 1}) {
		t.Errorf("suspect cell %v, want (1,1)", stuck.Cell)
	}
	// The move onto (1,1) is commanded by frame 1, i.e. at machine cycle 1.
	if stuck.Cycle != 1 {
		t.Errorf("detected at cycle %d, want 1", stuck.Cycle)
	}
	if stuck.Droplet != "a.1" {
		t.Errorf("droplet %q, want a.1", stuck.Droplet)
	}
	if !strings.Contains(err.Error(), "stuck at off") {
		t.Errorf("error text should mention the stuck electrode: %v", err)
	}
}

func TestStuckScheduleRespectsCycle(t *testing.T) {
	// The electrode dies only at cycle 10 — after the assay's single pass
	// over it — so the run completes.
	ex, chip := miniExec(t, moveSeq())
	res, err := Run(ex, chip, Options{
		MaxCycles:   10_000,
		Degradation: &Degradation{Stuck: []StuckAt{{Cell: arch.Point{X: 1, Y: 1}, Cycle: 10}}},
	})
	if err != nil {
		t.Fatalf("late-scheduled fault must not fire: %v", err)
	}
	if res.Collected != 1 {
		t.Errorf("collected %d droplets, want 1", res.Collected)
	}
}

func TestStuckHoldIsUndetectable(t *testing.T) {
	// A droplet holding on a dead electrode does not move either way: the
	// feedback loop cannot distinguish the fault, so the run proceeds.
	// Only the commanded move back onto the dead cell (0,1) detects it.
	seq := &codegen.Sequence{
		NumCycles: 2,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}}, // hold on the (dead) dispense cell: no signal
			{{X: 0, Y: 1}}, // still holding
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			outputEvent(2, fid("a"), arch.Point{X: 0, Y: 1}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	ex, chip := miniExec(t, seq)
	if _, err := Run(ex, chip, Options{
		MaxCycles:   10_000,
		Degradation: &Degradation{Stuck: []StuckAt{{Cell: arch.Point{X: 0, Y: 1}, Cycle: 0}}},
	}); err != nil {
		t.Fatalf("hold on a dead electrode must pass undetected: %v", err)
	}
}

func TestWearBudgetKillsElectrode(t *testing.T) {
	// Budget 1: (0,1) is actuated by frame 0 (wear 1) and is dead by the
	// time frame 2 commands the droplet back onto it.
	ex, chip := miniExec(t, moveSeq())
	_, err := Run(ex, chip, Options{
		MaxCycles:   10_000,
		Degradation: &Degradation{WearBudget: 1},
	})
	var stuck *StuckElectrodeError
	if !errors.As(err, &stuck) {
		t.Fatalf("want StuckElectrodeError from wear-out, got %v", err)
	}
	if (stuck.Cell != arch.Point{X: 0, Y: 1}) {
		t.Errorf("worn-out cell %v, want (0,1)", stuck.Cell)
	}
	if stuck.Cycle != 2 {
		t.Errorf("detected at cycle %d, want 2", stuck.Cycle)
	}
}

func TestWearBudgetGenerousEnough(t *testing.T) {
	ex, chip := miniExec(t, moveSeq())
	if _, err := Run(ex, chip, Options{
		MaxCycles:   10_000,
		Degradation: &Degradation{WearBudget: 100},
	}); err != nil {
		t.Fatalf("generous wear budget must not fire: %v", err)
	}
}

// TestFaultTieBreakDeterministic pins the documented victim selection of
// transient Fault injection: nearest the fault cell by Manhattan distance,
// ties broken by droplet ID name, then SSI version.
func TestFaultTieBreakDeterministic(t *testing.T) {
	twoDroplets := func(idA, idB ir.FluidID) *codegen.Sequence {
		return &codegen.Sequence{
			NumCycles: 2,
			Runs: runs([]codegen.Frame{
				{{X: 0, Y: 1}, {X: 0, Y: 3}},
				{{X: 0, Y: 1}, {X: 0, Y: 3}},
			}),
			Events: []codegen.Event{
				dispenseEvent(0, idA, arch.Point{X: 0, Y: 1}),
				dispenseEvent(0, idB, arch.Point{X: 0, Y: 3}),
				outputEvent(2, idA, arch.Point{X: 0, Y: 1}),
				outputEvent(2, idB, arch.Point{X: 0, Y: 3}),
			},
			Tracks: map[ir.FluidID]*codegen.Track{},
		}
	}
	cases := []struct {
		name string
		a, b ir.FluidID
		want string
	}{
		// (0,2) is equidistant from both droplets: name breaks the tie.
		{"name", fid("a"), fid("b"), "a.1"},
		// Same name: the lower SSI version is chosen.
		{"version", ir.FluidID{Name: "a", Ver: 2}, ir.FluidID{Name: "a", Ver: 1}, "a.1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, chip := miniExec(t, twoDroplets(tc.a, tc.b))
			o := Options{MaxCycles: 10_000}
			o.faults = []Fault{{Cycle: 0, Cell: arch.Point{X: 0, Y: 2}}}
			_, err := Run(ex, chip, o)
			loss, ok := errAsLoss(err)
			if !ok {
				t.Fatalf("want loss signal, got %v", err)
			}
			if loss.Droplet != tc.want {
				t.Errorf("victim %q, want %q", loss.Droplet, tc.want)
			}
		})
	}
}

// TestFaultNearestWins pins the primary criterion: distance beats ID.
func TestFaultNearestWins(t *testing.T) {
	seq := &codegen.Sequence{
		NumCycles: 2,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}, {X: 0, Y: 4}},
			{{X: 0, Y: 1}, {X: 0, Y: 4}},
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			dispenseEvent(0, fid("b"), arch.Point{X: 0, Y: 4}),
			outputEvent(2, fid("a"), arch.Point{X: 0, Y: 1}),
			outputEvent(2, fid("b"), arch.Point{X: 0, Y: 4}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	ex, chip := miniExec(t, seq)
	o := Options{MaxCycles: 10_000}
	o.faults = []Fault{{Cycle: 0, Cell: arch.Point{X: 0, Y: 4}}}
	_, err := Run(ex, chip, o)
	loss, ok := errAsLoss(err)
	if !ok {
		t.Fatalf("want loss signal, got %v", err)
	}
	if loss.Droplet != "b.1" {
		t.Errorf("victim %q, want the nearer b.1 despite a sorting first by name", loss.Droplet)
	}
}
