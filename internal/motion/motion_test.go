package motion

import (
	"slices"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
)

func pt(x, y int) arch.Point { return arch.Point{X: x, Y: y} }

func id(name string) ir.FluidID { return ir.FluidID{Name: name} }

func chip() *arch.Chip { return &arch.Chip{Cols: 5, Rows: 4} }

// A grid set survives its epoch counter wrapping: the wrap clears every
// stamp, so no cell of an old epoch reads as present.
func TestGridEpochWrap(t *testing.T) {
	g := NewGrid(3, 2)
	g.Add(pt(2, 1))
	for i := 0; i < 1<<16; i++ {
		g.Clear()
		if g.Has(pt(2, 1)) {
			t.Fatalf("cell of an old epoch present after %d clears", i+1)
		}
	}
	if !g.Add(pt(0, 0)) || g.Add(pt(0, 0)) || !g.Has(pt(0, 0)) {
		t.Error("Add after the wrap misreports")
	}
	for _, p := range []arch.Point{pt(-1, 0), pt(3, 0), pt(0, 2), pt(0, -1)} {
		if g.In(p) || g.Has(p) {
			t.Errorf("%v is off the grid", p)
		}
	}
}

// The rule: hold on an active cell, follow a unique active neighbour;
// moves come in canonical order, and the count check comes first.
func TestFrameOutcomes(t *testing.T) {
	k := New(chip())
	k.LoadMap(map[ir.FluidID]arch.Point{id("b"): pt(1, 1), id("a"): pt(3, 1)})
	if got := k.Frame(codegen.Frame{pt(2, 1), pt(1, 1), pt(2, 1)}); got.Fault != OK {
		t.Fatalf("a duplicated electrode counts once: %+v", got)
	}
	want := []Step{{Drop: 0, From: pt(3, 1), To: pt(2, 1)}}
	if !slices.Equal(k.Moves, want) || k.Drops[0].At != pt(2, 1) || k.Drops[1].At != pt(1, 1) {
		t.Fatalf("moves %v, drops %v", k.Moves, k.Drops)
	}
	if got := k.Frame(codegen.Frame{pt(2, 1)}); got.Fault != Mismatch || got.N != 1 || len(k.Moves) != 0 {
		t.Errorf("one electrode for two droplets: %+v, moves %v", got, k.Moves)
	}
	if got := k.Frame(codegen.Frame{pt(4, 3), pt(0, 1)}); got.Fault != Stranded || got.Drop != 0 {
		t.Errorf("a's electrode out of reach: %+v", got)
	}
	if got := k.Frame(codegen.Frame{pt(2, 0), pt(2, 2)}); got.Fault != Torn || got.Drop != 0 || got.N != 2 {
		t.Errorf("a between two electrodes: %+v", got)
	}
	if k.Drops[0].At != pt(2, 1) {
		t.Errorf("a torn droplet moved to %v", k.Drops[0].At)
	}
}

// Events work input by input, then result by result, and stop at the first
// fault with the results placed so far listed.
func TestEventFaults(t *testing.T) {
	k := New(chip())
	k.LoadMap(map[ir.FluidID]arch.Point{id("p"): pt(2, 2), id("x"): pt(0, 0)})
	split := codegen.Event{Kind: codegen.EvSplit, Inputs: []ir.FluidID{id("p")},
		Results: []ir.FluidID{id("c"), id("x")}, Cells: []arch.Point{pt(1, 2), pt(3, 2)}}
	if got := k.Event(split); got.Fault != Exists || got.Fluid != id("x") || got.At != pt(2, 2) {
		t.Errorf("split into an existing droplet: %+v", got)
	}
	if !slices.Equal(k.Placed, []Droplet{{ID: id("c"), At: pt(1, 2)}}) {
		t.Errorf("placed %v, want the first child", k.Placed)
	}
	out := codegen.Event{Kind: codegen.EvOutput, Inputs: []ir.FluidID{id("c")}, Cells: []arch.Point{pt(0, 2)}}
	if got := k.Event(out); got.Fault != Misplaced || got.At != pt(1, 2) {
		t.Errorf("output off its droplet's cell: %+v", got)
	}
	sense := codegen.Event{Kind: codegen.EvSense, Inputs: []ir.FluidID{id("c")}}
	if got := k.Event(sense); got.Fault != Missing || got.Fluid != id("c") {
		t.Errorf("sensing an output droplet: %+v", got)
	}
	merge := codegen.Event{Kind: codegen.EvMerge, Inputs: []ir.FluidID{id("x"), id("x")},
		Results: []ir.FluidID{id("m")}, Cells: []arch.Point{pt(0, 0)}}
	if got := k.Event(merge); got.Fault != Missing || len(k.Drops) != 0 {
		t.Errorf("merging a droplet with itself: %+v, drops %v", got, k.Drops)
	}
	k.Event(codegen.Event{Kind: codegen.EvDispense, Results: []ir.FluidID{id("d")}, Cells: []arch.Point{pt(4, 0)}})
	if got := k.Event(codegen.Event{Kind: codegen.EvRename, Inputs: []ir.FluidID{id("d")},
		Results: []ir.FluidID{id("d")}, Cells: []arch.Point{pt(4, 0)}}); got.Fault != 0 {
		t.Errorf("renaming a droplet to itself: %+v", got)
	}
	if !slices.Equal(k.Drops, []Droplet{{ID: id("d"), At: pt(4, 0)}}) {
		t.Errorf("drops %v", k.Drops)
	}
}
