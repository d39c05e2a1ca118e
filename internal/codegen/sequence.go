// Package codegen converts scheduled, placed, routed basic blocks into the
// DMFB executable of the paper (§4, §6.4): Δ = {Δ_B, Δ_E}, an electrode
// activation sequence Σ for every basic block and every CFG edge, plus the
// annotations the runtime interpreter needs — sensor events that feed dry
// computation, and structural droplet events (dispense, output, split,
// merge, rename) that change the droplet population.
//
// Electrode frames follow the standard actuation discipline: to move a
// droplet to a neighboring electrode, activate the destination and release
// the source (Fig. 2/4); to hold, keep the droplet's electrode active. A
// frame is therefore exactly the set of end-of-cycle droplet positions.
package codegen

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"biocoder/internal/arch"
	"biocoder/internal/ir"
)

// Frame is the set of activated electrodes during one cycle, sorted
// row-major for determinism.
//
// Frames are immutable once emitted. A hold — cycles in which no droplet
// moves and no mix oscillates — is one Frame value shared by every cycle of
// the hold, and folding, decoding and the block memo share frames across
// cycles and sequences too, so writing into a frame would rewrite every
// cycle that shares it.
type Frame []arch.Point

// SameFrame reports whether frame b activates exactly the electrodes of
// frame a, cell for cell. It is the one definition of "this frame repeats
// the previous one": every walker that skips hold cycles asks it. Cycles of
// one hold share a frame, so identity answers most calls; frames built
// elsewhere are compared by content.
func SameFrame(a, b Frame) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortFrame(f Frame) {
	sort.Slice(f, func(i, j int) bool {
		if f[i].Y != f[j].Y {
			return f[i].Y < f[j].Y
		}
		return f[i].X < f[j].X
	})
}

// EventKind enumerates the structural annotations of a sequence.
type EventKind int

const (
	// EvDispense introduces a new droplet at a port cell.
	EvDispense EventKind = iota
	// EvOutput removes a droplet at a port cell.
	EvOutput
	// EvSplit replaces one droplet with two.
	EvSplit
	// EvMerge replaces several droplets with one.
	EvMerge
	// EvRename renames a droplet in place (version change: heat, sense,
	// store results, and φ copies on CFG edges).
	EvRename
	// EvSense records a sensor reading into a dry variable.
	EvSense
)

var eventKindNames = [...]string{"dispense", "output", "split", "merge", "rename", "sense"}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one structural droplet event at a given cycle of a sequence.
// Events at cycle c apply after the frame of cycle c-1 and before the frame
// of cycle c (i.e., between cycles).
type Event struct {
	Cycle   int
	Kind    EventKind
	InstrID int

	// Inputs are the droplets consumed; Results the droplets produced.
	Inputs  []ir.FluidID
	Results []ir.FluidID
	// Cells are the positions of the results (EvDispense, EvSplit,
	// EvMerge) or of the removed droplet (EvOutput).
	Cells []arch.Point

	Port      string  // EvDispense/EvOutput
	Fluid     string  // EvDispense reagent name
	Volume    float64 // EvDispense volume (µL)
	SensorVar string  // EvSense dry variable
	Device    string  // EvSense device name
}

func (ev Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v@%d", ev.Kind, ev.Cycle)
	if len(ev.Inputs) > 0 {
		fmt.Fprintf(&b, " %s", fluidList(ev.Inputs))
	}
	if len(ev.Results) > 0 {
		fmt.Fprintf(&b, " -> %s", fluidList(ev.Results))
	}
	for _, c := range ev.Cells {
		fmt.Fprintf(&b, " %v", c)
	}
	return b.String()
}

func fluidList(fs []ir.FluidID) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Track records one droplet's position over a span of a sequence: the
// droplet exists from cycle Start and sits at Cells[t-Start] at the end of
// cycle t.
type Track struct {
	Start int
	Cells []arch.Point
}

// End returns the first cycle after the track.
func (tr *Track) End() int { return tr.Start + len(tr.Cells) }

// At returns the droplet position at the end of cycle t (clamped into the
// track's span).
func (tr *Track) At(t int) arch.Point {
	i := t - tr.Start
	if i < 0 {
		i = 0
	}
	if i >= len(tr.Cells) {
		i = len(tr.Cells) - 1
	}
	return tr.Cells[i]
}

// trackChanges returns, per droplet, the cycles at which its track moves
// to another cell, and, ascending and without repeats, every cycle at
// which some track starts, ends or moves. Between two such cycles the
// droplet positions the tracks claim do not change.
func trackChanges(s *Sequence) (moves map[ir.FluidID][]int, changes []int) {
	moves = make(map[ir.FluidID][]int, len(s.Tracks))
	n := 0
	for f, tr := range s.Tracks {
		var mv []int
		for i := 1; i < len(tr.Cells); i++ {
			if tr.Cells[i] != tr.Cells[i-1] {
				mv = append(mv, tr.Start+i)
			}
		}
		moves[f] = mv
		n += 2 + len(mv)
	}
	// Sized up front: appending the tracks' uneven runs in map order
	// would make the allocation vary from run to run.
	changes = make([]int, 0, n)
	for f, tr := range s.Tracks {
		changes = append(changes, tr.Start, tr.End())
		changes = append(changes, moves[f]...)
	}
	slices.Sort(changes)
	return moves, slices.Compact(changes)
}

// Sequence is one electrode activation sequence Σ with its annotations.
//
// A hold cycle is a cycle t > 0 whose frame is SameFrame as the frame of
// cycle t-1, with no event at cycle t. Every droplet stays where it was, so
// nothing derived from the frame or the droplet positions changes, and the
// interpreters and checkers skip such cycles.
type Sequence struct {
	NumCycles int
	Frames    []Frame
	Events    []Event
	// Tracks is the generator's ground-truth droplet timeline, used by
	// the visualizer and to cross-validate frame interpretation.
	Tracks map[ir.FluidID]*Track
}

// Empty reports whether the sequence performs no actuation (Σ = ∅, as for
// entry/exit blocks and in-place renames on CFG edges, Fig. 13(b)).
func (s *Sequence) Empty() bool { return s.NumCycles == 0 && len(s.Events) == 0 }

func (s *Sequence) sortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Cycle < s.Events[j].Cycle })
}

// ActiveCount returns the total number of electrode activations, a measure
// of actuation effort.
func (s *Sequence) ActiveCount() int {
	n := 0
	for _, f := range s.Frames {
		n += len(f)
	}
	return n
}
