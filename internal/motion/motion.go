// Package motion is the droplet-motion rule of the paper's runtime (Fig. 2)
// as one small kernel: the chip sees droplets only through electrode
// activations, so a droplet holds while its own electrode is active and
// otherwise follows the unique active electrode among its four neighbours.
// With none it is stranded; with several it is torn.
//
// A Kernel keeps the droplets in canonical order (ir.FluidID.Compare) in a
// slice and the active electrodes on an epoch-stamped grid sized to the
// chip, so a frame is applied without hashing: stamping the frame is one
// store per electrode, and the rule reads at most five grid cells per
// droplet. A frame in gives the moves or a typed outcome (Outcome); an
// event in changes the population (Event).
//
// The static oracles replay executables on it: verify's symbolic replay
// (and so ReplayMoves and ReplayTouches) and pinsafe's broadcast replay of
// pin-map closures.
package motion

import (
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
)

// Grid is a set of cells of one chip, emptied in constant time: a cell is
// in the set when its stamp equals the current epoch.
type Grid struct {
	cols, rows int
	stamp      []uint16
	epoch      uint16
}

// NewGrid returns an empty set over a cols x rows array; a non-positive
// side gives a grid without cells. The caller bounds the area (see
// arch.MaxElectrodes).
func NewGrid(cols, rows int) *Grid {
	cols, rows = max(cols, 0), max(rows, 0)
	return &Grid{cols: cols, rows: rows, stamp: make([]uint16, cols*rows), epoch: 1}
}

// In reports whether p is a cell of the array.
func (g *Grid) In(p arch.Point) bool {
	return uint(p.X) < uint(g.cols) && uint(p.Y) < uint(g.rows)
}

// Index returns the row-major index of p, which must be In the grid.
func (g *Grid) Index(p arch.Point) int { return p.Y*g.cols + p.X }

// Point returns the cell of row-major index i.
func (g *Grid) Point(i int) arch.Point { return arch.Point{X: i % g.cols, Y: i / g.cols} }

// Cells returns the number of cells of the array.
func (g *Grid) Cells() int { return len(g.stamp) }

// Clear empties the set.
func (g *Grid) Clear() {
	g.epoch++
	if g.epoch == 0 {
		clear(g.stamp)
		g.epoch = 1
	}
}

// Add puts p, which must be In the grid, in the set and reports whether it
// was absent.
func (g *Grid) Add(p arch.Point) bool {
	i := p.Y*g.cols + p.X
	if g.stamp[i] == g.epoch {
		return false
	}
	g.stamp[i] = g.epoch
	return true
}

// Has reports whether p is in the set. Cells off the array never are.
func (g *Grid) Has(p arch.Point) bool {
	return g.In(p) && g.stamp[p.Y*g.cols+p.X] == g.epoch
}

// Droplet is one droplet of a population and the cell it sits on.
type Droplet struct {
	ID ir.FluidID
	At arch.Point
}

// Step is one frame-driven move: droplet Drop (an index into
// Kernel.Drops) left From for To.
type Step struct {
	Drop     int
	From, To arch.Point
}

// Fault classifies a frame the motion rule cannot interpret.
type Fault int

const (
	// OK: every droplet held or followed its unique active neighbour.
	OK Fault = iota
	// Mismatch: the frame actuates a different number of distinct
	// electrodes than there are droplets.
	Mismatch
	// Stranded: a droplet off the active set has no active neighbour.
	Stranded
	// Torn: a droplet off the active set has several active neighbours.
	Torn
)

// Outcome is the result of applying one frame.
type Outcome struct {
	Fault Fault
	// Drop is the droplet a Stranded or Torn outcome names, an index into
	// Kernel.Drops; it still sits where the frame found it.
	Drop int
	// N counts the distinct active electrodes of a Mismatch, and the
	// active neighbours of a Torn droplet.
	N int
}

// Kernel replays droplet motion on one chip. Drops, Moves and Placed are
// its outputs; they are overwritten by the next call and must not be
// modified.
type Kernel struct {
	active *Grid
	// Drops is the population in canonical order.
	Drops []Droplet
	// Moves lists the moves of the last frame, in canonical order.
	Moves []Step
	// Placed lists the droplets the last event put on the chip.
	Placed []Droplet
}

// New returns a kernel for the chip, with no droplets. The chip's area
// must pass CheckArea, as every validated chip's does.
func New(chip *arch.Chip) *Kernel {
	return &Kernel{active: NewGrid(chip.Cols, chip.Rows)}
}

// Load makes start, in any order of distinct droplets, the population.
func (k *Kernel) Load(start []Droplet) {
	k.Drops = append(k.Drops[:0], start...)
	slices.SortFunc(k.Drops, byID)
}

// LoadMap makes the droplets of m the population.
func (k *Kernel) LoadMap(m map[ir.FluidID]arch.Point) {
	k.Drops = k.Drops[:0]
	for f, p := range m {
		k.Drops = append(k.Drops, Droplet{ID: f, At: p})
	}
	slices.SortFunc(k.Drops, byID)
}

func byID(a, b Droplet) int { return a.ID.Compare(b.ID) }

// Find returns the index of droplet f in Drops and whether it is there.
func (k *Kernel) Find(f ir.FluidID) (int, bool) {
	return slices.BinarySearchFunc(k.Drops, f, func(d Droplet, f ir.FluidID) int { return d.ID.Compare(f) })
}

// Actuate makes the cells of f the active set and returns how many
// distinct electrodes that is. Every cell must be on the chip.
func (k *Kernel) Actuate(f codegen.Frame) int {
	k.active.Clear()
	n := 0
	for _, c := range f {
		if k.active.Add(c) {
			n++
		}
	}
	return n
}

// Activate adds c, which must be on the chip, to the active set.
func (k *Kernel) Activate(c arch.Point) { k.active.Add(c) }

// Active reports whether c is in the active set.
func (k *Kernel) Active(c arch.Point) bool { return k.active.Has(c) }

// Frame applies the motion rule under frame f, every cell of which must be
// on the chip: a Mismatch when its distinct electrodes do not number the
// droplets, else Step.
func (k *Kernel) Frame(f codegen.Frame) Outcome {
	if n := k.Actuate(f); n != len(k.Drops) {
		k.Moves = k.Moves[:0]
		return Outcome{Fault: Mismatch, N: n}
	}
	return k.Step()
}

// Step applies the motion rule under the active set, droplet by droplet
// in canonical order, and stops at the first droplet that is stranded or
// torn. Moves lists the moves made.
func (k *Kernel) Step() Outcome {
	k.Moves = k.Moves[:0]
	for i := range k.Drops {
		p := k.Drops[i].At
		if k.active.Has(p) {
			continue // hold
		}
		var next arch.Point
		n := 0
		if q := (arch.Point{X: p.X + 1, Y: p.Y}); k.active.Has(q) {
			next, n = q, n+1
		}
		if q := (arch.Point{X: p.X - 1, Y: p.Y}); k.active.Has(q) {
			next, n = q, n+1
		}
		if q := (arch.Point{X: p.X, Y: p.Y + 1}); k.active.Has(q) {
			next, n = q, n+1
		}
		if q := (arch.Point{X: p.X, Y: p.Y - 1}); k.active.Has(q) {
			next, n = q, n+1
		}
		switch n {
		case 1:
			k.Drops[i].At = next
			k.Moves = append(k.Moves, Step{Drop: i, From: p, To: next})
		case 0:
			return Outcome{Fault: Stranded, Drop: i}
		default:
			return Outcome{Fault: Torn, Drop: i, N: n}
		}
	}
	return Outcome{}
}

// EventFault classifies an event the population cannot take.
type EventFault int

const (
	// Missing: an input droplet is not on the chip.
	Missing EventFault = iota + 1
	// Exists: a result droplet is already on the chip.
	Exists
	// Misplaced: an output or rename finds its input off the event's cell.
	Misplaced
)

// EventOutcome is the result of applying one event.
type EventOutcome struct {
	// Fault is zero when the event applied.
	Fault EventFault
	// Fluid is the droplet a fault names.
	Fluid ir.FluidID
	// At is where the event found its input (Misplaced: where the droplet
	// is). A sense event moves nothing and reports its droplet's cell here.
	At arch.Point
}

// Event applies one structural event: inputs leave the chip, results
// appear on the event's cells (a rename keeps its droplet's cell). It
// works input by input and then result by result, as the runtime does, and
// stops at the first fault; Placed lists the results placed before it.
// The event must have its kind's arity (verify's BF109 scan checks it);
// other kinds change nothing.
func (k *Kernel) Event(ev codegen.Event) EventOutcome {
	k.Placed = k.Placed[:0]
	var out EventOutcome
	take := func(f ir.FluidID) bool {
		i, ok := k.Find(f)
		if !ok {
			out = EventOutcome{Fault: Missing, Fluid: f}
			return false
		}
		out.At = k.Drops[i].At
		k.Drops = slices.Delete(k.Drops, i, i+1)
		return true
	}
	put := func(f ir.FluidID, at arch.Point) bool {
		i, dup := k.Find(f)
		if dup {
			out.Fault, out.Fluid = Exists, f
			return false
		}
		d := Droplet{ID: f, At: at}
		k.Drops = slices.Insert(k.Drops, i, d)
		k.Placed = append(k.Placed, d)
		return true
	}
	switch ev.Kind {
	case codegen.EvDispense:
		put(ev.Results[0], ev.Cells[0])
	case codegen.EvOutput:
		if take(ev.Inputs[0]) && out.At != ev.Cells[0] {
			out.Fault, out.Fluid = Misplaced, ev.Inputs[0]
		}
	case codegen.EvSplit:
		if take(ev.Inputs[0]) {
			for i, r := range ev.Results {
				if !put(r, ev.Cells[i]) {
					break
				}
			}
		}
	case codegen.EvMerge:
		for _, in := range ev.Inputs {
			if !take(in) {
				return out
			}
		}
		put(ev.Results[0], ev.Cells[0])
	case codegen.EvRename:
		if !take(ev.Inputs[0]) {
			break
		}
		if out.At != ev.Cells[0] {
			out.Fault, out.Fluid = Misplaced, ev.Inputs[0]
			break
		}
		put(ev.Results[0], out.At)
	case codegen.EvSense:
		if i, ok := k.Find(ev.Inputs[0]); ok {
			out.At = k.Drops[i].At
		} else {
			out = EventOutcome{Fault: Missing, Fluid: ev.Inputs[0]}
		}
	}
	return out
}
