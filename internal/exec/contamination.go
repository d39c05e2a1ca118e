package exec

import (
	"slices"
	"sort"

	"biocoder/internal/arch"
	"biocoder/internal/ir"
)

// Cross-contamination tracking (paper §5: the router may interleave wash
// droplets to clean residue left behind; refs [77-79]). Every droplet
// deposits residue of its constituent reagents on each electrode it
// touches. When a droplet later crosses a cell holding residue of a
// reagent it does not already contain, the run records an incident — the
// signal a wash-aware router would eliminate.

// Incident is one cross-contamination event.
type Incident struct {
	// Cycle is the absolute cycle at which the droplet touched the cell.
	Cycle int
	// Label names the sequence (block or edge) being executed.
	Label string
	// Droplet is the droplet that picked up foreign residue.
	Droplet string
	// Cell is where it happened.
	Cell arch.Point
	// Residues are the foreign reagents present on the cell.
	Residues []string
}

// Contamination summarizes residue state after a run.
type Contamination struct {
	// Incidents lists every foreign-residue crossing, in time order, and
	// the crossings of one cycle in droplet order (ir.FluidID.Compare).
	Incidents []Incident
	// DirtyCells counts electrodes left with residue at the end.
	DirtyCells int
	// Residue maps each contaminated cell to the reagents deposited on
	// it over the whole run.
	Residue map[arch.Point][]string
}

// residueTracker accumulates per-cell residue during a run.
type residueTracker struct {
	cells    map[arch.Point]map[string]bool
	reported map[string]map[arch.Point]bool // droplet -> cells already flagged
	cycle    []cycleIncident                // the current cycle's incidents, until endCycle
	out      *Contamination
}

// cycleIncident is an incident of the current cycle and its droplet.
type cycleIncident struct {
	id  ir.FluidID
	inc Incident
}

func newResidueTracker() *residueTracker {
	return &residueTracker{
		cells:    map[arch.Point]map[string]bool{},
		reported: map[string]map[arch.Point]bool{},
		out:      &Contamination{Residue: map[arch.Point][]string{}},
	}
}

// touch records droplet d sitting on its current cell at the given cycle,
// first checking for foreign residue, then depositing the droplet's own.
func (rt *residueTracker) touch(d *Droplet, cycle int, label string) {
	cell := rt.cells[d.Pos]
	var foreign []string
	for reagent := range cell {
		if d.Contents[reagent] == 0 {
			foreign = append(foreign, reagent)
		}
	}
	if len(foreign) > 0 {
		// One incident per (droplet, cell): a droplet parked on a dirty
		// electrode contaminates once, not once per cycle.
		id := d.ID.String()
		if rt.reported[id] == nil {
			rt.reported[id] = map[arch.Point]bool{}
		}
		if !rt.reported[id][d.Pos] {
			rt.reported[id][d.Pos] = true
			sort.Strings(foreign)
			rt.cycle = append(rt.cycle, cycleIncident{d.ID, Incident{
				Cycle: cycle, Label: label, Droplet: id,
				Cell: d.Pos, Residues: foreign,
			}})
		}
	}
	if cell == nil {
		cell = map[string]bool{}
		rt.cells[d.Pos] = cell
	}
	for reagent := range d.Contents {
		cell[reagent] = true
	}
}

// endCycle reports the cycle's incidents in droplet order: the machine
// touches its droplets in map order.
func (rt *residueTracker) endCycle() {
	slices.SortFunc(rt.cycle, func(a, b cycleIncident) int { return a.id.Compare(b.id) })
	for _, c := range rt.cycle {
		rt.out.Incidents = append(rt.out.Incidents, c.inc)
	}
	rt.cycle = rt.cycle[:0]
}

// finish freezes the report.
func (rt *residueTracker) finish() *Contamination {
	for p, reagents := range rt.cells {
		var rs []string
		for r := range reagents {
			rs = append(rs, r)
		}
		sort.Strings(rs)
		rt.out.Residue[p] = rs
	}
	rt.out.DirtyCells = len(rt.cells)
	return rt.out
}
