package verify

import (
	"sort"
	"time"

	"biocoder/internal/codegen"
)

// Electrode duty checking (BF401). Electrowetting electrodes degrade under
// sustained actuation: charge trapped in the dielectric shifts the
// actuation threshold, and long enough continuous holds break the layer
// down entirely. Real controller firmware mitigates this with duty-cycle
// modulation, but the compiler should still not emit sequences that pin a
// single electrode far beyond what the hardware tolerates. This pass scans
// every activation sequence for the longest continuous actuation streak of
// each electrode and warns when a streak exceeds the hold limit.
//
// The limit defaults to one hour of continuous actuation — comfortably
// above the longest legitimate hold in the benchmark corpus (the opiate
// immunoassay's 50-minute incubation) while still catching pathological
// emissions such as a storage droplet parked for the whole assay by a
// miscompiled schedule.

// DutyHoldLimit is the longest continuous actuation of a single electrode
// the duty pass accepts without a BF401 warning. It is a variable so
// deployments with more fragile dielectrics (or tests) can tighten it.
var DutyHoldLimit = time.Hour

var dutyPass = &Pass{
	Name:  "duty",
	Doc:   "electrode duty: no electrode is continuously actuated beyond the hold limit",
	Codes: []string{"BF401"},
	Kind:  KindExec,
	run:   (*context).checkDuty,
}

func (c *context) checkDuty() {
	ex := c.unit.Exec
	chip := c.unit.Chip
	if ex == nil || chip == nil || chip.CyclePeriod <= 0 {
		return
	}
	limit := int(DutyHoldLimit / chip.CyclePeriod)
	if limit < 1 {
		limit = 1
	}
	ids := make([]int, 0, len(ex.Blocks))
	for id := range ex.Blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		bc := ex.Blocks[id]
		c.dutySequence(bc.Seq, "block "+bc.Block.Label, limit)
	}
	keys := make([][2]int, 0, len(ex.Edges))
	for k := range ex.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		ec := ex.Edges[k]
		c.dutySequence(ec.Seq, "edge "+ec.From.Label+"->"+ec.To.Label, limit)
	}
}

// dutySequence reports each electrode of s whose longest continuous
// actuation streak exceeds limit cycles (one diagnostic per electrode, at
// its worst streak). A run extends every streak it touches by its length.
func (c *context) dutySequence(s *codegen.Sequence, where string, limit int) {
	if s == nil {
		return
	}
	// streak is a cell's current streak, counting each cycle once per
	// occurrence of the cell in the frame; end is the cycle after the last
	// run that actuated it.
	type duty struct{ streak, end int }
	cur := map[[2]int]duty{}
	worst := map[[2]int]int{} // cell -> longest streak seen
	t := 0
	for _, run := range s.Runs {
		next := t + run.Len
		for _, cell := range run.Frame {
			k := [2]int{cell.X, cell.Y}
			d := cur[k]
			if d.end != t && d.end != next {
				d.streak = 0 // idle at cycle t-1: a new streak starts
			}
			d.streak += run.Len
			d.end = next
			cur[k] = d
			if d.streak > worst[k] {
				worst[k] = d.streak
			}
		}
		t = next
	}
	cells := make([][2]int, 0, len(worst))
	for k, streak := range worst {
		if streak > limit {
			cells = append(cells, k)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i][1] != cells[j][1] {
			return cells[i][1] < cells[j][1]
		}
		return cells[i][0] < cells[j][0]
	})
	for _, k := range cells {
		c.warnf("BF401", Pos{Scope: where, InstrID: -1, Cycle: -1},
			"electrode (%d,%d) actuated continuously for %d cycles (limit %d, %v): sustained actuation degrades the dielectric",
			k[0], k[1], worst[k], limit, DutyHoldLimit)
	}
}
