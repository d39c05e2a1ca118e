package verify

import (
	"slices"
	"sort"
	"time"

	"biocoder/internal/arch"
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
	if chip.CheckArea() != nil {
		return // the replay reports the oversized array as BF103
	}
	limit := int(DutyHoldLimit / chip.CyclePeriod)
	if limit < 1 {
		limit = 1
	}
	d := &dutyScan{
		chip:  chip,
		cells: make([]dutyCell, max(chip.Cols, 0)*max(chip.Rows, 0)),
		off:   map[arch.Point]*dutyCell{},
	}
	ids := make([]int, 0, len(ex.Blocks))
	for id := range ex.Blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		bc := ex.Blocks[id]
		c.dutySequence(d, bc.Seq, "block "+bc.Block.Label, limit)
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
		c.dutySequence(d, ec.Seq, "edge "+ec.From.Label+"->"+ec.To.Label, limit)
	}
}

// dutyCell is one electrode's actuation record in a sequence: its current
// streak, counting each cycle once per occurrence of the cell in the
// frame; the cycle after the last run that actuated it (0: not yet); and
// its longest streak.
type dutyCell struct{ streak, end, worst int }

// dutyScan holds the records of the chip's cells by row-major index, and
// of the off-chip cells of a corrupt executable (which BF103 reports) in a
// map. touched lists the cells of the current sequence, whose records are
// zeroed after it.
type dutyScan struct {
	chip    *arch.Chip
	cells   []dutyCell
	off     map[arch.Point]*dutyCell
	touched []arch.Point
}

func (d *dutyScan) at(p arch.Point) *dutyCell {
	if d.chip.InBounds(p) {
		return &d.cells[p.Y*d.chip.Cols+p.X]
	}
	dc := d.off[p]
	if dc == nil {
		dc = &dutyCell{}
		d.off[p] = dc
	}
	return dc
}

// dutySequence reports each electrode of s whose longest continuous
// actuation streak exceeds limit cycles (one diagnostic per electrode, at
// its worst streak). A run extends every streak it touches by its length.
func (c *context) dutySequence(d *dutyScan, s *codegen.Sequence, where string, limit int) {
	if s == nil {
		return
	}
	t := 0
	for _, run := range s.Runs {
		next := t + run.Len
		for _, cell := range run.Frame {
			dc := d.at(cell)
			if dc.end == 0 {
				d.touched = append(d.touched, cell)
			}
			if dc.end != t && dc.end != next {
				dc.streak = 0 // idle at cycle t-1: a new streak starts
			}
			dc.streak += run.Len
			dc.end = next
			dc.worst = max(dc.worst, dc.streak)
		}
		t = next
	}
	slices.SortFunc(d.touched, arch.Point.Compare)
	for _, p := range d.touched {
		dc := d.at(p)
		if dc.worst > limit {
			c.warnf("BF401", Pos{Scope: where, InstrID: -1, Cycle: -1},
				"electrode (%d,%d) actuated continuously for %d cycles (limit %d, %v): sustained actuation degrades the dielectric",
				p.X, p.Y, dc.worst, limit, DutyHoldLimit)
		}
		*dc = dutyCell{}
	}
	d.touched = d.touched[:0]
}
