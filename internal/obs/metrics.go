package obs

import (
	"fmt"
	"io"
	"sort"
)

// Metrics is the cycle-accurate runtime telemetry of one simulated
// execution, collected by the exec machine when telemetry is enabled.
// All counters are exact (no sampling): collection is a handful of integer
// updates per cycle, and the simulator records a run of hold cycles, which
// all record the same, once times its length.
//
// Touches counts droplet arrivals — a droplet is "touched" onto an
// electrode when it is created there (dispense, split, merge), renamed,
// recorded at the start of a sequence, or moves onto a new cell —
// mirroring exactly the Touch semantics of verify.ReplayTouches, so the
// runtime's accounting can be reconciled against the static replay.
type Metrics struct {
	// Cycles is the number of actuation cycles observed.
	Cycles int
	// Actuations is the total number of electrode-active cycles (the sum
	// of frame sizes): the chip's actuation effort.
	Actuations int
	// Touches counts droplet arrivals (see above).
	Touches int
	// SensorReads counts sensing events.
	SensorReads int
	// Structural droplet event counts.
	Dispenses, Outputs, Splits, Merges, Renames int
	// MaxDroplets is the peak droplet population; DropletCycles the sum
	// of the population over all cycles (mean = DropletCycles/Cycles).
	MaxDroplets   int
	DropletCycles int
	// Heat is the per-electrode actuation heatmap, Heat[y][x] counting
	// the cycles electrode (x,y) was active.
	Heat [][]int
	// ActiveHist histograms electrodes-active-per-cycle; DropletHist
	// histograms droplets-on-chip-per-cycle.
	ActiveHist  map[int]int
	DropletHist map[int]int
	// ModuleOccupancy counts droplet-cycles spent inside each virtual
	// topology module slot, by slot index.
	ModuleOccupancy map[int]int
	// Sequences aggregates per block/edge label.
	Sequences map[string]*SeqMetrics
	// Timeline lists every executed block and edge sequence in order.
	Timeline []*VisitSample
	// Recoveries lists the fault-recovery incidents of the run, recorded by
	// the recovery controller (empty for fault-free executions).
	Recoveries []RecoverySample
}

// SeqMetrics aggregates all executions of one block or edge sequence.
type SeqMetrics struct {
	// Edge marks CFG-edge sequences (label "from->to").
	Edge bool
	// Visits counts executions; the remaining counters are totals over
	// all visits.
	Visits     int
	Cycles     int
	Actuations int
	Touches    int
}

// VisitSample is one executed block or edge sequence on the runtime
// timeline.
type VisitSample struct {
	Label      string
	Edge       bool
	StartCycle int
	Cycles     int
	Actuations int
	Touches    int
	// MaxDroplets is the peak droplet population during this visit
	// (population at entry for zero-cycle sequences).
	MaxDroplets int
}

// RecoverySample records one fault-recovery incident: what the feedback
// loop detected, where, and what the controller did about it. Cell
// coordinates are plain ints so obs stays dependency-free of arch.
type RecoverySample struct {
	// Kind is "droplet-loss" (transient) or "stuck-electrode" (permanent).
	Kind string
	// X, Y locate the suspect electrode (stuck-electrode incidents only).
	X, Y int
	// Droplet names the droplet that surfaced the fault.
	Droplet string
	// DetectCycle is the machine cycle at which the feedback loop noticed;
	// CheckpointCycle the cycle of the checkpoint recovery resumed from
	// (zero when the controller restarted from scratch).
	DetectCycle     int
	CheckpointCycle int
	// Action is "resume" (checkpointed continuation on a recompiled
	// program) or "restart" (whole-program re-execution).
	Action string
	// Recompiled reports whether a replacement executable was produced.
	Recompiled bool
	// RecompileNanos is the wall-clock cost of recompilation. It is kept
	// off the cycle axis so Cycles stays deterministic.
	RecompileNanos int64
	// RepairCycles is the length of the repair routes that carried the
	// checkpointed droplets into the new placement (resume only).
	RepairCycles int
	// LostCycles is the simulated time this incident wasted.
	LostCycles int
}

// RecordRecovery appends one recovery incident. Nil-safe: recovery
// instrumentation may fire with telemetry off.
func (m *Metrics) RecordRecovery(r RecoverySample) {
	if m == nil {
		return
	}
	m.Recoveries = append(m.Recoveries, r)
}

// Clone returns a deep copy of the metrics snapshot, used by the exec
// checkpointing machinery: a checkpoint must freeze the telemetry at the
// block boundary while the live machine keeps mutating its own copy.
func (m *Metrics) Clone() *Metrics {
	if m == nil {
		return nil
	}
	c := *m
	c.Heat = make([][]int, len(m.Heat))
	for y, row := range m.Heat {
		c.Heat[y] = append([]int(nil), row...)
	}
	c.ActiveHist = cloneIntMap(m.ActiveHist)
	c.DropletHist = cloneIntMap(m.DropletHist)
	c.ModuleOccupancy = cloneIntMap(m.ModuleOccupancy)
	c.Sequences = make(map[string]*SeqMetrics, len(m.Sequences))
	for l, sm := range m.Sequences {
		cp := *sm
		c.Sequences[l] = &cp
	}
	c.Timeline = make([]*VisitSample, len(m.Timeline))
	for i, vs := range m.Timeline {
		cp := *vs
		c.Timeline[i] = &cp
	}
	c.Recoveries = append([]RecoverySample(nil), m.Recoveries...)
	return &c
}

func cloneIntMap(in map[int]int) map[int]int {
	out := make(map[int]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// NewMetrics returns an empty metrics collector for a cols×rows array.
func NewMetrics(cols, rows int) *Metrics {
	heat := make([][]int, rows)
	for y := range heat {
		heat[y] = make([]int, cols)
	}
	return &Metrics{
		Heat:            heat,
		ActiveHist:      map[int]int{},
		DropletHist:     map[int]int{},
		ModuleOccupancy: map[int]int{},
		Sequences:       map[string]*SeqMetrics{},
	}
}

// BeginVisit opens a timeline sample for one sequence execution and
// returns it together with the label's aggregate record.
func (m *Metrics) BeginVisit(label string, edge bool, startCycle int) (*VisitSample, *SeqMetrics) {
	sm := m.Sequences[label]
	if sm == nil {
		sm = &SeqMetrics{Edge: edge}
		m.Sequences[label] = sm
	}
	sm.Visits++
	vs := &VisitSample{Label: label, Edge: edge, StartCycle: startCycle}
	m.Timeline = append(m.Timeline, vs)
	return vs, sm
}

// MeanDroplets returns the average droplet population per cycle.
func (m *Metrics) MeanDroplets() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.DropletCycles) / float64(m.Cycles)
}

// HottestCell returns the most-actuated electrode and its count.
func (m *Metrics) HottestCell() (x, y, count int) {
	for yy, row := range m.Heat {
		for xx, n := range row {
			if n > count {
				x, y, count = xx, yy, n
			}
		}
	}
	return x, y, count
}

// HeatTotal sums the heatmap; it equals Actuations by construction, which
// the reconciliation tests assert.
func (m *Metrics) HeatTotal() int {
	total := 0
	for _, row := range m.Heat {
		for _, n := range row {
			total += n
		}
	}
	return total
}

// WriteText renders a human-readable metrics report.
func (m *Metrics) WriteText(w io.Writer) error {
	x, y, hot := m.HottestCell()
	if _, err := fmt.Fprintf(w,
		"cycles:            %d\nelectrode actuations: %d (hottest cell (%d,%d): %d)\n"+
			"droplet touches:   %d\nsensor reads:      %d\n"+
			"events:            %d dispense, %d output, %d split, %d merge, %d rename\n"+
			"droplets:          peak %d, mean %.2f per cycle\n",
		m.Cycles, m.Actuations, x, y, hot,
		m.Touches, m.SensorReads,
		m.Dispenses, m.Outputs, m.Splits, m.Merges, m.Renames,
		m.MaxDroplets, m.MeanDroplets()); err != nil {
		return err
	}
	if len(m.ModuleOccupancy) > 0 {
		slots := make([]int, 0, len(m.ModuleOccupancy))
		for s := range m.ModuleOccupancy {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		fmt.Fprintf(w, "module occupancy (droplet-cycles):\n")
		for _, s := range slots {
			fmt.Fprintf(w, "  slot %-3d %d\n", s, m.ModuleOccupancy[s])
		}
	}
	if len(m.Recoveries) > 0 {
		fmt.Fprintf(w, "recoveries:\n")
		for _, r := range m.Recoveries {
			switch r.Kind {
			case "stuck-electrode":
				fmt.Fprintf(w, "  stuck electrode (%d,%d) detected at cycle %d (droplet %s): %s, %d cycles lost\n",
					r.X, r.Y, r.DetectCycle, r.Droplet, r.Action, r.LostCycles)
			default:
				fmt.Fprintf(w, "  droplet %s lost at cycle %d: %s, %d cycles lost\n",
					r.Droplet, r.DetectCycle, r.Action, r.LostCycles)
			}
		}
	}
	labels := make([]string, 0, len(m.Sequences))
	for l := range m.Sequences {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Fprintf(w, "%-24s %6s %10s %12s %8s\n", "sequence", "visits", "cycles", "actuations", "touches")
	for _, l := range labels {
		sm := m.Sequences[l]
		fmt.Fprintf(w, "%-24s %6d %10d %12d %8d\n", l, sm.Visits, sm.Cycles, sm.Actuations, sm.Touches)
	}
	return nil
}
