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
// Frames are immutable once emitted: folding moves them from an edge's
// sequence into a block's, and callers may keep the frame a FrameHook
// receives.
type Frame []arch.Point

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

// Stay is a run of Len consecutive cycles a droplet spends on one cell.
type Stay struct {
	Cell arch.Point
	Len  int
}

// Track records one droplet's position over a span of a sequence: the
// droplet exists from cycle Start and sits at Stays[0].Cell at the end of
// the first Stays[0].Len cycles, then at Stays[1].Cell, and so on. This is
// the run-length form the executable format writes, one token per stay;
// the producers in this package never put two stays on one cell in a row.
type Track struct {
	Start int
	Stays []Stay
}

// End returns the first cycle after the track.
func (tr *Track) End() int {
	end := tr.Start
	for _, st := range tr.Stays {
		end += st.Len
	}
	return end
}

// extend appends n cycles at cell c, lengthening the last stay when the
// droplet is already there.
func (tr *Track) extend(c arch.Point, n int) {
	if k := len(tr.Stays) - 1; k >= 0 && tr.Stays[k].Cell == c {
		tr.Stays[k].Len += n
		return
	}
	tr.Stays = append(tr.Stays, Stay{Cell: c, Len: n})
}

// cursor walks one track's stays at ascending cycles.
type cursor struct {
	tr   *Track
	i    int // the stay at the last cycle asked
	from int // first cycle of stay i
}

func newCursor(tr *Track) cursor { return cursor{tr: tr, from: tr.Start} }

// at returns the droplet's cell at cycle t, and false when the track does
// not cover t. Successive calls must not go back in time.
func (c *cursor) at(t int) (arch.Point, bool) {
	if t < c.tr.Start {
		return arch.Point{}, false
	}
	for c.i < len(c.tr.Stays) && t >= c.from+c.tr.Stays[c.i].Len {
		c.from += c.tr.Stays[c.i].Len
		c.i++
	}
	if c.i == len(c.tr.Stays) {
		return arch.Point{}, false
	}
	return c.tr.Stays[c.i].Cell, true
}

// next returns the first cycle after the stay found by the last at.
func (c *cursor) next() int { return c.from + c.tr.Stays[c.i].Len }

// trackPoints returns, ascending and without repeats, every cycle at which
// some track of s starts, moves or ends. Between two such cycles the
// droplet positions the tracks claim do not change.
func trackPoints(s *Sequence) []int {
	n := 0
	for _, tr := range s.Tracks {
		n += 1 + len(tr.Stays)
	}
	// Sized up front: appending the tracks' uneven runs in map order
	// would make the allocation vary from run to run.
	points := make([]int, 0, n)
	for _, tr := range s.Tracks {
		t := tr.Start
		points = append(points, t)
		for _, st := range tr.Stays {
			t += st.Len
			points = append(points, t)
		}
	}
	slices.Sort(points)
	return slices.Compact(points)
}

// Run is a stretch of Len consecutive cycles actuating one frame.
type Run struct {
	Frame Frame
	Len   int
}

// Sequence is one electrode activation sequence Σ with its annotations.
//
// Σ is kept as runs: a new run starts wherever the frame changes or an
// event fires, so inside a run every droplet holds on the electrode it
// reached at the run's first cycle. The producers in this package keep
// runs maximal; walkers do their work once per run and stay exact on any
// split of a run, since cutting one only repeats a frame.
type Sequence struct {
	NumCycles int
	Runs      []Run
	Events    []Event
	// Tracks is the generator's ground-truth droplet timeline, used by
	// the visualizer and to cross-validate frame interpretation.
	Tracks map[ir.FluidID]*Track
}

// push appends n cycles of frame f. It lengthens the last run instead
// when f repeats that run's frame and no event fires at the cycle between
// them; events for that cycle must already be in s.Events, in cycle order.
func (s *Sequence) push(f Frame, n int) {
	t := s.NumCycles
	s.NumCycles += n
	if k := len(s.Runs) - 1; k >= 0 && slices.Equal(s.Runs[k].Frame, f) && !s.eventAt(t) {
		s.Runs[k].Len += n
		return
	}
	s.Runs = append(s.Runs, Run{Frame: f, Len: n})
}

// eventAt reports whether an event fires at cycle t.
func (s *Sequence) eventAt(t int) bool {
	i := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].Cycle >= t })
	return i < len(s.Events) && s.Events[i].Cycle == t
}

// Validate checks the shape every walker relies on: run lengths of at
// least one that sum to NumCycles, and tracks of positive stays inside the
// sequence (the one-cell track pinning a droplet born at the final
// boundary starts at NumCycles).
func (s *Sequence) Validate() error {
	n := 0
	for _, r := range s.Runs {
		if r.Len < 1 || r.Len > s.NumCycles-n {
			n = -1
			break
		}
		n += r.Len
	}
	if n != s.NumCycles || s.NumCycles < 0 {
		return fmt.Errorf("runs do not cover the sequence's %d cycles exactly", s.NumCycles)
	}
	for f, tr := range s.Tracks {
		if tr == nil || tr.Start < 0 {
			return fmt.Errorf("track %s starts outside the sequence's %d cycles", f, s.NumCycles)
		}
		room := s.NumCycles - tr.Start
		if room == 0 {
			room = 1
		}
		for _, st := range tr.Stays {
			if st.Len < 1 || st.Len > room {
				return fmt.Errorf("track %s runs past the sequence's %d cycles", f, s.NumCycles)
			}
			room -= st.Len
		}
		if room < 0 {
			return fmt.Errorf("track %s starts outside the sequence's %d cycles", f, s.NumCycles)
		}
	}
	return nil
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
	for _, r := range s.Runs {
		n += len(r.Frame) * r.Len
	}
	return n
}
