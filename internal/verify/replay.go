package verify

// The symbolic replay engine. It proves properties of an executable the way
// the physical chip would experience it: by interpreting each activation
// sequence Σ frame by frame, reconstructing droplet motion purely from the
// activated electrodes (a droplet holds if its own electrode stays active,
// otherwise it follows the unique active electrode among its four
// neighbors), and applying the structural droplet events between frames.
// The rule runs on the motion kernel (internal/motion), which keeps the
// droplets in canonical order and the active electrodes on a grid. It is
// the rule exec.machine applies — but the replay runs over every block and
// every edge, including paths a particular simulation never takes, and
// emits coded diagnostics instead of stopping at the first inconsistency.
//
// The generator's Tracks are deliberately ignored: they are the compiler's
// own claim about where droplets go, while the frames are what the chip
// actually sees. Replay re-derives positions from the frames and then holds
// them against the block Entry/Exit contracts and the per-edge transfer
// copies, closing the loop between Δ_B, Δ_E and the CFG.

import (
	"fmt"
	"math"
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/motion"
)

// replayResult caches one full symbolic replay of the unit's executable:
// all BF1xx diagnostics, plus what ReplayTouches and ReplayMoves ask to
// record.
type replayResult struct {
	diags []Diag
	// Touch histories, populated only when the replayer records (see
	// ReplayTouches).
	blockTouch map[int][]Touch
	edgeTouch  map[[2]int][]Touch
	// Motion accounts, populated only for ReplayMoves.
	blockMoves map[int]*SeqReplay
	edgeMoves  map[[2]int]*SeqReplay
}

func (c *context) replayExec() *replayResult {
	if c.replayOnce {
		return c.replay
	}
	c.replayOnce = true
	c.replay = &replayResult{}
	newReplayer(c.unit, c.replay).run()
	return c.replay
}

// copyFiltered moves the cached replay diagnostics matching the current
// pass's codes into the report. Every executable pass is a filtered view of
// the one shared replay, so the engine runs once per verification.
func (c *context) copyFiltered() {
	res := c.replayExec()
	codes := map[string]bool{}
	for _, code := range c.pass.Codes {
		codes[code] = true
	}
	for _, d := range res.diags {
		if !codes[d.Code] {
			continue
		}
		if len(c.diags) >= maxDiags {
			return
		}
		c.diags = append(c.diags, d)
	}
}

// replayer interprets sequences on one motion kernel: the kernel holds the
// droplet population of the sequence being replayed.
type replayer struct {
	unit    *Unit
	instrs  map[int]*ir.Instr
	res     *replayResult
	heaters []arch.Device
	k       *motion.Kernel
	// mates lists the droplet pairs of the current sequence that merge,
	// seen the adjacent pairs it already reported; each pair is in
	// canonical order.
	mates, seen [][2]ir.FluidID
	// record turns on electrode-touch capture; cur collects the touches of
	// the sequence currently being replayed.
	record bool
	cur    []Touch
	// recMoves turns on frame-driven-motion capture (ReplayMoves); curMoves
	// collects the moves of the sequence currently being replayed.
	recMoves bool
	curMoves []Move
}

func newReplayer(u *Unit, res *replayResult) *replayer {
	return &replayer{
		unit:    u,
		instrs:  indexInstrs(u.Graph),
		res:     res,
		heaters: u.Chip.DevicesOf(arch.Heater),
	}
}

func (r *replayer) touch(f ir.FluidID, c arch.Point, t int) {
	if r.record {
		r.cur = append(r.cur, Touch{Fluid: f, Cell: c, Cycle: t})
	}
}

func indexInstrs(g *cfg.Graph) map[int]*ir.Instr {
	m := map[int]*ir.Instr{}
	if g == nil {
		return m
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			m[in.ID] = in
		}
	}
	return m
}

// Touch records one droplet arriving on one electrode at one cycle of a
// replayed activation sequence. A droplet holding its cell over several
// cycles appears once, at the cycle it arrived.
type Touch struct {
	Fluid ir.FluidID
	Cell  arch.Point
	Cycle int
}

// ReplayTouches re-runs the symbolic replay over the unit's executable with
// electrode-touch recording and returns, per block ID and per CFG edge
// (from, to), every cell each droplet occupied in replay order. Blocks or
// edges whose replay aborted carry the touches up to the abort point; the
// diagnostics of this replay are discarded — use Run for those. This is the
// substrate of the cross-contamination analysis in internal/analysis.
func ReplayTouches(u *Unit) (blocks map[int][]Touch, edges map[[2]int][]Touch) {
	u = u.normalized()
	res := &replayResult{blockTouch: map[int][]Touch{}, edgeTouch: map[[2]int][]Touch{}}
	if u.Exec == nil || u.Chip == nil {
		return res.blockTouch, res.edgeTouch
	}
	r := newReplayer(u, res)
	r.record = true
	r.run()
	return res.blockTouch, res.edgeTouch
}

// Move is one frame-driven droplet motion reconstructed by the symbolic
// replay: at cycle Cycle the droplet left From because its own electrode
// went inactive and To was the unique active neighbor. Holds (own electrode
// kept active) are not moves; neither are the structural event placements
// (dispense, split, merge), which are read off the sequence's Events.
type Move struct {
	Cycle    int
	Fluid    ir.FluidID
	From, To arch.Point
}

// SeqReplay is the motion account of one replayed activation sequence: the
// droplet positions it starts from (block entry contract, or the
// predecessor's exit filtered through the edge copies) and every
// frame-driven move, in cycle order. OK reports that the replay ran to
// completion; an aborted sequence carries the moves up to the abort point.
// Start and End list droplets in canonical order.
type SeqReplay struct {
	Start []motion.Droplet
	Moves []Move
	OK    bool
	// End holds the reconstructed final droplet positions; nil when the
	// replay aborted. This is the replayed counterpart of the block's
	// declared Exit contract, used by the depgraph effect-summary
	// reconciliation (BF602).
	End []motion.Droplet
}

// ReplayMoves re-runs the symbolic replay over the unit's executable and
// returns, per block ID and per CFG edge (from, to), the start positions and
// every frame-driven droplet move of that sequence. Sequences that were
// never replayed (missing code, empty edges, folded edges) have no entry.
// The diagnostics of this replay are discarded — use Run for those. This is
// the substrate of the electrode-interference analysis in internal/pinsafe.
func ReplayMoves(u *Unit) (blocks map[int]*SeqReplay, edges map[[2]int]*SeqReplay) {
	u = u.normalized()
	res := &replayResult{blockMoves: map[int]*SeqReplay{}, edgeMoves: map[[2]int]*SeqReplay{}}
	if u.Exec == nil || u.Chip == nil {
		return res.blockMoves, res.edgeMoves
	}
	r := newReplayer(u, res)
	r.recMoves = true
	r.run()
	return res.blockMoves, res.edgeMoves
}

// replay replays s from the population loaded into the kernel, with fresh
// touch and move records, and reports whether it ran to completion. The
// final population stays in the kernel. For ReplayMoves it returns the
// sequence's motion account.
func (r *replayer) replay(scope string, s *codegen.Sequence) (bool, *SeqReplay) {
	r.cur, r.curMoves = nil, nil
	var start []motion.Droplet
	if r.recMoves {
		start = slices.Clone(r.k.Drops)
	}
	ok := r.replaySequence(scope, s)
	if !r.recMoves {
		return ok, nil
	}
	sr := &SeqReplay{Start: start, Moves: r.curMoves, OK: ok}
	if ok {
		sr.End = append([]motion.Droplet{}, r.k.Drops...)
	}
	return ok, sr
}

func (r *replayer) errorf(code string, pos Pos, format string, args ...any) {
	if len(r.res.diags) >= maxDiags {
		return
	}
	r.res.diags = append(r.res.diags, Diag{Code: code, Sev: Error, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (r *replayer) run() {
	ex := r.unit.Exec
	g := ex.Graph
	if g == nil {
		r.errorf("BF101", NoPos, "executable has no control-flow graph")
		return
	}
	if r.unit.Chip.CheckArea() != nil {
		r.errorf("BF103", NoPos, "%dx%d array has more than %d electrodes; its actuations are not replayed",
			r.unit.Chip.Cols, r.unit.Chip.Rows, arch.MaxElectrodes)
		return
	}
	r.k = motion.New(r.unit.Chip)
	for _, b := range g.Blocks {
		bc := ex.Blocks[b.ID]
		scope := "block " + b.Label
		if bc == nil || bc.Seq == nil {
			r.errorf("BF110", Pos{Scope: scope, InstrID: -1, Cycle: -1}, "block has no compiled code")
			continue
		}
		r.k.LoadMap(bc.Entry)
		ok, sr := r.replay(scope, bc.Seq)
		if r.record {
			r.res.blockTouch[b.ID] = r.cur
		}
		if r.recMoves {
			r.res.blockMoves[b.ID] = sr
		}
		if ok {
			pos := Pos{Scope: scope, InstrID: -1, Cycle: -1}
			r.diffEnd(bc.Exit,
				func(f ir.FluidID, wp arch.Point) {
					r.errorf("BF110", pos, "exit contract names droplet %s at %v but replay leaves no such droplet", f, wp)
				},
				func(f ir.FluidID, wp, gp arch.Point) {
					r.errorf("BF110", pos, "exit contract places droplet %s at %v but replay leaves it at %v", f, wp, gp)
				},
				func(f ir.FluidID, gp arch.Point) {
					r.errorf("BF110", pos, "replay leaves droplet %s at %v which the exit contract does not account for", f, gp)
				})
		}
	}
	for _, e := range g.Edges() {
		r.replayEdge(e.From, e.To)
	}
}

// diffEnd holds the replayed population left in the kernel against a
// declared one: missing gets each declared droplet the replay does not
// leave, moved each one it leaves elsewhere, then extra each replayed
// droplet the declaration lacks, all in canonical order.
func (r *replayer) diffEnd(decl map[ir.FluidID]arch.Point,
	missing func(f ir.FluidID, want arch.Point),
	moved func(f ir.FluidID, want, got arch.Point),
	extra func(f ir.FluidID, got arch.Point)) {
	want := sortedDroplets(decl)
	for _, w := range want {
		i, ok := r.k.Find(w.ID)
		if !ok {
			missing(w.ID, w.At)
		} else if got := r.k.Drops[i].At; got != w.At {
			moved(w.ID, w.At, got)
		}
	}
	for _, d := range r.k.Drops {
		if _, ok := slices.BinarySearchFunc(want, d.ID, func(w motion.Droplet, f ir.FluidID) int { return w.ID.Compare(f) }); !ok {
			extra(d.ID, d.At)
		}
	}
}

// sortedDroplets lists the droplets of m in canonical order.
func sortedDroplets(m map[ir.FluidID]arch.Point) []motion.Droplet {
	ds := make([]motion.Droplet, 0, len(m))
	for f, p := range m {
		ds = append(ds, motion.Droplet{ID: f, At: p})
	}
	slices.SortFunc(ds, func(a, b motion.Droplet) int { return a.ID.Compare(b.ID) })
	return ds
}

// replaySequence interprets one activation sequence from the population
// loaded into the kernel and reports whether it ran to completion; false
// means the frames stopped being interpretable and the replay aborted.
func (r *replayer) replaySequence(scope string, s *codegen.Sequence) bool {
	if !r.scanStatic(scope, s) {
		return false
	}
	k := r.k
	r.mates = mergeMates(s, r.mates[:0])
	r.seen = r.seen[:0]
	if r.record {
		// Most runs move one droplet: size the touches for that.
		r.cur = slices.Grow(r.cur, len(k.Drops)+len(s.Runs)+len(s.Events))
	}
	if r.recMoves {
		r.curMoves = slices.Grow(r.curMoves, len(s.Runs)+len(s.Events))
	}
	for _, d := range k.Drops {
		r.touch(d.ID, d.At, 0)
	}
	evIdx := 0
	// applyEvents applies the events due by cycle t and reports whether
	// any fired.
	applyEvents := func(t int) (fired, ok bool) {
		for evIdx < len(s.Events) && s.Events[evIdx].Cycle <= t {
			if !r.applyEvent(scope, s.Events[evIdx]) {
				return false, false
			}
			evIdx++
			fired = true
		}
		return fired, true
	}
	t := 0
	for _, run := range s.Runs {
		// The frame is applied at the run's first cycle and again after
		// each event inside the run. In between, every droplet sits on
		// an active electrode of the frame it last moved under, so under
		// the same frame it holds: no touch, no move, no new pair.
		for end := t + run.Len; t < end; {
			fired, ok := applyEvents(t)
			if !ok {
				return false
			}
			moved, ok := r.applyFrame(scope, run.Frame, t)
			if !ok {
				return false
			}
			// Every adjacent pair of the last checked cycle is already
			// in seen, so a cycle that changed no position or population
			// cannot add a finding.
			if t == 0 || fired || moved {
				r.checkAdjacency(scope, t)
			}
			t = end
			if evIdx < len(s.Events) && s.Events[evIdx].Cycle < end {
				t = s.Events[evIdx].Cycle
			}
		}
	}
	_, ok := applyEvents(s.NumCycles)
	return ok
}

// scanStatic checks the sequence's shape without interpreting it: run
// lengths against the declared cycle count, every activated electrode on
// a working on-chip cell, and event cycles within range. An electrode or
// an event cell off the chip stops the sequence from being replayed, so
// the kernel's grid is only ever asked about the chip's own cells.
func (r *replayer) scanStatic(scope string, s *codegen.Sequence) bool {
	ok := true
	badCell := map[arch.Point]bool{}
	t := 0
	for _, run := range s.Runs {
		if run.Len < 1 {
			r.errorf("BF101", Pos{Scope: scope, InstrID: -1, Cycle: t}, "run of %d cycles at cycle %d", run.Len, t)
			ok = false
		}
		for _, cell := range run.Frame {
			onChip := r.unit.Chip.InBounds(cell)
			if onChip && (r.unit.Topo == nil || !r.unit.Topo.Faulty(cell)) || badCell[cell] {
				continue // fine, or reported in an earlier run
			}
			badCell[cell] = true
			if !onChip {
				r.errorf("BF103", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: cell, HasCell: true},
					"actuation of electrode %v outside the %dx%d array", cell, r.unit.Chip.Cols, r.unit.Chip.Rows)
				ok = false
			} else {
				r.errorf("BF103", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: cell, HasCell: true},
					"actuation of defective electrode %v", cell)
			}
		}
		t += run.Len
	}
	if s.NumCycles < 0 || t != s.NumCycles {
		r.errorf("BF101", Pos{Scope: scope, InstrID: -1, Cycle: -1},
			"sequence declares %d cycles but its runs cover %d", s.NumCycles, t)
		ok = false
	}
	lastCycle := -1
	for _, ev := range s.Events {
		if ev.Cycle < 0 || ev.Cycle > s.NumCycles {
			r.errorf("BF109", Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle},
				"%v event at cycle %d outside the sequence's %d cycles", ev.Kind, ev.Cycle, s.NumCycles)
			ok = false
		}
		if ev.Cycle < lastCycle {
			r.errorf("BF109", Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle},
				"%v event out of order (cycle %d after cycle %d)", ev.Kind, ev.Cycle, lastCycle)
			ok = false
		}
		lastCycle = ev.Cycle
		if !r.scanEvent(scope, ev) {
			ok = false
		}
	}
	return ok
}

// scanEvent checks one event's arity and its port/device discipline — the
// parts that need no droplet positions.
func (r *replayer) scanEvent(scope string, ev codegen.Event) bool {
	pos := Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle}
	arity := func(nin, nres, ncells int) bool {
		if len(ev.Inputs) != nin || len(ev.Results) != nres || len(ev.Cells) != ncells {
			r.errorf("BF109", pos, "%v event wants %d inputs, %d results, %d cells; has %d/%d/%d",
				ev.Kind, nin, nres, ncells, len(ev.Inputs), len(ev.Results), len(ev.Cells))
			return false
		}
		return true
	}
	switch ev.Kind {
	case codegen.EvDispense:
		if !arity(0, 1, 1) {
			return false
		}
		switch v := ev.Volume; {
		case v <= 0:
			r.errorf("BF109", pos, "dispense of %s with non-positive volume %g", ev.Results[0], v)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.errorf("BF109", pos, "dispense of %s with non-finite volume %g", ev.Results[0], v)
		}
		r.checkPort(pos, ev, arch.Input)
	case codegen.EvOutput:
		if !arity(1, 0, 1) {
			return false
		}
		r.checkPort(pos, ev, arch.Output)
	case codegen.EvSplit:
		if !arity(1, 2, 2) {
			return false
		}
	case codegen.EvMerge:
		if len(ev.Inputs) < 2 || len(ev.Results) != 1 || len(ev.Cells) != 1 {
			r.errorf("BF109", pos, "merge event wants >=2 inputs, 1 result, 1 cell; has %d/%d/%d",
				len(ev.Inputs), len(ev.Results), len(ev.Cells))
			return false
		}
	case codegen.EvRename:
		if !arity(1, 1, 1) {
			return false
		}
	case codegen.EvSense:
		if len(ev.Inputs) != 1 {
			r.errorf("BF109", pos, "sense event wants 1 input, has %d", len(ev.Inputs))
			return false
		}
		if _, ok := r.unit.Chip.Device(ev.Device); !ok {
			r.errorf("BF105", pos, "sense on unknown device %q", ev.Device)
		}
	default:
		r.errorf("BF109", pos, "unknown event kind %v", ev.Kind)
		return false
	}
	for _, c := range ev.Cells {
		if !r.unit.Chip.InBounds(c) {
			r.errorf("BF109", Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle, Cell: c, HasCell: true},
				"%v event cell %v outside the %dx%d array", ev.Kind, c, r.unit.Chip.Cols, r.unit.Chip.Rows)
			return false
		}
	}
	return true
}

// checkPort enforces the I/O discipline: dispense and output happen only at
// a declared reservoir of the matching kind, at that reservoir's cell.
func (r *replayer) checkPort(pos Pos, ev codegen.Event, kind arch.PortKind) {
	p, ok := r.unit.Chip.Port(ev.Port)
	if !ok {
		r.errorf("BF104", pos, "%v at unknown port %q", ev.Kind, ev.Port)
		return
	}
	if p.Kind != kind {
		r.errorf("BF104", pos, "%v at port %q which is an %v port", ev.Kind, ev.Port, p.Kind)
	}
	cell := ev.Cells[0]
	if p.Cell != cell {
		r.errorf("BF104", Pos{Scope: pos.Scope, InstrID: pos.InstrID, Cycle: pos.Cycle, Cell: cell, HasCell: true},
			"%v at %v but port %q is at %v", ev.Kind, cell, ev.Port, p.Cell)
	}
	if kind == arch.Input && p.Fluid != "" && ev.Fluid != "" && p.Fluid != ev.Fluid {
		r.errorf("BF104", pos, "dispense of %q from port %q which holds %q", ev.Fluid, ev.Port, p.Fluid)
	}
}

// mergeMates appends to mates the droplet pairs allowed to touch in this
// sequence, each in canonical order: inputs of the same merge event are
// supposed to come together.
func mergeMates(s *codegen.Sequence, mates [][2]ir.FluidID) [][2]ir.FluidID {
	for _, ev := range s.Events {
		if ev.Kind != codegen.EvMerge {
			continue
		}
		for i, a := range ev.Inputs {
			for _, b := range ev.Inputs[i+1:] {
				mates = append(mates, pair(a, b))
			}
		}
	}
	return mates
}

// pair orders two droplets canonically.
func pair(a, b ir.FluidID) [2]ir.FluidID {
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	return [2]ir.FluidID{a, b}
}

// applyEvent applies one structural event to the replayed droplet
// population on the kernel, mirroring the runtime interpreter. Returns
// false when the population became untrustworthy and replay of the
// sequence must stop.
func (r *replayer) applyEvent(scope string, ev codegen.Event) bool {
	dpos := Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle}
	k := r.k
	if ev.Kind == codegen.EvSplit {
		if i, ok := k.Find(ev.Inputs[0]); ok {
			r.checkSplit(dpos, ev, k.Drops[i].At)
		}
	}
	out := k.Event(ev)
	for _, d := range k.Placed {
		r.touch(d.ID, d.At, ev.Cycle)
	}
	switch out.Fault {
	case motion.Missing:
		if ev.Kind == codegen.EvSense {
			r.errorf("BF109", dpos, "sensing droplet %s which is not on the chip", out.Fluid)
		} else {
			r.errorf("BF109", dpos, "%v event names droplet %s which is not on the chip", ev.Kind, out.Fluid)
		}
		return false
	case motion.Exists:
		what := "dispense of"
		switch ev.Kind {
		case codegen.EvSplit:
			what = "split produces"
		case codegen.EvMerge:
			what = "merge produces"
		case codegen.EvRename:
			what = "rename to"
		}
		r.errorf("BF109", dpos, "%s droplet %s which already exists", what, out.Fluid)
		return false
	case motion.Misplaced:
		r.errorf("BF109", dpos, "%v expects droplet %s at %v, replay finds it at %v", ev.Kind, out.Fluid, ev.Cells[0], out.At)
		return false
	}
	switch ev.Kind {
	case codegen.EvRename:
		r.checkHeat(dpos, ev, out.At)
	case codegen.EvSense:
		if dev, ok := r.unit.Chip.Device(ev.Device); ok {
			if dev.Kind != arch.Sensor {
				r.errorf("BF105", dpos, "sense on device %q which is a %v", ev.Device, dev.Kind)
			} else if !dev.Loc.Contains(out.At) {
				r.errorf("BF105", Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle, Cell: out.At, HasCell: true},
					"sense of droplet %s at %v, off sensor %q footprint %v", ev.Inputs[0], out.At, ev.Device, dev.Loc)
			}
		}
	}
	return true
}

// checkSplit enforces split symmetry: the two children must sit on distinct
// cells flanking the parent's cell symmetrically (one electrode away on
// each side), the geometry that divides the parent's volume evenly. A
// skewed pull — children off-center relative to the parent — produces
// unequal child volumes on a real chip.
func (r *replayer) checkSplit(dpos Pos, ev codegen.Event, parent arch.Point) {
	c0, c1 := ev.Cells[0], ev.Cells[1]
	if c0 == c1 {
		r.errorf("BF108", dpos, "split of %s produces both children at %v", ev.Inputs[0], c0)
		return
	}
	if c0.X+c1.X != 2*parent.X || c0.Y+c1.Y != 2*parent.Y ||
		c0.Manhattan(parent) != 1 || c1.Manhattan(parent) != 1 {
		r.errorf("BF108", dpos,
			"asymmetric split of %s at %v into %v and %v: children must flank the parent one electrode apart for even volume division",
			ev.Inputs[0], parent, c0, c1)
	}
}

// checkHeat enforces the heater discipline for heat operations, which
// surface in the executable as renames at operation start: when the rename
// implements a Heat instruction, the droplet must sit on a heater. The
// instruction must both match by ID and define the renamed droplet, so
// edge-transfer renames (which carry no instruction) cannot alias a heat.
func (r *replayer) checkHeat(dpos Pos, ev codegen.Event, p arch.Point) {
	in, ok := r.instrs[ev.InstrID]
	if !ok || in.Kind != ir.Heat || !in.DefinesFluid(ev.Results[0]) {
		return
	}
	for _, dev := range r.heaters {
		if dev.Loc.Contains(p) {
			return
		}
	}
	r.errorf("BF105", Pos{Scope: dpos.Scope, InstrID: dpos.InstrID, Cycle: dpos.Cycle, Cell: p, HasCell: true},
		"heat of droplet %s at %v which is not on any heater", ev.Results[0], p)
}

// applyFrame applies one frame on the kernel at cycle t, records its
// moves and reports whether any droplet moved.
func (r *replayer) applyFrame(scope string, f codegen.Frame, t int) (moved, ok bool) {
	k := r.k
	out := k.Frame(f)
	if r.record || r.recMoves {
		for _, st := range k.Moves {
			id := k.Drops[st.Drop].ID
			r.touch(id, st.To, t)
			if r.recMoves {
				r.curMoves = append(r.curMoves, Move{Cycle: t, Fluid: id, From: st.From, To: st.To})
			}
		}
	}
	switch out.Fault {
	case motion.Mismatch:
		r.errorf("BF101", Pos{Scope: scope, InstrID: -1, Cycle: t},
			"%d electrodes active for %d droplets", out.N, len(k.Drops))
		return false, false
	case motion.Stranded:
		d := k.Drops[out.Drop]
		r.errorf("BF107", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: d.At, HasCell: true},
			"droplet %s at %v stranded: no active electrode in reach", d.ID, d.At)
		return false, false
	case motion.Torn:
		d := k.Drops[out.Drop]
		r.errorf("BF107", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: d.At, HasCell: true},
			"droplet %s at %v torn between %d active electrodes", d.ID, d.At, out.N)
		return false, false
	}
	return len(k.Moves) > 0, true
}

// checkAdjacency reports every pair of distinct droplets violating the
// static fluidic constraint at the end of a cycle, except pairs that merge
// somewhere in this sequence. Each pair is reported once per sequence.
func (r *replayer) checkAdjacency(scope string, t int) {
	ds := r.k.Drops
	for i, a := range ds {
		for _, b := range ds[i+1:] {
			if !a.At.Adjacent(b.At) {
				continue
			}
			key := [2]ir.FluidID{a.ID, b.ID}
			if slices.Contains(r.mates, key) || slices.Contains(r.seen, key) {
				continue
			}
			r.seen = append(r.seen, key)
			r.errorf("BF102", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: a.At, HasCell: true},
				"droplets %s (%v) and %s (%v) violate the fluidic constraint", a.ID, a.At, b.ID, b.At)
		}
	}
}

// replayEdge verifies the droplet hand-off across one CFG edge, fold-aware:
// a normal edge carries its own transfer sequence; an edge folded into its
// predecessor ends with the successor's droplets already delivered
// (predecessor Exit rewritten to destination names); an edge folded into
// its successor starts the successor's sequence from the predecessor's exit
// positions (successor Entry rewritten to source names).
func (r *replayer) replayEdge(from, to *cfg.Block) {
	ex := r.unit.Exec
	scope := edgeScope(from, to)
	pos := Pos{Scope: scope, InstrID: -1, Cycle: -1}
	ec := ex.Edge(from, to)
	if ec == nil {
		r.errorf("BF106", pos, "edge has no compiled code")
		return
	}
	fromBC, toBC := ex.Blocks[from.ID], ex.Blocks[to.ID]
	if fromBC == nil || toBC == nil {
		return // BF110 already reported for the missing block
	}
	fromExit, toEntry := fromBC.Exit, toBC.Entry

	if len(ec.Copies) == 0 {
		if len(fromExit) > 0 {
			for _, d := range sortedDroplets(fromExit) {
				r.errorf("BF106", pos, "droplet %s rests at %s exit but the edge transfers nothing", d.ID, from.Label)
			}
		}
		if len(toEntry) > 0 {
			for _, d := range sortedDroplets(toEntry) {
				r.errorf("BF106", pos, "%s expects droplet %s at entry but the edge delivers nothing", to.Label, d.ID)
			}
		}
		return
	}

	if ec.Seq != nil && (len(ec.Seq.Events) > 0 || ec.Seq.NumCycles > 0) {
		// Unfolded edge: replay its own sequence from the predecessor's
		// exit positions and hold the outcome against the successor's
		// entry contract.
		start := make([]motion.Droplet, 0, len(ec.Copies))
		claimed := map[ir.FluidID]bool{}
		ok := true
		for _, cp := range ec.Copies {
			again := claimed[cp.Src]
			claimed[cp.Src] = true
			p, found := fromExit[cp.Src]
			if !found {
				r.errorf("BF106", pos, "edge transfers droplet %s which %s does not hold at exit", cp.Src, from.Label)
				ok = false
				continue
			}
			if !again {
				start = append(start, motion.Droplet{ID: cp.Src, At: p})
			}
		}
		for _, d := range sortedDroplets(fromExit) {
			if !claimed[d.ID] {
				r.errorf("BF106", pos, "droplet %s rests at %s exit but is not transferred on this edge", d.ID, from.Label)
			}
		}
		if !ok {
			return
		}
		r.k.Load(start)
		ok, sr := r.replay(scope, ec.Seq)
		if r.record {
			r.res.edgeTouch[[2]int{from.ID, to.ID}] = r.cur
		}
		if r.recMoves {
			r.res.edgeMoves[[2]int{from.ID, to.ID}] = sr
		}
		if !ok {
			return
		}
		r.diffEnd(toEntry,
			func(f ir.FluidID, wp arch.Point) {
				r.errorf("BF106", pos, "%s expects droplet %s at %v but the edge does not deliver it", to.Label, f, wp)
			},
			func(f ir.FluidID, wp, gp arch.Point) {
				r.errorf("BF106", pos, "%s expects droplet %s at %v but the edge delivers it to %v", to.Label, f, wp, gp)
			},
			func(f ir.FluidID, gp arch.Point) {
				r.errorf("BF106", pos, "edge delivers droplet %s which %s does not expect", f, to.Label)
			})
		return
	}

	// Folded edge: the transfer lives inside an adjacent block; the copies
	// record which namespaces meet. Match each copy against the rewritten
	// contracts.
	for _, cp := range ec.Copies {
		if pd, ok := fromExit[cp.Dst]; ok {
			// Folded into the predecessor: it already delivered cp.Dst.
			ed, ok2 := toEntry[cp.Dst]
			if !ok2 {
				r.errorf("BF106", pos, "%s delivers droplet %s but %s has no entry cell for it", from.Label, cp.Dst, to.Label)
			} else if ed != pd {
				r.errorf("BF106", pos, "%s delivers droplet %s to %v but %s expects it at %v", from.Label, cp.Dst, pd, to.Label, ed)
			}
			continue
		}
		if ps, ok := fromExit[cp.Src]; ok {
			// Folded into the successor: it picks cp.Src up where the
			// predecessor left it.
			es, ok2 := toEntry[cp.Src]
			if !ok2 {
				r.errorf("BF106", pos, "%s rests droplet %s at exit but %s does not pick it up", from.Label, cp.Src, to.Label)
			} else if es != ps {
				r.errorf("BF106", pos, "%s rests droplet %s at %v but %s picks it up at %v", from.Label, cp.Src, ps, to.Label, es)
			}
			continue
		}
		r.errorf("BF106", pos, "edge copies %s<-%s but %s holds neither at exit", cp.Dst, cp.Src, from.Label)
	}
	for _, d := range sortedDroplets(fromExit) {
		used := false
		for _, cp := range ec.Copies {
			if cp.Src == d.ID || cp.Dst == d.ID {
				used = true
				break
			}
		}
		if !used {
			r.errorf("BF106", pos, "droplet %s rests at %s exit but is not transferred on this edge", d.ID, from.Label)
		}
	}
}
