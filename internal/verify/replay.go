package verify

// The symbolic replay engine. It proves properties of an executable the way
// the physical chip would experience it: by interpreting each activation
// sequence Σ frame by frame, reconstructing droplet motion purely from the
// activated electrodes (a droplet holds if its own electrode stays active,
// otherwise it follows the unique active electrode among its four
// neighbors), and applying the structural droplet events between frames.
// This mirrors exec.machine exactly — but runs over every block and every
// edge, including paths a particular simulation never takes, and emits
// coded diagnostics instead of stopping at the first inconsistency.
//
// The generator's Tracks are deliberately ignored: they are the compiler's
// own claim about where droplets go, while the frames are what the chip
// actually sees. Replay re-derives positions from the frames and then holds
// them against the block Entry/Exit contracts and the per-edge transfer
// copies, closing the loop between Δ_B, Δ_E and the CFG.

import (
	"fmt"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
)

// replayResult caches one full symbolic replay of the unit's executable:
// all BF1xx diagnostics, and the reconstructed final droplet positions per
// block and per edge (nil where replay had to abort).
type replayResult struct {
	diags    []Diag
	blockEnd map[int]map[ir.FluidID]arch.Point
	edgeEnd  map[[2]int]map[ir.FluidID]arch.Point
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
	r := &replayer{
		unit:    c.unit,
		instrs:  indexInstrs(c.unit.Graph),
		res:     &replayResult{blockEnd: map[int]map[ir.FluidID]arch.Point{}, edgeEnd: map[[2]int]map[ir.FluidID]arch.Point{}},
		heaters: c.unit.Chip.DevicesOf(arch.Heater),
	}
	r.run()
	c.replay = r.res
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

type replayer struct {
	unit    *Unit
	instrs  map[int]*ir.Instr
	res     *replayResult
	heaters []arch.Device
	// record turns on electrode-touch capture; cur collects the touches of
	// the sequence currently being replayed.
	record bool
	cur    []Touch
	// recMoves turns on frame-driven-motion capture (ReplayMoves); curMoves
	// collects the moves of the sequence currently being replayed.
	recMoves bool
	curMoves []Move
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
	res := &replayResult{
		blockEnd:   map[int]map[ir.FluidID]arch.Point{},
		edgeEnd:    map[[2]int]map[ir.FluidID]arch.Point{},
		blockTouch: map[int][]Touch{},
		edgeTouch:  map[[2]int][]Touch{},
	}
	if u.Exec == nil || u.Chip == nil {
		return res.blockTouch, res.edgeTouch
	}
	r := &replayer{
		unit:    u,
		instrs:  indexInstrs(u.Graph),
		res:     res,
		heaters: u.Chip.DevicesOf(arch.Heater),
		record:  true,
	}
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
type SeqReplay struct {
	Start map[ir.FluidID]arch.Point
	Moves []Move
	OK    bool
	// End holds the reconstructed final droplet positions; nil when the
	// replay aborted. This is the replayed counterpart of the block's
	// declared Exit contract, used by the depgraph effect-summary
	// reconciliation (BF602).
	End map[ir.FluidID]arch.Point
}

// ReplayMoves re-runs the symbolic replay over the unit's executable and
// returns, per block ID and per CFG edge (from, to), the start positions and
// every frame-driven droplet move of that sequence. Sequences that were
// never replayed (missing code, empty edges, folded edges) have no entry.
// The diagnostics of this replay are discarded — use Run for those. This is
// the substrate of the electrode-interference analysis in internal/pinsafe.
func ReplayMoves(u *Unit) (blocks map[int]*SeqReplay, edges map[[2]int]*SeqReplay) {
	u = u.normalized()
	res := &replayResult{
		blockEnd:   map[int]map[ir.FluidID]arch.Point{},
		edgeEnd:    map[[2]int]map[ir.FluidID]arch.Point{},
		blockMoves: map[int]*SeqReplay{},
		edgeMoves:  map[[2]int]*SeqReplay{},
	}
	if u.Exec == nil || u.Chip == nil {
		return res.blockMoves, res.edgeMoves
	}
	r := &replayer{
		unit:     u,
		instrs:   indexInstrs(u.Graph),
		res:      res,
		heaters:  u.Chip.DevicesOf(arch.Heater),
		recMoves: true,
	}
	r.run()
	return res.blockMoves, res.edgeMoves
}

func clonePositions(m map[ir.FluidID]arch.Point) map[ir.FluidID]arch.Point {
	out := make(map[ir.FluidID]arch.Point, len(m))
	for f, p := range m {
		out[f] = p
	}
	return out
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
	for _, b := range g.Blocks {
		bc := ex.Blocks[b.ID]
		scope := "block " + b.Label
		if bc == nil || bc.Seq == nil {
			r.errorf("BF110", Pos{Scope: scope, InstrID: -1, Cycle: -1}, "block has no compiled code")
			continue
		}
		r.cur = nil
		r.curMoves = nil
		end := r.replaySequence(scope, bc.Seq, bc.Entry)
		r.res.blockEnd[b.ID] = end
		if r.record {
			r.res.blockTouch[b.ID] = r.cur
		}
		if r.recMoves {
			sr := &SeqReplay{Start: clonePositions(bc.Entry), Moves: r.curMoves, OK: end != nil}
			if end != nil {
				sr.End = clonePositions(end)
			}
			r.res.blockMoves[b.ID] = sr
		}
		if end != nil {
			r.checkBoundary(scope, "exit contract", end, bc.Exit)
		}
	}
	for _, e := range g.Edges() {
		r.replayEdge(e.From, e.To)
	}
}

// checkBoundary compares the replayed droplet positions against a declared
// boundary map and reports every discrepancy as BF110.
func (r *replayer) checkBoundary(scope, what string, got, want map[ir.FluidID]arch.Point) {
	pos := Pos{Scope: scope, InstrID: -1, Cycle: -1}
	for _, f := range sortedFluids(want) {
		wp := want[f]
		gp, ok := got[f]
		if !ok {
			r.errorf("BF110", pos, "%s names droplet %s at %v but replay leaves no such droplet", what, f, wp)
			continue
		}
		if gp != wp {
			r.errorf("BF110", pos, "%s places droplet %s at %v but replay leaves it at %v", what, f, wp, gp)
		}
	}
	for _, f := range sortedFluids(got) {
		if _, ok := want[f]; !ok {
			r.errorf("BF110", pos, "replay leaves droplet %s at %v which the %s does not account for", f, got[f], what)
		}
	}
}

func sortedFluids(m map[ir.FluidID]arch.Point) []ir.FluidID {
	fs := make([]ir.FluidID, 0, len(m))
	for f := range m {
		fs = append(fs, f)
	}
	ir.SortFluids(fs)
	return fs
}

// replaySequence interprets one activation sequence starting from the given
// droplet positions and returns the final positions, or nil when the replay
// had to abort (the frames stopped being interpretable).
func (r *replayer) replaySequence(scope string, s *codegen.Sequence, start map[ir.FluidID]arch.Point) map[ir.FluidID]arch.Point {
	if !r.scanStatic(scope, s) {
		return nil
	}
	mates := mergeMates(s)
	pos := make(map[ir.FluidID]arch.Point, len(start))
	for f, p := range start {
		pos[f] = p
		r.touch(f, p, 0)
	}
	// order holds the droplets in canonical order. Frames move droplets but
	// never change the population, so it is rebuilt only after events.
	order := sortedFluids(pos)
	active := map[arch.Point]bool{}
	evIdx := 0
	// applyEvents applies the events due by cycle t and reports whether
	// any fired.
	applyEvents := func(t int) (fired, ok bool) {
		for evIdx < len(s.Events) && s.Events[evIdx].Cycle <= t {
			if !r.applyEvent(scope, s.Events[evIdx], pos) {
				return false, false
			}
			evIdx++
			fired = true
		}
		if fired {
			order = sortedFluids(pos)
		}
		return fired, true
	}
	seenAdj := map[[2]ir.FluidID]bool{}
	for t := 0; t < s.NumCycles; t++ {
		fired, ok := applyEvents(t)
		if !ok {
			return nil
		}
		if t > 0 && !fired && codegen.SameFrame(s.Frames[t-1], s.Frames[t]) {
			// A hold cycle: the last frame left every droplet on an
			// active cell, so under the same frame every droplet holds.
			continue
		}
		moved, ok := r.applyFrame(scope, s.Frames[t], t, pos, order, active)
		if !ok {
			return nil
		}
		// Every adjacent pair of the last checked cycle is already in
		// seenAdj, so a cycle that changed no position or population
		// cannot add a finding.
		if t == 0 || fired || moved {
			r.checkAdjacency(scope, t, pos, order, mates, seenAdj)
		}
	}
	if _, ok := applyEvents(s.NumCycles); !ok {
		return nil
	}
	return pos
}

// scanStatic checks the sequence's shape without interpreting it: frame
// count against the declared cycle count, every activated electrode on a
// working on-chip cell, and event cycles within range.
func (r *replayer) scanStatic(scope string, s *codegen.Sequence) bool {
	ok := true
	if s.NumCycles < 0 || len(s.Frames) != s.NumCycles {
		r.errorf("BF101", Pos{Scope: scope, InstrID: -1, Cycle: -1},
			"sequence declares %d cycles but carries %d frames", s.NumCycles, len(s.Frames))
		ok = false
	}
	badCell := map[arch.Point]bool{}
	for t := 0; t < len(s.Frames) && t < s.NumCycles; t++ {
		if t > 0 && codegen.SameFrame(s.Frames[t-1], s.Frames[t]) {
			continue // every cell was checked, and reported, last cycle
		}
		for _, cell := range s.Frames[t] {
			if badCell[cell] {
				continue
			}
			if !r.unit.Chip.InBounds(cell) {
				badCell[cell] = true
				r.errorf("BF103", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: cell, HasCell: true},
					"actuation of electrode %v outside the %dx%d array", cell, r.unit.Chip.Cols, r.unit.Chip.Rows)
			} else if r.unit.Topo != nil && r.unit.Topo.Faulty(cell) {
				badCell[cell] = true
				r.errorf("BF103", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: cell, HasCell: true},
					"actuation of defective electrode %v", cell)
			}
		}
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
		if ev.Volume <= 0 {
			r.errorf("BF109", pos, "dispense of %s with non-positive volume %g", ev.Results[0], ev.Volume)
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

// mergeMates returns the droplet pairs allowed to touch in this sequence:
// inputs of the same merge event are supposed to come together.
func mergeMates(s *codegen.Sequence) map[[2]ir.FluidID]bool {
	mates := map[[2]ir.FluidID]bool{}
	for _, ev := range s.Events {
		if ev.Kind != codegen.EvMerge {
			continue
		}
		for i, a := range ev.Inputs {
			for _, b := range ev.Inputs[i+1:] {
				mates[[2]ir.FluidID{a, b}] = true
				mates[[2]ir.FluidID{b, a}] = true
			}
		}
	}
	return mates
}

// applyEvent applies one structural event to the replayed droplet
// population, mirroring the runtime interpreter. Returns false when the
// population became untrustworthy and replay of the sequence must stop.
func (r *replayer) applyEvent(scope string, ev codegen.Event, pos map[ir.FluidID]arch.Point) bool {
	dpos := Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle}
	take := func(f ir.FluidID) (arch.Point, bool) {
		p, ok := pos[f]
		if !ok {
			r.errorf("BF109", dpos, "%v event names droplet %s which is not on the chip", ev.Kind, f)
			return arch.Point{}, false
		}
		delete(pos, f)
		return p, true
	}
	switch ev.Kind {
	case codegen.EvDispense:
		d := ev.Results[0]
		if _, dup := pos[d]; dup {
			r.errorf("BF109", dpos, "dispense of droplet %s which already exists", d)
			return false
		}
		pos[d] = ev.Cells[0]
		r.touch(d, ev.Cells[0], ev.Cycle)
	case codegen.EvOutput:
		p, ok := take(ev.Inputs[0])
		if !ok {
			return false
		}
		if p != ev.Cells[0] {
			r.errorf("BF109", dpos, "output expects droplet %s at %v, replay finds it at %v", ev.Inputs[0], ev.Cells[0], p)
			return false
		}
	case codegen.EvSplit:
		parent, ok := take(ev.Inputs[0])
		if !ok {
			return false
		}
		r.checkSplit(dpos, ev, parent)
		for i, rid := range ev.Results {
			if _, dup := pos[rid]; dup {
				r.errorf("BF109", dpos, "split produces droplet %s which already exists", rid)
				return false
			}
			pos[rid] = ev.Cells[i]
			r.touch(rid, ev.Cells[i], ev.Cycle)
		}
	case codegen.EvMerge:
		for _, in := range ev.Inputs {
			if _, ok := take(in); !ok {
				return false
			}
		}
		if _, dup := pos[ev.Results[0]]; dup {
			r.errorf("BF109", dpos, "merge produces droplet %s which already exists", ev.Results[0])
			return false
		}
		pos[ev.Results[0]] = ev.Cells[0]
		r.touch(ev.Results[0], ev.Cells[0], ev.Cycle)
	case codegen.EvRename:
		p, ok := take(ev.Inputs[0])
		if !ok {
			return false
		}
		if p != ev.Cells[0] {
			r.errorf("BF109", dpos, "rename expects droplet %s at %v, replay finds it at %v", ev.Inputs[0], ev.Cells[0], p)
			return false
		}
		if _, dup := pos[ev.Results[0]]; dup {
			r.errorf("BF109", dpos, "rename to droplet %s which already exists", ev.Results[0])
			return false
		}
		pos[ev.Results[0]] = p
		r.touch(ev.Results[0], p, ev.Cycle)
		r.checkHeat(dpos, ev, p)
	case codegen.EvSense:
		p, ok := pos[ev.Inputs[0]]
		if !ok {
			r.errorf("BF109", dpos, "sensing droplet %s which is not on the chip", ev.Inputs[0])
			return false
		}
		if dev, ok := r.unit.Chip.Device(ev.Device); ok {
			if dev.Kind != arch.Sensor {
				r.errorf("BF105", dpos, "sense on device %q which is a %v", ev.Device, dev.Kind)
			} else if !dev.Loc.Contains(p) {
				r.errorf("BF105", Pos{Scope: scope, InstrID: ev.InstrID, Cycle: ev.Cycle, Cell: p, HasCell: true},
					"sense of droplet %s at %v, off sensor %q footprint %v", ev.Inputs[0], p, ev.Device, dev.Loc)
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

// applyFrame moves every replayed droplet according to the activated
// electrodes, exactly as the runtime interpreter (and the chip) would,
// visiting droplets in the given canonical order. active is scratch space
// for the frame's electrode set. It reports whether any droplet moved.
func (r *replayer) applyFrame(scope string, f codegen.Frame, t int, pos map[ir.FluidID]arch.Point, order []ir.FluidID, active map[arch.Point]bool) (moved, ok bool) {
	clear(active)
	for _, c := range f {
		active[c] = true
	}
	if len(active) != len(pos) {
		r.errorf("BF101", Pos{Scope: scope, InstrID: -1, Cycle: t},
			"%d electrodes active for %d droplets", len(active), len(pos))
		return false, false
	}
	for _, f := range order {
		p := pos[f]
		if active[p] {
			continue // hold
		}
		var next arch.Point
		n := 0
		for _, delta := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			if q := p.Add(delta[0], delta[1]); active[q] {
				next = q
				n++
			}
		}
		switch n {
		case 1:
			pos[f] = next
			moved = true
			r.touch(f, next, t)
			if r.recMoves {
				r.curMoves = append(r.curMoves, Move{Cycle: t, Fluid: f, From: p, To: next})
			}
		case 0:
			r.errorf("BF107", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: p, HasCell: true},
				"droplet %s at %v stranded: no active electrode in reach", f, p)
			return false, false
		default:
			r.errorf("BF107", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: p, HasCell: true},
				"droplet %s at %v torn between %d active electrodes", f, p, n)
			return false, false
		}
	}
	return moved, true
}

// checkAdjacency reports every pair of distinct droplets violating the
// static fluidic constraint at the end of a cycle, except pairs that merge
// somewhere in this sequence. Each pair is reported once per sequence.
// order lists the droplets of pos in canonical order.
func (r *replayer) checkAdjacency(scope string, t int, pos map[ir.FluidID]arch.Point, order []ir.FluidID, mates, seen map[[2]ir.FluidID]bool) {
	for i, a := range order {
		pa := pos[a]
		for _, b := range order[i+1:] {
			pb := pos[b]
			if !pa.Adjacent(pb) {
				continue
			}
			key := [2]ir.FluidID{a, b}
			if mates[key] || seen[key] {
				continue
			}
			seen[key] = true
			r.errorf("BF102", Pos{Scope: scope, InstrID: -1, Cycle: t, Cell: pa, HasCell: true},
				"droplets %s (%v) and %s (%v) violate the fluidic constraint", a, pa, b, pb)
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
			for _, f := range sortedFluids(fromExit) {
				r.errorf("BF106", pos, "droplet %s rests at %s exit but the edge transfers nothing", f, from.Label)
			}
		}
		if len(toEntry) > 0 {
			for _, f := range sortedFluids(toEntry) {
				r.errorf("BF106", pos, "%s expects droplet %s at entry but the edge delivers nothing", to.Label, f)
			}
		}
		return
	}

	if ec.Seq != nil && (len(ec.Seq.Events) > 0 || ec.Seq.NumCycles > 0) {
		// Unfolded edge: replay its own sequence from the predecessor's
		// exit positions and hold the outcome against the successor's
		// entry contract.
		start := map[ir.FluidID]arch.Point{}
		claimed := map[ir.FluidID]bool{}
		ok := true
		for _, cp := range ec.Copies {
			claimed[cp.Src] = true
			p, found := fromExit[cp.Src]
			if !found {
				r.errorf("BF106", pos, "edge transfers droplet %s which %s does not hold at exit", cp.Src, from.Label)
				ok = false
				continue
			}
			start[cp.Src] = p
		}
		for _, f := range sortedFluids(fromExit) {
			if !claimed[f] {
				r.errorf("BF106", pos, "droplet %s rests at %s exit but is not transferred on this edge", f, from.Label)
			}
		}
		if !ok {
			return
		}
		r.cur = nil
		r.curMoves = nil
		end := r.replaySequence(scope, ec.Seq, start)
		r.res.edgeEnd[[2]int{from.ID, to.ID}] = end
		if r.record {
			r.res.edgeTouch[[2]int{from.ID, to.ID}] = r.cur
		}
		if r.recMoves {
			sr := &SeqReplay{Start: clonePositions(start), Moves: r.curMoves, OK: end != nil}
			if end != nil {
				sr.End = clonePositions(end)
			}
			r.res.edgeMoves[[2]int{from.ID, to.ID}] = sr
		}
		if end == nil {
			return
		}
		for _, f := range sortedFluids(toEntry) {
			wp := toEntry[f]
			gp, found := end[f]
			if !found {
				r.errorf("BF106", pos, "%s expects droplet %s at %v but the edge does not deliver it", to.Label, f, wp)
				continue
			}
			if gp != wp {
				r.errorf("BF106", pos, "%s expects droplet %s at %v but the edge delivers it to %v", to.Label, f, wp, gp)
			}
		}
		for _, f := range sortedFluids(end) {
			if _, found := toEntry[f]; !found {
				r.errorf("BF106", pos, "edge delivers droplet %s which %s does not expect", f, to.Label)
			}
		}
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
	for _, f := range sortedFluids(fromExit) {
		used := false
		for _, cp := range ec.Copies {
			if cp.Src == f || cp.Dst == f {
				used = true
				break
			}
		}
		if !used {
			r.errorf("BF106", pos, "droplet %s rests at %s exit but is not transferred on this edge", f, from.Label)
		}
	}
}
