package codegen

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/obs"
	"biocoder/internal/place"
	"biocoder/internal/route"
	"biocoder/internal/sched"
)

// BlockCode is the compiled form of one basic block: its activation
// sequence plus the droplet positions the rest of the program may rely on —
// where live-in droplets must be delivered (Entry, the targets of incoming
// CFG-edge transfers) and where live-out droplets rest when the block
// finishes (Exit, the sources of outgoing transfers).
type BlockCode struct {
	Block *cfg.Block
	Seq   *Sequence
	Entry map[ir.FluidID]arch.Point
	Exit  map[ir.FluidID]arch.Point
}

// genBlock converts a scheduled and placed block into its activation
// sequence. The schedule's timeline is replayed event by event; at every
// event boundary the droplets whose items change are routed concurrently
// (a "routing burst"), and between events the active operations emit their
// actuation patterns. Σ's length is therefore the schedule makespan plus
// the routing overhead — the scheduler's assumption that routing time is
// negligible (§5) is repaired here, exactly as in the UCR framework.
func genBlock(ctx context.Context, b *cfg.Block, bs *sched.BlockSchedule, bp *place.BlockPlacement, topo *place.Topology, tr *obs.Tracer) (*BlockCode, error) {
	bc := &BlockCode{
		Block: b,
		Seq:   &Sequence{Tracks: map[ir.FluidID]*Track{}},
		Entry: map[ir.FluidID]arch.Point{},
		Exit:  map[ir.FluidID]arch.Point{},
	}
	if len(bs.Items) == 0 {
		return bc, nil
	}

	// Index items by start and end times.
	startsAt := map[int][]*sched.Item{}
	endsAt := map[int][]*sched.Item{}
	timeSet := map[int]bool{}
	for _, it := range bs.Items {
		startsAt[it.Start] = append(startsAt[it.Start], it)
		endsAt[it.End] = append(endsAt[it.End], it)
		timeSet[it.Start] = true
		timeSet[it.End] = true
	}
	var times []int
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Ints(times)

	gs := &genState{
		chip: topo.Chip,
		topo: topo,
		bp:   bp,
		seq:  bc.Seq,
		pos:  map[ir.FluidID]arch.Point{},
		own:  map[ir.FluidID]*sched.Item{},
		tr:   tr,
		ctx:  ctx,
	}

	// Live-in droplets (φ destinations) are delivered by the incoming
	// edge sequences directly to the target cell of their first item.
	for _, phi := range b.Phis {
		it := firstItemHolding(bs, phi.Dst)
		if it == nil {
			return nil, fmt.Errorf("codegen: block %s: φ destination %s has no item", b.Label, phi.Dst)
		}
		cell, err := targetCell(topo.Chip, it, bp.Assign[it], phi.Dst)
		if err != nil {
			return nil, err
		}
		gs.pos[phi.Dst] = cell
		bc.Entry[phi.Dst] = cell
		gs.startTrack(phi.Dst)
	}

	for i, s := range times {
		// (a) Completions at schedule time s.
		for _, it := range endsAt[s] {
			if err := gs.finishItem(it); err != nil {
				return nil, fmt.Errorf("codegen: block %s: %w", b.Label, err)
			}
		}
		// (b) Starts at s: collect moves and route them as one burst.
		if err := gs.startItems(startsAt[s]); err != nil {
			return nil, fmt.Errorf("codegen: block %s: %w", b.Label, err)
		}
		// (c) Run operation patterns until the next event.
		if i+1 < len(times) {
			gs.runSegment(s, times[i+1]-s)
		}
	}

	for f, p := range gs.pos {
		bc.Exit[f] = p
		// Droplets born at the final boundary (e.g. a split ending the
		// block) have empty tracks; pin them to their resting cell.
		if tr := bc.Seq.Tracks[f]; len(tr.Cells) == 0 {
			tr.Cells = append(tr.Cells, p)
		}
	}
	bc.Seq.NumCycles = len(bc.Seq.Frames)
	bc.Seq.sortEvents()
	return bc, nil
}

func firstItemHolding(bs *sched.BlockSchedule, f ir.FluidID) *sched.Item {
	var best *sched.Item
	for _, it := range bs.Items {
		holds := false
		if it.IsStorage() {
			holds = it.Fluid == f
		} else {
			holds = it.Instr.UsesFluid(f)
		}
		if holds && (best == nil || it.Start < best.Start) {
			best = it
		}
	}
	return best
}

type genState struct {
	chip *arch.Chip
	topo *place.Topology
	bp   *place.BlockPlacement
	seq  *Sequence

	pos map[ir.FluidID]arch.Point // current droplet positions
	own map[ir.FluidID]*sched.Item

	tr  *obs.Tracer
	ctx context.Context
}

func (gs *genState) now() int { return len(gs.seq.Frames) }

// faultObstacles renders each defective electrode as a 1x1 routing obstacle.
func faultObstacles(topo *place.Topology) []arch.Rect {
	var out []arch.Rect
	for _, f := range topo.Faults {
		out = append(out, arch.Rect{X: f.X, Y: f.Y, W: 1, H: 1})
	}
	return out
}

func (gs *genState) startTrack(f ir.FluidID) {
	gs.seq.Tracks[f] = &Track{Start: gs.now()}
}

// emitFrames records the current droplet positions as the actuation frame
// of the next n cycles, one Frame value shared by all n (frames are
// immutable once emitted), and extends every live track by n cells.
func (gs *genState) emitFrames(n int) {
	frame := make(Frame, 0, len(gs.pos))
	for f, p := range gs.pos {
		frame = append(frame, p)
		tr := gs.seq.Tracks[f]
		tr.Cells = slices.Grow(tr.Cells, n)
		for i := 0; i < n; i++ {
			tr.Cells = append(tr.Cells, p)
		}
	}
	sortFrame(frame)
	gs.seq.Frames = slices.Grow(gs.seq.Frames, n)
	for i := 0; i < n; i++ {
		gs.seq.Frames = append(gs.seq.Frames, frame)
	}
}

// finishItem applies the completion effects of an item: droplet creation
// for dispense, removal for output, fission for split, and the sensor
// reading for sense.
func (gs *genState) finishItem(it *sched.Item) error {
	if it.IsStorage() {
		delete(gs.own, it.Fluid)
		return nil
	}
	in := it.Instr
	for _, f := range in.Args {
		delete(gs.own, f)
	}
	for _, f := range in.Results {
		delete(gs.own, f)
	}
	asn := gs.bp.Assign[it]
	switch in.Kind {
	case ir.Dispense:
		cell := arch.Point{X: asn.Rect.X, Y: asn.Rect.Y}
		d := in.Results[0]
		gs.pos[d] = cell
		gs.startTrack(d)
		gs.seq.Events = append(gs.seq.Events, Event{
			Cycle: gs.now(), Kind: EvDispense, InstrID: in.ID,
			Results: []ir.FluidID{d}, Cells: []arch.Point{cell},
			Port: asn.Port, Fluid: in.FluidType, Volume: in.Volume,
		})
	case ir.Output:
		d := in.Args[0]
		cell := gs.pos[d]
		delete(gs.pos, d)
		gs.seq.Events = append(gs.seq.Events, Event{
			Cycle: gs.now(), Kind: EvOutput, InstrID: in.ID,
			Inputs: []ir.FluidID{d}, Cells: []arch.Point{cell},
			Port: asn.Port,
		})
	case ir.Split:
		parent := in.Args[0]
		cells, err := splitCellsOf(gs.chip, asn)
		if err != nil {
			return err
		}
		delete(gs.pos, parent)
		r0, r1 := in.Results[0], in.Results[1]
		gs.pos[r0], gs.pos[r1] = cells[0], cells[1]
		gs.startTrack(r0)
		gs.startTrack(r1)
		gs.seq.Events = append(gs.seq.Events, Event{
			Cycle: gs.now(), Kind: EvSplit, InstrID: in.ID,
			Inputs: []ir.FluidID{parent}, Results: []ir.FluidID{r0, r1},
			Cells: []arch.Point{cells[0], cells[1]},
		})
	case ir.Sense:
		gs.seq.Events = append(gs.seq.Events, Event{
			Cycle: gs.now(), Kind: EvSense, InstrID: in.ID,
			Inputs:    []ir.FluidID{in.Results[0]}, // renamed at op start
			SensorVar: in.SensorVar,
			Device:    asn.Device,
		})
	}
	return nil
}

// startItems routes every droplet involved in the items beginning at this
// event to its target cell, then applies the start-of-op transformations
// (merges and renames).
func (gs *genState) startItems(items []*sched.Item) error {
	if len(items) == 0 && len(gs.pos) == 0 {
		return nil
	}
	targets := map[ir.FluidID]arch.Point{}
	groups := map[ir.FluidID]int{}
	groupRects := map[int]arch.Rect{}
	for _, it := range items {
		asn := gs.bp.Assign[it]
		if it.IsStorage() {
			cell, err := targetCell(gs.chip, it, asn, it.Fluid)
			if err != nil {
				return err
			}
			targets[it.Fluid] = cell
			gs.own[it.Fluid] = it
			continue
		}
		in := it.Instr
		if in.Kind == ir.Dispense {
			continue // droplet appears at completion
		}
		merge := in.Kind == ir.Mix && len(in.Args) > 1
		for _, a := range in.Args {
			cell, err := targetCell(gs.chip, it, asn, a)
			if err != nil {
				return err
			}
			targets[a] = cell
			if merge {
				groups[a] = in.ID + 1 // group IDs must be nonzero
				groupRects[in.ID+1] = asn.Rect
			}
		}
	}

	// Build the burst: every existing droplet participates; those without
	// a new target hold position (zero-move requests keep the router
	// honest about parked droplets).
	anyMove := false
	var reqs []route.Request
	for f, p := range gs.pos {
		to, moving := targets[f]
		if !moving {
			to = p
		}
		if to != p {
			anyMove = true
		}
		reqs = append(reqs, route.Request{ID: f, From: p, To: to, Group: groups[f]})
	}
	if anyMove {
		if err := gs.routeBurst(reqs, groupRects); err != nil {
			return err
		}
	}

	// Start-of-op transformations.
	for _, it := range items {
		if it.IsStorage() {
			continue
		}
		in := it.Instr
		switch in.Kind {
		case ir.Mix:
			result := in.Results[0]
			anchor := anchorOf(gs.chip, gs.bp.Assign[it])
			for _, a := range in.Args {
				delete(gs.pos, a)
			}
			gs.pos[result] = anchor
			gs.startTrack(result)
			if len(in.Args) == 1 {
				gs.seq.Events = append(gs.seq.Events, Event{
					Cycle: gs.now(), Kind: EvRename, InstrID: in.ID,
					Inputs: in.Args, Results: []ir.FluidID{result},
					Cells: []arch.Point{anchor},
				})
			} else {
				gs.seq.Events = append(gs.seq.Events, Event{
					Cycle: gs.now(), Kind: EvMerge, InstrID: in.ID,
					Inputs: in.Args, Results: []ir.FluidID{result},
					Cells: []arch.Point{anchor},
				})
			}
			gs.own[result] = it
		case ir.Heat, ir.Sense, ir.Store:
			arg, result := in.Args[0], in.Results[0]
			p := gs.pos[arg]
			delete(gs.pos, arg)
			gs.pos[result] = p
			gs.startTrack(result)
			gs.seq.Events = append(gs.seq.Events, Event{
				Cycle: gs.now(), Kind: EvRename, InstrID: in.ID,
				Inputs: []ir.FluidID{arg}, Results: []ir.FluidID{result},
				Cells: []arch.Point{p},
			})
			gs.own[result] = it
		case ir.Split:
			gs.own[in.Args[0]] = it // parent keeps its name until fission
		case ir.Output:
			gs.own[in.Args[0]] = it
		}
	}
	return nil
}

// routeBurst routes one event boundary's moves concurrently, falling back
// to one-mover-at-a-time sub-bursts when the concurrent problem is too
// congested for the prioritized router (many droplets in flight at once).
// The fallback trades cycles (moves serialize) for guaranteed progress as
// long as each droplet can navigate the parked field alone.
func (gs *genState) routeBurst(reqs []route.Request, groupRects map[int]arch.Rect) error {
	conf := route.Config{
		Chip:      gs.chip,
		Groups:    groupRects,
		Obstacles: faultObstacles(gs.topo),
		Tracer:    gs.tr,
		Ctx:       gs.ctx,
	}
	res, err := route.Route(conf, reqs)
	if err == nil {
		gs.applyBurst(reqs, res)
		return nil
	}

	// Sequential fallback: movers take turns while everyone else parks.
	moving := map[ir.FluidID]bool{}
	for _, r := range reqs {
		if r.From != r.To {
			moving[r.ID] = true
		}
	}
	single := func(id ir.FluidID, to arch.Point) error {
		sub := make([]route.Request, 0, len(reqs))
		for _, o := range reqs {
			cur := gs.pos[o.ID]
			if o.ID == id {
				sub = append(sub, route.Request{ID: o.ID, From: cur, To: to, Group: o.Group})
			} else {
				sub = append(sub, route.Request{ID: o.ID, From: cur, To: cur, Group: o.Group})
			}
		}
		subRes, subErr := route.Route(conf, sub)
		if subErr != nil {
			return subErr
		}
		gs.applyBurst(sub, subRes)
		return nil
	}
	parkings := 0
	for len(moving) > 0 {
		progressed := false
		for _, r := range reqs {
			if !moving[r.ID] {
				continue
			}
			if single(r.ID, r.To) != nil {
				continue // another mover may need to clear the way first
			}
			delete(moving, r.ID)
			progressed = true
		}
		if progressed {
			continue
		}
		// No mover can reach its target: the remaining moves form a
		// cyclic exchange. Break the cycle by parking one droplet at a
		// neutral cell, then resume.
		parked := false
		for _, r := range reqs {
			if !moving[r.ID] {
				continue
			}
			cell, ok := gs.findParking(r.ID, reqs)
			if !ok {
				continue
			}
			if single(r.ID, cell) == nil {
				parked = true
				break
			}
		}
		parkings++
		if !parked || parkings > len(reqs)*2 {
			var state []string
			for _, o := range reqs {
				state = append(state, fmt.Sprintf("%s@%v->%v", o.ID, gs.pos[o.ID], o.To))
			}
			sort.Strings(state)
			return fmt.Errorf("codegen: routing burst unroutable even serialized (%s): %w", strings.Join(state, " "), err)
		}
	}
	return nil
}

// findParking returns a neutral cell for droplet id: reachable, clear of
// every other droplet and of every pending target (including its own, so
// the parked droplet cannot re-block the exchange it is breaking).
func (gs *genState) findParking(id ir.FluidID, reqs []route.Request) (arch.Point, bool) {
	from := gs.pos[id]
	clear := func(c arch.Point) bool {
		if gs.topo.Faulty(c) {
			return false
		}
		for _, o := range reqs {
			if o.ID == id {
				if c.Adjacent(o.To) {
					return false
				}
				continue
			}
			if c.Adjacent(gs.pos[o.ID]) || c.Adjacent(o.To) {
				return false
			}
		}
		return true
	}
	// BFS outward from the droplet for the nearest neutral cell.
	visited := map[arch.Point]bool{from: true}
	queue := []arch.Point{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != from && clear(cur) {
			return cur, true
		}
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			n := cur.Add(d[0], d[1])
			if !gs.chip.InBounds(n) || visited[n] {
				continue
			}
			visited[n] = true
			queue = append(queue, n)
		}
	}
	return arch.Point{}, false
}

// applyBurst emits the burst's frames and updates droplet positions.
func (gs *genState) applyBurst(reqs []route.Request, res *route.Result) {
	for t := 1; t <= res.Cycles; t++ {
		for _, r := range reqs {
			gs.pos[r.ID] = res.Paths[r.ID][t]
		}
		gs.emitFrames(1)
	}
	for _, r := range reqs {
		gs.pos[r.ID] = res.Paths[r.ID][res.Cycles]
	}
}

// runSegment advances d cycles of operation patterns: mixes oscillate over
// their interior cells, everything else holds position. A segment with no
// oscillating mix is a hold, emitted as one frame shared by all d cycles.
func (gs *genState) runSegment(schedStart, d int) {
	type mixer struct {
		f     ir.FluidID
		start int
		cells []arch.Point
	}
	var mixers []mixer
	for f, it := range gs.own {
		if it.IsStorage() || it.Instr.Kind != ir.Mix {
			continue
		}
		if cells := mixCellsOf(gs.chip, gs.bp.Assign[it]); len(cells) >= 2 {
			mixers = append(mixers, mixer{f: f, start: it.Start, cells: cells})
		}
	}
	if len(mixers) == 0 {
		gs.emitFrames(d)
		return
	}
	for k := 0; k < d; k++ {
		for _, m := range mixers {
			gs.pos[m.f] = m.cells[(schedStart+k-m.start)%len(m.cells)]
		}
		gs.emitFrames(1)
	}
}
