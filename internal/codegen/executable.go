package codegen

import (
	"context"
	"fmt"
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/obs"
	"biocoder/internal/place"
	"biocoder/internal/sched"
)

// Executable is the DMFB executable Δ_GCFG = {Δ_B, Δ_E} of §4: one
// activation sequence per basic block and per CFG edge, plus everything the
// runtime interpreter needs to resolve control flow online (the graph with
// its dry instructions and branch conditions).
type Executable struct {
	Graph  *cfg.Graph
	Topo   *place.Topology
	Blocks map[int]*BlockCode
	Edges  map[[2]int]*EdgeCode
}

// Generate runs code generation over a whole-graph schedule and placement:
// GenBlock for every block, then GenEdge for every CFG edge.
func Generate(g *cfg.Graph, sr *sched.Result, pl *place.Placement, topo *place.Topology) (*Executable, error) {
	ex := &Executable{
		Graph:  g,
		Topo:   topo,
		Blocks: map[int]*BlockCode{},
		Edges:  map[[2]int]*EdgeCode{},
	}
	for _, b := range g.Blocks {
		bs := sr.Blocks[b.ID]
		bp := pl.Blocks[b.ID]
		if bs == nil || bp == nil {
			return nil, fmt.Errorf("codegen: block %s missing schedule or placement", b.Label)
		}
		bc, err := GenBlock(nil, b, bs, bp, topo, nil)
		if err != nil {
			return nil, err
		}
		ex.Blocks[b.ID] = bc
	}
	for _, e := range g.Edges() {
		ec, err := GenEdge(nil, e.From, e.To, ex.Blocks[e.From.ID], ex.Blocks[e.To.ID], topo, nil)
		if err != nil {
			return nil, err
		}
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = ec
	}
	return ex, nil
}

// GenBlock generates the activation sequence of one scheduled, placed
// block. It reads only the block's own schedule and placement and the
// shared read-only topology, so blocks generate independently and
// concurrently. A nil ctx never cancels; cancellation interrupts in-flight
// routing searches.
func GenBlock(ctx context.Context, b *cfg.Block, bs *sched.BlockSchedule, bp *place.BlockPlacement, topo *place.Topology, tr *obs.Tracer) (*BlockCode, error) {
	return genBlock(ctx, b, bs, bp, topo, tr)
}

// GenEdge generates the transfer sequence of one CFG edge from the two
// adjacent blocks' compiled code.
func GenEdge(ctx context.Context, from, to *cfg.Block, fromCode, toCode *BlockCode, topo *place.Topology, tr *obs.Tracer) (*EdgeCode, error) {
	return genEdge(ctx, from, to, fromCode, toCode, topo.Chip, topo, tr)
}

// Edge returns the compiled form of the edge from → to.
func (ex *Executable) Edge(from, to *cfg.Block) *EdgeCode {
	return ex.Edges[[2]int{from.ID, to.ID}]
}

// Check validates every sequence in the executable: track continuity,
// frame/track agreement, and the fluidic constraints between coexisting
// droplets (pairs that merge are exempt — they are supposed to touch).
func (ex *Executable) Check() error {
	for _, bc := range ex.Blocks {
		if err := checkSequence(bc.Seq, ex); err != nil {
			return fmt.Errorf("codegen: block %s: %w", bc.Block.Label, err)
		}
	}
	for key, ec := range ex.Edges {
		if err := checkSequence(ec.Seq, ex); err != nil {
			return fmt.Errorf("codegen: edge %v: %w", key, err)
		}
	}
	return nil
}

// checkSequence validates one sequence. Every property it checks can only
// change at a run start or where a track starts, ends or moves, so it
// checks those cycles alone: the first failing cycle is always one of
// them.
func checkSequence(s *Sequence, ex *Executable) error {
	chip := ex.Topo.Chip
	if err := s.Validate(); err != nil {
		return err
	}
	// Track continuity and bounds, checked where a droplet enters a cell.
	ids := make([]ir.FluidID, 0, len(s.Tracks))
	for f, tr := range s.Tracks {
		ids = append(ids, f)
		t := tr.Start
		for i, st := range tr.Stays {
			if !chip.InBounds(st.Cell) {
				return fmt.Errorf("droplet %s off chip at %v", f, st.Cell)
			}
			if ex.Topo.Faulty(st.Cell) {
				return fmt.Errorf("droplet %s crosses defective electrode %v", f, st.Cell)
			}
			if i > 0 && tr.Stays[i-1].Cell.Manhattan(st.Cell) > 1 {
				return fmt.Errorf("droplet %s teleports %v->%v at cycle %d", f, tr.Stays[i-1].Cell, st.Cell, t)
			}
			t += st.Len
		}
	}
	// Frames must equal the union of track positions cycle by cycle.
	points := trackPoints(s)
	t := 0
	for _, r := range s.Runs {
		points = append(points, t)
		t += r.Len
	}
	slices.Sort(points)
	points = slices.Compact(points)
	curs := make([]cursor, 0, len(s.Tracks))
	for _, tr := range s.Tracks {
		curs = append(curs, newCursor(tr))
	}
	want := map[arch.Point]bool{}
	ri, runEnd := -1, 0
	for _, t := range points {
		if t >= s.NumCycles {
			break
		}
		for t >= runEnd {
			ri++
			runEnd += s.Runs[ri].Len
		}
		clear(want)
		for i := range curs {
			if p, ok := curs[i].at(t); ok {
				want[p] = true
			}
		}
		frame := s.Runs[ri].Frame
		if len(want) != len(frame) {
			return fmt.Errorf("cycle %d: frame has %d electrodes, tracks say %d", t, len(frame), len(want))
		}
		for _, c := range frame {
			if !want[c] {
				return fmt.Errorf("cycle %d: electrode %v active with no droplet", t, c)
			}
		}
	}
	// Fluidic constraints between distinct droplets, except merge mates.
	mates := map[[2]ir.FluidID]bool{}
	for _, ev := range s.Events {
		if ev.Kind != EvMerge {
			continue
		}
		for i, a := range ev.Inputs {
			for _, b := range ev.Inputs[i+1:] {
				mates[[2]ir.FluidID{a, b}] = true
				mates[[2]ir.FluidID{b, a}] = true
			}
		}
	}
	ends := make(map[ir.FluidID]int, len(ids))
	for _, f := range ids {
		ends[f] = s.Tracks[f].End()
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if mates[[2]ir.FluidID{a, b}] {
				continue
			}
			// The pair's distance changes only where one of the two
			// moves: check the first shared cycle and each such move.
			ca, cb := newCursor(s.Tracks[a]), newCursor(s.Tracks[b])
			hi := min(ends[a], ends[b])
			for t := max(ca.tr.Start, cb.tr.Start); t < hi; t = min(ca.next(), cb.next()) {
				pa, _ := ca.at(t)
				pb, _ := cb.at(t)
				if pa.Adjacent(pb) {
					return fmt.Errorf("droplets %s and %s adjacent at cycle %d (%v, %v)", a, b, t, pa, pb)
				}
			}
		}
	}
	return nil
}
