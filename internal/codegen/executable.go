package codegen

import (
	"context"
	"fmt"
	"sort"

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

// Generate runs code generation over a scheduled and placed program. An
// optional trailing tracer receives per-block and per-edge spans (the
// parameter is variadic so pre-observability call sites compile unchanged).
func Generate(g *cfg.Graph, sr *sched.Result, pl *place.Placement, topo *place.Topology, tracer ...*obs.Tracer) (*Executable, error) {
	var tr *obs.Tracer
	if len(tracer) > 0 {
		tr = tracer[0]
	}
	return GenerateCtx(nil, g, sr, pl, topo, tr)
}

// GenerateCtx is Generate bounded by a context: cancellation or deadline
// expiry aborts code generation at the next per-block/per-edge checkpoint
// and interrupts in-flight routing searches. A nil ctx never cancels.
func GenerateCtx(ctx context.Context, g *cfg.Graph, sr *sched.Result, pl *place.Placement, topo *place.Topology, tr *obs.Tracer) (*Executable, error) {
	ex := &Executable{
		Graph:  g,
		Topo:   topo,
		Blocks: map[int]*BlockCode{},
		Edges:  map[[2]int]*EdgeCode{},
	}
	for _, b := range g.Blocks {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("codegen: %w", err)
		}
		bs := sr.Blocks[b.ID]
		bp := pl.Blocks[b.ID]
		if bs == nil || bp == nil {
			return nil, fmt.Errorf("codegen: block %s missing schedule or placement", b.Label)
		}
		sp := tr.Start("block " + b.Label)
		sp.SetInt("block", b.ID)
		bc, err := genBlock(ctx, b, bs, bp, topo, tr)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetInt("cycles", bc.Seq.NumCycles)
		sp.End()
		ex.Blocks[b.ID] = bc
	}
	for _, e := range g.Edges() {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("codegen: %w", err)
		}
		sp := tr.Start("edge " + e.From.Label + "->" + e.To.Label)
		ec, err := genEdge(ctx, e.From, e.To, ex.Blocks[e.From.ID], ex.Blocks[e.To.ID], topo.Chip, topo, tr)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetInt("cycles", ec.Seq.NumCycles)
		sp.SetInt("copies", len(ec.Copies))
		sp.End()
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = ec
	}
	return ex, nil
}

// GenBlock generates the activation sequence of one scheduled, placed block —
// the per-block entry point of the parallel backend. It reads only the
// block's own schedule/placement and the shared read-only topology, so
// GenerateCtx's block loop is equivalent to calling it per block.
func GenBlock(ctx context.Context, b *cfg.Block, bs *sched.BlockSchedule, bp *place.BlockPlacement, topo *place.Topology, tr *obs.Tracer) (*BlockCode, error) {
	return genBlock(ctx, b, bs, bp, topo, tr)
}

// GenEdge generates the transfer sequence of one CFG edge from the two
// adjacent blocks' compiled code — the per-edge entry point of the parallel
// backend and of fault-scoped partial recompilation.
func GenEdge(ctx context.Context, from, to *cfg.Block, fromCode, toCode *BlockCode, topo *place.Topology, tr *obs.Tracer) (*EdgeCode, error) {
	return genEdge(ctx, from, to, fromCode, toCode, topo.Chip, topo, tr)
}

// ctxErr reports the context's cancellation state; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
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
// change at a cycle where a track starts, ends or moves, or where the frame
// changes, so it checks those cycles alone: the first failing cycle is
// always one of them, and the error names the same cycle a cycle-by-cycle
// check would.
func checkSequence(s *Sequence, ex *Executable) error {
	chip := ex.Topo.Chip
	if len(s.Frames) != s.NumCycles {
		return fmt.Errorf("sequence declares %d cycles but carries %d frames", s.NumCycles, len(s.Frames))
	}
	// Track continuity and bounds, checked where a droplet enters a cell:
	// at the start of its track and at each move.
	moves, changes := trackChanges(s)
	for f, tr := range s.Tracks {
		if len(tr.Cells) == 0 {
			continue
		}
		for _, t := range append([]int{tr.Start}, moves[f]...) {
			i := t - tr.Start
			c := tr.Cells[i]
			if !chip.InBounds(c) {
				return fmt.Errorf("droplet %s off chip at %v", f, c)
			}
			if ex.Topo.Faulty(c) {
				return fmt.Errorf("droplet %s crosses defective electrode %v", f, c)
			}
			if i > 0 && tr.Cells[i-1].Manhattan(c) > 1 {
				return fmt.Errorf("droplet %s teleports %v->%v at cycle %d", f, tr.Cells[i-1], c, tr.Start+i)
			}
		}
	}
	// Frames must equal the union of track positions cycle by cycle.
	want := map[arch.Point]bool{}
	ci := 0
	for t := 0; t < s.NumCycles; t++ {
		for ci < len(changes) && changes[ci] < t {
			ci++
		}
		trackChange := ci < len(changes) && changes[ci] == t
		if t > 0 && !trackChange && SameFrame(s.Frames[t-1], s.Frames[t]) {
			continue
		}
		clear(want)
		for _, tr := range s.Tracks {
			if t >= tr.Start && t < tr.End() {
				want[tr.Cells[t-tr.Start]] = true
			}
		}
		if len(want) != len(s.Frames[t]) {
			return fmt.Errorf("cycle %d: frame has %d electrodes, tracks say %d", t, len(s.Frames[t]), len(want))
		}
		for _, c := range s.Frames[t] {
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
	ids := make([]ir.FluidID, 0, len(s.Tracks))
	for f := range s.Tracks {
		ids = append(ids, f)
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if mates[[2]ir.FluidID{a, b}] {
				continue
			}
			ta, tb := s.Tracks[a], s.Tracks[b]
			hi := min(ta.End(), tb.End())
			// The pair's distance changes only where one of the two
			// moves: check the first shared cycle and each such move.
			for t := max(ta.Start, tb.Start); t < hi; t = nextMove(t, hi, moves[a], moves[b]) {
				pa := ta.Cells[t-ta.Start]
				pb := tb.Cells[t-tb.Start]
				if pa.Adjacent(pb) {
					return fmt.Errorf("droplets %s and %s adjacent at cycle %d (%v, %v)", a, b, t, pa, pb)
				}
			}
		}
	}
	return nil
}

// nextMove returns the first cycle after t and before hi listed in any of
// the ascending move lists, or hi.
func nextMove(t, hi int, lists ...[]int) int {
	for _, mv := range lists {
		if i := sort.SearchInts(mv, t+1); i < len(mv) && mv[i] < hi {
			hi = mv[i]
		}
	}
	return hi
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
