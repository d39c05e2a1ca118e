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
	"biocoder/internal/route"
)

// EdgeCode is the compiled form of one control-flow edge: the parallel
// droplet copies implied by the successor's φ-functions and the activation
// sequence that transports them (paper §6.4.3). When every droplet is
// already in position the sequence is empty and the copies are pure
// renames — Fig. 13(b)'s "rename in place".
type EdgeCode struct {
	From, To *cfg.Block
	Copies   []cfg.Copy
	Seq      *Sequence
}

// genEdge routes the droplets crossing the edge from → to. Sources sit at
// the predecessor's exit locations; destinations are the entry locations the
// successor's first items expect. All transfers happen concurrently.
func genEdge(ctx context.Context, from, to *cfg.Block, fromCode, toCode *BlockCode, chip *arch.Chip, ecTopo *place.Topology, tr *obs.Tracer) (*EdgeCode, error) {
	ec := &EdgeCode{
		From:   from,
		To:     to,
		Copies: cfg.EdgeCopies(from, to),
		Seq:    &Sequence{Tracks: map[ir.FluidID]*Track{}},
	}
	if len(ec.Copies) == 0 {
		return ec, nil
	}
	var reqs []route.Request
	for _, cp := range ec.Copies {
		src, ok := fromCode.Exit[cp.Src]
		if !ok {
			return nil, fmt.Errorf("codegen: edge %s->%s: droplet %s has no exit location in %s",
				from.Label, to.Label, cp.Src, from.Label)
		}
		dst, ok := toCode.Entry[cp.Dst]
		if !ok {
			return nil, fmt.Errorf("codegen: edge %s->%s: droplet %s has no entry location in %s",
				from.Label, to.Label, cp.Dst, to.Label)
		}
		// The copy is applied first (the droplet crosses into the
		// successor's name space), then the renamed droplet travels.
		ec.Seq.Events = append(ec.Seq.Events, Event{
			Cycle: 0, Kind: EvRename,
			Inputs: []ir.FluidID{cp.Src}, Results: []ir.FluidID{cp.Dst},
			Cells: []arch.Point{src},
		})
		reqs = append(reqs, route.Request{ID: cp.Dst, From: src, To: dst})
	}
	anyMove := false
	for _, r := range reqs {
		if r.From != r.To {
			anyMove = true
		}
	}
	if !anyMove {
		// Σ_(bi,bj) = ∅: all droplets renamed in place.
		return ec, nil
	}
	res, err := route.Route(route.Config{Chip: chip, Obstacles: faultObstacles(ecTopo), Tracer: tr, Ctx: ctx}, reqs)
	if err != nil {
		return nil, fmt.Errorf("codegen: edge %s->%s: %w", from.Label, to.Label, err)
	}
	for _, r := range reqs {
		ec.Seq.Tracks[r.ID] = &Track{Start: 0}
	}
	for t := 1; t <= res.Cycles; t++ {
		frame := make(Frame, 0, len(reqs))
		for _, r := range reqs {
			p := res.Paths[r.ID][t]
			frame = append(frame, p)
			ec.Seq.Tracks[r.ID].extend(p, 1)
		}
		slices.SortFunc(frame, arch.Point.Compare)
		ec.Seq.push(frame, 1)
	}
	return ec, nil
}
