package codegen

import (
	"fmt"
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/ir"
)

// FoldNonCriticalEdges applies the §6.4.4 optimization: a control-flow
// edge's activation sequence can be merged into an adjacent block when the
// edge is not critical — appended to the predecessor when the target is its
// sole successor, or prepended to the successor when the source is its sole
// predecessor. Only critical edges (branch source into a join target) must
// keep their own Σ. The fold is behavior-preserving; its value is
// structural (fewer interpreter dispatches, and a starting point for
// re-routing edge transport concurrently with block traffic, which the
// paper leaves open).
//
// It returns the number of edges folded. The executable remains valid
// (Check passes) and simulates to identical results.
func FoldNonCriticalEdges(ex *Executable) (int, error) {
	folded := 0
	for _, e := range ex.Graph.Edges() {
		ec := ex.Edge(e.From, e.To)
		if ec == nil || ec.Seq.NumCycles == 0 {
			continue
		}
		switch {
		case len(e.From.Succs) == 1:
			if err := foldIntoPred(ex, ec); err != nil {
				return folded, fmt.Errorf("codegen: folding edge %s->%s: %w", e.From.Label, e.To.Label, err)
			}
			folded++
		case len(e.To.Preds) == 1:
			if err := foldIntoSucc(ex, ec); err != nil {
				return folded, fmt.Errorf("codegen: folding edge %s->%s: %w", e.From.Label, e.To.Label, err)
			}
			folded++
		default:
			// Critical edge: keeps its own sequence (the DMFB
			// executable allows this, unlike a traditional compiler).
		}
	}
	return folded, nil
}

// foldIntoPred appends the edge sequence to the predecessor block: the
// renames fire at the old block end, then the transport frames run.
func foldIntoPred(ex *Executable, ec *EdgeCode) error {
	pred := ex.Blocks[ec.From.ID]
	base := pred.Seq.NumCycles

	// Droplets born exactly at the block boundary carry a zero-frame
	// "backfill" track pinned at cycle base (see genBlock). The folded
	// edge now covers those cycles under the renamed droplet, so the
	// placeholder tracks must go or they would claim electrodes the
	// appended frames do not activate.
	for id, tr := range pred.Seq.Tracks {
		if tr.Start >= base {
			delete(pred.Seq.Tracks, id)
		}
	}
	if err := pred.Seq.appendSeq(ec.Seq); err != nil {
		return err
	}

	// The predecessor now ends with the successor's φ destinations in
	// their delivered positions.
	oldExit := pred.Exit
	pred.Exit = map[ir.FluidID]arch.Point{}
	for _, cp := range ec.Copies {
		if tr, ok := ec.Seq.Tracks[cp.Dst]; ok && len(tr.Stays) > 0 {
			pred.Exit[cp.Dst] = tr.Stays[len(tr.Stays)-1].Cell
		} else {
			pred.Exit[cp.Dst] = oldExit[cp.Src]
		}
	}
	ec.Seq = &Sequence{Tracks: map[ir.FluidID]*Track{}}
	return nil
}

// foldIntoSucc prepends the edge sequence to the successor block: renames
// and transport run first, then the block proper.
func foldIntoSucc(ex *Executable, ec *EdgeCode) error {
	succ := ex.Blocks[ec.To.ID]

	// The successor's entry contract now names the φ sources at their
	// predecessor-exit positions.
	newEntry := map[ir.FluidID]arch.Point{}
	for _, ev := range ec.Seq.Events {
		if ev.Kind == EvRename && len(ev.Inputs) == 1 && len(ev.Cells) == 1 {
			newEntry[ev.Inputs[0]] = ev.Cells[0]
		}
	}
	if err := ec.Seq.appendSeq(succ.Seq); err != nil {
		return err
	}
	succ.Seq, succ.Entry = ec.Seq, newEntry
	ec.Seq = &Sequence{Tracks: map[ir.FluidID]*Track{}}
	return nil
}

// appendSeq appends o to s: o's events, runs and tracks shift by s's
// length. A track of o whose droplet s tracks up to o's start continues
// that track; the edge delivers the φ destination that the block then
// tracks.
func (s *Sequence) appendSeq(o *Sequence) error {
	base := s.NumCycles
	for _, ev := range o.Events {
		ev.Cycle += base
		s.Events = append(s.Events, ev)
	}
	s.sortEvents()
	for _, r := range o.Runs {
		s.push(r.Frame, r.Len)
	}
	for id, tr := range o.Tracks {
		prev, ok := s.Tracks[id]
		if !ok {
			s.Tracks[id] = &Track{Start: base + tr.Start, Stays: tr.Stays}
			continue
		}
		if prev.End() != base+tr.Start {
			return fmt.Errorf("droplet %s tracks not contiguous across fold", id)
		}
		merged := &Track{Start: prev.Start, Stays: slices.Clone(prev.Stays)}
		for _, st := range tr.Stays {
			merged.extend(st.Cell, st.Len)
		}
		s.Tracks[id] = merged
	}
	return nil
}
