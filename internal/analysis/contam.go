package analysis

// Cross-contamination analysis. A droplet sliding over an electrode leaves
// trace residue of its reagents; a later droplet crossing the same electrode
// absorbs it. That is harmless between droplets of the same lineage (a
// renamed, split or merged droplet already contains everything its ancestors
// carried) but hazardous when the residue holds reagents foreign to the
// later droplet — the cyber-physical failure mode that motivates wash
// droplets (paper §5).
//
// The analysis composes three ingredients. (1) Reagent classes per fluid
// version, a fixpoint over the CFG (dispense introduces its fluid type, mix
// unions, split/heat/sense/store preserve, φ unions across predecessors).
// (2) Electrode-touch histories per block and per edge from the symbolic
// replay (verify.ReplayTouches) — the actual routed footprints, not the
// module rectangles. (3) The execution order of activation sequences: block
// a runs before edge (a,b) runs before block b; reachability over that
// order decides which touch pairs can happen in sequence on a real run.
// Every hazardous crossing not scrubbed by a planned wash tour becomes a
// BF320 warning, and feasible wash insertions are suggested as BF321 infos.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/motion"
	"biocoder/internal/verify"
	"biocoder/internal/wash"
)

// Hazard is one cross-contamination finding: droplet Victim crosses a cell
// where droplet Carrier earlier left residue of reagents foreign to Victim.
type Hazard struct {
	// Carrier left the residue; Victim picks it up.
	Carrier, Victim ir.FluidID
	// Reagents are the foreign reagent classes transferred, sorted.
	Reagents []string
	// Cell is the row-major-first electrode (lowest Y, then lowest X) the
	// pair crosses in its first (CarrierScope, VictimScope) pair of
	// sequences; Cells counts how many distinct electrodes this
	// carrier/victim pair shares over all sequences.
	Cell  arch.Point
	Cells int
	// CarrierScope and VictimScope name the sequences ("block x",
	// "edge a->b") in which each droplet touches the shared electrodes.
	CarrierScope, VictimScope string
}

// WashSuggestion proposes one wash insertion point: after the named
// sequence, a wash tour over the listed cells removes every residue that
// sequence contributes to downstream hazards.
type WashSuggestion struct {
	// After names the sequence whose residue the wash scrubs.
	After string
	// Cells are the hazardous electrodes to cover, sorted.
	Cells []arch.Point
	// TourCycles is the planned tour length (wash.Plan on the chip).
	TourCycles int
}

// span is one droplet's presence on one electrode within one sequence: the
// cycles of its first and last arrival there.
type span struct {
	fluid       ir.FluidID
	first, last int
}

// seqNode identifies one activation sequence in execution order: a block
// or an edge.
type seqNode struct {
	scope string
	succs []*seqNode
	// cells lists the touched cells in row-major order, and spans[i] the
	// spans on cells[i], one per droplet.
	cells []arch.Point
	spans [][]span
}

// cellIndex is scratch sized to the chip for newSeqNode: a grid that
// stamps a sequence's touched cells, and their positions in its cell list
// by row-major cell index.
type cellIndex struct {
	grid *motion.Grid
	at   []int32
}

func newCellIndex(chip *arch.Chip) *cellIndex {
	g := motion.NewGrid(chip.Cols, chip.Rows)
	return &cellIndex{grid: g, at: make([]int32, g.Cells())}
}

// newSeqNode collapses a sequence's touch history to spans. The touched
// cells are read off the grid in row-major order; off-chip cells, which
// only a corrupt executable names, are sorted in.
func newSeqNode(scope string, touches []verify.Touch, ix *cellIndex) *seqNode {
	n := &seqNode{scope: scope}
	g := ix.grid
	g.Clear()
	var off []arch.Point
	for _, t := range touches {
		if g.In(t.Cell) {
			g.Add(t.Cell)
		} else {
			off = append(off, t.Cell)
		}
	}
	for i := range g.Cells() {
		if p := g.Point(i); g.Has(p) {
			ix.at[i] = int32(len(n.cells))
			n.cells = append(n.cells, p)
		}
	}
	if len(off) > 0 {
		n.cells = append(n.cells, off...)
		slices.SortFunc(n.cells, arch.Point.Compare)
		n.cells = slices.Compact(n.cells)
	}
	n.spans = make([][]span, len(n.cells))
	for _, t := range touches {
		var i int
		if len(off) == 0 {
			i = int(ix.at[g.Index(t.Cell)])
		} else {
			i, _ = slices.BinarySearchFunc(n.cells, t.Cell, arch.Point.Compare)
		}
		ss := n.spans[i]
		k := 0
		for k < len(ss) && ss[k].fluid != t.Fluid {
			k++
		}
		if k == len(ss) {
			n.spans[i] = append(ss, span{fluid: t.Fluid, first: t.Cycle, last: t.Cycle})
			continue
		}
		ss[k].first = min(ss[k].first, t.Cycle)
		ss[k].last = max(ss[k].last, t.Cycle)
	}
	return n
}

// analyzeContamination runs the full cross-contamination analysis, emitting
// BF320/BF321, and returns the hazards and suggestions.
func analyzeContamination(u *verify.Unit, conf Config, rep *reporter) ([]Hazard, []WashSuggestion) {
	g := u.Graph
	if u.Exec == nil || g == nil || u.Chip == nil {
		return nil, nil
	}
	reagents := reagentSets(g)
	blockTouch, edgeTouch := verify.ReplayTouches(u)

	// Execution-order graph over sequences.
	nodes := map[string]*seqNode{}
	blockNode := map[int]*seqNode{}
	ix := newCellIndex(u.Chip)
	mk := func(scope string, touches []verify.Touch) *seqNode {
		n := newSeqNode(scope, touches, ix)
		nodes[scope] = n
		return n
	}
	for _, b := range g.Blocks {
		blockNode[b.ID] = mk("block "+b.Label, blockTouch[b.ID])
	}
	for _, e := range g.Edges() {
		en := mk(fmt.Sprintf("edge %s->%s", e.From.Label, e.To.Label), edgeTouch[[2]int{e.From.ID, e.To.ID}])
		blockNode[e.From.ID].succs = append(blockNode[e.From.ID].succs, en)
		en.succs = append(en.succs, blockNode[e.To.ID])
	}
	hazards, carrierCells := findHazards(nodes, reagents, washedCells(conf.Washes))
	for _, h := range hazards {
		rep.warnf("BF320", verify.Pos{Scope: h.VictimScope, InstrID: -1, Cycle: -1, Cell: h.Cell, HasCell: true},
			"cross-contamination hazard: droplet %s crosses %d electrode(s) carrying unwashed residue of %s from droplet %s (%s)",
			h.Victim, h.Cells, strings.Join(h.Reagents, ", "), h.Carrier, h.CarrierScope)
	}

	var suggestions []WashSuggestion
	for _, scope := range sortedKeys2(carrierCells) {
		cells := make([]arch.Point, 0, len(carrierCells[scope]))
		for c := range carrierCells[scope] {
			cells = append(cells, c)
		}
		slices.SortFunc(cells, arch.Point.Compare)
		sug := WashSuggestion{After: scope, Cells: cells}
		if tour, err := wash.Plan(u.Chip, cells, nil); err == nil && len(tour.Skipped) == 0 {
			sug.TourCycles = tour.Cycles()
			rep.infof("BF321", verify.Pos{Scope: scope, InstrID: -1, Cycle: -1},
				"suggest wash after %s covering %d residue cell(s); a tour of %d cycles scrubs them",
				scope, len(cells), sug.TourCycles)
		} else {
			rep.infof("BF321", verify.Pos{Scope: scope, InstrID: -1, Cycle: -1},
				"suggest wash after %s covering %d residue cell(s); no full tour is feasible on this chip",
				scope, len(cells))
		}
		suggestions = append(suggestions, sug)
	}
	return hazards, suggestions
}

// findHazards searches the sequence graph for hazardous crossings of
// unwashed cells, aggregated per carrier/victim pair and sorted by carrier
// scope, carrier and victim. It also returns the hazardous cells grouped by
// the scope leaving the residue, for wash suggestions.
//
// A carrier's residue reaches a victim on a cell when some carrier arrival
// precedes some victim arrival there. Across two sequences that is any pair
// of arrivals, when the victim's sequence can run after the carrier's.
// Within one sequence off every CFG cycle it is first(carrier) <
// last(victim) over their spans; a sequence on a CFG cycle runs again after
// itself, so there too any pair counts. Pairing spans rather than touches
// makes the cost grow with the droplets sharing a cell, not with how often
// they cross it. Sequences are taken in scope order and cells in row-major
// order, and the first crossing of a pair names its scopes and cell.
func findHazards(nodes map[string]*seqNode, reagents map[ir.FluidID]map[string]bool, washed map[arch.Point]bool) ([]Hazard, map[string]map[arch.Point]bool) {
	reach := reachability(nodes)
	// foreign memoizes the reagents a carrier holds outside a victim's
	// lineage, sorted; empty when the victim already carries them all.
	type pairKey struct{ carrier, victim ir.FluidID }
	foreign := map[pairKey][]string{}
	type pairAgg struct {
		cells map[arch.Point]bool
		first Hazard
	}
	pairs := map[pairKey]*pairAgg{}
	carrierCells := map[string]map[arch.Point]bool{}

	scopes := sortedScopes(nodes)
	for _, s1 := range scopes {
		n1 := nodes[s1]
		ordered := !reach[s1][s1]
		for _, s2 := range scopes {
			n2 := nodes[s2]
			sameSeq := n1 == n2
			if !sameSeq && !reach[s1][s2] {
				continue
			}
			// Both cell lists are in row-major order: walk them together.
			for i, j := 0, 0; i < len(n1.cells) && j < len(n2.cells); {
				cell := n1.cells[i]
				if d := cell.Compare(n2.cells[j]); d != 0 {
					if d < 0 {
						i++
					} else {
						j++
					}
					continue
				}
				carriers, victims := n1.spans[i], n2.spans[j]
				i, j = i+1, j+1
				if washed[cell] {
					continue
				}
				for _, c := range carriers {
					for _, v := range victims {
						if c.fluid == v.fluid || sameSeq && ordered && c.first >= v.last {
							continue
						}
						k := pairKey{c.fluid, v.fluid}
						rs, known := foreign[k]
						if !known {
							rs = subtract(reagents[c.fluid], reagents[v.fluid])
							foreign[k] = rs
						}
						if len(rs) == 0 {
							continue
						}
						agg := pairs[k]
						if agg == nil {
							agg = &pairAgg{cells: map[arch.Point]bool{}}
							agg.first = Hazard{
								Carrier: c.fluid, Victim: v.fluid, Reagents: rs,
								Cell: cell, CarrierScope: s1, VictimScope: s2,
							}
							pairs[k] = agg
						}
						agg.cells[cell] = true
						cc := carrierCells[s1]
						if cc == nil {
							cc = map[arch.Point]bool{}
							carrierCells[s1] = cc
						}
						cc[cell] = true
					}
				}
			}
		}
	}

	// Hazards sort by scope, then by the droplets' printed names (string
	// order, not FluidID.Compare: "s.10" sorts before "s.2"), each
	// formatted once rather than on every comparison.
	type keyed struct {
		h               *Hazard
		carrier, victim string
	}
	keys := make([]keyed, 0, len(pairs))
	for _, agg := range pairs {
		h := &agg.first
		h.Cells = len(agg.cells)
		keys = append(keys, keyed{h, h.Carrier.String(), h.Victim.String()})
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		return cmp.Or(strings.Compare(a.h.CarrierScope, b.h.CarrierScope),
			strings.Compare(a.carrier, b.carrier), strings.Compare(a.victim, b.victim))
	})
	var hazards []Hazard // nil when there are none
	if len(keys) > 0 {
		hazards = make([]Hazard, len(keys))
	}
	for i, k := range keys {
		hazards[i] = *k.h
	}
	return hazards, carrierCells
}

// reagentSets computes, for every fluid version in the graph, the set of
// reagent classes it can carry — a may-analysis fixpoint over def-use and φ
// relations.
func reagentSets(g *cfg.Graph) map[ir.FluidID]map[string]bool {
	sets := map[ir.FluidID]map[string]bool{}
	add := func(f ir.FluidID, rs map[string]bool) bool {
		s := sets[f]
		if s == nil {
			s = map[string]bool{}
			sets[f] = s
		}
		changed := false
		for r := range rs {
			if !s[r] {
				s[r] = true
				changed = true
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			for _, phi := range b.Phis {
				for _, src := range phi.Srcs {
					if add(phi.Dst, sets[src]) {
						changed = true
					}
				}
			}
			for _, in := range b.Instrs {
				switch in.Kind {
				case ir.Dispense:
					for _, res := range in.Results {
						if add(res, map[string]bool{in.FluidType: true}) {
							changed = true
						}
					}
				case ir.Mix, ir.Split, ir.Heat, ir.Sense, ir.Store:
					for _, res := range in.Results {
						for _, a := range in.Args {
							if add(res, sets[a]) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
	return sets
}

// reachability returns, per sequence, the set of sequences that can run
// after it (transitive closure over the execution-order graph; a node on a
// cycle reaches itself).
func reachability(nodes map[string]*seqNode) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for scope, n := range nodes {
		seen := map[string]bool{}
		stack := append([]*seqNode{}, n.succs...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur.scope] {
				continue
			}
			seen[cur.scope] = true
			stack = append(stack, cur.succs...)
		}
		out[scope] = seen
	}
	return out
}

// washedCells collects every cell covered by the configured wash tours.
func washedCells(tours []*wash.Tour) map[arch.Point]bool {
	washed := map[arch.Point]bool{}
	for _, t := range tours {
		if t == nil {
			continue
		}
		for _, p := range t.Path {
			washed[p] = true
		}
	}
	return washed
}

// subtract returns the sorted elements of a not in b.
func subtract(a, b map[string]bool) []string {
	var out []string
	for r := range a {
		if !b[r] {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

func sortedScopes(nodes map[string]*seqNode) []string {
	out := make([]string, 0, len(nodes))
	for s := range nodes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func sortedKeys2(m map[string]map[arch.Point]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
