// Package depgraph is the static inter-block effect and dependency
// analysis of the compiler back end. Over a post-SSI control-flow graph it
// computes, per basic block, a canonical effect summary — the droplets
// transferred in (φ destinations) and out (live-out versions), the sensor
// variables read, the reservoir traffic, and, when an executable is
// available, the chip-cell footprint the block's activation sequence
// touches — plus a content-addressed fingerprint of the block's dependence
// DAG under the chip description, the synthesis options, and the compiler
// version (the serve cache's key discipline at block granularity).
//
// The analysis is the proof obligation behind parallel and incremental
// compilation: the paper's live-range splitting (§6.3.4) makes every block
// independently synthesizable exactly when its synthesis inputs are fully
// captured by its TRANSFER_IN set, the chip, and the options. depgraph
// re-proves that independence instead of assuming it, and reports
// violations through the verify diagnostic model:
//
//	BF601  inter-block dependency violation: a block consumes a fluid
//	       version with no in-block definition (neither a φ destination
//	       nor an earlier result), so its synthesis inputs are not
//	       captured by its transfer-in set
//	BF602  effect-summary divergence: the footprint the compiler's own
//	       Tracks/contracts claim for a block disagrees with the
//	       footprint reconstructed by symbolic replay of its frames
//	       (verify.ReplayMoves)
//	BF603  fingerprint instability: a semantically identical relabeling
//	       of a block (renamed SSI versions, reordered instruction list)
//	       hashes differently — canonicalization is broken, so memoized
//	       synthesis reuse would be unsound
//
// The same package carries the machinery the analysis powers: Memo, the
// per-block synthesis cache keyed on fingerprints (see memo.go), used by
// the compile pipeline in package biocoder and by the bfd serving daemon.
package depgraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/motion"
)

// Codes lists the diagnostic codes this package can emit.
func Codes() []string { return []string{"BF601", "BF602", "BF603"} }

// maxDiags caps the findings of one analysis, mirroring verify's cap.
const maxDiags = 2000

// Summary is the canonical effect summary of one basic block.
type Summary struct {
	Block int
	Label string
	// TransferIn are the droplet versions the block receives at entry (its
	// φ destinations); TransferOut the versions it must deliver to
	// successors (its live-out set). Both sorted canonically.
	TransferIn  []ir.FluidID
	TransferOut []ir.FluidID
	// SensorReads are the dry variables bound by Sense operations.
	SensorReads []string
	// ReservoirIn lists the reagents dispensed; ReservoirOut the output
	// ports used ("(any)" for unpinned outputs). Both sorted.
	ReservoirIn  []string
	ReservoirOut []string
	// Footprint is the set of chip cells the block's compiled code can
	// touch (claimed ∪ replayed, row-major), empty without an executable.
	// Fault-scoped recovery recompiles exactly the blocks whose footprints
	// intersect the accumulated fault set.
	Footprint []arch.Point
	// Fingerprint is the content-addressed synthesis key of the block
	// (see Fingerprint); blocks with equal fingerprints under equal Keys
	// synthesize identically.
	Fingerprint string
}

// Dep is one inter-block droplet dependency: the CFG edge From → To with
// the droplet versions it transfers (the φ destinations To receives from
// From; empty for pure control edges).
type Dep struct {
	From, To  int
	FromLabel string
	ToLabel   string
	Droplets  []ir.FluidID
}

// BlockFootprint returns every cell of chip the compiled block can touch:
// activation frames, droplet tracks, entry/exit contract cells, and event
// cells, deduplicated in row-major order.
func BlockFootprint(chip *arch.Chip, bc *codegen.BlockCode) []arch.Point {
	set := newCellSet(chip)
	set.addBlock(bc)
	return set.union(nil, nil)
}

// cellSet is a set of cells of one chip, stamped on a grid of the chip's
// size; the off-chip cells a corrupt executable may name go into a list.
type cellSet struct {
	grid *motion.Grid
	off  []arch.Point // may repeat a cell
}

func newCellSet(chip *arch.Chip) *cellSet {
	return &cellSet{grid: motion.NewGrid(chip.Cols, chip.Rows)}
}

func (s *cellSet) add(p arch.Point) {
	if s.grid.In(p) {
		s.grid.Add(p)
	} else {
		s.off = append(s.off, p)
	}
}

func (s *cellSet) clear() {
	s.grid.Clear()
	s.off = s.off[:0]
}

// addBlock adds every cell the compiled block names (nil-safe).
func (s *cellSet) addBlock(bc *codegen.BlockCode) {
	if bc == nil {
		return
	}
	if seq := bc.Seq; seq != nil {
		for _, r := range seq.Runs {
			for _, c := range r.Frame {
				s.add(c)
			}
		}
		for _, tr := range seq.Tracks {
			for _, st := range tr.Stays {
				s.add(st.Cell)
			}
		}
		for _, ev := range seq.Events {
			for _, c := range ev.Cells {
				s.add(c)
			}
		}
	}
	for _, p := range bc.Entry {
		s.add(p)
	}
	for _, p := range bc.Exit {
		s.add(p)
	}
}

// union returns the cells of s and of o (nil: none) in row-major order,
// read off the grids, and passes each to visit (when non-nil) with its
// membership of both sets.
func (s *cellSet) union(o *cellSet, visit func(c arch.Point, inS, inO bool)) []arch.Point {
	has := func(set *cellSet, c arch.Point) bool {
		return set != nil && (set.grid.Has(c) || slices.Contains(set.off, c))
	}
	var out []arch.Point
	at := func(c arch.Point) {
		inS, inO := has(s, c), has(o, c)
		if !inS && !inO {
			return
		}
		out = append(out, c)
		if visit != nil {
			visit(c, inS, inO)
		}
	}
	for i := range s.grid.Cells() {
		at(s.grid.Point(i))
	}
	off := slices.Clone(s.off)
	if o != nil {
		off = append(off, o.off...)
	}
	if len(off) > 0 {
		slices.SortFunc(off, arch.Point.Compare)
		for _, c := range slices.Compact(off) {
			at(c)
		}
		slices.SortFunc(out, arch.Point.Compare)
	}
	return out
}

// DOT renders the block dependency graph in Graphviz dot syntax: one node
// per block (label, fingerprint prefix, transfer/footprint counts), one
// edge per CFG edge labeled with its transferred droplet count.
func (r *Result) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, s := range r.Summaries {
		fp := s.Fingerprint
		if len(fp) > 12 {
			fp = fp[:12]
		}
		fmt.Fprintf(&b, "  b%d [label=\"%s\\nfp %s\\nin %d out %d cells %d\"];\n",
			s.Block, s.Label, fp, len(s.TransferIn), len(s.TransferOut), len(s.Footprint))
	}
	for _, d := range r.Deps {
		if len(d.Droplets) > 0 {
			fmt.Fprintf(&b, "  b%d -> b%d [label=\"%d\"];\n", d.From, d.To, len(d.Droplets))
		} else {
			fmt.Fprintf(&b, "  b%d -> b%d [style=dashed];\n", d.From, d.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Summary returns the summary of block id, or nil.
func (r *Result) Summary(id int) *Summary {
	for _, s := range r.Summaries {
		if s.Block == id {
			return s
		}
	}
	return nil
}

// buildSummary computes the executable-independent part of a block's
// effect summary.
func buildSummary(b *cfg.Block, liveOut cfg.Set) *Summary {
	s := &Summary{Block: b.ID, Label: b.Label}
	for _, phi := range b.Phis {
		s.TransferIn = append(s.TransferIn, phi.Dst)
	}
	ir.SortFluids(s.TransferIn)
	s.TransferOut = liveOut.Sorted()
	for _, in := range b.Instrs {
		switch in.Kind {
		case ir.Sense:
			s.SensorReads = append(s.SensorReads, in.SensorVar)
		case ir.Dispense:
			s.ReservoirIn = append(s.ReservoirIn, in.FluidType)
		case ir.Output:
			port := in.Port
			if port == "" {
				port = "(any)"
			}
			s.ReservoirOut = append(s.ReservoirOut, port)
		}
	}
	sort.Strings(s.SensorReads)
	sort.Strings(s.ReservoirIn)
	sort.Strings(s.ReservoirOut)
	return s
}
