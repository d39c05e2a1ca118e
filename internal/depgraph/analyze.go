package depgraph

import (
	"context"
	"fmt"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
)

// Config parameterizes one analysis run.
type Config struct {
	// Key is the fingerprint key (NewKey/KeyFor) — required, because a
	// summary without a trustworthy fingerprint cannot power memoization.
	Key Key
	// Context, when non-nil, bounds the analysis (checked between blocks).
	Context context.Context
}

// Result is the outcome of one analysis: the per-block effect summaries
// (sorted by block ID), the inter-block dependency edges (CFG order), and
// the BF6xx findings as a verify.Report.
type Result struct {
	Summaries []*Summary
	Deps      []Dep
	Report    *verify.Report
}

// Analyze computes effect summaries, dependency edges and fingerprints for
// every block of the unit's post-SSI graph, and checks the three BF6xx
// proof obligations: block-local synthesis inputs (BF601), effect-summary
// agreement with symbolic replay (BF602, needs u.Exec), and fingerprint
// stability under relabeling (BF603). The unit must at least carry a
// graph; the executable parts are optional.
func Analyze(u *verify.Unit, conf Config) (*Result, error) {
	if conf.Key.IsZero() {
		return nil, fmt.Errorf("depgraph: Config.Key is required (build it with NewKey/KeyFor and biocoder.Version)")
	}
	if u == nil {
		return nil, fmt.Errorf("depgraph: nothing to analyze")
	}
	g := u.Graph
	if g == nil && u.Exec != nil {
		g = u.Exec.Graph
	}
	if g == nil {
		return nil, fmt.Errorf("depgraph: unit has no control-flow graph")
	}

	res := &Result{Report: &verify.Report{}}
	var diags []verify.Diag
	report := func(code string, pos verify.Pos, format string, args ...any) {
		if len(diags) >= maxDiags {
			return
		}
		diags = append(diags, verify.Diag{Code: code, Sev: verify.Error, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}

	phase := time.Now()
	mark := func(name string) {
		res.Report.Passes = append(res.Report.Passes, name)
		res.Report.PassTimes = append(res.Report.PassTimes, verify.PassTime{Name: name, Duration: time.Since(phase)})
		phase = time.Now()
	}

	live := cfg.ComputeLiveness(g)

	// Effect summaries + BF601 (block-local synthesis inputs).
	for _, b := range g.Blocks {
		if err := ctxErr(conf.Context); err != nil {
			return nil, fmt.Errorf("depgraph: %w", err)
		}
		s := buildSummary(b, live.Out[b.ID])
		res.Summaries = append(res.Summaries, s)
		checkLocality(b, report)
	}
	mark("summaries")

	// Dependency edges from the CFG (φ-derived transfer copies).
	for _, e := range g.Edges() {
		d := Dep{From: e.From.ID, To: e.To.ID, FromLabel: e.From.Label, ToLabel: e.To.Label}
		for _, cp := range cfg.EdgeCopies(e.From, e.To) {
			d.Droplets = append(d.Droplets, cp.Dst)
		}
		ir.SortFluids(d.Droplets)
		res.Deps = append(res.Deps, d)
	}
	mark("deps")

	// Fingerprints + BF603 (stability under relabeling).
	for i, b := range g.Blocks {
		if err := ctxErr(conf.Context); err != nil {
			return nil, fmt.Errorf("depgraph: %w", err)
		}
		liveOut := live.Out[b.ID]
		fp, err := Fingerprint(conf.Key, b, liveOut)
		if err != nil {
			return nil, err
		}
		res.Summaries[i].Fingerprint = fp
		checkStability(conf.Key, b, liveOut, fp, report)
	}
	mark("fingerprints")

	// Footprints + BF602 (effect summary vs symbolic replay).
	if u.Exec != nil {
		checkFootprints(u, res, report)
		mark("footprints")
	}

	res.Report.Merge(verify.NewReport(diags))
	return res, nil
}

// checkLocality reports BF601 for every fluid version a block consumes
// without an in-block definition: such a version is a synthesis input not
// captured by the block's transfer-in set (φ destinations), the chip, or
// the options — the block is not independently synthesizable.
func checkLocality(b *cfg.Block, report func(string, verify.Pos, string, ...any)) {
	defined := map[ir.FluidID]bool{}
	for _, phi := range b.Phis {
		defined[phi.Dst] = true
	}
	for _, in := range b.Instrs {
		for _, r := range in.Results {
			defined[r] = true
		}
	}
	for _, in := range b.Instrs {
		if !in.Kind.IsWet() {
			continue
		}
		for _, a := range in.Args {
			if !defined[a] {
				report("BF601", verify.Pos{Scope: "block " + b.Label, InstrID: in.ID, Cycle: -1},
					"%s consumes %s which is neither a φ destination nor defined in the block: the block's synthesis inputs are not captured by its transfer-in set", in, a)
			}
		}
	}
}

// checkStability re-fingerprints a semantically identical relabeling of
// the block — instruction list and φ list reversed, every SSI version and
// instruction ID shifted by a constant — and reports BF603 when the hash
// moves. Realistic edits shift versions and IDs exactly like this (the
// front end numbers both sequentially), so instability here means an
// edited assay would spuriously miss the synthesis memo, and — worse — that
// hash equality no longer tracks semantic equality.
func checkStability(k Key, b *cfg.Block, liveOut cfg.Set, fp string, report func(string, verify.Pos, string, ...any)) {
	const shift = 1 << 20
	relabel := func(f ir.FluidID) ir.FluidID { return ir.FluidID{Name: f.Name, Ver: f.Ver + shift} }
	clone := &cfg.Block{ID: b.ID, Label: b.Label}
	for i := len(b.Phis) - 1; i >= 0; i-- {
		clone.Phis = append(clone.Phis, cfg.Phi{Dst: relabel(b.Phis[i].Dst)})
	}
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		c := *in
		c.ID = in.ID + shift
		c.Args = relabelAll(in.Args, relabel)
		c.Results = relabelAll(in.Results, relabel)
		clone.Instrs = append(clone.Instrs, &c)
	}
	cloneOut := cfg.Set{}
	for f := range liveOut {
		cloneOut[relabel(f)] = true
	}
	fp2 := fingerprintWith(k, clone, cloneOut, newBlockHasher(clone))
	if fp2 != fp {
		report("BF603", verify.Pos{Scope: "block " + b.Label, InstrID: -1, Cycle: -1},
			"fingerprint unstable under canonicalization: relabeled block hashes %.12s, original %.12s — memoized synthesis reuse would be unsound", fp2, fp)
	}
}

func relabelAll(fs []ir.FluidID, f func(ir.FluidID) ir.FluidID) []ir.FluidID {
	out := make([]ir.FluidID, len(fs))
	for i, x := range fs {
		out[i] = f(x)
	}
	return out
}

// checkFootprints computes each block's chip footprint two independent
// ways — from the compiler's own claims (tracks, frames, entry/exit
// contracts, event cells) and from the symbolic replay of its frames
// (verify.ReplayMoves: start positions, frame-driven moves, end
// positions, event cells) — stores the union in the summary, and reports
// BF602 for every cell where the two accounts diverge.
func checkFootprints(u *verify.Unit, res *Result, report func(string, verify.Pos, string, ...any)) {
	replayBlocks, _ := verify.ReplayMoves(u)
	chip := u.Chip
	if chip == nil {
		chip = u.Exec.Topo.Chip // as the replay above takes it
	}
	claimed, replayed := newCellSet(chip), newCellSet(chip)
	for _, s := range res.Summaries {
		bc := u.Exec.Blocks[s.Block]
		if bc == nil {
			continue // BF110 territory
		}
		claimed.clear()
		claimed.addBlock(bc)
		rep := replayBlocks[s.Block]
		if rep == nil || !rep.OK {
			// An aborted replay has no trustworthy footprint to reconcile
			// against; the BF1xx passes own that failure.
			s.Footprint = claimed.union(nil, nil)
			continue
		}
		replayed.clear()
		for _, d := range rep.Start {
			replayed.add(d.At)
		}
		for _, mv := range rep.Moves {
			replayed.add(mv.From)
			replayed.add(mv.To)
		}
		for _, d := range rep.End {
			replayed.add(d.At)
		}
		if bc.Seq != nil {
			for _, ev := range bc.Seq.Events {
				for _, c := range ev.Cells {
					replayed.add(c)
				}
			}
		}
		scope := "block " + s.Label
		s.Footprint = claimed.union(replayed, func(c arch.Point, isClaimed, isReplayed bool) {
			pos := verify.Pos{Scope: scope, InstrID: -1, Cycle: -1, Cell: c, HasCell: true}
			if !isReplayed {
				report("BF602", pos, "effect summary claims cell %v which the symbolic replay of the block's frames never touches", c)
			}
			if !isClaimed {
				report("BF602", pos, "symbolic replay touches cell %v which the block's effect summary does not claim", c)
			}
		})
	}
}

// ctxErr reports the context's cancellation state; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
