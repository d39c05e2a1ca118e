package depgraph_test

// The BF6xx corpus gate: the dependency analysis must come back clean on
// every bundled assay and script — BF601 re-proves every block's synthesis
// independence, BF602 reconciles every effect summary against symbolic
// replay (verify.ReplayMoves), BF603 re-proves fingerprint canonicalization
// — and block fingerprints must not collide across the whole corpus except
// between structurally identical blocks.
//
// The mutation tests then prove each code can actually fire: a seeded
// defect of the kind the code guards against must produce exactly that
// diagnostic.

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/depgraph"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
)

type corpusEntry struct {
	name string
	prog *biocoder.Compiled
}

func compileCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	var out []corpusEntry
	for _, a := range assays.All() {
		prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", a.Name, err)
		}
		out = append(out, corpusEntry{"assay:" + a.Name, prog})
	}
	scripts, err := filepath.Glob(filepath.Join("..", "assays", "scripts", "*.bio"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no bundled scripts found")
	}
	for _, path := range scripts {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := biocoder.ParseScript(string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		prog, err := biocoder.Compile(bs, biocoder.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", path, err)
		}
		out = append(out, corpusEntry{"script:" + filepath.Base(path), prog})
	}
	return out
}

func analyzeProg(t *testing.T, prog *biocoder.Compiled) *depgraph.Result {
	t.Helper()
	key, err := depgraph.KeyFor(biocoder.Version, prog.Chip, biocoder.Options{}.CanonicalText())
	if err != nil {
		t.Fatal(err)
	}
	res, err := depgraph.Analyze(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable},
		depgraph.Config{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorpusAnalysisClean(t *testing.T) {
	type fpOwner struct {
		where string
		nwet  int
		nphis int
	}
	seen := map[string]fpOwner{}
	for _, e := range compileCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			res := analyzeProg(t, e.prog)
			for _, d := range res.Report.Diags {
				t.Errorf("corpus must be BF6xx-clean: %s", d)
			}
			if len(res.Summaries) != len(e.prog.Graph.Blocks) {
				t.Fatalf("%d summaries for %d blocks", len(res.Summaries), len(e.prog.Graph.Blocks))
			}
			// The BF602 reconciliation must actually have run: the footprints
			// pass is recorded, and every block with compiled code and an OK
			// replay has a non-empty reconciled footprint.
			found := false
			for _, p := range res.Report.Passes {
				if p == "footprints" {
					found = true
				}
			}
			if !found {
				t.Fatal("footprint reconciliation pass did not run")
			}
			replays, _ := verify.ReplayMoves(&verify.Unit{Graph: e.prog.Graph, Exec: e.prog.Executable})
			okReplays := 0
			for i, b := range e.prog.Graph.Blocks {
				s := res.Summaries[i]
				if s.Block != b.ID {
					t.Fatalf("summary %d is for block %d, want %d", i, s.Block, b.ID)
				}
				rep := replays[b.ID]
				if rep == nil || !rep.OK {
					continue
				}
				okReplays++
				if bc := e.prog.Executable.Blocks[b.ID]; bc != nil && bc.Seq.NumCycles > 0 && len(s.Footprint) == 0 {
					t.Errorf("block %s has cycles but an empty reconciled footprint", b.Label)
				}
			}
			if okReplays == 0 {
				t.Error("no block replayed OK; the BF602 reconciliation was vacuous")
			}
			// Fingerprint distinctness across the corpus: a collision is only
			// acceptable between structurally identical blocks.
			wet := func(b *cfg.Block) int {
				n := 0
				for _, in := range b.Instrs {
					if in.Kind.IsWet() {
						n++
					}
				}
				return n
			}
			for i, b := range e.prog.Graph.Blocks {
				s := res.Summaries[i]
				if s.Fingerprint == "" {
					t.Fatalf("block %s has no fingerprint", b.Label)
				}
				owner, dup := seen[s.Fingerprint]
				me := fpOwner{e.name + "/" + b.Label, wet(b), len(b.Phis)}
				if !dup {
					seen[s.Fingerprint] = me
					continue
				}
				if owner.nwet != me.nwet || owner.nphis != me.nphis {
					t.Errorf("fingerprint collision between structurally different blocks: %s (%d wet, %d phis) vs %s (%d wet, %d phis)",
						owner.where, owner.nwet, owner.nphis, me.where, me.nwet, me.nphis)
				}
			}
			// DOT export smoke.
			dot := res.DOT(e.name)
			if len(dot) == 0 || dot[0] != 'd' {
				t.Error("DOT export is empty or malformed")
			}
		})
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct fingerprints across the corpus; generator looks degenerate", len(seen))
	}
}

// TestMutationBF601 hand-builds a two-block graph where the second block
// consumes a version defined only in the first — the inter-block dependency
// violation BF601 exists to catch.
func TestMutationBF601(t *testing.T) {
	leak := ir.FluidID{Name: "s", Ver: 1}
	b0 := &cfg.Block{ID: 0, Label: "b0", Instrs: []*ir.Instr{
		{ID: 1, Kind: ir.Dispense, FluidType: "S", Volume: 10, Results: []ir.FluidID{leak}},
	}}
	b1 := &cfg.Block{ID: 1, Label: "b1", Instrs: []*ir.Instr{
		{ID: 2, Kind: ir.Output, Args: []ir.FluidID{leak}},
	}}
	b0.Succs = []*cfg.Block{b1}
	b1.Preds = []*cfg.Block{b0}
	g := &cfg.Graph{Entry: b0, Exit: b1, Blocks: []*cfg.Block{b0, b1}}

	key, err := depgraph.NewKey("test-version", "chip", "opt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := depgraph.Analyze(&verify.Unit{Graph: g}, depgraph.Config{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Report.Diags {
		if d.Code == "BF601" {
			found = true
			if d.Pos.InstrID != 2 {
				t.Errorf("BF601 anchored to instr %d, want 2", d.Pos.InstrID)
			}
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !found {
		t.Fatal("cross-block use without a φ did not raise BF601")
	}
}

// TestMutationBF602 corrupts one compiled block's effect claims — a track
// cell the frames never actuate, on the chip and off it — and expects the
// replay reconciliation to flag exactly that divergence, and the footprint
// to list the claimed cell in row-major order.
func TestMutationBF602(t *testing.T) {
	for _, offChip := range []bool{false, true} {
		prog, err := biocoder.Compile(assays.ByName("PCR").Build(), biocoder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Find a block with a track and a chip cell outside its footprint.
		var victim *cfg.Block
		var spurious biocoder.Point
		for _, b := range prog.Graph.Blocks {
			bc := prog.Executable.Blocks[b.ID]
			if bc == nil || len(bc.Seq.Tracks) == 0 {
				continue
			}
			cells := map[biocoder.Point]bool{}
			for _, c := range depgraph.BlockFootprint(prog.Chip, bc) {
				cells[c] = true
			}
			for y := 0; y < prog.Chip.Rows && victim == nil; y++ {
				for x := 0; x < prog.Chip.Cols && victim == nil; x++ {
					p := biocoder.Point{X: x, Y: y}
					if !cells[p] {
						victim, spurious = b, p
					}
				}
			}
			if victim != nil {
				break
			}
		}
		if victim == nil {
			t.Fatal("no block admits a spurious footprint cell")
		}
		if offChip {
			spurious = biocoder.Point{X: prog.Chip.Cols, Y: 1}
		}
		bc := prog.Executable.Blocks[victim.ID]
		for _, tr := range bc.Seq.Tracks {
			tr.Stays = append(tr.Stays, codegen.Stay{Cell: spurious, Len: 1})
			break
		}
		res := analyzeProg(t, prog)
		found := false
		for _, d := range res.Report.Diags {
			if d.Code == "BF602" && d.Pos.HasCell && d.Pos.Cell == spurious {
				found = true
			}
		}
		if !found {
			t.Fatalf("spurious claimed cell %v did not raise BF602; diags: %v", spurious, res.Report.Diags)
		}
		fp := res.Summary(victim.ID).Footprint
		if !slices.Contains(fp, spurious) || !slices.IsSortedFunc(fp, biocoder.Point.Compare) {
			t.Errorf("footprint %v lacks %v or is not in row-major order", fp, spurious)
		}
	}
}

// TestMutationBF603 breaks canonicalization on purpose (the hasher is made
// to leak raw instruction IDs) and expects the stability self-check to
// notice on a real program.
func TestMutationBF603(t *testing.T) {
	prog, err := biocoder.Compile(assays.ByName("PCR").Build(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	depgraph.SetTestDestabilize(true)
	defer depgraph.SetTestDestabilize(false)
	res := analyzeProg(t, prog)
	found := false
	for _, d := range res.Report.Diags {
		if d.Code == "BF603" {
			found = true
		}
	}
	if !found {
		t.Fatal("a destabilized hasher did not raise BF603")
	}
}
