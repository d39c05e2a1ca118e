package place

import (
	"strings"
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/lang"
	"biocoder/internal/sched"
)

// compileHomed runs the front half of the pipeline with boundary storage
// and homed placement.
func compileHomed(t *testing.T, chip *arch.Chip, rec func(bs *lang.BioSystem)) (*cfg.Graph, *sched.Result, *Placement, *Topology) {
	t.Helper()
	bs := lang.New()
	rec(bs)
	g, err := bs.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := cfg.ToSSI(g); err != nil {
		t.Fatalf("ToSSI: %v", err)
	}
	topo, err := BuildTopology(chip)
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	sr, err := sched.Schedule(g, sched.Config{
		Res: topo.Resources(), CyclePeriod: chip.CyclePeriod, BoundaryStorage: true,
	})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	pl, err := Place(g, sr, topo, Homed)
	if err != nil {
		t.Fatalf("homed placement: %v", err)
	}
	return g, sr, pl, topo
}

// Every exit location of a φ source must equal the entry location of the
// corresponding φ destination: that is exactly what makes Δ_E empty (§6.4.2).
func TestHomedPlacementAlignsBoundaries(t *testing.T) {
	g, _, pl, _ := compileHomed(t, arch.Default(), pcrProtocol)
	for _, b := range g.Blocks {
		for _, phi := range b.Phis {
			entry, ok := pl.EntryLoc(b, phi.Dst)
			if !ok {
				t.Fatalf("no entry loc for %s in %s", phi.Dst, b.Label)
			}
			for _, pred := range b.Preds {
				src := phi.Srcs[pred.ID]
				exit, ok := pl.ExitLoc(pred, src)
				if !ok {
					t.Fatalf("no exit loc for %s in %s", src, pred.Label)
				}
				if exit.Slot != entry.Slot {
					t.Errorf("edge %s->%s: droplet %s exits slot %d but %s enters slot %d (home mismatch)",
						pred.Label, b.Label, src, exit.Slot, phi.Dst, entry.Slot)
				}
			}
		}
	}
}

func TestHomedBoundaryStorageOnHomes(t *testing.T) {
	g, sr, pl, topo := compileHomed(t, arch.Default(), pcrProtocol)
	live := cfg.ComputeLiveness(g)
	_ = topo
	for _, b := range g.Blocks {
		phiDst := map[ir.FluidID]bool{}
		for _, phi := range b.Phis {
			phiDst[phi.Dst] = true
		}
		bp := pl.Blocks[b.ID]
		var homeSlots []int
		for it, asn := range bp.Assign {
			if !it.IsStorage() {
				continue
			}
			entry := it.Start == 0 && phiDst[it.Fluid]
			exit := it.End == sr.Blocks[b.ID].Length && live.Out[b.ID][it.Fluid]
			if entry || exit {
				homeSlots = append(homeSlots, asn.Slot)
			}
		}
		// All boundary storage of the single fluid `tube` must share
		// one slot within the block.
		for i := 1; i < len(homeSlots); i++ {
			if homeSlots[i] != homeSlots[0] {
				t.Errorf("block %s: boundary storage scattered over slots %v", b.Label, homeSlots)
			}
		}
	}
}

func TestHomedFailsWhenHomesExceedSlots(t *testing.T) {
	// Four cross-block fluids but only three plain slots on the default
	// chip: homing must fail (no off-chip spill, §6.6).
	rec := func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 8)
		cs := []*lang.Container{bs.NewContainer("a"), bs.NewContainer("b"), bs.NewContainer("c"), bs.NewContainer("d")}
		for _, c := range cs {
			bs.MeasureFluid(f, c)
		}
		bs.Weigh(cs[0], "w")
		bs.If("w", lang.LessThan, 0.5)
		bs.Vortex(cs[0], time.Second)
		bs.EndIf()
		for _, c := range cs {
			bs.Drain(c, "")
		}
	}
	bs := lang.New()
	rec(bs)
	g, err := bs.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.ToSSI(g); err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	// The homes are assigned when the placer is made, before any block is
	// scheduled: the scheduler's own capacity check would fail this
	// fixture first.
	_, err = NewBlockPlacer(Homed, g, topo)
	if err == nil || !strings.Contains(err.Error(), "home") {
		t.Errorf("want homes-exceed-slots error, got %v", err)
	}
}
