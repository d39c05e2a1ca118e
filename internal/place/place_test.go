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

func TestBuildTopologyDefaultChip(t *testing.T) {
	topo, err := BuildTopology(arch.Default())
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	if topo.ModW != 4 || topo.ModH != 3 {
		t.Errorf("module dims %dx%d, want 4x3", topo.ModW, topo.ModH)
	}
	if len(topo.Slots) != 9 {
		t.Fatalf("slots = %d, want 9 (3x3 grid)", len(topo.Slots))
	}
	res := topo.Resources()
	if res.Sensors != 4 {
		t.Errorf("sensor slots = %d, want 4", res.Sensors)
	}
	if res.Heaters != 2 {
		t.Errorf("heater slots = %d, want 2", res.Heaters)
	}
	if res.Slots != 3 {
		t.Errorf("plain slots = %d, want 3", res.Slots)
	}
	if res.Inputs != 10 || res.Outputs != 4 {
		t.Errorf("ports = %d/%d, want 10/4", res.Inputs, res.Outputs)
	}
	// Slots must be pairwise separated by at least one street cell and
	// fully on-chip with a perimeter ring free.
	for i, a := range topo.Slots {
		if a.Loc.X < 1 || a.Loc.Y < 1 ||
			a.Loc.X+a.Loc.W > topo.Chip.Cols-0 || a.Loc.Y+a.Loc.H > topo.Chip.Rows-0 {
			t.Errorf("slot %d at %v leaves no street margin", i, a.Loc)
		}
		for _, b := range topo.Slots[i+1:] {
			if a.Loc.Expand(1).Overlaps(b.Loc) {
				t.Errorf("slots %v and %v closer than one street cell", a.Loc, b.Loc)
			}
		}
	}
}

func TestBuildTopologySmallChip(t *testing.T) {
	topo, err := BuildTopology(arch.Small())
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	res := topo.Resources()
	if res.Sensors != 1 || res.Heaters != 1 {
		t.Errorf("small chip resources %+v, want 1 sensor + 1 heater slot", res)
	}
	if res.Slots < 1 {
		t.Errorf("small chip needs at least one plain slot, got %d", res.Slots)
	}
}

func TestBuildTopologyTooSmall(t *testing.T) {
	tiny := &arch.Chip{Cols: 2, Rows: 2, CyclePeriod: time.Millisecond}
	if _, err := BuildTopology(tiny); err == nil {
		t.Error("2x2 chip should not admit a topology")
	}
}

func TestStreets(t *testing.T) {
	topo, err := BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Streets(arch.Point{X: 0, Y: 0}) {
		t.Error("perimeter corner must be street")
	}
	if topo.Streets(arch.Point{X: 2, Y: 2}) {
		t.Error("slot interior must not be street")
	}
	if topo.Streets(arch.Point{X: -1, Y: 0}) {
		t.Error("off-chip is not street")
	}
	// Column x=5 is a vertical street between slot columns.
	for y := 0; y < topo.Chip.Rows; y++ {
		if !topo.Streets(arch.Point{X: 5, Y: y}) {
			t.Errorf("(5,%d) should be street", y)
		}
	}
}

// compile runs the front half of the pipeline for placement tests.
func compileFor(t *testing.T, chip *arch.Chip, rec func(bs *lang.BioSystem)) (*cfg.Graph, *sched.Result, *Topology) {
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
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return g, sr, topo
}

func pcrProtocol(bs *lang.BioSystem) {
	pcrMix := bs.NewFluid("PCRMasterMix", lang.Microliters(10))
	template := bs.NewFluid("Template", lang.Microliters(10))
	tube := bs.NewContainer("tube")
	bs.MeasureFluid(pcrMix, tube)
	bs.Vortex(tube, time.Second)
	bs.MeasureFluid(template, tube)
	bs.Vortex(tube, time.Second)
	bs.StoreFor(tube, 95, 45*time.Second)
	bs.Loop(3)
	bs.StoreFor(tube, 95, 20*time.Second)
	bs.Weigh(tube, "weightSensor")
	bs.If("weightSensor", lang.LessThan, 3.57)
	bs.MeasureFluid(pcrMix, tube)
	bs.StoreFor(tube, 95, 45*time.Second)
	bs.Vortex(tube, time.Second)
	bs.EndIf()
	bs.StoreFor(tube, 50, 30*time.Second)
	bs.StoreFor(tube, 68, 45*time.Second)
	bs.EndLoop()
	bs.StoreFor(tube, 68, 5*time.Minute)
	bs.Drain(tube, "PCR")
}

func TestPlacePCR(t *testing.T) {
	g, sr, topo := compileFor(t, arch.Default(), pcrProtocol)
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := pl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Every scheduled item got an assignment.
	for id, bp := range pl.Blocks {
		if len(bp.Assign) != len(sr.Blocks[id].Items) {
			t.Errorf("block %d: %d assignments for %d items", id, len(bp.Assign), len(sr.Blocks[id].Items))
		}
	}
}

func TestPlaceCapabilities(t *testing.T) {
	g, sr, topo := compileFor(t, arch.Default(), pcrProtocol)
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range pl.Blocks {
		for it, asn := range bp.Assign {
			if it.IsStorage() {
				if topo.Slots[asn.Slot].Kind != Plain {
					t.Errorf("storage %v on %v slot", it, topo.Slots[asn.Slot].Kind)
				}
				continue
			}
			switch it.Instr.Kind {
			case ir.Sense:
				if topo.Slots[asn.Slot].Kind != SensorSlot {
					t.Errorf("sense %v not on sensor slot", it.Instr)
				}
			case ir.Heat:
				if topo.Slots[asn.Slot].Kind != HeaterSlot {
					t.Errorf("heat %v not on heater slot", it.Instr)
				}
			case ir.Dispense:
				if asn.Port == "" || asn.Slot != -1 {
					t.Errorf("dispense %v not at a port", it.Instr)
				}
			case ir.Output:
				if asn.Port == "" {
					t.Errorf("output %v not at a port", it.Instr)
				}
			}
		}
	}
}

// No slot may host two overlapping items.
func TestPlaceNoDoubleBooking(t *testing.T) {
	g, sr, topo := compileFor(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		a := bs.NewContainer("a")
		b := bs.NewContainer("b")
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, a)
		bs.MeasureFluid(f, b)
		bs.MeasureFluid(f, c)
		bs.Vortex(a, 10*time.Second)
		bs.Vortex(b, 10*time.Second)
		bs.Vortex(c, 10*time.Second)
		bs.Drain(a, "")
		bs.Drain(b, "")
		bs.Drain(c, "")
	})
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range pl.Blocks {
		type span struct {
			s, e int
			item *sched.Item
		}
		bySlot := map[int][]span{}
		for it, asn := range bp.Assign {
			if asn.Slot >= 0 {
				bySlot[asn.Slot] = append(bySlot[asn.Slot], span{it.Start, it.End, it})
			}
		}
		for slot, spans := range bySlot {
			for i := range spans {
				for j := i + 1; j < len(spans); j++ {
					a, b := spans[i], spans[j]
					if a.s < b.e && b.s < a.e {
						t.Errorf("slot %d double-booked: %v and %v", slot, a.item, b.item)
					}
				}
			}
		}
	}
}

func TestPlacePrefersStayingPut(t *testing.T) {
	// A droplet heated then heated again should stay on the same heater;
	// a stored droplet consumed by a mix should be mixed in its slot.
	g, sr, topo := compileFor(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		a := bs.NewContainer("a")
		bs.MeasureFluid(f, a)
		bs.StoreFor(a, 95, 10*time.Second)
		bs.StoreFor(a, 60, 10*time.Second)
		bs.Drain(a, "")
	})
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range pl.Blocks {
		var heats []Assignment
		for it, asn := range bp.Assign {
			if !it.IsStorage() && it.Instr.Kind == ir.Heat {
				heats = append(heats, asn)
			}
		}
		if len(heats) == 2 && heats[0].Slot != heats[1].Slot {
			t.Errorf("consecutive heats moved between heaters %d and %d", heats[0].Slot, heats[1].Slot)
		}
	}
}

func TestEntryAndExitLocs(t *testing.T) {
	g, sr, topo := compileFor(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		a := bs.NewContainer("a")
		bs.MeasureFluid(f, a)
		bs.Weigh(a, "w")
		bs.If("w", lang.LessThan, 0.5)
		bs.Vortex(a, time.Second)
		bs.EndIf()
		bs.Drain(a, "")
	})
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		for _, phi := range b.Phis {
			if _, ok := pl.EntryLoc(b, phi.Dst); !ok {
				t.Errorf("no entry location for φ dest %s in block %s", phi.Dst, b.Label)
			}
			for _, pred := range b.Preds {
				src := phi.Srcs[pred.ID]
				if _, ok := pl.ExitLoc(pred, src); !ok {
					t.Errorf("no exit location for φ source %s in block %s", src, pred.Label)
				}
			}
		}
	}
}

func TestDispenseUsesBoundPort(t *testing.T) {
	chip := arch.Default()
	chip.Ports[0].Fluid = "Reagent" // bind inW1 to the fluid
	g, sr, topo := compileFor(t, chip, func(bs *lang.BioSystem) {
		f := bs.NewFluid("Reagent", 5)
		a := bs.NewContainer("a")
		bs.MeasureFluid(f, a)
		bs.Drain(a, "")
	})
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, bp := range pl.Blocks {
		for it, asn := range bp.Assign {
			if !it.IsStorage() && it.Instr.Kind == ir.Dispense {
				found = true
				if asn.Port != "inW1" {
					t.Errorf("dispense bound to %q, want inW1", asn.Port)
				}
			}
		}
	}
	if !found {
		t.Fatal("no dispense placed")
	}
}

func TestNamedOutputPort(t *testing.T) {
	g, sr, topo := compileFor(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		a := bs.NewContainer("a")
		bs.MeasureFluid(f, a)
		bs.Drain(a, "outE3")
	})
	pl, err := Place(g, sr, topo, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range pl.Blocks {
		for it, asn := range bp.Assign {
			if !it.IsStorage() && it.Instr.Kind == ir.Output {
				if asn.Port != "outE3" {
					t.Errorf("output bound to %q, want outE3", asn.Port)
				}
			}
		}
	}
}

func TestPlaceErrorsWithoutSchedule(t *testing.T) {
	g := cfg.New()
	g.AddEdge(g.Entry, g.Exit)
	topo, err := BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Place(g, &sched.Result{Blocks: map[int]*sched.BlockSchedule{}}, topo, Virtual)
	if err == nil || !strings.Contains(err.Error(), "no schedule") {
		t.Errorf("want missing-schedule error, got %v", err)
	}
}
