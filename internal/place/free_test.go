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

// compileFree runs the front half of the pipeline with the free placer's
// resource estimate.
func compileFree(t *testing.T, chip *arch.Chip, rec func(bs *lang.BioSystem)) (*cfg.Graph, *sched.Result, *Placement, *Topology) {
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
	sr, err := sched.Schedule(g, sched.Config{Res: FreeResources(topo), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	pl, err := Place(g, sr, topo, Free)
	if err != nil {
		t.Fatalf("free placement: %v", err)
	}
	return g, sr, pl, topo
}

func TestPlaceFreeConstraints(t *testing.T) {
	_, _, pl, topo := compileFree(t, arch.Default(), pcrProtocol)
	if err := pl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Footprints: storage 1x1, mixes 3x2, device ops on device rects,
	// never covering port cells.
	for _, bp := range pl.Blocks {
		for it, asn := range bp.Assign {
			if asn.Slot == -1 {
				continue // port
			}
			if asn.Slot != FreeSlot {
				t.Fatalf("non-free assignment %v for %v", asn, it)
			}
			for _, p := range topo.Chip.Ports {
				if asn.Rect.Contains(p.Cell) {
					t.Errorf("module %v covers port cell %v", asn.Rect, p.Cell)
				}
			}
			if it.IsStorage() && (asn.Rect.W != 1 || asn.Rect.H != 1) {
				t.Errorf("storage footprint %v, want 1x1", asn.Rect)
			}
			if !it.IsStorage() && it.Instr.Kind == ir.Heat && asn.Device == "" {
				t.Errorf("heat without device: %v", asn)
			}
		}
	}
}

func TestPlaceFreeDeviceContention(t *testing.T) {
	// Three concurrent heats on a chip with one heater must fail (the
	// scheduler only admits what FreeResources allows, so force the
	// situation directly through placeBlockFree).
	chip := arch.Small() // one heater
	topo, err := BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, name string) *sched.Item {
		return &sched.Item{
			Instr: &ir.Instr{
				ID: id, Kind: ir.Heat,
				Args:    []ir.FluidID{{Name: name, Ver: 1}},
				Results: []ir.FluidID{{Name: name, Ver: 2}},
				Temp:    95, Duration: time.Second,
			},
			Start: 0, End: 100,
		}
	}
	bs := &sched.BlockSchedule{
		Block: &cfg.Block{ID: 7, Label: "x"},
		Items: []*sched.Item{mk(1, "a"), mk(2, "b")},
	}
	_, err = placeBlockFree(bs, topo)
	if err == nil || !strings.Contains(err.Error(), "no idle") {
		t.Errorf("want device contention error, got %v", err)
	}
}

func TestPlaceFreeAreaExhaustion(t *testing.T) {
	// More concurrent 1x1 storages than a tiny chip can separate.
	chip := &arch.Chip{Cols: 7, Rows: 5, CyclePeriod: time.Millisecond,
		Ports: []arch.Port{
			{Name: "in", Kind: arch.Input, Side: arch.West, Cell: arch.Point{X: 0, Y: 2}},
			{Name: "out", Kind: arch.Output, Side: arch.East, Cell: arch.Point{X: 6, Y: 2}},
		}}
	topo, err := BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	var items []*sched.Item
	for i, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		_ = i
		items = append(items, &sched.Item{Fluid: ir.FluidID{Name: n, Ver: 1}, Start: 0, End: 100})
	}
	bs := &sched.BlockSchedule{Block: &cfg.Block{ID: 3, Label: "x"}, Items: items}
	_, err = placeBlockFree(bs, topo)
	if err == nil || !strings.Contains(err.Error(), "no legal") {
		t.Errorf("want area exhaustion error, got %v", err)
	}
}

func TestRectGap(t *testing.T) {
	r := func(x, y, w, h int) arch.Rect { return arch.Rect{X: x, Y: y, W: w, H: h} }
	cases := []struct {
		a, b arch.Rect
		want int
	}{
		{r(0, 0, 2, 2), r(3, 0, 2, 2), 1},
		{r(0, 0, 2, 2), r(2, 0, 2, 2), 0},
		{r(0, 0, 2, 2), r(0, 5, 2, 2), 3},
		{r(0, 0, 2, 2), r(1, 1, 2, 2), 0}, // overlap
		{r(0, 0, 1, 1), r(4, 4, 1, 1), 3},
	}
	for _, c := range cases {
		if got := rectGap(c.a, c.b); got != c.want {
			t.Errorf("rectGap(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := rectGap(c.b, c.a); got != c.want {
			t.Errorf("rectGap not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestFreeResourcesFaultsExcludeDevices(t *testing.T) {
	chip := arch.Default()
	topo, err := BuildTopologyFaulty(chip, []arch.Point{{X: 2, Y: 5}}) // inside heater1
	if err != nil {
		t.Fatal(err)
	}
	r := FreeResources(topo)
	if r.Heaters != 1 {
		t.Errorf("heaters = %d, want 1 (one heater faulted out)", r.Heaters)
	}
	if r.Sensors != 4 {
		t.Errorf("sensors = %d, want 4", r.Sensors)
	}
}

func TestPlaceFreeWithControlFlow(t *testing.T) {
	g, sr, pl, _ := compileFree(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 5)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "w")
		bs.If("w", lang.LessThan, 0.5)
		bs.StoreFor(c, 95, time.Second)
		bs.EndIf()
		bs.Drain(c, "")
	})
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	// Every block scheduled item has an assignment.
	for id, bp := range pl.Blocks {
		if len(bp.Assign) != len(sr.Blocks[id].Items) {
			t.Errorf("block %d: %d assignments for %d items", id, len(bp.Assign), len(sr.Blocks[id].Items))
		}
	}
	_ = g
}
