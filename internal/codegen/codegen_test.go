package codegen

import (
	"slices"
	"strings"
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/lang"
	"biocoder/internal/place"
	"biocoder/internal/sched"
)

// compile runs the full back end for tests.
func compile(t *testing.T, chip *arch.Chip, rec func(bs *lang.BioSystem)) (*cfg.Graph, *Executable) {
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
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatalf("BuildTopology: %v", err)
	}
	sr, err := sched.Schedule(g, sched.Config{Res: topo.Resources(), CyclePeriod: chip.CyclePeriod})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	pl, err := place.Place(g, sr, topo, place.Virtual)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	ex, err := Generate(g, sr, pl, topo)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g, ex
}

func singleBlockAssay(bs *lang.BioSystem) {
	a := bs.NewFluid("Sample", lang.Microliters(10))
	b := bs.NewFluid("Reagent", lang.Microliters(10))
	c := bs.NewContainer("c")
	bs.MeasureFluid(a, c)
	bs.MeasureFluid(b, c) // dispense + merge
	bs.Vortex(c, 2*time.Second)
	bs.Drain(c, "")
}

func TestGenerateSingleBlock(t *testing.T) {
	g, ex := compile(t, arch.Default(), singleBlockAssay)
	if err := ex.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Entry and exit blocks compile to empty sequences (§4).
	if !ex.Blocks[g.Entry.ID].Seq.Empty() || !ex.Blocks[g.Exit.ID].Seq.Empty() {
		t.Error("entry/exit sequences must be empty")
	}
	// The working block must contain dispense, merge, rename and output
	// events and a non-trivial number of frames.
	var work *BlockCode
	for _, bc := range ex.Blocks {
		if bc.Seq.NumCycles > 0 {
			work = bc
		}
	}
	if work == nil {
		t.Fatal("no working block")
	}
	kinds := map[EventKind]int{}
	for _, ev := range work.Seq.Events {
		kinds[ev.Kind]++
	}
	if kinds[EvDispense] != 2 {
		t.Errorf("dispense events = %d, want 2", kinds[EvDispense])
	}
	if kinds[EvMerge] != 1 {
		t.Errorf("merge events = %d, want 1", kinds[EvMerge])
	}
	if kinds[EvOutput] != 1 {
		t.Errorf("output events = %d, want 1", kinds[EvOutput])
	}
	// 2s vortex = 200 cycles plus dispense latency and routing overhead.
	if work.Seq.NumCycles < 300 {
		t.Errorf("sequence suspiciously short: %d cycles", work.Seq.NumCycles)
	}
}

func TestGenerateConservation(t *testing.T) {
	_, ex := compile(t, arch.Default(), singleBlockAssay)
	for _, bc := range ex.Blocks {
		// Count droplets through events: dispenses create, outputs
		// destroy, merges net -(n-1), splits net +1, renames net 0.
		net := 0
		for _, ev := range bc.Seq.Events {
			switch ev.Kind {
			case EvDispense:
				net++
			case EvOutput:
				net--
			case EvMerge:
				net -= len(ev.Inputs) - 1
			case EvSplit:
				net++
			}
		}
		// Conservation: droplets entering (φ) + net == droplets leaving.
		if len(bc.Entry)+net != len(bc.Exit) {
			t.Errorf("block %s: %d in + %d net != %d out",
				bc.Block.Label, len(bc.Entry), net, len(bc.Exit))
		}
	}
}

func TestGenerateControlFlow(t *testing.T) {
	g, ex := compile(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "w")
		bs.If("w", lang.LessThan, 0.5)
		bs.StoreFor(c, 95, 5*time.Second)
		bs.Else()
		bs.Vortex(c, 5*time.Second)
		bs.EndIf()
		bs.Drain(c, "")
	})
	if err := ex.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Every CFG edge has compiled code.
	for _, e := range g.Edges() {
		if ex.Edge(e.From, e.To) == nil {
			t.Errorf("edge %s->%s has no code", e.From.Label, e.To.Label)
		}
	}
	// Edges into blocks with φs must carry renames for every copy.
	for _, e := range g.Edges() {
		ec := ex.Edge(e.From, e.To)
		copies := cfg.EdgeCopies(e.From, e.To)
		renames := 0
		for _, ev := range ec.Seq.Events {
			if ev.Kind == EvRename {
				renames++
			}
		}
		if renames != len(copies) {
			t.Errorf("edge %s->%s: %d renames for %d copies", e.From.Label, e.To.Label, renames, len(copies))
		}
	}
}

// Fig. 13(b) vs (c)/(d): an edge whose droplet is already in position gets
// an empty sequence; an edge requiring transport gets a non-empty one.
func TestEdgeTransportOnlyWhenNeeded(t *testing.T) {
	g, ex := compile(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "w")
		bs.If("w", lang.LessThan, 0.5)
		bs.StoreFor(c, 95, 5*time.Second) // heater: forces transport on this edge
		bs.EndIf()
		bs.Drain(c, "")
	})
	if err := ex.Check(); err != nil {
		t.Fatal(err)
	}
	empty, nonEmpty := 0, 0
	for _, e := range g.Edges() {
		ec := ex.Edge(e.From, e.To)
		if len(ec.Copies) == 0 {
			continue
		}
		if ec.Seq.Empty() {
			empty++
		} else {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("expected at least one edge requiring droplet transport (sensor->heater)")
	}
	if empty+nonEmpty == 0 {
		t.Error("expected edges with copies")
	}
}

func TestGenerateLoop(t *testing.T) {
	_, ex := compile(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Loop(3)
		bs.StoreFor(c, 95, 2*time.Second)
		bs.EndLoop()
		bs.Drain(c, "")
	})
	if err := ex.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestGenerateSplit(t *testing.T) {
	_, ex := compile(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		a := bs.NewContainer("a")
		b := bs.NewContainer("b")
		bs.MeasureFluid(f, a)
		bs.SplitInto(a, b)
		bs.Vortex(a, time.Second)
		bs.Drain(a, "")
		bs.Drain(b, "")
	})
	if err := ex.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	splits := 0
	for _, bc := range ex.Blocks {
		for _, ev := range bc.Seq.Events {
			if ev.Kind == EvSplit {
				splits++
				if len(ev.Results) != 2 || len(ev.Cells) != 2 {
					t.Errorf("split event malformed: %+v", ev)
				}
				if ev.Cells[0].Adjacent(ev.Cells[1]) {
					t.Errorf("split children adjacent: %v %v", ev.Cells[0], ev.Cells[1])
				}
			}
		}
	}
	if splits != 1 {
		t.Errorf("split events = %d, want 1", splits)
	}
}

func TestSenseEventCarriesDevice(t *testing.T) {
	_, ex := compile(t, arch.Default(), func(bs *lang.BioSystem) {
		f := bs.NewFluid("F", 10)
		c := bs.NewContainer("c")
		bs.MeasureFluid(f, c)
		bs.Weigh(c, "weightSensor")
		bs.Drain(c, "")
	})
	found := false
	for _, bc := range ex.Blocks {
		for _, ev := range bc.Seq.Events {
			if ev.Kind == EvSense {
				found = true
				if ev.SensorVar != "weightSensor" {
					t.Errorf("sensor var = %q", ev.SensorVar)
				}
				if ev.Device == "" {
					t.Error("sense event has no device")
				}
				if ev.InstrID < 0 {
					t.Error("sense event has no instruction ID")
				}
			}
		}
	}
	if !found {
		t.Fatal("no sense event generated")
	}
}

func TestFramesMatchTracks(t *testing.T) {
	_, ex := compile(t, arch.Default(), singleBlockAssay)
	for _, bc := range ex.Blocks {
		s := bc.Seq
		frames := denseFrames(s)
		for f, tr := range s.Tracks {
			for i, c := range denseCells(tr) {
				t0 := tr.Start + i
				if t0 >= s.NumCycles {
					continue
				}
				found := false
				for _, fc := range frames[t0] {
					if fc == c {
						found = true
					}
				}
				if !found {
					t.Fatalf("droplet %s at %v not actuated in frame %d", f, c, t0)
				}
			}
		}
	}
}

// Codegen keeps runs maximal: two adjacent runs differ in their frame or
// have an event at the cycle between them.
func TestRunsAreMaximal(t *testing.T) {
	_, ex := compile(t, arch.Default(), singleBlockAssay)
	for _, bc := range ex.Blocks {
		s := bc.Seq
		start := 0
		for i, r := range s.Runs {
			if i > 0 && slices.Equal(s.Runs[i-1].Frame, r.Frame) && !s.eventAt(start) {
				t.Errorf("block %s: runs %d and %d repeat one frame with no event at cycle %d", bc.Block.Label, i-1, i, start)
			}
			start += r.Len
		}
	}
}

// denseFrames expands a sequence's runs to one frame per cycle.
func denseFrames(s *Sequence) []Frame {
	var out []Frame
	for _, r := range s.Runs {
		for k := 0; k < r.Len; k++ {
			out = append(out, r.Frame)
		}
	}
	return out
}

// denseCells expands a track's stays to one cell per cycle.
func denseCells(tr *Track) []arch.Point {
	var out []arch.Point
	for _, st := range tr.Stays {
		for k := 0; k < st.Len; k++ {
			out = append(out, st.Cell)
		}
	}
	return out
}

func TestPCRFullPipeline(t *testing.T) {
	_, ex := compile(t, arch.Default(), func(bs *lang.BioSystem) {
		pcrMix := bs.NewFluid("PCRMasterMix", lang.Microliters(10))
		template := bs.NewFluid("Template", lang.Microliters(10))
		tube := bs.NewContainer("tube")
		bs.MeasureFluid(pcrMix, tube)
		bs.Vortex(tube, time.Second)
		bs.MeasureFluid(template, tube)
		bs.Vortex(tube, time.Second)
		bs.StoreFor(tube, 95, 45*time.Second)
		bs.Loop(2)
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
	})
	if err := ex.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestSequenceEmptyAndActiveCount(t *testing.T) {
	s := &Sequence{}
	if !s.Empty() {
		t.Error("zero sequence should be empty")
	}
	s2 := &Sequence{NumCycles: 4, Runs: []Run{{Frame{{X: 1, Y: 1}}, 3}, {Frame{{X: 1, Y: 2}, {X: 3, Y: 3}}, 1}}}
	if s2.ActiveCount() != 5 {
		t.Errorf("ActiveCount = %d, want 5", s2.ActiveCount())
	}
}

func TestSplitCellsGeometry(t *testing.T) {
	topo, err := place.BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	var plain int
	for _, s := range topo.Slots {
		if s.Kind == place.Plain {
			plain = s.Index
			break
		}
	}
	asn := place.Assignment{Slot: plain, Rect: topo.Slots[plain].Loc}
	cells, err := splitCellsOf(topo.Chip, asn)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Manhattan(cells[1]) != 2 {
		t.Errorf("split children distance = %d, want 2", cells[0].Manhattan(cells[1]))
	}
	anchor := anchorOf(topo.Chip, asn)
	if anchor.Manhattan(cells[0]) != 1 || anchor.Manhattan(cells[1]) != 1 {
		t.Errorf("split children not adjacent to anchor %v: %v", anchor, cells)
	}
}

func TestStagingCellsDistinct(t *testing.T) {
	topo, err := place.BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := stagingCellsOf(place.Assignment{Slot: 0, Rect: topo.Slots[0].Loc}, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[arch.Point]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Errorf("duplicate staging cell %v", c)
		}
		seen[c] = true
		if !topo.Slots[0].Loc.Contains(c) {
			t.Errorf("staging cell %v outside slot", c)
		}
	}
}

func TestAnchorsOnDevices(t *testing.T) {
	topo, err := place.BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range topo.Slots {
		a := anchorOf(topo.Chip, place.Assignment{Slot: s.Index, Rect: s.Loc, Device: s.Device})
		if !s.Loc.Contains(a) {
			t.Errorf("slot %d anchor %v outside slot %v", s.Index, a, s.Loc)
		}
		if s.Device != "" {
			d, _ := topo.Chip.Device(s.Device)
			if !d.Loc.Contains(a) {
				t.Errorf("slot %d anchor %v not on device %q at %v", s.Index, a, s.Device, d.Loc)
			}
		}
	}
}

var _ = ir.FluidID{} // keep the import if assertions above change

// handExecutable wraps one hand-built block sequence for Check.
func handExecutable(t *testing.T, s *Sequence) *Executable {
	t.Helper()
	topo, err := place.BuildTopology(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	b := &cfg.Block{ID: 2, Label: "hand"}
	return &Executable{Topo: topo, Blocks: map[int]*BlockCode{b.ID: {Block: b, Seq: s}}}
}

// holdSequence is one droplet held at (2,2) for n cycles, one run the
// way codegen emits a hold.
func holdSequence(n int) *Sequence {
	p := arch.Point{X: 2, Y: 2}
	return &Sequence{
		NumCycles: n,
		Runs:      []Run{{Frame{p}, n}},
		Tracks:    map[ir.FluidID]*Track{{Name: "a", Ver: 1}: {Stays: []Stay{{p, n}}}},
	}
}

// A hold cut into runs of equal frames still checks clean, and a frame
// that changes inside a hold fails at its own cycle.
func TestCheckFindsFrameChangeInsideHold(t *testing.T) {
	s := holdSequence(10)
	hold := s.Runs[0].Frame
	s.Runs = []Run{{hold, 4}, {Frame{{X: 2, Y: 2}}, 6}}
	if err := handExecutable(t, s).Check(); err != nil {
		t.Fatalf("hold cut in two rejected: %v", err)
	}
	s.Runs = []Run{{hold, 5}, {Frame{{X: 2, Y: 2}, {X: 9, Y: 9}}, 1}, {hold, 4}}
	err := handExecutable(t, s).Check()
	if err == nil || !strings.Contains(err.Error(), "cycle 5:") {
		t.Fatalf("Check error %v, want one at cycle 5", err)
	}
}

// Check tests droplet spacing where either droplet moves, not only where
// the two tracks start to overlap: b closes in on the held a, moving at
// cycles 2, 4 and 5, and becomes adjacent at cycle 5.
func TestCheckFindsAdjacencyAfterAMove(t *testing.T) {
	s := holdSequence(8)
	a := s.Runs[0].Frame[0]
	stays := []Stay{{arch.Point{X: 6, Y: 2}, 2}, {arch.Point{X: 5, Y: 2}, 2}, {arch.Point{X: 4, Y: 2}, 1}, {arch.Point{X: 3, Y: 2}, 3}}
	s.Tracks[ir.FluidID{Name: "b", Ver: 1}] = &Track{Stays: stays}
	s.Runs = nil
	for _, st := range stays {
		s.Runs = append(s.Runs, Run{Frame{a, st.Cell}, st.Len})
	}
	err := handExecutable(t, s).Check()
	if err == nil || !strings.Contains(err.Error(), "adjacent at cycle 5") {
		t.Fatalf("Check error %v, want adjacency at cycle 5", err)
	}
}

// Check rejects runs that do not cover the declared cycles exactly, and
// tracks of non-positive stays.
func TestCheckRejectsBadRuns(t *testing.T) {
	for name, mutate := range map[string]func(s *Sequence){
		"short":      func(s *Sequence) { s.Runs[0].Len-- },
		"long":       func(s *Sequence) { s.Runs = append(s.Runs, Run{s.Runs[0].Frame, 1}) },
		"empty run":  func(s *Sequence) { s.Runs = append(s.Runs, Run{s.Runs[0].Frame, 0}) },
		"empty stay": func(s *Sequence) { s.Tracks[ir.FluidID{Name: "a", Ver: 1}].Stays[0].Len = 0 },
	} {
		s := holdSequence(6)
		mutate(s)
		if err := handExecutable(t, s).Check(); err == nil {
			t.Errorf("%s: Check accepted a malformed sequence", name)
		}
	}
}
