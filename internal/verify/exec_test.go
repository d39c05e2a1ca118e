// Negative tests for the executable pass family. A known-good activation
// sequence is hand-built on the small 9x9 chip — two dispenses routed to a
// merge, a split, and two outputs — then each test applies one surgical
// mutation (the kind of corruption a buggy backend or a bit-flipped file
// would produce) and asserts the symbolic replay reports it under the
// documented code.
package verify_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/place"
	"biocoder/internal/verify"
)

func pt(x, y int) arch.Point { return arch.Point{X: x, Y: y} }

// handExec builds a complete, verifiably clean executable by hand:
//
//	cycle 0      dispense a at in1 (0,2), b at in2 (0,6)
//	cycles 0-6   route a to (4,4) and b to (4,5)
//	cycle 7      merge a+b -> m at (4,4)
//	cycle 8      split m -> s0 (3,4), s1 (5,4)
//	cycles 9-11  route s1 to out1 (8,4); output at cycle 12
//	cycles 12-16 route s0 to out1; output at cycle 17 (= NumCycles)
//
// Frames are exactly the end-of-cycle droplet positions, so the replay can
// reconstruct every movement unambiguously.
func handExec(t *testing.T) (*codegen.Executable, *codegen.BlockCode) {
	t.Helper()
	chip := arch.Small()
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}

	g := cfg.New()
	b1 := g.NewBlock("b1")
	b1.Instrs = []*ir.Instr{
		{ID: 0, Kind: ir.Dispense, Results: []ir.FluidID{fl("a")}, FluidType: "water", Volume: 1, Port: "in1"},
		{ID: 1, Kind: ir.Dispense, Results: []ir.FluidID{fl("b")}, FluidType: "buffer", Volume: 1, Port: "in2"},
		{ID: 2, Kind: ir.Mix, Args: []ir.FluidID{fl("a"), fl("b")}, Results: []ir.FluidID{fl("m")}, Duration: time.Second},
		{ID: 3, Kind: ir.Split, Args: []ir.FluidID{fl("m")}, Results: []ir.FluidID{fl("s0"), fl("s1")}},
		{ID: 4, Kind: ir.Output, Args: []ir.FluidID{fl("s1")}, Port: "out1"},
		{ID: 5, Kind: ir.Output, Args: []ir.FluidID{fl("s0")}, Port: "out1"},
	}
	g.AddEdge(g.Entry, b1)
	g.AddEdge(b1, g.Exit)

	const numCycles = 17
	frames := make([]codegen.Frame, numCycles)
	walk := func(start int, path ...arch.Point) {
		for i, p := range path {
			frames[start+i] = append(frames[start+i], p)
		}
	}
	hold := func(from, to int, p arch.Point) {
		for t := from; t <= to; t++ {
			frames[t] = append(frames[t], p)
		}
	}
	// a: in1 east along row 2, then down to the merge cell.
	walk(0, pt(0, 2), pt(1, 2), pt(2, 2), pt(3, 2), pt(4, 2), pt(4, 3), pt(4, 4))
	// b: in2 east along row 6, then up next to the merge cell.
	walk(0, pt(0, 6), pt(1, 6), pt(2, 6), pt(3, 6), pt(4, 6), pt(4, 5))
	hold(6, 6, pt(4, 5))
	// m: merged at (4,4), held one cycle before the split.
	hold(7, 7, pt(4, 4))
	// s1: born at (5,4), straight east to the output port.
	walk(8, pt(5, 4), pt(6, 4), pt(7, 4), pt(8, 4))
	// s0: parked at (3,4) until s1 is off-chip, then east to the port.
	hold(8, 11, pt(3, 4))
	walk(12, pt(4, 4), pt(5, 4), pt(6, 4), pt(7, 4), pt(8, 4))

	runs := make([]codegen.Run, numCycles)
	for i, f := range frames {
		runs[i] = codegen.Run{Frame: f, Len: 1}
	}
	seq := &codegen.Sequence{
		NumCycles: numCycles,
		Runs:      runs,
		Events: []codegen.Event{
			{Cycle: 0, Kind: codegen.EvDispense, InstrID: 0, Results: []ir.FluidID{fl("a")},
				Cells: []arch.Point{pt(0, 2)}, Port: "in1", Fluid: "water", Volume: 1},
			{Cycle: 0, Kind: codegen.EvDispense, InstrID: 1, Results: []ir.FluidID{fl("b")},
				Cells: []arch.Point{pt(0, 6)}, Port: "in2", Fluid: "buffer", Volume: 1},
			{Cycle: 7, Kind: codegen.EvMerge, InstrID: 2, Inputs: []ir.FluidID{fl("a"), fl("b")},
				Results: []ir.FluidID{fl("m")}, Cells: []arch.Point{pt(4, 4)}},
			{Cycle: 8, Kind: codegen.EvSplit, InstrID: 3, Inputs: []ir.FluidID{fl("m")},
				Results: []ir.FluidID{fl("s0"), fl("s1")}, Cells: []arch.Point{pt(3, 4), pt(5, 4)}},
			{Cycle: 12, Kind: codegen.EvOutput, InstrID: 4, Inputs: []ir.FluidID{fl("s1")},
				Cells: []arch.Point{pt(8, 4)}, Port: "out1"},
			{Cycle: 17, Kind: codegen.EvOutput, InstrID: 5, Inputs: []ir.FluidID{fl("s0")},
				Cells: []arch.Point{pt(8, 4)}, Port: "out1"},
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}

	emptyCode := func(b *cfg.Block) *codegen.BlockCode {
		return &codegen.BlockCode{
			Block: b,
			Seq:   &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}},
			Entry: map[ir.FluidID]arch.Point{},
			Exit:  map[ir.FluidID]arch.Point{},
		}
	}
	bc := &codegen.BlockCode{
		Block: b1,
		Seq:   seq,
		Entry: map[ir.FluidID]arch.Point{},
		Exit:  map[ir.FluidID]arch.Point{},
	}
	ex := &codegen.Executable{
		Graph:  g,
		Topo:   topo,
		Blocks: map[int]*codegen.BlockCode{g.Entry.ID: emptyCode(g.Entry), g.Exit.ID: emptyCode(g.Exit), b1.ID: bc},
		Edges:  map[[2]int]*codegen.EdgeCode{},
	}
	for _, e := range g.Edges() {
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = &codegen.EdgeCode{
			From: e.From, To: e.To,
			Seq: &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}},
		}
	}
	return ex, bc
}

func execReport(t *testing.T, ex *codegen.Executable) *verify.Report {
	t.Helper()
	return verify.Run(&verify.Unit{Exec: ex})
}

func TestHandExecutableVerifiesClean(t *testing.T) {
	ex, _ := handExec(t)
	rep := execReport(t, ex)
	if len(rep.Diags) != 0 {
		t.Fatalf("hand-built executable not clean:\n%s", rep)
	}
	// The replay must have exercised both families.
	if len(rep.Passes) <= len(verify.IRPasses()) {
		t.Fatalf("executable passes did not run: %v", rep.Passes)
	}
}

func TestBF101FrameCountMismatch(t *testing.T) {
	ex, bc := handExec(t)
	bc.Seq.Runs = bc.Seq.Runs[:len(bc.Seq.Runs)-1] // one cycle short
	wantCode(t, execReport(t, ex), "BF101")
}

func TestBF102DropletsAdjacent(t *testing.T) {
	// Park s1 on the output port for four extra cycles instead of
	// outputting it: s0's approach then comes within one electrode of it.
	ex, bc := handExec(t)
	for tc := 12; tc <= 15; tc++ {
		bc.Seq.Runs[tc].Frame = append(bc.Seq.Runs[tc].Frame, pt(8, 4))
	}
	for i := range bc.Seq.Events {
		ev := &bc.Seq.Events[i]
		if ev.Kind == codegen.EvOutput && ev.Inputs[0] == fl("s1") {
			ev.Cycle = 16
		}
	}
	rep := execReport(t, ex)
	wantCode(t, rep, "BF102")
	if len(rep.Diags) != 1 {
		t.Errorf("want exactly the fluidic-constraint violation, got:\n%s", rep)
	}
}

func TestBF103OffChipActuation(t *testing.T) {
	ex, bc := handExec(t)
	bc.Seq.Runs[3].Frame = append(bc.Seq.Runs[3].Frame, pt(9, 4)) // beyond the 9x9 array
	wantCode(t, execReport(t, ex), "BF103")
}

func TestBF103DefectiveElectrode(t *testing.T) {
	ex, _ := handExec(t)
	// Re-derive the topology with the merge cell marked stuck-off: the
	// unchanged frames now actuate a defective electrode.
	topo, err := place.BuildTopologyFaulty(arch.Small(), []arch.Point{pt(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	ex.Topo = topo
	wantCode(t, execReport(t, ex), "BF103")
}

// A hand-built unit may name a chip no validated chip can be; the replay
// refuses it (BF103) rather than size its grid by it.
func TestBF103OversizedChip(t *testing.T) {
	ex, _ := handExec(t)
	chip := *arch.Small()
	chip.Cols, chip.Rows = 300, 300
	rep := verify.Run(&verify.Unit{Exec: ex, Chip: &chip})
	for _, d := range rep.ByCode("BF103") {
		if strings.Contains(d.Msg, "more than 65536 electrodes") {
			return
		}
	}
	t.Errorf("want a BF103 for the 300x300 array, got:\n%s", rep)
}

func TestBF104WrongPort(t *testing.T) {
	ex, bc := handExec(t)
	bc.Seq.Events[0].Port = "out1" // dispense from an output port
	wantCode(t, execReport(t, ex), "BF104")
}

func TestBF105SenseOffSensor(t *testing.T) {
	// Sense the merged droplet at (4,4), nowhere near sensor1's (2,2).
	ex, bc := handExec(t)
	sense := codegen.Event{Cycle: 8, Kind: codegen.EvSense, InstrID: -1,
		Inputs: []ir.FluidID{fl("m")}, SensorVar: "v", Device: "sensor1"}
	evs := bc.Seq.Events
	bc.Seq.Events = append(evs[:3:3], append([]codegen.Event{sense}, evs[3:]...)...)
	wantCode(t, execReport(t, ex), "BF105")
}

func TestBF106DroppedTransfer(t *testing.T) {
	// Compile a real two-block program, then strip the rename events off
	// the inter-block edge: the successor's entry contract goes unmet.
	g := cfg.New()
	b1 := g.NewBlock("b1")
	b1.Instrs = []*ir.Instr{
		{ID: 0, Kind: ir.Dispense, Results: []ir.FluidID{fl("a")}, FluidType: "water", Volume: 1},
		{ID: 1, Kind: ir.Dispense, Results: []ir.FluidID{fl("b")}, FluidType: "buffer", Volume: 1},
		{ID: 2, Kind: ir.Mix, Args: []ir.FluidID{fl("a"), fl("b")}, Results: []ir.FluidID{fl("m")}, Duration: time.Second},
	}
	b2 := g.NewBlock("b2")
	b2.Instrs = []*ir.Instr{{ID: 3, Kind: ir.Output, Args: []ir.FluidID{fl("m")}}}
	g.AddEdge(g.Entry, b1)
	g.AddEdge(b1, b2)
	g.AddEdge(b2, g.Exit)
	prog, err := biocoder.CompileGraph(g, arch.Small())
	if err != nil {
		t.Fatal(err)
	}
	unit := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Placement: prog.Placement}
	if rep := verify.Run(unit); len(rep.Diags) != 0 {
		t.Fatalf("compiled program not clean before mutation:\n%s", rep)
	}
	ec := prog.Executable.Edge(b1, b2)
	if ec == nil || len(ec.Copies) == 0 {
		t.Fatal("edge b1->b2 carries no transfer to drop")
	}
	kept := ec.Seq.Events[:0]
	for _, ev := range ec.Seq.Events {
		if ev.Kind != codegen.EvRename {
			kept = append(kept, ev)
		}
	}
	if len(kept) == len(ec.Seq.Events) {
		t.Fatal("edge b1->b2 carries no rename events to drop")
	}
	ec.Seq.Events = kept
	wantCode(t, verify.Run(unit), "BF106")
}

func TestBF107StrandedDroplet(t *testing.T) {
	// Move b's cycle-1 electrode out of its reach: no active neighbor.
	ex, bc := handExec(t)
	for i, c := range bc.Seq.Runs[1].Frame {
		if c == pt(1, 6) {
			bc.Seq.Runs[1].Frame[i] = pt(3, 6)
		}
	}
	wantCode(t, execReport(t, ex), "BF107")
}

func TestBF108SkewedSplit(t *testing.T) {
	// Shift the merge result one cell west: the split children no longer
	// flank their parent, so the division would skew the volumes.
	ex, bc := handExec(t)
	for i := range bc.Seq.Events {
		if bc.Seq.Events[i].Kind == codegen.EvMerge {
			bc.Seq.Events[i].Cells[0] = pt(3, 4)
		}
	}
	bc.Seq.Runs[7].Frame = codegen.Frame{pt(3, 4)}
	rep := execReport(t, ex)
	wantCode(t, rep, "BF108")
	if len(rep.Diags) != 1 {
		t.Errorf("want exactly the split-symmetry violation, got:\n%s", rep)
	}
}

func TestBF109MalformedEvent(t *testing.T) {
	ex, bc := handExec(t)
	for i := range bc.Seq.Events {
		if bc.Seq.Events[i].Kind == codegen.EvSplit {
			bc.Seq.Events[i].Cells = bc.Seq.Events[i].Cells[:1] // split wants 2 cells
		}
	}
	wantCode(t, execReport(t, ex), "BF109")
}

// A dispense of NaN or infinite volume is malformed. Decode refuses such
// volumes, but hand-built executables reach verify without it.
func TestBF109NonFiniteVolume(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		ex, bc := handExec(t)
		bc.Seq.Events[0].Volume = v
		wantCode(t, execReport(t, ex), "BF109")
	}
}

func TestBF110BrokenExitContract(t *testing.T) {
	ex, bc := handExec(t)
	bc.Exit[fl("ghost")] = pt(4, 4) // contract names a droplet replay never leaves
	wantCode(t, execReport(t, ex), "BF110")
}

func TestBF201PlacementCheckWrapped(t *testing.T) {
	// Compile a real program, then drag one module assignment off-chip:
	// the verifier surfaces place.Check's abort as a diagnostic.
	g := linearGraph(
		disp(0, "a", 1),
		disp(1, "b", 1),
		mix(2, "m", "a", "b"),
		outp(3, "m"),
	)
	prog, err := biocoder.CompileGraph(g, arch.Small())
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for _, bp := range prog.Placement.Blocks {
		for it := range bp.Assign {
			asn := bp.Assign[it]
			asn.Rect.X = -5
			bp.Assign[it] = asn
			mutated = true
			break
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("no placement assignment to mutate")
	}
	rep := verify.Run(&verify.Unit{Graph: prog.Graph, Placement: prog.Placement})
	wantCode(t, rep, "BF201")
}
