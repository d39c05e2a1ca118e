// Mutation tests for the BF5xx family, in the style of the BF1xx suite: a
// known-good executable is built by hand on the small 9x9 chip — one
// droplet dispensed at in1 and routed east then south to out1 — and each
// test supplies one pin map engineered to provoke exactly one failure
// mode: an interference edge collapsed onto one pin (BF501), a broadcast
// closure that diverts or tears the droplet (BF502), and a closure that
// actuates a defective electrode (BF503).
package pinsafe_test

import (
	"context"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/pinsafe"
	"biocoder/internal/place"
	"biocoder/internal/verify"
)

func pt(x, y int) arch.Point    { return arch.Point{X: x, Y: y} }
func fl(name string) ir.FluidID { return ir.FluidID{Name: name} }

// routeExec hand-builds a clean single-block executable on arch.Small():
// droplet a dispensed at in1 (0,2) at cycle 0, routed east along row 2 to
// (8,2) by cycle 8, south to out1 (8,4) by cycle 10, output at cycle 11.
// Frames are the end-of-cycle droplet positions, so at cycle t in 1..8 the
// droplet moves from (t-1,2) to (t,2): co-driving (t-1,2) would hold it,
// and co-driving a passive neighbor of (t-1,2) would tear it.
func routeExec(t *testing.T) *codegen.Executable {
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
		{ID: 1, Kind: ir.Output, Args: []ir.FluidID{fl("a")}, Port: "out1"},
	}
	g.AddEdge(g.Entry, b1)
	g.AddEdge(b1, g.Exit)

	const numCycles = 11
	runs := make([]codegen.Run, numCycles)
	path := []arch.Point{
		pt(0, 2), pt(1, 2), pt(2, 2), pt(3, 2), pt(4, 2), pt(5, 2),
		pt(6, 2), pt(7, 2), pt(8, 2), pt(8, 3), pt(8, 4),
	}
	for i, c := range path {
		runs[i] = codegen.Run{Frame: codegen.Frame{c}, Len: 1}
	}
	seq := &codegen.Sequence{
		NumCycles: numCycles,
		Runs:      runs,
		Events: []codegen.Event{
			{Cycle: 0, Kind: codegen.EvDispense, InstrID: 0, Results: []ir.FluidID{fl("a")},
				Cells: []arch.Point{pt(0, 2)}, Port: "in1", Fluid: "water", Volume: 1},
			{Cycle: numCycles, Kind: codegen.EvOutput, InstrID: 1, Inputs: []ir.FluidID{fl("a")},
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
	ex := &codegen.Executable{
		Graph: g,
		Topo:  topo,
		Blocks: map[int]*codegen.BlockCode{
			g.Entry.ID: emptyCode(g.Entry),
			g.Exit.ID:  emptyCode(g.Exit),
			b1.ID: {
				Block: b1,
				Seq:   seq,
				Entry: map[ir.FluidID]arch.Point{},
				Exit:  map[ir.FluidID]arch.Point{},
			},
		},
		Edges: map[[2]int]*codegen.EdgeCode{},
	}
	for _, e := range g.Edges() {
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = &codegen.EdgeCode{
			From: e.From, To: e.To,
			Seq: &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}},
		}
	}
	if rep := verify.Run(&verify.Unit{Exec: ex}); rep.HasErrors() {
		t.Fatalf("hand-built executable not clean:\n%s", rep)
	}
	return ex
}

func analyze(t *testing.T, ex *codegen.Executable, m *pinsafe.PinMap) *pinsafe.Result {
	t.Helper()
	res, err := pinsafe.Analyze(&verify.Unit{Exec: ex}, pinsafe.Config{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func countCode(res *pinsafe.Result, code string) int {
	n := 0
	for _, d := range res.Report.Diags {
		if d.Code == code {
			n++
		}
	}
	return n
}

func TestRouteExecCleanDerivedMap(t *testing.T) {
	res := analyze(t, routeExec(t), nil)
	if !res.Derived {
		t.Error("expected a derived DSATUR map")
	}
	if len(res.Report.Diags) != 0 {
		t.Errorf("derived map should verify clean:\n%s", res.Report)
	}
	if res.Electrodes != 11 {
		t.Errorf("route uses %d electrodes, want 11", res.Electrodes)
	}
	if res.MinPins >= res.Electrodes || res.MinPins < 2 {
		t.Errorf("MinPins = %d for %d electrodes; want 2 <= pins < electrodes", res.MinPins, res.Electrodes)
	}
	if got := res.Map.NumPins(); got != res.MinPins {
		t.Errorf("derived map has %d pins, MinPins says %d", got, res.MinPins)
	}
}

func TestBF501UnshareablePair(t *testing.T) {
	// At cycle 1 the frame drives (1,2) while the droplet leaves (0,2):
	// wiring both to one pin makes the droplet hold instead of moving, so
	// the pair is an interference edge and the map must be rejected.
	m := &pinsafe.PinMap{Pins: map[arch.Point]int{pt(0, 2): 0, pt(1, 2): 0}}
	res := analyze(t, routeExec(t), m)
	if countCode(res, "BF501") == 0 {
		t.Fatalf("un-shareable pair accepted:\n%s", res.Report)
	}
	if !res.Report.HasErrors() {
		t.Error("BF501 should be an error")
	}
}

func TestBF502TrajectoryPerturbed(t *testing.T) {
	// (0,3) is a passive neighbor of the droplet's cell (0,2) at cycle 1;
	// wiring it to the pin of the driven cell (1,2) actuates both, tearing
	// the droplet between two active electrodes.
	m := &pinsafe.PinMap{Pins: map[arch.Point]int{pt(1, 2): 7, pt(0, 3): 7}}
	res := analyze(t, routeExec(t), m)
	if countCode(res, "BF502") == 0 {
		t.Fatalf("trajectory perturbation not detected:\n%s", res.Report)
	}
	// The static graph must agree with the replay: the same map also has
	// the interference edge.
	if countCode(res, "BF501") == 0 {
		t.Errorf("replay diverged but interference graph saw nothing:\n%s", res.Report)
	}
}

func TestBF502HoldInsteadOfMove(t *testing.T) {
	m := &pinsafe.PinMap{Pins: map[arch.Point]int{pt(0, 2): 0, pt(1, 2): 0}}
	res := analyze(t, routeExec(t), m)
	if countCode(res, "BF502") == 0 {
		t.Fatalf("held droplet not detected as divergence:\n%s", res.Report)
	}
}

func TestBF503DefectiveBroadcast(t *testing.T) {
	// Mark the never-actuated cell (5,7) defective and wire it to the pin
	// of the route cell (4,2): the closure of every frame driving (4,2)
	// would actuate the defective electrode. The cell is far from the
	// droplet, so this is the only finding.
	ex := routeExec(t)
	topo, err := place.BuildTopologyFaulty(arch.Small(), []arch.Point{pt(5, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ex.Topo = topo
	m := &pinsafe.PinMap{Pins: map[arch.Point]int{pt(4, 2): 2, pt(5, 7): 2}}
	res := analyze(t, ex, m)
	if countCode(res, "BF503") == 0 {
		t.Fatalf("defective broadcast closure not detected:\n%s", res.Report)
	}
	if n := countCode(res, "BF502"); n != 0 {
		t.Errorf("defective electrode cannot actuate, yet replay diverged %d times:\n%s", n, res.Report)
	}
	if n := countCode(res, "BF501"); n != 0 {
		t.Errorf("defective cell should not enter the interference graph:\n%s", res.Report)
	}
}

func TestAnalyzeRejectsBrokenBaseline(t *testing.T) {
	ex := routeExec(t)
	bc := ex.Blocks[mustBlock(t, ex, "b1").ID]
	bc.Seq.Runs[3].Frame = codegen.Frame{} // strand the droplet mid-route
	if _, err := pinsafe.Analyze(&verify.Unit{Exec: ex}, pinsafe.Config{}); err == nil {
		t.Fatal("executable failing baseline replay accepted")
	}
}

// A hand-built unit may name a chip no validated chip can be; the analysis
// refuses it rather than size its grids by it.
func TestAnalyzeRejectsOversizedChip(t *testing.T) {
	chip := *arch.Small()
	chip.Cols, chip.Rows = 300, 300
	if _, err := pinsafe.Analyze(&verify.Unit{Exec: routeExec(t), Chip: &chip}, pinsafe.Config{}); err == nil {
		t.Fatal("a 300x300 chip accepted")
	}
}

func TestAnalyzeHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pinsafe.Analyze(&verify.Unit{Exec: routeExec(t)}, pinsafe.Config{Context: ctx}); err == nil {
		t.Fatal("canceled context not honored")
	}
}

func mustBlock(t *testing.T, ex *codegen.Executable, label string) *cfg.Block {
	t.Helper()
	for _, b := range ex.Graph.Blocks {
		if b.Label == label {
			return b
		}
	}
	t.Fatalf("no block %q", label)
	return nil
}
