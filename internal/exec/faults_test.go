package exec

import (
	"strings"
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/place"
)

// Fault-injection tests: the runtime interpreter reconstructs droplet
// motion from electrode activations alone, so a malformed executable —
// missing activations, torn droplets, bogus events — must be rejected with
// a diagnostic rather than silently mis-simulated. These tests hand-build
// minimal executables with specific defects.

// miniExec builds a one-block executable whose block sequence is supplied
// by the caller.
// runs makes one run per frame, one cycle each.
func runs(frames []codegen.Frame) []codegen.Run {
	out := make([]codegen.Run, len(frames))
	for i, f := range frames {
		out[i] = codegen.Run{Frame: f, Len: 1}
	}
	return out
}

func miniExec(t *testing.T, seq *codegen.Sequence) (*codegen.Executable, *arch.Chip) {
	t.Helper()
	chip := arch.Default()
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.New()
	b := g.NewBlock("b1")
	g.AddEdge(g.Entry, b)
	g.AddEdge(b, g.Exit)
	ex := &codegen.Executable{
		Graph:  g,
		Topo:   topo,
		Blocks: map[int]*codegen.BlockCode{},
		Edges:  map[[2]int]*codegen.EdgeCode{},
	}
	empty := func(blk *cfg.Block) *codegen.BlockCode {
		return &codegen.BlockCode{
			Block: blk,
			Seq:   &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}},
			Entry: map[ir.FluidID]arch.Point{},
			Exit:  map[ir.FluidID]arch.Point{},
		}
	}
	ex.Blocks[g.Entry.ID] = empty(g.Entry)
	ex.Blocks[g.Exit.ID] = empty(g.Exit)
	bc := empty(b)
	bc.Seq = seq
	ex.Blocks[b.ID] = bc
	emptyEdge := func(from, to *cfg.Block) {
		ex.Edges[[2]int{from.ID, to.ID}] = &codegen.EdgeCode{
			From: from, To: to,
			Seq: &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}},
		}
	}
	emptyEdge(g.Entry, b)
	emptyEdge(b, g.Exit)
	return ex, chip
}

func fid(n string) ir.FluidID { return ir.FluidID{Name: n, Ver: 1} }

func dispenseEvent(cycle int, f ir.FluidID, cell arch.Point) codegen.Event {
	return codegen.Event{
		Cycle: cycle, Kind: codegen.EvDispense,
		Results: []ir.FluidID{f}, Cells: []arch.Point{cell},
		Fluid: "W", Volume: 10, Port: "inW1",
	}
}

func outputEvent(cycle int, f ir.FluidID, cell arch.Point) codegen.Event {
	return codegen.Event{
		Cycle: cycle, Kind: codegen.EvOutput,
		Inputs: []ir.FluidID{f}, Cells: []arch.Point{cell},
		Port: "outE1",
	}
}

func run(t *testing.T, seq *codegen.Sequence) error {
	t.Helper()
	ex, chip := miniExec(t, seq)
	_, err := Run(ex, chip, Options{MaxCycles: 10_000})
	return err
}

func TestFaultStrandedDroplet(t *testing.T) {
	// Droplet appears at (0,1); next frame activates nothing near it.
	seq := &codegen.Sequence{
		NumCycles: 2,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}},
			{{X: 9, Y: 9}}, // far away: droplet stranded
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			outputEvent(2, fid("a"), arch.Point{X: 9, Y: 9}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Errorf("want stranded-droplet error, got %v", err)
	}
}

func TestFaultTornDroplet(t *testing.T) {
	// Droplet a at (5,1) sees two activated neighbors — its own electrode
	// off, (4,1) on, and droplet b's held electrode (6,1) on — so the
	// field tears it. Electrode count matches droplet count, isolating
	// the tear diagnostic from the count check.
	seq := &codegen.Sequence{
		NumCycles: 2,
		Runs: runs([]codegen.Frame{
			{{X: 5, Y: 1}, {X: 6, Y: 1}},
			{{X: 4, Y: 1}, {X: 6, Y: 1}}, // a torn between (4,1) and (6,1)
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 5, Y: 1}),
			dispenseEvent(0, fid("b"), arch.Point{X: 6, Y: 1}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("want torn-droplet error, got %v", err)
	}
}

func TestFaultElectrodeCountMismatch(t *testing.T) {
	// Two electrodes active for one droplet.
	seq := &codegen.Sequence{
		NumCycles: 1,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}, {X: 10, Y: 10}},
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "electrodes active") {
		t.Errorf("want electrode-count error, got %v", err)
	}
}

func TestFaultDoubleDispense(t *testing.T) {
	seq := &codegen.Sequence{
		NumCycles: 1,
		Runs:      runs([]codegen.Frame{{{X: 0, Y: 1}}}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 4}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "existing droplet") {
		t.Errorf("want double-dispense error, got %v", err)
	}
}

func TestFaultOutputWrongPlace(t *testing.T) {
	seq := &codegen.Sequence{
		NumCycles: 1,
		Runs:      runs([]codegen.Frame{{{X: 0, Y: 1}}}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			outputEvent(1, fid("a"), arch.Point{X: 18, Y: 2}), // droplet is not there
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "output expects droplet") {
		t.Errorf("want output-position error, got %v", err)
	}
}

func TestFaultMissingDroplet(t *testing.T) {
	seq := &codegen.Sequence{
		NumCycles: 0,
		Events: []codegen.Event{
			outputEvent(0, fid("ghost"), arch.Point{X: 18, Y: 2}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "not on chip") {
		t.Errorf("want missing-droplet error, got %v", err)
	}
}

func TestFaultLeftoverDroplets(t *testing.T) {
	// A droplet is dispensed and held but never output: the run must fail
	// at protocol end (conservation).
	seq := &codegen.Sequence{
		NumCycles: 2,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}},
			{{X: 0, Y: 1}},
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	err := run(t, seq)
	if err == nil || !strings.Contains(err.Error(), "remain on chip") {
		t.Errorf("want leftover-droplet error, got %v", err)
	}
}

func TestSensorFaultDiagnosableFromTrace(t *testing.T) {
	// §7.1: "an incorrect result could occur because of a faulty sensor";
	// the trace shows which readings drove which conditions. Simulate a
	// stuck sensor and verify the trace pinpoints it.
	chip := arch.Default()
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	_ = topo
	_ = time.Second
	// (compiled through the public pipeline in assays tests; here we only
	// assert the trace structure from the mini executable with a sense)
	seq := &codegen.Sequence{
		NumCycles: 2,
		Runs: runs([]codegen.Frame{
			{{X: 0, Y: 1}},
			{{X: 0, Y: 1}},
		}),
		Events: []codegen.Event{
			dispenseEvent(0, fid("a"), arch.Point{X: 0, Y: 1}),
			{Cycle: 2, Kind: codegen.EvSense, InstrID: 7,
				Inputs: []ir.FluidID{fid("a")}, SensorVar: "w", Device: "sensor1"},
			outputEvent(2, fid("a"), arch.Point{X: 0, Y: 1}),
		},
		Tracks: map[ir.FluidID]*codegen.Track{},
	}
	ex, chip := miniExec(t, seq)
	// The block needs a sense instruction for the dry program walk.
	for _, b := range ex.Graph.Blocks {
		if b.Label == "b1" {
			b.Instrs = append(b.Instrs, &ir.Instr{
				ID: 7, Kind: ir.Sense,
				Args:      []ir.FluidID{{Name: "a"}},
				Results:   []ir.FluidID{fid("a")},
				SensorVar: "w", Duration: time.Second,
			})
		}
	}
	res, err := Run(ex, chip, Options{MaxCycles: 1000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trace.Readings) != 1 || res.Trace.Readings[0].Variable != "w" || res.Trace.Readings[0].Device != "sensor1" {
		t.Errorf("trace readings = %+v; a faulty sensor could not be diagnosed", res.Trace.Readings)
	}
}
