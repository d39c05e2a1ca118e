package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
)

// A carrier/victim pair crossing several electrodes reports the
// row-major-first one, so repeated analyses render the same BF320 findings.
// The image-probe script has such multi-cell pairs.
func TestContaminationReportDeterministic(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "assays", "scripts", "image_probe.bio"))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 8; i++ {
		res := analyzeScript(t, string(src), Config{})
		multi := false
		for _, h := range res.Hazards {
			multi = multi || h.Cells > 1
		}
		if !multi {
			t.Fatal("no hazard crosses more than one electrode; the test needs one")
		}
		got := fmt.Sprintf("%s%+v\n%+v", res.Report, res.Hazards, res.Suggestions)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("analysis %d differs from the first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// The contamination ordering rules, on hand-built sequence graphs. Every
// droplet carries a reagent named after it unless a test says otherwise.
// Each scenario also holds two droplets arriving on one cell in the same
// cycle of one sequence, which orders neither before the other.

// arrival is one hand-built touch: droplet fluid reaches cell (x, y) at
// cycle.
type arrival struct {
	fluid       string
	x, y, cycle int
}

func seq(scope string, as ...arrival) *seqNode {
	ts := make([]verify.Touch, len(as))
	for i, a := range as {
		ts[i] = verify.Touch{Fluid: ir.FluidID{Name: a.fluid}, Cell: arch.Point{X: a.x, Y: a.y}, Cycle: a.cycle}
	}
	return newSeqNode(scope, ts, newCellIndex(arch.Default()))
}

// then chains sequences in execution order.
func then(ns ...*seqNode) {
	for i := 0; i+1 < len(ns); i++ {
		ns[i].succs = append(ns[i].succs, ns[i+1])
	}
}

// hazardsOf runs the hazard search. lineage lists the reagents of the
// droplets that carry more than their own.
func hazardsOf(lineage map[string][]string, washed []arch.Point, ns ...*seqNode) []Hazard {
	nodes := map[string]*seqNode{}
	reagents := map[ir.FluidID]map[string]bool{}
	for _, n := range ns {
		nodes[n.scope] = n
		for _, ss := range n.spans {
			for _, s := range ss {
				reagents[s.fluid] = map[string]bool{s.fluid.Name: true}
			}
		}
	}
	for f, rs := range lineage {
		for _, r := range rs {
			reagents[ir.FluidID{Name: f}][r] = true
		}
	}
	w := map[arch.Point]bool{}
	for _, c := range washed {
		w[c] = true
	}
	hs, _ := findHazards(nodes, reagents, w)
	return hs
}

// hz is an expected hazard whose carrier and victim share one scope.
func hz(carrier, victim string, x, y, cells int, scope string) Hazard {
	return Hazard{
		Carrier: ir.FluidID{Name: carrier}, Victim: ir.FluidID{Name: victim},
		Reagents: []string{carrier}, Cell: arch.Point{X: x, Y: y}, Cells: cells,
		CarrierScope: scope, VictimScope: scope,
	}
}

func wantHazards(t *testing.T, got, want []Hazard) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hazards:\n got  %+v\n want %+v", got, want)
	}
}

// Within one sequence a victim picks up residue only of a carrier that
// arrived strictly before the victim's last arrival, unless the sequence
// lies on a CFG cycle and so runs again after itself.
func TestContaminationOrderWithinSequence(t *testing.T) {
	arrivals := []arrival{
		{"v1", 1, 1, 1}, // v1 crosses (1,1) before c1
		{"c3", 3, 1, 2}, // c3 crosses (3,1) before and after v3
		{"c1", 1, 1, 3},
		{"c2", 2, 1, 4}, // c2 and v2 reach (2,1) together
		{"v2", 2, 1, 4},
		{"v3", 3, 1, 5},
		{"c3", 3, 1, 8},
	}
	b := seq("block b", arrivals...)
	wantHazards(t, hazardsOf(nil, nil, b), []Hazard{
		hz("c3", "v3", 3, 1, 1, "block b"),
		hz("v1", "c1", 1, 1, 1, "block b"),
		hz("v3", "c3", 3, 1, 1, "block b"),
	})

	// A loop back edge puts the block on a cycle: every pair crossing a
	// cell is ordered both ways.
	b = seq("block b", arrivals...)
	back := seq("edge b->b")
	then(b, back, b)
	wantHazards(t, hazardsOf(nil, nil, b, back), []Hazard{
		hz("c1", "v1", 1, 1, 1, "block b"),
		hz("c2", "v2", 2, 1, 1, "block b"),
		hz("c3", "v3", 3, 1, 1, "block b"),
		hz("v1", "c1", 1, 1, 1, "block b"),
		hz("v2", "c2", 2, 1, 1, "block b"),
		hz("v3", "c3", 3, 1, 1, "block b"),
	})
}

// Across sequences only execution order counts: residue left in a later
// sequence never reaches a droplet of an earlier one, whatever the cycle
// numbers say.
func TestContaminationUnreachableSequence(t *testing.T) {
	a := seq("block a", arrival{"v", 1, 1, 9})
	e := seq("edge a->b")
	b := seq("block b",
		arrival{"c", 1, 1, 5},
		arrival{"w", 2, 2, 6}, // w and c reach (2,2) together
		arrival{"c", 2, 2, 6},
	)
	then(a, e, b)
	want := hz("v", "c", 1, 1, 1, "block a")
	want.VictimScope = "block b"
	wantHazards(t, hazardsOf(nil, nil, a, e, b), []Hazard{want})
}

// A carrier whose reagents the victim already holds (the victim descends
// from it) leaves no foreign residue; the reverse crossing does.
func TestContaminationSameLineageSilent(t *testing.T) {
	b := seq("block b",
		arrival{"p", 1, 1, 1}, // parent p, then its mix product m
		arrival{"m", 1, 1, 3},
		arrival{"m", 2, 1, 4}, // m and p reach (2,1) together
		arrival{"p", 2, 1, 4},
		arrival{"p", 1, 1, 6},
	)
	lineage := map[string][]string{"m": {"p"}}
	wantHazards(t, hazardsOf(lineage, nil, b), []Hazard{hz("m", "p", 1, 1, 1, "block b")})
}

// A washed cell carries no residue. The hazard's cell is the row-major
// first of the unwashed cells the pair crosses.
func TestContaminationWashedCellSilent(t *testing.T) {
	b := seq("block b",
		arrival{"c", 1, 1, 1},
		arrival{"c", 5, 0, 2},
		arrival{"v", 1, 1, 3},
		arrival{"v", 5, 0, 4},
		arrival{"c", 3, 3, 6}, // c and v reach (3,3) together
		arrival{"v", 3, 3, 6},
	)
	wantHazards(t, hazardsOf(nil, nil, b), []Hazard{hz("c", "v", 5, 0, 2, "block b")})
	wantHazards(t, hazardsOf(nil, []arch.Point{{X: 5, Y: 0}}, b), []Hazard{hz("c", "v", 1, 1, 1, "block b")})
	wantHazards(t, hazardsOf(nil, []arch.Point{{X: 5, Y: 0}, {X: 1, Y: 1}}, b), nil)
}

// A sequence's touched cells come out in row-major order with their spans,
// off-chip cells (only a corrupt executable names them) included.
func TestSeqNodeCells(t *testing.T) {
	for _, chip := range []*arch.Chip{arch.Default(), {Cols: 2, Rows: 2}} {
		n := newSeqNode("block b", []verify.Touch{
			{Fluid: ir.FluidID{Name: "a"}, Cell: arch.Point{X: 3, Y: 1}, Cycle: 4},
			{Fluid: ir.FluidID{Name: "b"}, Cell: arch.Point{X: -1, Y: 1}, Cycle: 5},
			{Fluid: ir.FluidID{Name: "a"}, Cell: arch.Point{X: 1, Y: 0}, Cycle: 6},
			{Fluid: ir.FluidID{Name: "a"}, Cell: arch.Point{X: 3, Y: 1}, Cycle: 9},
			{Fluid: ir.FluidID{Name: "b"}, Cell: arch.Point{X: 3, Y: 1}, Cycle: 7},
		}, newCellIndex(chip))
		wantCells := []arch.Point{{X: 1, Y: 0}, {X: -1, Y: 1}, {X: 3, Y: 1}}
		wantSpans := [][]span{
			{{ir.FluidID{Name: "a"}, 6, 6}},
			{{ir.FluidID{Name: "b"}, 5, 5}},
			{{ir.FluidID{Name: "a"}, 4, 9}, {ir.FluidID{Name: "b"}, 7, 7}},
		}
		if !reflect.DeepEqual(n.cells, wantCells) || !reflect.DeepEqual(n.spans, wantSpans) {
			t.Errorf("%dx%d chip: cells %v spans %v, want %v %v", chip.Cols, chip.Rows, n.cells, n.spans, wantCells, wantSpans)
		}
	}
}
