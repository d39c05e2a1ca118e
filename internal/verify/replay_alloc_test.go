package verify_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
)

// pcrSource returns the bundled PCR script with its initial denaturation
// heat held for the given duration ("45s" in the script).
func pcrSource(t testing.TB, heat string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "assays", "scripts", "pcr.bio"))
	if err != nil {
		t.Fatal(err)
	}
	const orig = "heat tube at 95 for 45s"
	if !strings.Contains(string(src), orig) {
		t.Fatalf("pcr.bio no longer holds %q", orig)
	}
	return strings.Replace(string(src), orig, "heat tube at 95 for "+heat, 1)
}

func compileSource(t testing.TB, src string) *biocoder.Compiled {
	t.Helper()
	bs, err := biocoder.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := biocoder.Compile(bs, biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// pcrUnit compiles the PCR script with its initial heat held for heat.
func pcrUnit(t testing.TB, heat string) *verify.Unit {
	t.Helper()
	prog := compileSource(t, pcrSource(t, heat))
	return &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Chip: prog.Chip}
}

func totalCycles(u *verify.Unit) int {
	n := 0
	for _, bc := range u.Exec.Blocks {
		if bc != nil && bc.Seq != nil {
			n += bc.Seq.NumCycles
		}
	}
	return n
}

// Symbolic replay allocates per sequence and per event, never per cycle: a
// heat hold ten times longer replays with exactly the same allocations.
func TestReplayAllocsIndependentOfHoldLength(t *testing.T) {
	short, long := pcrUnit(t, "45s"), pcrUnit(t, "450s")
	if totalCycles(long) <= totalCycles(short) {
		t.Fatalf("the longer hold adds no cycles: %d vs %d", totalCycles(long), totalCycles(short))
	}
	for _, c := range []struct {
		name   string
		replay func(*verify.Unit)
	}{
		{"ReplayTouches", func(u *verify.Unit) { verify.ReplayTouches(u) }},
		{"ReplayMoves", func(u *verify.Unit) { verify.ReplayMoves(u) }},
	} {
		a := testing.AllocsPerRun(3, func() { c.replay(short) })
		b := testing.AllocsPerRun(3, func() { c.replay(long) })
		if a != b {
			t.Errorf("%s: %v allocations with a 45 s hold, %v with a 450 s hold (%d vs %d cycles)",
				c.name, a, b, totalCycles(short), totalCycles(long))
		}
	}
}

// holdAllocSlack bounds how many more allocations the 450 s hold may cost
// than the 45 s hold in Compile and Load (averaged over ten runs; the
// parent of this test measured about 81,000 more). Neither allocates per
// cycle; the slack covers slices whose growth steps depend on their final
// length, and, in race builds, the objects sync.Pool drops at random.
const holdAllocSlack = 32

// Compiling a hold emits one shared frame and extends the tracks in one
// step, and Check skips hold cycles: a heat held ten times longer compiles
// with the same allocations, up to holdAllocSlack.
func TestCompileAllocsIndependentOfHoldLength(t *testing.T) {
	short, long := pcrSource(t, "45s"), pcrSource(t, "450s")
	if totalCycles(pcrUnit(t, "450s")) <= totalCycles(pcrUnit(t, "45s")) {
		t.Fatal("the longer hold adds no cycles")
	}
	a := testing.AllocsPerRun(10, func() { compileSource(t, short) })
	b := testing.AllocsPerRun(10, func() { compileSource(t, long) })
	if b > a+holdAllocSlack {
		t.Errorf("Compile: %v allocations with a 45 s hold, %v with a 450 s hold (slack %d)", a, b, holdAllocSlack)
	}
}

// Decoding rebuilds one frame per change of the droplet positions and
// shares it across the hold: a heat held ten times longer loads with the
// same allocations, up to holdAllocSlack.
func TestLoadAllocsIndependentOfHoldLength(t *testing.T) {
	save := func(heat string) []byte {
		var buf bytes.Buffer
		if err := compileSource(t, pcrSource(t, heat)).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	short, long := save("45s"), save("450s")
	load := func(data []byte) func() {
		return func() {
			if _, err := biocoder.Load(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := testing.AllocsPerRun(10, load(short))
	b := testing.AllocsPerRun(10, load(long))
	if b > a+holdAllocSlack {
		t.Errorf("Load: %v allocations with a 45 s hold, %v with a 450 s hold (slack %d)", a, b, holdAllocSlack)
	}
}

// An event makes its cycle something other than a hold even when the
// frame repeats: a droplet output in the middle of a hold, its electrode
// still active, is reported (BF101) at the very cycle of the output.
func TestBF101EventInsideHold(t *testing.T) {
	u := pcrUnit(t, "45s")
	for _, bc := range u.Exec.Blocks {
		s := bc.Seq
		for c := 1; c < s.NumCycles; c++ {
			if !codegen.SameFrame(s.Frames[c-1], s.Frames[c]) || slices.ContainsFunc(s.Events, func(ev codegen.Event) bool { return ev.Cycle == c }) {
				continue
			}
			for f, tr := range s.Tracks {
				if tr.Start >= c || tr.End() <= c {
					continue
				}
				i, _ := slices.BinarySearchFunc(s.Events, c, func(ev codegen.Event, c int) int { return ev.Cycle - c })
				s.Events = slices.Insert(s.Events, i, codegen.Event{
					Cycle: c, Kind: codegen.EvOutput, InstrID: -1, Inputs: []ir.FluidID{f},
					Cells: []arch.Point{tr.At(c - 1)}, Port: "out1",
				})
				for _, d := range verify.Run(u).ByCode("BF101") {
					if d.Pos.Scope == "block "+bc.Block.Label && d.Pos.Cycle == c {
						return
					}
				}
				t.Fatalf("no BF101 at cycle %d of block %s after removing %s mid-hold:\n%s", c, bc.Block.Label, f, verify.Run(u))
			}
		}
	}
	t.Fatal("no hold cycle with a droplet on chip")
}
