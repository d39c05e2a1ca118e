package verify_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
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

// holdAllocSlack and holdByteSlack bound how many more allocations and
// bytes the 450 s hold may cost than the 45 s hold in Compile and Load
// (averaged over ten runs). Before run-length sequences the 450 s hold
// cost about 81,000 more allocations and 1.6 MB more. Neither allocates
// per cycle now; the slack covers slices whose growth steps depend on the
// digits of a longer run, and, in race builds, the objects sync.Pool
// drops at random.
const (
	holdAllocSlack = 32
	holdByteSlack  = 4 << 10
)

// allocated returns the average number of allocations and of bytes
// allocated per call of f over n calls, measured the way
// testing.AllocsPerRun counts (one warm-up call, GOMAXPROCS 1).
func allocated(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// holdCostsNothing fails t when the long-hold call allocates more than the
// short-hold call beyond the slacks.
func holdCostsNothing(t *testing.T, what string, short, long func()) {
	t.Helper()
	a, ab := allocated(10, short)
	b, bb := allocated(10, long)
	if b > a+holdAllocSlack {
		t.Errorf("%s: %v allocations with a 45 s hold, %v with a 450 s hold (slack %d)", what, a, b, holdAllocSlack)
	}
	if bb > ab+holdByteSlack {
		t.Errorf("%s: %.0f bytes with a 45 s hold, %.0f with a 450 s hold (slack %d)", what, ab, bb, holdByteSlack)
	}
}

// Compiling a hold emits one run and extends each track by one stay: a
// heat held ten times longer compiles with the same allocations and bytes,
// up to the slacks.
func TestCompileAllocsIndependentOfHoldLength(t *testing.T) {
	short, long := pcrSource(t, "45s"), pcrSource(t, "450s")
	if totalCycles(pcrUnit(t, "450s")) <= totalCycles(pcrUnit(t, "45s")) {
		t.Fatal("the longer hold adds no cycles")
	}
	holdCostsNothing(t, "Compile", func() { compileSource(t, short) }, func() { compileSource(t, long) })
}

// Decoding builds one stay per track token and one run per change of the
// droplet positions: a heat held ten times longer loads with the same
// allocations and bytes, up to the slacks.
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
	holdCostsNothing(t, "Load", load(short), load(long))
}

// An event inside a run is interpreted at its own cycle: a droplet output
// in the middle of a hold, its electrode still active, is reported
// (BF101) at the very cycle of the output.
func TestBF101EventInsideHold(t *testing.T) {
	u := pcrUnit(t, "45s")
	for _, bc := range u.Exec.Blocks {
		s := bc.Seq
		start := 0
		for _, r := range s.Runs {
			c := start + 1
			start += r.Len
			if r.Len < 2 {
				continue
			}
			for f, tr := range s.Tracks {
				if tr.Start >= c || tr.End() <= c {
					continue
				}
				i, _ := slices.BinarySearchFunc(s.Events, c, func(ev codegen.Event, c int) int { return ev.Cycle - c })
				s.Events = slices.Insert(s.Events, i, codegen.Event{
					Cycle: c, Kind: codegen.EvOutput, InstrID: -1, Inputs: []ir.FluidID{f},
					Cells: []arch.Point{cellAt(tr, c-1)}, Port: "out1",
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

// cellAt returns the track's cell at cycle t, which it must cover.
func cellAt(tr *codegen.Track, t int) arch.Point {
	t -= tr.Start
	for _, st := range tr.Stays {
		if t < st.Len {
			return st.Cell
		}
		t -= st.Len
	}
	panic("cycle outside the track")
}
