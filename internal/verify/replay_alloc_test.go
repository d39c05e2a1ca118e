package verify_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/verify"
)

// pcrUnit compiles the bundled PCR script with its initial denaturation
// heat held for the given duration ("45s" in the script).
func pcrUnit(t testing.TB, heat string) *verify.Unit {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "assays", "scripts", "pcr.bio"))
	if err != nil {
		t.Fatal(err)
	}
	const orig = "heat tube at 95 for 45s"
	if !strings.Contains(string(src), orig) {
		t.Fatalf("pcr.bio no longer holds %q", orig)
	}
	bs, err := biocoder.ParseScript(strings.Replace(string(src), orig, "heat tube at 95 for "+heat, 1))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := biocoder.Compile(bs, biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
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
