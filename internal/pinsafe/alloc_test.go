package pinsafe_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

// pcrAnalysis builds the interference graph of the bundled PCR script with
// its initial denaturation heat held for the given duration ("45s" in the
// script).
func pcrAnalysis(t testing.TB, heat string) *pinsafe.Analysis {
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
	a, err := pinsafe.New(context.Background(), &verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Chip: prog.Chip})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The broadcast replay allocates per sequence and per event, never per
// cycle: a heat hold ten times longer verifies with exactly the same
// allocations.
func TestBroadcastAllocsIndependentOfHoldLength(t *testing.T) {
	short, long := pcrAnalysis(t, "45s"), pcrAnalysis(t, "450s")
	ms, ml := short.Assign(), long.Assign()
	if ms.NumPins() != ml.NumPins() {
		t.Fatalf("hold length changed the derived pin count: %d vs %d", ms.NumPins(), ml.NumPins())
	}
	a := testing.AllocsPerRun(3, func() { short.Verify(ms) })
	b := testing.AllocsPerRun(3, func() { long.Verify(ml) })
	if a != b {
		t.Errorf("broadcast replay: %v allocations with a 45 s hold, %v with a 450 s hold", a, b)
	}
}
