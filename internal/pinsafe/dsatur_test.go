// In-package tests of the DSATUR assignment and the pin-map format, on
// synthetic interference graphs small enough to know the answers by hand.
package pinsafe

import (
	"bytes"
	"strings"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/motion"
)

func p(x, y int) arch.Point { return arch.Point{X: x, Y: y} }

// synth builds an Analysis on a 9x9 chip with the given used electrodes
// and interference edges, bypassing replay.
func synth(pairs [][2]arch.Point, cells ...arch.Point) *Analysis {
	g := motion.NewGrid(9, 9)
	a := &Analysis{cells: g, isUsed: make([]bool, g.Cells()), pairs: make(pairSet, g.Cells())}
	for _, c := range cells {
		a.isUsed[g.Index(c)] = true
		a.used = append(a.used, c)
	}
	for _, pr := range pairs {
		if a.pairs.add(g.Index(pr[0]), g.Index(pr[1])) {
			x, y := pr[0], pr[1]
			if y.Compare(x) < 0 {
				x, y = y, x
			}
			a.conflicts = append(a.conflicts, Conflict{A: x, B: y})
		}
	}
	return a
}

// checkColoring fails unless every used electrode has a pin and no
// interference edge joins two electrodes on the same pin.
func checkColoring(t *testing.T, a *Analysis, m *PinMap) {
	t.Helper()
	for _, c := range a.used {
		if _, ok := m.Pins[c]; !ok {
			t.Errorf("used electrode %v left without a pin", c)
		}
	}
	for _, c := range a.conflicts {
		if m.Pins[c.A] == m.Pins[c.B] {
			t.Errorf("conflicting electrodes %v and %v share pin %d", c.A, c.B, m.Pins[c.A])
		}
	}
}

func TestDSATURTriangle(t *testing.T) {
	a, b, c := p(0, 0), p(1, 0), p(2, 0)
	an := synth([][2]arch.Point{{a, b}, {b, c}, {a, c}}, a, b, c)
	m := an.Assign()
	checkColoring(t, an, m)
	if got := m.NumPins(); got != 3 {
		t.Errorf("triangle colored with %d pins, want 3", got)
	}
}

func TestDSATURPath(t *testing.T) {
	a, b, c := p(0, 0), p(1, 0), p(2, 0)
	an := synth([][2]arch.Point{{a, b}, {b, c}}, a, b, c)
	m := an.Assign()
	checkColoring(t, an, m)
	if got := m.NumPins(); got != 2 {
		t.Errorf("path colored with %d pins, want 2", got)
	}
	if !an.MayShare(a, c) {
		t.Error("path endpoints should be shareable")
	}
	if an.MayShare(a, b) {
		t.Error("path edge endpoints should not be shareable")
	}
}

func TestDSATURIndependent(t *testing.T) {
	cells := []arch.Point{p(0, 0), p(3, 3), p(5, 1), p(2, 7)}
	an := synth(nil, cells...)
	m := an.Assign()
	checkColoring(t, an, m)
	if got := m.NumPins(); got != 1 {
		t.Errorf("conflict-free electrodes colored with %d pins, want 1", got)
	}
}

// The conflict set records unordered pairs once, on a small chip and on
// the largest one a chip may declare.
func TestPairSet(t *testing.T) {
	for _, n := range []int{81, arch.MaxElectrodes} {
		s := make(pairSet, n)
		if !s.add(3, n-1) || s.add(n-1, 3) || s.add(3, n-1) {
			t.Errorf("%d cells: a pair was recorded twice", n)
		}
		if !s.has(n-1, 3) || !s.has(3, n-1) || s.has(3, 4) || s.has(n-1, n-1) {
			t.Errorf("%d cells: has disagrees with add", n)
		}
	}
}

func TestPinMapRoundTrip(t *testing.T) {
	m := &PinMap{Pins: map[arch.Point]int{p(0, 2): 0, p(4, 4): 1, p(8, 4): 0, p(3, 7): 5}}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePinMap(&buf)
	if err != nil {
		t.Fatalf("parse of written map: %v\n%s", err, buf.String())
	}
	if len(got.Pins) != len(m.Pins) {
		t.Fatalf("round trip lost cells: %v vs %v", got.Pins, m.Pins)
	}
	for c, pin := range m.Pins {
		if got.Pins[c] != pin {
			t.Errorf("cell %v: pin %d, want %d", c, got.Pins[c], pin)
		}
	}
}

func TestPinMapParse(t *testing.T) {
	src := "# header\n0 2 0\n\n4 4 1  # merge cell\n4 4 1\n"
	m, err := ParsePinMap(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pins) != 2 || m.Pins[p(0, 2)] != 0 || m.Pins[p(4, 4)] != 1 {
		t.Errorf("parsed %v", m.Pins)
	}
	if m.NumPins() != 2 {
		t.Errorf("NumPins = %d, want 2", m.NumPins())
	}
	if _, err := ParsePinMap(strings.NewReader("0 2\n")); err == nil {
		t.Error("truncated line accepted")
	}
	if _, err := ParsePinMap(strings.NewReader("0 2 0\n0 2 1\n")); err == nil {
		t.Error("cell remapped to a different pin accepted")
	}
}
