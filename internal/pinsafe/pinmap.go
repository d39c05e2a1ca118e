package pinsafe

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"biocoder/internal/arch"
)

// PinMap assigns electrodes to control pins. Cells absent from the map are
// fully addressed — each has a dedicated pin of its own — so the empty map
// is the paper's baseline chip and always verifies.
type PinMap struct {
	Pins map[arch.Point]int
}

// NumPins counts the distinct pins of the map.
func (m *PinMap) NumPins() int {
	seen := map[int]bool{}
	for _, pin := range m.Pins {
		seen[pin] = true
	}
	return len(seen)
}

// Cells returns the mapped electrodes in row-major order.
func (m *PinMap) Cells() []arch.Point {
	cells := make([]arch.Point, 0, len(m.Pins))
	for c := range m.Pins {
		cells = append(cells, c)
	}
	slices.SortFunc(cells, arch.Point.Compare)
	return cells
}

// groups indexes the map by pin: every cell a pin drives, row-major.
func (m *PinMap) groups() map[int][]arch.Point {
	g := map[int][]arch.Point{}
	for _, c := range m.Cells() {
		g[m.Pins[c]] = append(g[m.Pins[c]], c)
	}
	return g
}

// ParsePinMap reads the textual pin-map format: one "X Y PIN" triple per
// line, '#' starting a comment, blank lines ignored.
func ParsePinMap(r io.Reader) (*PinMap, error) {
	m := &PinMap{Pins: map[arch.Point]int{}}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		var x, y, pin int
		switch n, err := fmt.Sscanf(text, "%d %d %d", &x, &y, &pin); {
		case n == 0 && err == io.EOF: // blank or comment-only line
		case n == 3:
			c := arch.Point{X: x, Y: y}
			if old, dup := m.Pins[c]; dup && old != pin {
				return nil, fmt.Errorf("pin map line %d: cell (%d,%d) mapped to pin %d and pin %d", line, x, y, old, pin)
			}
			m.Pins[c] = pin
		default:
			return nil, fmt.Errorf("pin map line %d: want \"X Y PIN\", got %q", line, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// Write emits the map in the format ParsePinMap reads, cells row-major.
func (m *PinMap) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# pin map: X Y PIN, %d cells on %d pins\n", len(m.Pins), m.NumPins())
	for _, c := range m.Cells() {
		fmt.Fprintf(bw, "%d %d %d\n", c.X, c.Y, m.Pins[c])
	}
	return bw.Flush()
}

// Assign colors the interference graph's used electrodes with DSATUR
// (Brélaz): repeatedly color the vertex whose neighbors already span the
// most distinct colors — ties broken by degree, then row-major position —
// with the smallest color unseen among its neighbors. The number of colors
// is the minimum-safe-pin-count heuristic; electrodes the assay never
// actuates are left unmapped (grounded, no pin needed).
func (a *Analysis) Assign() *PinMap {
	adj := map[arch.Point][]arch.Point{}
	for k := range a.conflicts {
		p, q := k[0], k[1]
		if !a.usedSet[p] || !a.usedSet[q] {
			continue // unmapped passengers stay on dedicated (virtual) pins
		}
		adj[p] = append(adj[p], q)
		adj[q] = append(adj[q], p)
	}
	color := make(map[arch.Point]int, len(a.used))
	satur := map[arch.Point]map[int]bool{}
	for len(color) < len(a.used) {
		var pick arch.Point
		found := false
		for _, c := range a.used { // row-major scan makes ties deterministic
			if _, done := color[c]; done {
				continue
			}
			if !found {
				pick = c
				found = true
				continue
			}
			sc, sp := len(satur[c]), len(satur[pick])
			if sc > sp || (sc == sp && len(adj[c]) > len(adj[pick])) {
				pick = c
			}
		}
		pin := 0
		for satur[pick][pin] {
			pin++
		}
		color[pick] = pin
		for _, n := range adj[pick] {
			if satur[n] == nil {
				satur[n] = map[int]bool{}
			}
			satur[n][pin] = true
		}
	}
	return &PinMap{Pins: color}
}
