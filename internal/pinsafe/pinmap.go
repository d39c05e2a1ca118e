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
	// Vertices are the used electrodes, numbered in row-major order;
	// vertex[i] is the number of cell i plus one, 0 for an unused cell.
	vertex := make([]int, a.cells.Cells())
	for v, c := range a.used {
		vertex[a.cells.Index(c)] = v + 1
	}
	adj := make([][]int, len(a.used))
	for _, c := range a.conflicts {
		p, q := vertex[a.cells.Index(c.A)]-1, vertex[a.cells.Index(c.B)]-1
		if p < 0 || q < 0 {
			continue // unmapped passengers stay on dedicated (virtual) pins
		}
		adj[p] = append(adj[p], q)
		adj[q] = append(adj[q], p)
	}
	color := make([]int, len(a.used))
	for v := range color {
		color[v] = -1
	}
	// seen[v][pin] marks a pin among v's colored neighbors; satur[v]
	// counts them.
	seen := make([][]bool, len(a.used))
	satur := make([]int, len(a.used))
	for range a.used {
		pick := -1
		for v := range a.used { // row-major scan makes ties deterministic
			if color[v] >= 0 {
				continue
			}
			if pick < 0 || satur[v] > satur[pick] || (satur[v] == satur[pick] && len(adj[v]) > len(adj[pick])) {
				pick = v
			}
		}
		pin := 0
		for pin < len(seen[pick]) && seen[pick][pin] {
			pin++
		}
		color[pick] = pin
		for _, n := range adj[pick] {
			if pin >= len(seen[n]) {
				seen[n] = append(seen[n], make([]bool, pin+1-len(seen[n]))...)
			}
			if !seen[n][pin] {
				seen[n][pin] = true
				satur[n]++
			}
		}
	}
	pins := make(map[arch.Point]int, len(a.used))
	for v, c := range a.used {
		pins[c] = color[v]
	}
	return &PinMap{Pins: pins}
}
