// Package arch models the physical architecture of a Digital Microfluidic
// Biochip (DMFB): a 2D array of electrodes augmented with non-reconfigurable
// devices (sensors, heaters) and perimeter I/O reservoirs.
//
// Coordinates follow screen convention: X grows rightward across columns,
// Y grows downward across rows. Cell (0,0) is the top-left electrode.
package arch

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Point identifies a single electrode on the array.
type Point struct {
	X, Y int
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Compare orders points row-major: by row (Y), then by column (X).
func (p Point) Compare(q Point) int { return cmp.Or(cmp.Compare(p.Y, q.Y), cmp.Compare(p.X, q.X)) }

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy int) Point { return Point{p.X + dx, p.Y + dy} }

// Manhattan returns the Manhattan distance between p and q, the minimum
// number of single-electrode transport steps between them.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Adjacent reports whether p and q are 8-adjacent or equal. Two droplets
// whose cells are Adjacent violate the static fluidic constraint unless they
// are intentionally merging.
func (p Point) Adjacent(q Point) bool {
	return abs(p.X-q.X) <= 1 && abs(p.Y-q.Y) <= 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is an axis-aligned rectangle of electrodes: the footprint of a placed
// module. X,Y is the upper-left cell; W,H are the dimensions in cells.
type Rect struct {
	X, Y, W, H int
}

func (r Rect) String() string { return fmt.Sprintf("[%d,%d %dx%d]", r.X, r.Y, r.W, r.H) }

// Contains reports whether the cell p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X && p.X < r.X+r.W && p.Y >= r.Y && p.Y < r.Y+r.H
}

// Overlaps reports whether r and s share at least one cell.
func (r Rect) Overlaps(s Rect) bool {
	return r.X < s.X+s.W && s.X < r.X+r.W && r.Y < s.Y+s.H && s.Y < r.Y+r.H
}

// Expand grows r by m cells on every side. The result may extend beyond the
// chip; callers clip against the array as needed. Expanding by one cell
// yields the interference region of a module: constraint (4)/(5) of the paper
// requires one free electrode between concurrently placed modules.
func (r Rect) Expand(m int) Rect {
	return Rect{X: r.X - m, Y: r.Y - m, W: r.W + 2*m, H: r.H + 2*m}
}

// Center returns the cell nearest the geometric center of r.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// Cells returns every cell covered by r in row-major order.
func (r Rect) Cells() []Point {
	cells := make([]Point, 0, r.W*r.H)
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			cells = append(cells, Point{x, y})
		}
	}
	return cells
}

// Area returns the number of cells covered by r.
func (r Rect) Area() int { return r.W * r.H }

// DeviceKind distinguishes the non-reconfigurable resources integrated on the
// chip. Reconfigurable operations (mix, store, split) can execute on any free
// electrodes; sensing and heating require a device of the matching kind.
type DeviceKind int

const (
	// Sensor marks an integrated detector (optical, capacitive, weight...).
	Sensor DeviceKind = iota
	// Heater marks an integrated heating element.
	Heater
)

func (k DeviceKind) String() string {
	switch k {
	case Sensor:
		return "sensor"
	case Heater:
		return "heater"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// Device is a non-reconfigurable resource occupying a fixed region of the
// array. Operations that need the device must be placed on its footprint.
type Device struct {
	Kind DeviceKind
	Name string
	Loc  Rect
}

// Side identifies one edge of the chip perimeter.
type Side int

const (
	North Side = iota
	South
	East
	West
)

func (s Side) String() string {
	switch s {
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// PortKind distinguishes dispense reservoirs from waste/collection outputs.
type PortKind int

const (
	// Input ports dispense fresh droplets onto the array.
	Input PortKind = iota
	// Output ports remove droplets from the array (waste or collection).
	Output
)

func (k PortKind) String() string {
	if k == Input {
		return "input"
	}
	return "output"
}

// Port is an I/O reservoir attached to the chip perimeter. Cell is the
// electrode adjacent to the reservoir where droplets appear (Input) or leave
// the array (Output). Fluid names the reagent the reservoir holds; Output
// ports and general-purpose inputs leave it empty.
type Port struct {
	Name  string
	Kind  PortKind
	Side  Side
	Cell  Point
	Fluid string
}

// Chip describes one DMFB: array dimensions, actuation cycle period, and the
// fixed resources (devices and ports).
type Chip struct {
	// Cols and Rows are the array dimensions (paper: a 15x19 DMFB).
	Cols, Rows int
	// CyclePeriod is the duration of one electrode-actuation cycle, the
	// time to move a droplet to a neighboring electrode (paper: 10 ms).
	CyclePeriod time.Duration
	Devices     []Device
	Ports       []Port
}

// InBounds reports whether p is on the array.
func (c *Chip) InBounds(p Point) bool {
	return p.X >= 0 && p.X < c.Cols && p.Y >= 0 && p.Y < c.Rows
}

// Bounds returns the full-array rectangle.
func (c *Chip) Bounds() Rect { return Rect{0, 0, c.Cols, c.Rows} }

// FitsOnChip reports whether r lies entirely on the array: constraints (2)
// and (3) of the paper. It subtracts rather than adds, so no declared size
// overflows into a fit.
func (c *Chip) FitsOnChip(r Rect) bool {
	return r.X >= 0 && r.Y >= 0 && r.W >= 0 && r.H >= 0 && r.W <= c.Cols-r.X && r.H <= c.Rows-r.Y
}

// DevicesOf returns the devices of kind k in declaration order.
func (c *Chip) DevicesOf(k DeviceKind) []Device {
	var out []Device
	for _, d := range c.Devices {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// Device returns the named device.
func (c *Chip) Device(name string) (Device, bool) {
	for _, d := range c.Devices {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// PortsOf returns the ports of kind k in declaration order.
func (c *Chip) PortsOf(k PortKind) []Port {
	var out []Port
	for _, p := range c.Ports {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

// Port returns the named port.
func (c *Chip) Port(name string) (Port, bool) {
	for _, p := range c.Ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// InputFor returns an input port that dispenses the named fluid. Ports bound
// to the exact fluid win; otherwise the first unbound input port is used.
func (c *Chip) InputFor(fluid string) (Port, bool) {
	var fallback *Port
	for i, p := range c.Ports {
		if p.Kind != Input {
			continue
		}
		if p.Fluid == fluid {
			return p, true
		}
		if p.Fluid == "" && fallback == nil {
			fallback = &c.Ports[i]
		}
	}
	if fallback != nil {
		return *fallback, true
	}
	return Port{}, false
}

// Cycles converts a wall-clock duration to actuation cycles, rounding up so
// an operation never finishes early.
func (c *Chip) Cycles(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	n := int((d + c.CyclePeriod - 1) / c.CyclePeriod)
	return n
}

// Duration converts a cycle count back to wall-clock time.
func (c *Chip) Duration(cycles int) time.Duration {
	return time.Duration(cycles) * c.CyclePeriod
}

// MaxElectrodes bounds the array a chip may declare: 65,536 electrodes, a
// 256x256 array. The paper's chip has 285 and Large 1,089. Structures sized
// by the array (topology slots, the motion kernel's cell grid) stay small
// under it, whatever a configuration file or a saved executable declares.
const MaxElectrodes = 1 << 16

// CheckArea reports an array of more than MaxElectrodes electrodes. It
// multiplies nothing, so no declared size overflows it.
func (c *Chip) CheckArea() error {
	if c.Cols > 0 && c.Rows > 0 && c.Cols > MaxElectrodes/c.Rows {
		return fmt.Errorf("arch: chip %dx%d has more than %d electrodes", c.Cols, c.Rows, MaxElectrodes)
	}
	return nil
}

// Validate checks structural sanity: positive dimensions, at most
// MaxElectrodes electrodes, devices on-chip, ports on their declared
// perimeter side, and unique resource names.
func (c *Chip) Validate() error {
	if c.Cols <= 0 || c.Rows <= 0 {
		return fmt.Errorf("arch: chip dimensions %dx%d must be positive", c.Cols, c.Rows)
	}
	if err := c.CheckArea(); err != nil {
		return err
	}
	if c.CyclePeriod <= 0 {
		return fmt.Errorf("arch: cycle period %v must be positive", c.CyclePeriod)
	}
	names := map[string]bool{}
	for _, d := range c.Devices {
		if d.Name == "" {
			return fmt.Errorf("arch: device of kind %v has no name", d.Kind)
		}
		if names[d.Name] {
			return fmt.Errorf("arch: duplicate resource name %q", d.Name)
		}
		names[d.Name] = true
		if d.Loc.W < 1 || d.Loc.H < 1 {
			return fmt.Errorf("arch: device %q has no cells (%dx%d)", d.Name, d.Loc.W, d.Loc.H)
		}
		if !c.FitsOnChip(d.Loc) {
			return fmt.Errorf("arch: device %q at %v lies outside the %dx%d array", d.Name, d.Loc, c.Cols, c.Rows)
		}
	}
	for _, p := range c.Ports {
		if p.Name == "" {
			return fmt.Errorf("arch: %v port at %v has no name", p.Kind, p.Cell)
		}
		if names[p.Name] {
			return fmt.Errorf("arch: duplicate resource name %q", p.Name)
		}
		names[p.Name] = true
		if !c.InBounds(p.Cell) {
			return fmt.Errorf("arch: port %q cell %v lies outside the array", p.Name, p.Cell)
		}
		if !onSide(c, p.Cell, p.Side) {
			return fmt.Errorf("arch: port %q cell %v is not on the %v edge", p.Name, p.Cell, p.Side)
		}
	}
	return nil
}

func onSide(c *Chip, p Point, s Side) bool {
	switch s {
	case North:
		return p.Y == 0
	case South:
		return p.Y == c.Rows-1
	case East:
		return p.X == c.Cols-1
	case West:
		return p.X == 0
	}
	return false
}

// SensorCells returns the set of cells covered by any sensor, as a sorted
// slice (useful for deterministic iteration in tests).
func (c *Chip) SensorCells() []Point {
	return deviceCells(c, Sensor)
}

// HeaterCells returns the set of cells covered by any heater.
func (c *Chip) HeaterCells() []Point {
	return deviceCells(c, Heater)
}

func deviceCells(c *Chip, k DeviceKind) []Point {
	seen := map[Point]bool{}
	var out []Point
	for _, d := range c.Devices {
		if d.Kind != k {
			continue
		}
		for _, cell := range d.Loc.Cells() {
			if !seen[cell] {
				seen[cell] = true
				out = append(out, cell)
			}
		}
	}
	slices.SortFunc(out, Point.Compare)
	return out
}
