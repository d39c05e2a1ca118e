package place

import (
	"fmt"
	"sort"

	"biocoder/internal/arch"
	"biocoder/internal/ir"
	"biocoder/internal/sched"
)

// The free placer is the paper's §6.3.1-6.3.2 placement formulation,
// without the virtual topology: every scheduled item receives an arbitrary
// rectangular footprint subject to constraints (2)-(4) — on-chip, and at
// least one free electrode between concurrently placed modules — plus the
// optional constraints the paper mentions (placed modules do not cover I/O
// port cells; sensing and heating sit on their devices). Placement proceeds
// program point by program point in schedule order with a greedy first-fit
// position scan (Bazargan-style), preferring to keep each droplet where it
// already is.
//
// Unlike the virtual-topology placer, success is NOT guaranteed: the
// scheduler's resource abstraction is only a conservative area estimate
// (FreeResources), so dense schedules can fail here — exactly the behavior
// the paper contrasts against the guaranteed heuristics of §7.2.

// FreeResources is the conservative spatial estimate the scheduler uses
// when the free placer will do placement (§5: "a conservative approximation
// of the available spatial resources"): the interior area divided by the
// footprint of a mixer plus its buffer ring.
func FreeResources(topo *Topology) sched.Resources {
	chip := topo.Chip
	interior := (chip.Cols - 2) * (chip.Rows - 2)
	r := sched.Resources{
		Slots:   interior / 16, // 2x3 mixer + ring ≈ 4x5 cells, rounded
		Inputs:  len(usablePorts(topo, arch.Input)),
		Outputs: len(usablePorts(topo, arch.Output)),
	}
	for _, d := range chip.Devices {
		if topoDeviceUsable(topo, d) {
			switch d.Kind {
			case arch.Sensor:
				r.Sensors++
			case arch.Heater:
				r.Heaters++
			}
		}
	}
	if r.Slots < 1 {
		r.Slots = 1
	}
	return r
}

func topoDeviceUsable(topo *Topology, d arch.Device) bool {
	for _, c := range d.Loc.Cells() {
		if topo.Faulty(c) {
			return false
		}
	}
	return true
}

// freeFootprint gives each item kind its module dimensions (§6.3.1: mixers
// 2x3, splits 1x3, in-place holds sized to the droplet).
func freeFootprint(it *sched.Item) (w, h int) {
	if it.IsStorage() {
		return 1, 1
	}
	switch it.Instr.Kind {
	case ir.Mix:
		if len(it.Instr.Args) > 1 {
			return 3, 2 // merge needs staging room
		}
		return 3, 2
	case ir.Split:
		return 3, 1
	default: // Store
		return 1, 1
	}
}

type activeRect struct {
	rect arch.Rect
	end  int
}

type freeState struct {
	topo   *Topology
	active []activeRect
}

func (fs *freeState) expire(t int) {
	kept := fs.active[:0]
	for _, a := range fs.active {
		if a.end > t {
			kept = append(kept, a)
		}
	}
	fs.active = kept
}

// legal checks constraints (2)-(4) plus faults and port cells for a
// candidate rect at time t.
func (fs *freeState) legal(r arch.Rect) bool {
	chip := fs.topo.Chip
	if !chip.FitsOnChip(r) {
		return false
	}
	for _, a := range fs.active {
		if a.rect.Expand(1).Overlaps(r) {
			return false
		}
	}
	for _, f := range fs.topo.Faults {
		if r.Contains(f) {
			return false
		}
	}
	for _, p := range chip.Ports {
		if r.Contains(p.Cell) {
			return false
		}
	}
	return true
}

// find places a w x h module, trying the preferred rect first (droplet
// inertia, Fig. 13(b)), then choosing the legal position with the largest
// clearance from the currently active modules. Pure first-fit would pile
// modules into one corner and starve the router of street space; maximizing
// clearance keeps concurrent modules spread out, the job the virtual
// topology's fixed streets do implicitly.
func (fs *freeState) find(w, h int, preferred *arch.Rect) (arch.Rect, bool) {
	if preferred != nil && preferred.W == w && preferred.H == h && fs.legal(*preferred) {
		return *preferred, true
	}
	chip := fs.topo.Chip
	best := arch.Rect{}
	bestClear, bestCentral := -1, -1
	for y := 1; y+h <= chip.Rows-1; y++ {
		for x := 1; x+w <= chip.Cols-1; x++ {
			r := arch.Rect{X: x, Y: y, W: w, H: h}
			if !fs.legal(r) {
				continue
			}
			c := fs.clearance(r)
			// Tie-break away from the chip border: corners box droplets
			// in against the walls, while the perimeter must stay open
			// for reservoir traffic.
			central := min4(r.X-1, r.Y-1, chip.Cols-1-(r.X+r.W), chip.Rows-1-(r.Y+r.H))
			if c > bestClear || (c == bestClear && central > bestCentral) {
				best, bestClear, bestCentral = r, c, central
			}
		}
	}
	return best, bestClear >= 0
}

func min4(a, b, c, d int) int {
	m := a
	for _, v := range []int{b, c, d} {
		if v < m {
			m = v
		}
	}
	return m
}

// clearance is the smallest rectangle gap between r and any active module
// (capped so empty chips do not push everything into corners), minus a mild
// centering penalty to keep modules near streets rather than walls.
func (fs *freeState) clearance(r arch.Rect) int {
	const cap = 6
	c := cap
	for _, a := range fs.active {
		if g := rectGap(r, a.rect); g < c {
			c = g
		}
	}
	return c
}

// rectGap is the Chebyshev-style gap between two rectangles: 0 when they
// touch or overlap, else the number of free cells between them.
func rectGap(a, b arch.Rect) int {
	dx := 0
	if a.X+a.W <= b.X {
		dx = b.X - (a.X + a.W)
	} else if b.X+b.W <= a.X {
		dx = a.X - (b.X + b.W)
	}
	dy := 0
	if a.Y+a.H <= b.Y {
		dy = b.Y - (a.Y + a.H)
	} else if b.Y+b.H <= a.Y {
		dy = a.Y - (b.Y + b.H)
	}
	if dx > dy {
		return dx
	}
	return dy
}

func placeBlockFree(bs *sched.BlockSchedule, topo *Topology) (*BlockPlacement, error) {
	bp := &BlockPlacement{
		Block:  bs.Block,
		Sched:  bs,
		Assign: map[*sched.Item]Assignment{},
	}
	fs := &freeState{topo: topo}
	inPorts := newBinder()
	outPorts := newBinder()
	lastRect := map[ir.FluidID]arch.Rect{}

	ins := usablePorts(topo, arch.Input)
	outs := usablePorts(topo, arch.Output)

	for _, it := range bs.Items {
		fs.expire(it.Start)
		switch {
		case !it.IsStorage() && it.Instr.Kind == ir.Dispense:
			idx, err := pickInPort(ins, inPorts, it.Instr.FluidType, it.Start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Instr, err)
			}
			inPorts.take(idx, it.End)
			p := ins[idx]
			bp.Assign[it] = Assignment{Slot: -1, Rect: arch.Rect{X: p.Cell.X, Y: p.Cell.Y, W: 1, H: 1}, Port: p.Name}
			for _, r := range it.Instr.Results {
				delete(lastRect, r)
			}

		case !it.IsStorage() && it.Instr.Kind == ir.Output:
			idx, err := pickOutPort(outs, outPorts, it.Instr.Port, it.Start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Instr, err)
			}
			outPorts.take(idx, it.End)
			p := outs[idx]
			bp.Assign[it] = Assignment{Slot: -1, Rect: arch.Rect{X: p.Cell.X, Y: p.Cell.Y, W: 1, H: 1}, Port: p.Name}

		case !it.IsStorage() && it.Instr.Kind.NeedsDevice():
			dev, err := fs.findDevice(it)
			if err != nil {
				return nil, err
			}
			fs.active = append(fs.active, activeRect{dev.Loc, it.End})
			for _, f := range it.Instr.Args {
				delete(lastRect, f)
			}
			for _, f := range it.Instr.Results {
				lastRect[f] = dev.Loc
			}
			bp.Assign[it] = Assignment{Slot: FreeSlot, Rect: dev.Loc, Device: dev.Name}

		default:
			w, h := freeFootprint(it)
			var pref *arch.Rect
			if it.IsStorage() {
				if r, ok := lastRect[it.Fluid]; ok {
					pref = &r
				}
			} else {
				for _, a := range it.Instr.Args {
					if r, ok := lastRect[a]; ok {
						pref = &r
						break
					}
				}
			}
			rect, ok := fs.find(w, h, pref)
			if !ok {
				return nil, fmt.Errorf("free placement failed for %s at cycle %d: no legal %dx%d position (demand exceeds chip area, §6.6)", it, it.Start, w, h)
			}
			fs.active = append(fs.active, activeRect{rect, it.End})
			if it.IsStorage() {
				lastRect[it.Fluid] = rect
			} else {
				for _, f := range it.Instr.Args {
					delete(lastRect, f)
				}
				for _, f := range it.Instr.Results {
					lastRect[f] = rect
				}
			}
			bp.Assign[it] = Assignment{Slot: FreeSlot, Rect: rect}
		}
	}
	return bp, nil
}

// findDevice selects an idle device of the kind the operation needs.
func (fs *freeState) findDevice(it *sched.Item) (arch.Device, error) {
	kind := arch.Sensor
	if it.Instr.Kind == ir.Heat {
		kind = arch.Heater
	}
	devs := fs.topo.Chip.DevicesOf(kind)
	sort.Slice(devs, func(i, j int) bool { return devs[i].Name < devs[j].Name })
	for _, d := range devs {
		if !topoDeviceUsable(fs.topo, d) {
			continue
		}
		busy := false
		for _, a := range fs.active {
			if a.rect.Expand(1).Overlaps(d.Loc) {
				busy = true
				break
			}
		}
		if !busy {
			return d, nil
		}
	}
	return arch.Device{}, fmt.Errorf("%s at cycle %d: no idle %v device", it.Instr, it.Start, kind)
}
