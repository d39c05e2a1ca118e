package place

import (
	"fmt"
	"sort"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/sched"
)

// Assignment binds one scheduled item to a chip location: a module slot for
// on-array operations and storage, or a perimeter port for I/O.
type Assignment struct {
	// Slot is the virtual-topology slot index, -1 for port assignments,
	// or FreeSlot for modules placed by the free (non-topology) placer.
	Slot int
	// Rect is the concrete footprint: the module rectangle, or the 1x1
	// port cell.
	Rect arch.Rect
	// Port names the reservoir for dispense/output assignments.
	Port string
	// Device names the integrated device for sense/heat assignments.
	Device string
}

// FreeSlot marks an Assignment produced by the free placer (no topology
// slot backs it; the Rect is authoritative).
const FreeSlot = -2

// BlockPlacement is the placement of one basic block's schedule.
type BlockPlacement struct {
	Block  *cfg.Block
	Sched  *sched.BlockSchedule
	Assign map[*sched.Item]Assignment
}

// Placement is the whole-program placement. Because the graph is in SSI
// form with maximal live-range splitting, every block is placed
// independently (paper §6.3.4); droplet hand-off between blocks is the
// router's job (§6.4.3).
type Placement struct {
	Topo   *Topology
	Blocks map[int]*BlockPlacement
}

// EntryLoc returns where droplet f is expected at the entry of block b (the
// location of its φ-destination's first item), and ExitLoc where f sits at
// the end of b. Both are used for CFG-edge routing.
func (p *Placement) EntryLoc(b *cfg.Block, f ir.FluidID) (Assignment, bool) {
	bp := p.Blocks[b.ID]
	if bp == nil {
		return Assignment{}, false
	}
	best := (*sched.Item)(nil)
	var bestAsn Assignment
	for it, asn := range bp.Assign {
		if !holdsFluid(it, f) {
			continue
		}
		if best == nil || it.Start < best.Start {
			best, bestAsn = it, asn
		}
	}
	if best == nil || best.Start != 0 {
		return Assignment{}, false
	}
	return bestAsn, true
}

// ExitLoc returns the location of droplet f at the end of block b.
func (p *Placement) ExitLoc(b *cfg.Block, f ir.FluidID) (Assignment, bool) {
	bp := p.Blocks[b.ID]
	if bp == nil {
		return Assignment{}, false
	}
	best := (*sched.Item)(nil)
	var bestAsn Assignment
	for it, asn := range bp.Assign {
		if !holdsFluid(it, f) {
			continue
		}
		if best == nil || it.End > best.End {
			best, bestAsn = it, asn
		}
	}
	if best == nil {
		return Assignment{}, false
	}
	return bestAsn, true
}

func holdsFluid(it *sched.Item, f ir.FluidID) bool {
	if it.IsStorage() {
		return it.Fluid == f
	}
	return it.Instr.UsesFluid(f) || it.Instr.DefinesFluid(f)
}

// Strategy selects a placement formulation.
type Strategy int

const (
	// Virtual binds items to the virtual topology's module slots with a
	// greedy in-order sweep (§6.3.4). Items are processed in start order,
	// so per-pool assignment is interval-graph coloring: it succeeds
	// whenever the schedule respected the topology-derived resource counts.
	Virtual Strategy = iota
	// Homed pins every cross-block fluid to a home slot: placement without
	// live-range splitting (§6.3.3, homed.go).
	Homed
	// Free places arbitrary module rectangles without the virtual topology
	// (§6.3.1-6.3.2, free.go).
	Free
)

// BlockPlacer places one scheduled block. It reads only the block's own
// schedule and state fixed when the placer was made, so blocks place
// independently and concurrently (§6.3.4).
type BlockPlacer func(bs *sched.BlockSchedule) (*BlockPlacement, error)

// NewBlockPlacer returns the strategy's per-block placer for the SSI-form
// graph g on topo. The homed placer assigns every cross-block fluid its
// home slot here, once for the whole graph.
func NewBlockPlacer(strategy Strategy, g *cfg.Graph, topo *Topology) (BlockPlacer, error) {
	placeOne := func(bs *sched.BlockSchedule) (*BlockPlacement, error) { return placeBlock(bs, topo) }
	switch strategy {
	case Homed:
		homes, err := homeSlots(g, topo)
		if err != nil {
			return nil, err
		}
		live := cfg.ComputeLiveness(g)
		placeOne = func(bs *sched.BlockSchedule) (*BlockPlacement, error) {
			return placeBlockHomed(bs, topo, homes, live.Out[bs.Block.ID])
		}
	case Free:
		placeOne = func(bs *sched.BlockSchedule) (*BlockPlacement, error) { return placeBlockFree(bs, topo) }
	}
	return func(bs *sched.BlockSchedule) (*BlockPlacement, error) {
		bp, err := placeOne(bs)
		if err != nil {
			return nil, fmt.Errorf("place: block %s: %w", bs.Block.Label, err)
		}
		return bp, nil
	}, nil
}

// Place places every block of a whole-graph schedule with the strategy's
// block placer.
func Place(g *cfg.Graph, s *sched.Result, topo *Topology, strategy Strategy) (*Placement, error) {
	placeOne, err := NewBlockPlacer(strategy, g, topo)
	if err != nil {
		return nil, err
	}
	pl := &Placement{Topo: topo, Blocks: map[int]*BlockPlacement{}}
	for _, b := range g.Blocks {
		bs := s.Blocks[b.ID]
		if bs == nil {
			return nil, fmt.Errorf("place: block %s has no schedule", b.Label)
		}
		if pl.Blocks[b.ID], err = placeOne(bs); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// binder tracks one resource pool (slots of a kind, or ports of a kind)
// during the in-order sweep. freeAt is monotone because items are placed in
// start order.
type binder struct {
	freeAt map[int]int // slot index or port index -> next free cycle
}

func newBinder() *binder { return &binder{freeAt: map[int]int{}} }

func (bd *binder) available(idx, start int) bool { return bd.freeAt[idx] <= start }

func (bd *binder) take(idx, end int) { bd.freeAt[idx] = end }

func placeBlock(bs *sched.BlockSchedule, topo *Topology) (*BlockPlacement, error) {
	bp := &BlockPlacement{
		Block:  bs.Block,
		Sched:  bs,
		Assign: map[*sched.Item]Assignment{},
	}
	slots := newBinder()
	inPorts := newBinder()
	outPorts := newBinder()
	// lastSlot remembers each droplet's current slot so follow-on items
	// prefer staying put (renaming in place instead of transporting,
	// Fig. 13(b)).
	lastSlot := map[ir.FluidID]int{}

	ins := usablePorts(topo, arch.Input)
	outs := usablePorts(topo, arch.Output)

	// Items are pre-sorted by start (ops before storage on ties).
	for _, it := range bs.Items {
		switch {
		case it.IsStorage():
			idx, err := pickSlot(topo, slots, Plain, it.Start, preferredSlot(lastSlot, it.Fluid))
			if err != nil {
				return nil, fmt.Errorf("storage of %s at cycle %d: %w", it.Fluid, it.Start, err)
			}
			slots.take(idx, it.End)
			lastSlot[it.Fluid] = idx
			bp.Assign[it] = Assignment{Slot: idx, Rect: topo.Slots[idx].Loc}

		case it.Instr.Kind == ir.Dispense:
			idx, err := pickInPort(ins, inPorts, it.Instr.FluidType, it.Start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Instr, err)
			}
			inPorts.take(idx, it.End)
			p := ins[idx]
			bp.Assign[it] = Assignment{Slot: -1, Rect: arch.Rect{X: p.Cell.X, Y: p.Cell.Y, W: 1, H: 1}, Port: p.Name}
			for _, r := range it.Instr.Results {
				delete(lastSlot, r) // droplet appears at the port
			}

		case it.Instr.Kind == ir.Output:
			idx, err := pickOutPort(outs, outPorts, it.Instr.Port, it.Start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Instr, err)
			}
			outPorts.take(idx, it.End)
			p := outs[idx]
			bp.Assign[it] = Assignment{Slot: -1, Rect: arch.Rect{X: p.Cell.X, Y: p.Cell.Y, W: 1, H: 1}, Port: p.Name}

		default:
			kind := Plain
			switch it.Instr.Kind {
			case ir.Sense:
				kind = SensorSlot
			case ir.Heat:
				kind = HeaterSlot
			}
			idx, err := pickSlot(topo, slots, kind, it.Start, preferredArgSlot(lastSlot, it.Instr))
			if err != nil {
				return nil, fmt.Errorf("%s at cycle %d: %w", it.Instr, it.Start, err)
			}
			slots.take(idx, it.End)
			for _, f := range it.Instr.Args {
				delete(lastSlot, f)
			}
			for _, f := range it.Instr.Results {
				lastSlot[f] = idx
			}
			bp.Assign[it] = Assignment{Slot: idx, Rect: topo.Slots[idx].Loc, Device: topo.Slots[idx].Device}
		}
	}
	return bp, nil
}

func preferredSlot(lastSlot map[ir.FluidID]int, f ir.FluidID) int {
	if idx, ok := lastSlot[f]; ok {
		return idx
	}
	return -1
}

func preferredArgSlot(lastSlot map[ir.FluidID]int, in *ir.Instr) int {
	for _, a := range in.Args {
		if idx, ok := lastSlot[a]; ok {
			return idx
		}
	}
	return -1
}

// pickSlot returns a slot of the wanted kind free at start, preferring the
// droplet's current slot when legal, then the lowest index.
func pickSlot(topo *Topology, bd *binder, kind SlotKind, start, preferred int) (int, error) {
	if preferred >= 0 && topo.Slots[preferred].Kind == kind && bd.available(preferred, start) {
		return preferred, nil
	}
	for _, s := range topo.Slots {
		if s.Kind == kind && bd.available(s.Index, start) {
			return s.Index, nil
		}
	}
	return 0, fmt.Errorf("no free %v slot", kind)
}

// usablePorts filters out reservoirs whose dispense cell is defective.
func usablePorts(topo *Topology, kind arch.PortKind) []arch.Port {
	var out []arch.Port
	for _, p := range topo.Chip.PortsOf(kind) {
		if !topo.Faulty(p.Cell) {
			out = append(out, p)
		}
	}
	return out
}

// pickInPort prefers reservoirs bound to the dispensed fluid, then unbound
// general-purpose reservoirs.
func pickInPort(ports []arch.Port, bd *binder, fluid string, start int) (int, error) {
	for pass := 0; pass < 2; pass++ {
		for i, p := range ports {
			bound := p.Fluid == fluid
			if pass == 0 && !bound {
				continue
			}
			if pass == 1 && p.Fluid != "" {
				continue
			}
			if bd.available(i, start) {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("no free input reservoir for fluid %q", fluid)
}

// pickOutPort honors an explicit port request when a chip port carries that
// name; otherwise any free output reservoir serves.
func pickOutPort(ports []arch.Port, bd *binder, want string, start int) (int, error) {
	if want != "" {
		for i, p := range ports {
			if p.Name == want {
				if !bd.available(i, start) {
					return 0, fmt.Errorf("output port %q busy", want)
				}
				return i, nil
			}
		}
		// The label does not name a physical port; fall through.
	}
	for i := range ports {
		if bd.available(i, start) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no free output reservoir")
}

// Check verifies placement legality: constraints (2)-(4) of §6.3.1 — every
// module on-chip and no two concurrently active module footprints within
// one cell of each other — plus device-capability requirements.
func (p *Placement) Check() error {
	for _, bp := range p.Blocks {
		items := make([]*sched.Item, 0, len(bp.Assign))
		for it := range bp.Assign {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i].Start < items[j].Start })
		for i, a := range items {
			asnA := bp.Assign[a]
			if !p.Topo.Chip.FitsOnChip(asnA.Rect) {
				return fmt.Errorf("place: block %s: %v placed off-chip at %v", bp.Block.Label, a, asnA.Rect)
			}
			if err := checkCapability(p.Topo, a, asnA); err != nil {
				return fmt.Errorf("place: block %s: %w", bp.Block.Label, err)
			}
			for _, b := range items[i+1:] {
				if b.Start >= a.End {
					break
				}
				asnB := bp.Assign[b]
				// Constraint (4): concurrently placed modules keep one
				// free electrode between them (ports are perimeter
				// cells outside module footprints).
				if asnA.Slot != -1 && asnB.Slot != -1 && asnA.Rect.Expand(1).Overlaps(asnB.Rect) {
					return fmt.Errorf("place: block %s: items %v and %v violate one-cell separation (%v vs %v)",
						bp.Block.Label, a, b, asnA.Rect, asnB.Rect)
				}
			}
		}
	}
	return nil
}

func checkCapability(topo *Topology, it *sched.Item, asn Assignment) error {
	// Free-placed assignments: the rect is authoritative; device-bound
	// operations must sit on a device of the right kind.
	if asn.Slot == FreeSlot {
		if !it.IsStorage() && it.Instr.Kind.NeedsDevice() {
			d, ok := topo.Chip.Device(asn.Device)
			if !ok {
				return fmt.Errorf("%v not bound to a device", it.Instr)
			}
			want := arch.Sensor
			if it.Instr.Kind == ir.Heat {
				want = arch.Heater
			}
			if d.Kind != want {
				return fmt.Errorf("%v placed on %v device %q", it.Instr, d.Kind, d.Name)
			}
		}
		return nil
	}
	if it.IsStorage() {
		if asn.Slot < 0 || topo.Slots[asn.Slot].Kind != Plain {
			return fmt.Errorf("storage %v not on a plain slot", it)
		}
		return nil
	}
	switch it.Instr.Kind {
	case ir.Sense:
		if asn.Slot < 0 || topo.Slots[asn.Slot].Kind != SensorSlot {
			return fmt.Errorf("%v not placed on a sensor", it.Instr)
		}
	case ir.Heat:
		if asn.Slot < 0 || topo.Slots[asn.Slot].Kind != HeaterSlot {
			return fmt.Errorf("%v not placed on a heater", it.Instr)
		}
	case ir.Dispense, ir.Output:
		if asn.Port == "" {
			return fmt.Errorf("%v not bound to a port", it.Instr)
		}
	default:
		if asn.Slot < 0 || topo.Slots[asn.Slot].Kind != Plain {
			return fmt.Errorf("%v not on a plain slot", it.Instr)
		}
	}
	return nil
}
