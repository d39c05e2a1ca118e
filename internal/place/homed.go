package place

import (
	"fmt"
	"sort"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/sched"
)

// The homed placer emulates CFG placement *without* live-range splitting
// (paper §6.3.3): in the interference-graph formulation every operation —
// including the storage of a live range that crosses block boundaries —
// receives a single global location, so control-flow transfers need no
// droplet transport and Δ_E is empty (§6.4.2).
//
// Under our SSI pipeline the equivalent effect is obtained by assigning
// every fluidic variable *name* a fixed "home" plain slot and pinning all
// of its boundary storage intervals (the φ-destination storage at block
// entries and the live-out storage at block exits) to that home. The
// schedule must have been produced with sched.Config.BoundaryStorage set so
// those intervals exist. Exit and entry locations then coincide and every
// edge copy becomes an in-place rename.
//
// The price is the §6.3.3 trade-off the paper discusses: homes monopolize
// plain slots for whole live ranges (demand may exceed the chip where the
// splitting placer would succeed), and every block pays in-block transport
// to and from the home instead of the cheaper per-edge routes.

// homeSlots gives every fluid name whose live range crosses a block
// boundary its home plain slot, in name order.
func homeSlots(g *cfg.Graph, topo *Topology) (map[string]int, error) {
	nameSet := map[string]bool{}
	for _, b := range g.Blocks {
		for _, phi := range b.Phis {
			nameSet[phi.Dst.Name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)

	plain := topo.SlotsOf(Plain)
	if len(names) > len(plain) {
		return nil, fmt.Errorf("place: %d cross-block fluids need homes but only %d plain slots exist (no off-chip spill, §6.6)", len(names), len(plain))
	}
	homes := map[string]int{}
	for i, n := range names {
		homes[n] = plain[i].Index
	}
	return homes, nil
}

// placeBlockHomed is placeBlock with boundary storage pinned to homes;
// liveOut is the block's live-out set.
func placeBlockHomed(bs *sched.BlockSchedule, topo *Topology, homes map[string]int, liveOut cfg.Set) (*BlockPlacement, error) {
	b := bs.Block
	bp := &BlockPlacement{
		Block:  b,
		Sched:  bs,
		Assign: map[*sched.Item]Assignment{},
	}
	slots := newBinder()
	inPorts := newBinder()
	outPorts := newBinder()
	lastSlot := map[ir.FluidID]int{}

	phiDst := map[ir.FluidID]bool{}
	for _, phi := range b.Phis {
		phiDst[phi.Dst] = true
	}

	ins := usablePorts(topo, arch.Input)
	outs := usablePorts(topo, arch.Output)

	for _, it := range bs.Items {
		switch {
		case it.IsStorage():
			isEntry := it.Start == 0 && phiDst[it.Fluid]
			isExit := it.End == bs.Length && liveOut[it.Fluid]
			idx := -1
			if isEntry || isExit {
				home, ok := homes[it.Fluid.Name]
				if !ok {
					return nil, fmt.Errorf("boundary droplet %s has no home", it.Fluid)
				}
				if !slots.available(home, it.Start) {
					return nil, fmt.Errorf("home slot %d of %s busy at cycle %d", home, it.Fluid.Name, it.Start)
				}
				idx = home
			} else {
				var err error
				idx, err = pickSlot(topo, slots, Plain, it.Start, preferredSlot(lastSlot, it.Fluid))
				if err != nil {
					return nil, fmt.Errorf("storage of %s at cycle %d: %w", it.Fluid, it.Start, err)
				}
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
				delete(lastSlot, r)
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
