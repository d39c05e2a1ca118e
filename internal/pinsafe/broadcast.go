package pinsafe

import (
	"fmt"
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
)

// The broadcast replay verifier. Verify rewrites every activation frame of
// every sequence to its closure under a pin map — all cells wired to any
// pin the frame drives — and re-interprets the sequence under the verify
// package's motion rule, diffing each droplet's position against the
// baseline trajectory after every cycle. The first divergence of a
// sequence is reported (BF502) and the sequence abandoned: everything
// after a diverted droplet is fiction. Closure cells that fall on
// defective electrodes are reported (BF503) and dropped — a defective
// electrode cannot actuate — and closure cells outside the array are
// ignored: the map names an electrode the chip does not have.

type bcastVerifier struct {
	a      *Analysis
	pins   map[arch.Point]int
	groups map[int][]arch.Point
	diags  []verify.Diag
}

func (v *bcastVerifier) errorf(code string, pos verify.Pos, format string, args ...any) {
	if len(v.diags) >= maxDiags {
		return
	}
	v.diags = append(v.diags, verify.Diag{Code: code, Sev: verify.Error, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Verify checks the pin map against the executable: BF501 for every
// interference-graph edge whose endpoints share a pin, then a broadcast
// replay of every sequence for trajectory divergences (BF502) and
// defective-electrode actuations (BF503). An empty diagnostic list means
// the map preserves the executable's fluidic semantics.
func (a *Analysis) Verify(m *PinMap) []verify.Diag {
	v := &bcastVerifier{a: a, pins: m.Pins, groups: m.groups()}
	for _, c := range a.Conflicts() {
		pa, oka := m.Pins[c.A]
		pb, okb := m.Pins[c.B]
		if !oka || !okb || pa != pb {
			continue
		}
		effect := fmt.Sprintf("tear droplet %s between active electrodes", c.Fluid)
		if c.Hold {
			effect = fmt.Sprintf("hold droplet %s in place when it must move", c.Fluid)
		}
		v.errorf("BF501",
			verify.Pos{Scope: c.Scope, InstrID: -1, Cycle: c.Cycle, Cell: c.Passenger, HasCell: true},
			"electrodes %v and %v share pin %d but interfere: co-driving %v while %v actuates would %s",
			c.A, c.B, pa, c.Passenger, c.Driven, effect)
	}
	for _, si := range a.seqs {
		v.sequence(si)
	}
	return v.diags
}

// sequence broadcast-replays one activation sequence against its baseline.
// Frames never change the droplet population, so the canonical droplet
// order is rebuilt only after events.
func (v *bcastVerifier) sequence(si seqInfo) {
	s := si.seq
	base := clonePos(si.rep.Start)
	bpos := clonePos(si.rep.Start)
	order := sortedFluids(bpos)
	moves := si.rep.Moves
	mi, evIdx := 0, 0
	seenFaulty := map[arch.Point]bool{}
	// Per-cycle scratch: the frame's broadcast closure and the distinct
	// pins it drives, ascending.
	active := map[arch.Point]bool{}
	var driven []int
	for t := 0; t < s.NumCycles && t < len(s.Frames); t++ {
		fired := false
		for evIdx < len(s.Events) && s.Events[evIdx].Cycle <= t {
			applyEvent(s.Events[evIdx], base)
			applyEvent(s.Events[evIdx], bpos)
			evIdx++
			fired = true
		}
		if fired {
			order = sortedFluids(bpos)
		}
		frame := s.Frames[t]
		if t > 0 && !fired && (mi >= len(moves) || moves[mi].Cycle > t) && codegen.SameFrame(s.Frames[t-1], frame) {
			// A hold cycle with no baseline move: the closure is the last
			// cycle's, under which every droplet held where the baseline
			// has it, so it holds again.
			continue
		}
		clear(active)
		for _, c := range frame {
			active[c] = true
		}
		driven = driven[:0]
		for _, c := range frame {
			if pin, ok := v.pins[c]; ok {
				driven = append(driven, pin)
			}
		}
		slices.Sort(driven)
		driven = slices.Compact(driven)
		for _, pin := range driven {
			for _, c := range v.groups[pin] {
				if active[c] || !v.a.chip.InBounds(c) {
					continue
				}
				if v.a.topo != nil && v.a.topo.Faulty(c) {
					if !seenFaulty[c] {
						seenFaulty[c] = true
						v.errorf("BF503",
							verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: c, HasCell: true},
							"broadcast closure of pin %d actuates defective electrode %v", pin, c)
					}
					continue
				}
				active[c] = true
			}
		}
		for ; mi < len(moves) && moves[mi].Cycle == t; mi++ {
			base[moves[mi].Fluid] = moves[mi].To
		}
		for _, f := range order {
			p := bpos[f]
			if active[p] {
				continue // hold
			}
			var next arch.Point
			n := 0
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				if q := p.Add(d[0], d[1]); active[q] {
					next = q
					n++
				}
			}
			switch n {
			case 1:
				bpos[f] = next
			case 0:
				v.errorf("BF502", verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: p, HasCell: true},
					"droplet %s at %v stranded under broadcast actuation: no active electrode in reach", f, p)
				return
			default:
				v.errorf("BF502", verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: p, HasCell: true},
					"droplet %s at %v torn between %d active electrodes under broadcast actuation", f, p, n)
				return
			}
		}
		// base and bpos hold the same droplets: events apply to both, and
		// baseline moves name only droplets on the chip.
		for _, f := range order {
			if bpos[f] != base[f] {
				v.errorf("BF502", verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: bpos[f], HasCell: true},
					"broadcast actuation diverts droplet %s to %v; the program expects %v", f, bpos[f], base[f])
				return
			}
		}
	}
}

// applyEvent applies one structural event to a droplet population. The
// sequence passed baseline replay, so arities and droplet identities are
// already known to be sound — no checking here.
func applyEvent(ev codegen.Event, pos map[ir.FluidID]arch.Point) {
	switch ev.Kind {
	case codegen.EvDispense:
		pos[ev.Results[0]] = ev.Cells[0]
	case codegen.EvOutput:
		delete(pos, ev.Inputs[0])
	case codegen.EvSplit:
		delete(pos, ev.Inputs[0])
		for i, r := range ev.Results {
			pos[r] = ev.Cells[i]
		}
	case codegen.EvMerge:
		for _, in := range ev.Inputs {
			delete(pos, in)
		}
		pos[ev.Results[0]] = ev.Cells[0]
	case codegen.EvRename:
		p := pos[ev.Inputs[0]]
		delete(pos, ev.Inputs[0])
		pos[ev.Results[0]] = p
	}
}

func clonePos(m map[ir.FluidID]arch.Point) map[ir.FluidID]arch.Point {
	out := make(map[ir.FluidID]arch.Point, len(m))
	for f, p := range m {
		out[f] = p
	}
	return out
}

func sortedFluids(m map[ir.FluidID]arch.Point) []ir.FluidID {
	fs := make([]ir.FluidID, 0, len(m))
	for f := range m {
		fs = append(fs, f)
	}
	ir.SortFluids(fs)
	return fs
}
