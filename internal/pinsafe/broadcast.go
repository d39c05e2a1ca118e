package pinsafe

import (
	"cmp"
	"fmt"
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/motion"
	"biocoder/internal/verify"
)

// The broadcast replay verifier. Verify rewrites every activation frame of
// every sequence to its closure under a pin map — all cells wired to any
// pin the frame drives — and re-interprets the sequence on the motion
// kernel, next to a second kernel replaying the baseline frames, diffing
// each droplet's position against the baseline trajectory after every
// step. The first divergence of a sequence is reported (BF502) and the
// sequence abandoned: everything after a diverted droplet is fiction.
// Closure cells that fall on defective electrodes are reported (BF503) and
// dropped — a defective electrode cannot actuate — and closure cells
// outside the array are ignored: the map names an electrode the chip does
// not have.

type bcastVerifier struct {
	a *Analysis
	// pins lists the map's pins in ascending order, groups[n] the
	// on-chip cells of pins[n] in row-major order, and pinOf[i] the n of
	// cell i's pin (-1: a dedicated pin).
	pinOf  []int
	pins   []int
	groups [][]arch.Point
	// base replays the baseline frames, bcast their closures.
	base, bcast *motion.Kernel
	// faulty holds the defective cells already reported in this sequence.
	faulty *motion.Grid
	driven []int
	diags  []verify.Diag
}

func newBcastVerifier(a *Analysis, m *PinMap) *bcastVerifier {
	v := &bcastVerifier{
		a:      a,
		pinOf:  make([]int, a.cells.Cells()),
		base:   motion.New(a.chip),
		bcast:  motion.New(a.chip),
		faulty: motion.NewGrid(a.chip.Cols, a.chip.Rows),
	}
	type wire struct{ pin, cell int }
	var wires []wire
	for c, pin := range m.Pins {
		if a.cells.In(c) {
			wires = append(wires, wire{pin, a.cells.Index(c)})
		}
	}
	slices.SortFunc(wires, func(x, y wire) int { return cmp.Or(cmp.Compare(x.pin, y.pin), cmp.Compare(x.cell, y.cell)) })
	for i := range v.pinOf {
		v.pinOf[i] = -1
	}
	for i, w := range wires {
		if i == 0 || w.pin != wires[i-1].pin {
			v.pins = append(v.pins, w.pin)
			v.groups = append(v.groups, nil)
		}
		n := len(v.pins) - 1
		v.pinOf[w.cell] = n
		v.groups[n] = append(v.groups[n], a.cells.Point(w.cell))
	}
	return v
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
	v := newBcastVerifier(a, m)
	for _, c := range a.Conflicts() {
		// Both endpoints are on the chip: a driven electrode passed
		// baseline replay, and passengers are in bounds.
		pa, pb := v.pinOf[a.cells.Index(c.A)], v.pinOf[a.cells.Index(c.B)]
		if pa < 0 || pa != pb {
			continue
		}
		effect := fmt.Sprintf("tear droplet %s between active electrodes", c.Fluid)
		if c.Hold {
			effect = fmt.Sprintf("hold droplet %s in place when it must move", c.Fluid)
		}
		v.errorf("BF501",
			verify.Pos{Scope: c.Scope, InstrID: -1, Cycle: c.Cycle, Cell: c.Passenger, HasCell: true},
			"electrodes %v and %v share pin %d but interfere: co-driving %v while %v actuates would %s",
			c.A, c.B, v.pins[pa], c.Passenger, c.Driven, effect)
	}
	for _, si := range a.seqs {
		v.sequence(si)
	}
	return v.diags
}

// sequence broadcast-replays one activation sequence against its baseline.
// The sequence passed baseline replay, so its events apply and its frames
// are interpretable: only the closure can go wrong.
func (v *bcastVerifier) sequence(si seqInfo) {
	s := si.seq
	base, bc := v.base, v.bcast
	base.Load(si.rep.Start)
	bc.Load(si.rep.Start)
	v.faulty.Clear()
	evIdx := 0
	t := 0
	for _, run := range s.Runs {
		frame := run.Frame
		// The closure is applied at the run's first cycle and again at
		// each event inside the run, the only cycles where the baseline
		// replay moves a droplet. In between it is the closure every
		// droplet last held under, on its baseline cell, so every
		// droplet holds again.
		for end := t + run.Len; t < end; {
			for evIdx < len(s.Events) && s.Events[evIdx].Cycle <= t {
				base.Event(s.Events[evIdx])
				bc.Event(s.Events[evIdx])
				evIdx++
			}
			base.Frame(frame)
			bc.Actuate(frame)
			v.driven = v.driven[:0]
			for _, c := range frame {
				if n := v.pinOf[v.a.cells.Index(c)]; n >= 0 {
					v.driven = append(v.driven, n)
				}
			}
			slices.Sort(v.driven)
			for i, n := range v.driven {
				if i > 0 && n == v.driven[i-1] {
					continue
				}
				for _, c := range v.groups[n] {
					if bc.Active(c) {
						continue
					}
					if v.a.topo != nil && v.a.topo.Faulty(c) {
						if v.faulty.Add(c) {
							v.errorf("BF503",
								verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: c, HasCell: true},
								"broadcast closure of pin %d actuates defective electrode %v", v.pins[n], c)
						}
						continue
					}
					bc.Activate(c)
				}
			}
			switch out := bc.Step(); out.Fault {
			case motion.Stranded:
				d := bc.Drops[out.Drop]
				v.errorf("BF502", verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: d.At, HasCell: true},
					"droplet %s at %v stranded under broadcast actuation: no active electrode in reach", d.ID, d.At)
				return
			case motion.Torn:
				d := bc.Drops[out.Drop]
				v.errorf("BF502", verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: d.At, HasCell: true},
					"droplet %s at %v torn between %d active electrodes under broadcast actuation", d.ID, d.At, out.N)
				return
			}
			// Both kernels hold the same droplets in the same order:
			// events apply to both.
			for i, d := range bc.Drops {
				if want := base.Drops[i].At; d.At != want {
					v.errorf("BF502", verify.Pos{Scope: si.scope, InstrID: -1, Cycle: t, Cell: d.At, HasCell: true},
						"broadcast actuation diverts droplet %s to %v; the program expects %v", d.ID, d.At, want)
					return
				}
			}
			t = end
			if evIdx < len(s.Events) && s.Events[evIdx].Cycle < t {
				t = s.Events[evIdx].Cycle
			}
		}
	}
}
