// Package pinsafe decides which electrodes of a compiled executable may
// share a control pin. The compiler targets fully-addressed chips — every
// electrode on its own control line — but low-cost hardware wires several
// electrodes to one pin, so actuating an electrode actuates its whole pin
// group ("broadcast addressing"). A pin map is safe only if every such
// broadcast closure leaves the executable's fluidic semantics untouched.
//
// The analysis reuses the verify package's symbolic-replay model of droplet
// motion: a droplet holds while its own electrode is active and otherwise
// follows the unique active electrode among its four neighbors. From the
// recorded baseline replay (verify.ReplayMoves) it derives, per activation
// frame, the set of cells whose co-actuation would perturb a droplet that
// is moving this cycle — the cell the droplet is leaving (it would hold
// instead) and the passive neighbors of that cell (the droplet would be
// torn between two active electrodes). Holding droplets are immune: their
// own electrode is active, so extra neighbors cannot move them. Every
// (actuated electrode, perturbing cell) pair at such a cycle is an edge of
// the electrode interference graph; electrodes may share a pin exactly when
// no edge connects them.
//
// On top of the graph the package offers a DSATUR coloring (Assign) giving
// a minimum safe pin count heuristic, and a broadcast replay verifier
// (Verify) that rewrites every frame of every sequence to its closure under
// an explicit pin map, re-runs the replay, and diffs droplet trajectories
// against the baseline. Its findings use the BF5xx code range:
//
//	BF501  two electrodes sharing a pin are connected in the
//	       interference graph (provably un-shareable)
//	BF502  broadcast actuation under the pin map perturbs a droplet
//	       trajectory
//	BF503  a broadcast closure actuates a defective electrode
//
// Because the interference graph is derived from the same motion rule the
// broadcast replay interprets, BF501 and BF502 agree: a map is free of
// BF501 findings exactly when its broadcast replay diverges nowhere. The
// fuzz tests pin this equivalence down.
package pinsafe

import (
	"context"
	"fmt"
	"sort"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/obs"
	"biocoder/internal/place"
	"biocoder/internal/verify"
)

// Codes lists the diagnostic codes this package can emit.
func Codes() []string { return []string{"BF501", "BF502", "BF503"} }

// maxDiags caps the findings of one verification, mirroring verify's cap:
// a hopeless pin map floods every cycle, and past a couple of thousand
// findings more of them help nobody.
const maxDiags = 2000

// Conflict is one edge of the electrode interference graph, with the first
// witness the analysis found: actuating Driven at cycle Cycle of sequence
// Scope while Passenger shares its pin would perturb droplet Fluid — the
// droplet would hold in place when it should move (Hold) or be torn
// between two active electrodes.
type Conflict struct {
	A, B      arch.Point // the unordered pair, A before B in row-major order
	Driven    arch.Point // witness: the electrode the program actuates ...
	Passenger arch.Point // ... and the cell a shared pin would co-actuate
	Scope     string
	Cycle     int
	Fluid     ir.FluidID
	Hold      bool
}

// seqInfo pairs one activation sequence with its baseline motion account.
type seqInfo struct {
	scope string
	seq   *codegen.Sequence
	rep   *verify.SeqReplay
}

// Analysis is the electrode interference graph of one executable, ready
// for pin assignment (Assign) and pin-map verification (Verify).
type Analysis struct {
	chip      *arch.Chip
	topo      *place.Topology
	seqs      []seqInfo
	used      []arch.Point // every actuated electrode, row-major
	usedSet   map[arch.Point]bool
	conflicts map[[2]arch.Point]*Conflict
}

// New replays the unit's executable and builds its electrode interference
// graph. The executable must pass baseline symbolic replay — a sequence the
// replayer had to abort has no trustworthy trajectory to protect, so New
// reports it as an error (run the verifier and fix the BF1xx findings
// first). The context is checked between sequences.
func New(ctx context.Context, u *verify.Unit) (*Analysis, error) {
	if u == nil || u.Exec == nil {
		return nil, fmt.Errorf("pinsafe: no executable to analyze")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ex := u.Exec
	g := ex.Graph
	if g == nil {
		return nil, fmt.Errorf("pinsafe: executable has no control-flow graph")
	}
	chip := u.Chip
	topo := u.Topo
	if topo == nil {
		topo = ex.Topo
	}
	if chip == nil && topo != nil {
		chip = topo.Chip
	}
	if chip == nil {
		return nil, fmt.Errorf("pinsafe: no chip geometry to analyze against")
	}

	blocks, edges := verify.ReplayMoves(u)
	a := &Analysis{
		chip:      chip,
		topo:      topo,
		usedSet:   map[arch.Point]bool{},
		conflicts: map[[2]arch.Point]*Conflict{},
	}
	for _, b := range g.Blocks {
		rep := blocks[b.ID]
		if rep == nil {
			return nil, fmt.Errorf("pinsafe: block %s has no compiled code; fix the BF110 finding first", b.Label)
		}
		if !rep.OK {
			return nil, fmt.Errorf("pinsafe: block %s fails baseline symbolic replay; fix the BF1xx findings first", b.Label)
		}
		bc := ex.Blocks[b.ID]
		a.seqs = append(a.seqs, seqInfo{scope: "block " + b.Label, seq: bc.Seq, rep: rep})
	}
	for _, e := range g.Edges() {
		rep := edges[[2]int{e.From.ID, e.To.ID}]
		if rep == nil {
			continue // folded or empty edge: no sequence of its own
		}
		if !rep.OK {
			return nil, fmt.Errorf("pinsafe: edge %s->%s fails baseline symbolic replay; fix the BF1xx findings first", e.From.Label, e.To.Label)
		}
		ec := ex.Edge(e.From, e.To)
		a.seqs = append(a.seqs, seqInfo{scope: "edge " + e.From.Label + "->" + e.To.Label, seq: ec.Seq, rep: rep})
	}
	for _, si := range a.seqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a.scan(si)
	}
	sort.Slice(a.used, func(i, j int) bool { return rowMajorLess(a.used[i], a.used[j]) })
	return a, nil
}

func rowMajorLess(p, q arch.Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

// scan walks one sequence cycle by cycle, accumulating used electrodes and
// interference edges. At each cycle the cells that would perturb a moving
// droplet are the cell it leaves (co-actuating it makes the droplet hold)
// and the passive neighbors of that cell (a second active neighbor tears
// the droplet); cells already in the frame are harmless — they are actuated
// anyway — and defective cells cannot actuate, so neither interferes.
func (a *Analysis) scan(si seqInfo) {
	s := si.seq
	moves := si.rep.Moves
	mi := 0
	inFrame := map[arch.Point]bool{}
	for t := 0; t < s.NumCycles && t < len(s.Frames); t++ {
		frame := s.Frames[t]
		if t == 0 || !codegen.SameFrame(s.Frames[t-1], frame) {
			for _, c := range frame {
				if !a.usedSet[c] {
					a.usedSet[c] = true
					a.used = append(a.used, c)
				}
			}
		}
		if mi >= len(moves) || moves[mi].Cycle > t {
			continue // nothing moves this cycle: extra actuations are inert
		}
		clear(inFrame)
		for _, c := range frame {
			inFrame[c] = true
		}
		for ; mi < len(moves) && moves[mi].Cycle == t; mi++ {
			mv := moves[mi]
			a.harm(si.scope, t, mv, mv.From, true, frame, inFrame)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				a.harm(si.scope, t, mv, mv.From.Add(d[0], d[1]), false, frame, inFrame)
			}
		}
	}
}

// harm records the interference edges between every electrode of the frame
// and one cell whose co-actuation would perturb the move mv.
func (a *Analysis) harm(scope string, t int, mv verify.Move, h arch.Point, hold bool, frame codegen.Frame, inFrame map[arch.Point]bool) {
	if inFrame[h] || !a.chip.InBounds(h) {
		return
	}
	if a.topo != nil && a.topo.Faulty(h) {
		return
	}
	for _, drv := range frame {
		key := pairKey(drv, h)
		if _, dup := a.conflicts[key]; dup {
			continue
		}
		a.conflicts[key] = &Conflict{
			A: key[0], B: key[1],
			Driven: drv, Passenger: h,
			Scope: scope, Cycle: t, Fluid: mv.Fluid, Hold: hold,
		}
	}
}

func pairKey(p, q arch.Point) [2]arch.Point {
	if rowMajorLess(q, p) {
		p, q = q, p
	}
	return [2]arch.Point{p, q}
}

// Used returns every electrode the executable actuates, in row-major order.
func (a *Analysis) Used() []arch.Point { return a.used }

// MayShare reports whether electrodes p and q are unconnected in the
// interference graph and so may be wired to the same control pin.
func (a *Analysis) MayShare(p, q arch.Point) bool {
	if p == q {
		return true
	}
	_, conflict := a.conflicts[pairKey(p, q)]
	return !conflict
}

// Conflicts returns the interference graph's edges with their witnesses,
// sorted row-major by endpoint pair.
func (a *Analysis) Conflicts() []Conflict {
	out := make([]Conflict, 0, len(a.conflicts))
	for _, c := range a.conflicts {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return rowMajorLess(out[i].A, out[j].A)
		}
		return rowMajorLess(out[i].B, out[j].B)
	})
	return out
}

// Config parameterizes Analyze.
type Config struct {
	// Map is the pin map to verify; nil derives one with Assign.
	Map *PinMap
	// Tracer receives pinsafe/interference/assign/broadcast spans; nil
	// traces nothing at zero cost.
	Tracer *obs.Tracer
	// Context bounds the analysis; nil means context.Background().
	Context context.Context
}

// Result is the outcome of one pin-safety analysis.
type Result struct {
	// Electrodes is the number of distinct electrodes the assay actuates.
	Electrodes int
	// Conflicts is the electrode interference graph, with witnesses.
	Conflicts []Conflict
	// MinPins is the DSATUR estimate of the minimum safe pin count.
	MinPins int
	// Map is the pin map that was verified; Derived reports whether it was
	// computed here (true) or supplied by the caller (false).
	Map     *PinMap
	Derived bool
	// Report carries the BF5xx findings of the broadcast replay of Map.
	Report *verify.Report
}

// Analyze builds the interference graph of the unit's executable, derives a
// DSATUR pin assignment (or adopts conf.Map), and verifies the map by
// broadcast replay. It is the programmatic equivalent of `bfvet pins`.
func Analyze(u *verify.Unit, conf Config) (*Result, error) {
	ctx := conf.Context
	if ctx == nil {
		ctx = context.Background()
	}
	root := conf.Tracer.Start("pinsafe")
	defer root.End()
	var times []verify.PassTime
	phase := time.Now()
	mark := func(name string) {
		times = append(times, verify.PassTime{Name: name, Duration: time.Since(phase)})
		phase = time.Now()
	}

	sp := conf.Tracer.Start("interference")
	a, err := New(ctx, u)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetInt("sequences", len(a.seqs))
	sp.SetInt("electrodes", len(a.used))
	sp.SetInt("conflicts", len(a.conflicts))
	sp.End()
	mark("interference")
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = conf.Tracer.Start("assign")
	derived := a.Assign()
	res := &Result{
		Electrodes: len(a.used),
		Conflicts:  a.Conflicts(),
		MinPins:    derived.NumPins(),
		Map:        conf.Map,
	}
	if res.Map == nil {
		res.Map = derived
		res.Derived = true
	}
	sp.SetInt("pins", res.MinPins)
	sp.SetBool("derived", res.Derived)
	sp.End()
	mark("assign")
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = conf.Tracer.Start("broadcast")
	diags := a.Verify(res.Map)
	res.Report = verify.NewReport(diags)
	sp.SetInt("diags", len(diags))
	sp.End()
	mark("broadcast")
	res.Report.PassTimes = times
	return res, nil
}
