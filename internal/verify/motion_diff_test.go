package verify_test

// The kernel-based replays against a plain reference interpreter of the
// paper's motion rule. The reference works cycle by cycle over the dense
// expansion of a sequence (one frame per cycle, denseFrames) with maps,
// the way the chip and the first replay did; the replays apply a frame
// once per run on the motion kernel's grid. Both must agree on every move,
// every touch, the end positions and the outcome: over the whole corpus,
// and in FuzzMotionKernel over small random sequences with duplicate
// cells, unsorted frames, off-chip cells, and torn or stranded droplets.

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/motion"
	"biocoder/internal/place"
	"biocoder/internal/verify"
)

// refMotion is the reference's account of one sequence.
type refMotion struct {
	moves   []verify.Move
	touches []verify.Touch
	// end lists the final droplets in canonical order; nil when the
	// replay stopped.
	end []motion.Droplet
	// code, cycle and note name the diagnostic that stopped the replay
	// (cycle -1: any cycle) and a part of its message; code is empty
	// when it ran to completion.
	code, note string
	cycle      int
}

func (r *refMotion) stop(code string, cycle int, note string) refMotion {
	r.code, r.cycle, r.note = code, cycle, note
	return *r
}

// refReplay interprets s from start cycle by cycle: at each cycle the
// events due, then the cycle's frame. A droplet holds on an active cell,
// else follows its unique active neighbour. It stops where verify's replay
// must: an electrode or an event cell off the chip (before any cycle), a
// frame whose electrodes do not number the droplets, a stranded or torn
// droplet, or an event the population cannot take. The events must be in
// cycle order with their kinds' arities.
func refReplay(chip *arch.Chip, s *codegen.Sequence, start map[ir.FluidID]arch.Point) refMotion {
	var r refMotion
	for _, run := range s.Runs {
		for _, c := range run.Frame {
			if !chip.InBounds(c) {
				return r.stop("BF103", -1, "outside the")
			}
		}
	}
	for _, ev := range s.Events {
		for _, c := range ev.Cells {
			if !chip.InBounds(c) {
				return r.stop("BF109", ev.Cycle, "outside the")
			}
		}
	}
	pos := maps.Clone(start)
	if pos == nil {
		pos = map[ir.FluidID]arch.Point{}
	}
	for _, f := range sortedIDs(pos) {
		r.touches = append(r.touches, verify.Touch{Fluid: f, Cell: pos[f], Cycle: 0})
	}
	next := 0
	events := func(t int) bool {
		for ; next < len(s.Events) && s.Events[next].Cycle == t; next++ {
			if !r.event(pos, s.Events[next]) {
				return false
			}
		}
		return true
	}
	frames := denseFrames(s)
	for t, f := range frames {
		if !events(t) {
			return r
		}
		active := map[arch.Point]bool{}
		for _, c := range f {
			active[c] = true
		}
		if len(active) != len(pos) {
			return r.stop("BF101", t, fmt.Sprintf("%d electrodes active for %d droplets", len(active), len(pos)))
		}
		for _, id := range sortedIDs(pos) {
			p := pos[id]
			if active[p] {
				continue
			}
			var to []arch.Point
			for _, q := range []arch.Point{p.Add(1, 0), p.Add(-1, 0), p.Add(0, 1), p.Add(0, -1)} {
				if active[q] {
					to = append(to, q)
				}
			}
			switch len(to) {
			case 0:
				return r.stop("BF107", t, fmt.Sprintf("droplet %s at %v stranded", id, p))
			case 1:
			default:
				return r.stop("BF107", t, fmt.Sprintf("droplet %s at %v torn between %d", id, p, len(to)))
			}
			pos[id] = to[0]
			r.moves = append(r.moves, verify.Move{Cycle: t, Fluid: id, From: p, To: to[0]})
			r.touches = append(r.touches, verify.Touch{Fluid: id, Cell: to[0], Cycle: t})
		}
	}
	if !events(len(frames)) {
		return r
	}
	r.end = []motion.Droplet{}
	for _, f := range sortedIDs(pos) {
		r.end = append(r.end, motion.Droplet{ID: f, At: pos[f]})
	}
	return r
}

// event applies one event to pos and reports whether the population could
// take it.
func (r *refMotion) event(pos map[ir.FluidID]arch.Point, ev codegen.Event) bool {
	fail := func() bool {
		r.stop("BF109", ev.Cycle, "droplet")
		return false
	}
	take := func(f ir.FluidID) (arch.Point, bool) {
		p, ok := pos[f]
		delete(pos, f)
		return p, ok
	}
	put := func(f ir.FluidID, c arch.Point) bool {
		if _, dup := pos[f]; dup {
			return false
		}
		pos[f] = c
		r.touches = append(r.touches, verify.Touch{Fluid: f, Cell: c, Cycle: ev.Cycle})
		return true
	}
	switch ev.Kind {
	case codegen.EvDispense:
		if !put(ev.Results[0], ev.Cells[0]) {
			return fail()
		}
	case codegen.EvOutput:
		if p, ok := take(ev.Inputs[0]); !ok || p != ev.Cells[0] {
			return fail()
		}
	case codegen.EvSplit:
		if _, ok := take(ev.Inputs[0]); !ok {
			return fail()
		}
		for i, f := range ev.Results {
			if !put(f, ev.Cells[i]) {
				return fail()
			}
		}
	case codegen.EvMerge:
		for _, f := range ev.Inputs {
			if _, ok := take(f); !ok {
				return fail()
			}
		}
		if !put(ev.Results[0], ev.Cells[0]) {
			return fail()
		}
	case codegen.EvRename:
		p, ok := take(ev.Inputs[0])
		if !ok || p != ev.Cells[0] || !put(ev.Results[0], p) {
			return fail()
		}
	case codegen.EvSense:
		if _, ok := pos[ev.Inputs[0]]; !ok {
			return fail()
		}
	}
	return true
}

// agree fails t unless the replays' account of one sequence matches the
// reference's.
func agree(t *testing.T, scope string, want refMotion, got *verify.SeqReplay, touches []verify.Touch) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: ReplayMoves has no account", scope)
		return
	}
	if got.OK != (want.code == "") {
		t.Errorf("%s: replay OK=%v, reference stopped with %q at cycle %d", scope, got.OK, want.code, want.cycle)
	}
	if !slices.Equal(got.Moves, want.moves) {
		t.Errorf("%s: moves differ\nreplay:    %v\nreference: %v", scope, got.Moves, want.moves)
	}
	if !slices.Equal(touches, want.touches) {
		t.Errorf("%s: touches differ\nreplay:    %v\nreference: %v", scope, touches, want.touches)
	}
	if !slices.Equal(got.End, want.end) || (got.End == nil) != (want.end == nil) {
		t.Errorf("%s: end positions differ\nreplay:    %v\nreference: %v", scope, got.End, want.end)
	}
}

// agreeOnUnit holds every replayed sequence of a compiled unit against the
// reference: blocks from their entry contracts, unfolded edges from the
// predecessor's exit filtered through the copies.
func agreeOnUnit(t *testing.T, prog *biocoder.Compiled) {
	t.Helper()
	u := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable}
	ex := prog.Executable
	blockMoves, edgeMoves := verify.ReplayMoves(u)
	blockTouch, edgeTouch := verify.ReplayTouches(u)
	for _, b := range prog.Graph.Blocks {
		bc := ex.Blocks[b.ID]
		agree(t, "block "+b.Label, refReplay(prog.Chip, bc.Seq, bc.Entry), blockMoves[b.ID], blockTouch[b.ID])
	}
	replayed := 0
	for _, e := range prog.Graph.Edges() {
		key := [2]int{e.From.ID, e.To.ID}
		rep := edgeMoves[key]
		if rep == nil {
			continue // folded or empty: no sequence of its own
		}
		replayed++
		start := map[ir.FluidID]arch.Point{}
		for _, cp := range ex.Edge(e.From, e.To).Copies {
			start[cp.Src] = ex.Blocks[e.From.ID].Exit[cp.Src]
		}
		agree(t, "edge "+e.From.Label+"->"+e.To.Label, refReplay(prog.Chip, ex.Edge(e.From, e.To).Seq, start), rep, edgeTouch[key])
	}
	if replayed == 0 && len(edgeMoves) != 0 {
		t.Error("edge replays were never compared")
	}
}

func TestReplayMatchesPerCycleReference(t *testing.T) {
	type unit struct {
		name  string
		build func() (*cfg.Graph, error)
	}
	var units []unit
	for _, a := range assays.All() {
		units = append(units, unit{a.Name, func() (*cfg.Graph, error) { return a.Build().Build() }})
	}
	files, err := filepath.Glob(filepath.Join("..", "assays", "scripts", "*.bio"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scripts: %v", err)
	}
	for _, file := range files {
		units = append(units, unit{filepath.Base(file), func() (*cfg.Graph, error) {
			src, err := os.ReadFile(file)
			if err != nil {
				return nil, err
			}
			bs, err := biocoder.ParseScript(string(src))
			if err != nil {
				return nil, err
			}
			return bs.Build()
		}})
	}
	for _, un := range units {
		for _, fold := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fold=%v", un.name, fold), func(t *testing.T) {
				g, err := un.build()
				if err != nil {
					t.Fatal(err)
				}
				prog, err := biocoder.CompileGraphOptions(g, arch.Default(), biocoder.Options{FoldEdges: fold})
				if err != nil {
					t.Fatal(err)
				}
				agreeOnUnit(t, prog)
			})
		}
	}
}

// kernelGen turns fuzz bytes into one block's start population and
// sequence on the 9x9 chip. It tracks where it means each droplet to be
// and emits frames that move them there, then corrupts some frames and
// events: duplicate, extra, dropped and off-chip cells, reversed order,
// moves of two cells (stranding) and two active neighbours (tearing).
type kernelGen struct {
	data []byte
	i    int
	ver  int
}

func (g *kernelGen) next() int {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return int(b)
}

// cell returns a cell of the 9x9 chip or of its off-chip border.
func (g *kernelGen) cell() arch.Point { return arch.Point{X: g.next()%11 - 1, Y: g.next()%11 - 1} }

func (g *kernelGen) fresh() ir.FluidID {
	g.ver++
	return ir.FluidID{Name: string(rune('a' + g.ver%3)), Ver: g.ver}
}

// sortedIDs lists the droplets of pos in canonical order.
func sortedIDs(pos map[ir.FluidID]arch.Point) []ir.FluidID {
	ids := make([]ir.FluidID, 0, len(pos))
	for f := range pos {
		ids = append(ids, f)
	}
	slices.SortFunc(ids, ir.FluidID.Compare)
	return ids
}

func (g *kernelGen) pick(pos map[ir.FluidID]arch.Point) (ir.FluidID, bool) {
	if len(pos) == 0 {
		return ir.FluidID{}, false
	}
	ids := sortedIDs(pos)
	return ids[g.next()%len(ids)], true
}

func (g *kernelGen) generate() (map[ir.FluidID]arch.Point, *codegen.Sequence) {
	start := map[ir.FluidID]arch.Point{}
	for n := g.next() % 3; n > 0; n-- {
		start[g.fresh()] = g.cell()
	}
	pos := maps.Clone(start)
	s := &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}}
	t := 0
	event := func(ev codegen.Event) {
		ev.Cycle, ev.InstrID = t, -1
		s.Events = append(s.Events, ev)
	}
	for step := 0; step < 16 && g.i < len(g.data); step++ {
		switch op := g.next() % 10; op {
		case 0:
			d, c := g.fresh(), g.cell()
			if g.next()%4 == 0 {
				if f, ok := g.pick(pos); ok {
					d = f // dispense a droplet that exists
				}
			}
			pos[d] = c
			event(codegen.Event{Kind: codegen.EvDispense, Results: []ir.FluidID{d}, Cells: []arch.Point{c}, Volume: 1})
		case 1:
			if f, ok := g.pick(pos); ok {
				c := pos[f]
				if g.next()%4 == 0 {
					c = g.cell()
				}
				delete(pos, f)
				event(codegen.Event{Kind: codegen.EvOutput, Inputs: []ir.FluidID{f}, Cells: []arch.Point{c}})
			}
		case 2:
			if f, ok := g.pick(pos); ok {
				p := pos[f]
				a, b := g.fresh(), g.fresh()
				delete(pos, f)
				pos[a], pos[b] = p.Add(-1, 0), p.Add(1, 0)
				event(codegen.Event{Kind: codegen.EvSplit, Inputs: []ir.FluidID{f}, Results: []ir.FluidID{a, b},
					Cells: []arch.Point{p.Add(-1, 0), p.Add(1, 0)}})
			}
		case 3:
			f1, ok1 := g.pick(pos)
			f2, ok2 := g.pick(pos)
			if ok1 && ok2 && f1 != f2 {
				p := pos[f1]
				m := g.fresh()
				delete(pos, f1)
				delete(pos, f2)
				pos[m] = p
				event(codegen.Event{Kind: codegen.EvMerge, Inputs: []ir.FluidID{f1, f2}, Results: []ir.FluidID{m}, Cells: []arch.Point{p}})
			}
		case 4:
			if f, ok := g.pick(pos); ok {
				p := pos[f]
				r := g.fresh()
				delete(pos, f)
				pos[r] = p
				event(codegen.Event{Kind: codegen.EvRename, Inputs: []ir.FluidID{f}, Results: []ir.FluidID{r}, Cells: []arch.Point{p}})
			}
		case 5:
			if f, ok := g.pick(pos); ok {
				event(codegen.Event{Kind: codegen.EvSense, Inputs: []ir.FluidID{f}, Device: "sensor1", SensorVar: "v"})
			}
		default:
			var frame codegen.Frame
			// A droplet told to tear takes the next droplet's electrode
			// for its second active neighbour.
			tear, second := false, arch.Point{}
			for _, f := range sortedIDs(pos) {
				p := pos[f]
				d := g.next() % 8
				switch {
				case d < 4:
					p = p.Add([4]int{1, -1, 0, 0}[d], [4]int{0, 0, 1, -1}[d])
				case d == 4:
					p = p.Add(2, 0) // out of reach: stranded
				case d == 5 && !tear:
					second, p = p.Add(0, 1), p.Add(0, -1)
				}
				pos[f] = p
				switch {
				case tear:
					frame = append(frame, second)
					tear = false
				default:
					frame = append(frame, p)
					tear = d == 5
				}
			}
			if tear {
				frame = append(frame, second)
			}
			switch g.next() % 6 {
			case 1:
				if len(frame) > 0 {
					frame = append(frame, frame[0])
				}
			case 2:
				frame = append(frame, g.cell())
			case 3:
				if len(frame) > 0 {
					frame = frame[1:]
				}
			case 4:
				slices.Reverse(frame)
			}
			n := g.next()%3 + 1
			s.Runs = append(s.Runs, codegen.Run{Frame: frame, Len: n})
			t += n
		}
	}
	s.NumCycles = t
	return start, s
}

// kernelUnit wraps one block with the given start population and sequence
// in an executable on the 9x9 chip.
func kernelUnit(t *testing.T, start map[ir.FluidID]arch.Point, s *codegen.Sequence) (*verify.Unit, *cfg.Block) {
	chip := arch.Small()
	topo, err := place.BuildTopology(chip)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.New()
	b := g.NewBlock("b1")
	g.AddEdge(g.Entry, b)
	g.AddEdge(b, g.Exit)
	empty := func(blk *cfg.Block) *codegen.BlockCode {
		return &codegen.BlockCode{Block: blk, Seq: &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}},
			Entry: map[ir.FluidID]arch.Point{}, Exit: map[ir.FluidID]arch.Point{}}
	}
	ex := &codegen.Executable{
		Graph: g, Topo: topo,
		Blocks: map[int]*codegen.BlockCode{
			g.Entry.ID: empty(g.Entry), g.Exit.ID: empty(g.Exit),
			b.ID: {Block: b, Seq: s, Entry: start, Exit: map[ir.FluidID]arch.Point{}},
		},
		Edges: map[[2]int]*codegen.EdgeCode{},
	}
	for _, e := range g.Edges() {
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = &codegen.EdgeCode{From: e.From, To: e.To,
			Seq: &codegen.Sequence{Tracks: map[ir.FluidID]*codegen.Track{}}}
	}
	return &verify.Unit{Exec: ex}, b
}

func FuzzMotionKernel(f *testing.F) {
	f.Add([]byte{})
	// Two droplets walk east; one splits, a child leaves, the other
	// droplet is renamed, and the two left merge and walk on.
	f.Add([]byte{2, 2, 3, 2, 7, 6, 0, 0, 0, 1, 6, 0, 0, 0, 0, 2, 0, 6, 7, 0, 6, 0, 0,
		1, 1, 1, 4, 2, 6, 1, 3, 4, 1, 3, 0, 1, 6, 0, 0, 0})
	// A stranded droplet.
	f.Add([]byte{1, 4, 4, 6, 4, 0, 0})
	// A droplet torn between two active electrodes.
	f.Add([]byte{2, 4, 4, 8, 8, 6, 5, 0, 0, 0})
	// Duplicate, extra off-chip, dropped cells and a reversed frame.
	f.Add([]byte{2, 1, 1, 7, 7, 6, 0, 0, 1, 0, 6, 1, 1, 2, 10, 10, 0, 7, 2, 3, 3, 1, 8, 0, 0, 4, 2})
	// An off-chip dispense and events on missing droplets.
	f.Add([]byte{0, 0, 0, 0, 10, 1, 1, 0, 1, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		gen := &kernelGen{data: data}
		start, s := gen.generate()
		u, b := kernelUnit(t, start, s)
		want := refReplay(arch.Small(), s, start)
		blockMoves, _ := verify.ReplayMoves(u)
		blockTouch, _ := verify.ReplayTouches(u)
		agree(t, "block b1", want, blockMoves[b.ID], blockTouch[b.ID])

		// The outcome: the reference's stopping diagnostic is verify's,
		// and a sequence the reference runs through draws none.
		fatal := func(d verify.Diag) bool {
			switch d.Code {
			case "BF101", "BF103", "BF107", "BF109":
				return d.Pos.Scope == "block b1"
			}
			return false
		}
		rep := verify.Run(u)
		found := false
		for _, d := range rep.Diags {
			if fatal(d) && d.Code == want.code && (want.cycle < 0 || d.Pos.Cycle == want.cycle) && strings.Contains(d.Msg, want.note) {
				found = true
			}
		}
		if want.code != "" && !found {
			t.Errorf("reference stops with %s at cycle %d (%q); verify reports:\n%s", want.code, want.cycle, want.note, rep)
		}
		if want.code == "" {
			for _, d := range rep.Diags {
				if fatal(d) {
					t.Errorf("reference runs through; verify reports %s", d)
				}
			}
		}
	})
}
