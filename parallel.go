package biocoder

// The block backend: per-block synthesis fanned across a bounded worker
// pool, with optional fingerprint-keyed memoization. The depgraph analysis
// (internal/depgraph, BF601) is the proof obligation behind this file —
// after live-range splitting every block's synthesis inputs are its
// TRANSFER_IN set, the chip and the options, so schedule → place → codegen
// runs per block with no cross-block state. Blocks and edges are
// synthesized in any order and assembled in block order; the output is
// byte-identical to the serial pipeline (the corpus digest test holds this
// against every bundled assay).

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/depgraph"
	"biocoder/internal/obs"
	"biocoder/internal/place"
	"biocoder/internal/sched"
)

// CanonicalText renders the synthesis-relevant options in the canonical
// key format of the bfd serve cache (order- and duplicate-insensitive in
// the fault set). It is the options component of block fingerprint keys
// (depgraph.KeyFor) — Workers, Memo, Tracer and Context deliberately do
// not participate, since they never change the compiled output.
func (o Options) CanonicalText() string {
	faults := append([]Point(nil), o.FaultyElectrodes...)
	slices.SortFunc(faults, Point.Compare)
	var b strings.Builder
	fmt.Fprintf(&b, "nolrs=%t serial=%t minslack=%t free=%t fold=%t faults=",
		o.NoLiveRangeSplitting, o.SerialSchedules, o.MinSlackScheduling,
		o.FreePlacement, o.FoldEdges)
	for _, p := range faults {
		fmt.Fprintf(&b, "(%d,%d)", p.X, p.Y)
	}
	return b.String()
}

// usesBlockBackend reports whether compilation should go through the
// per-block backend. The homed (§6.3.3) and free (§6.3.1) placers bind
// blocks against shared mutable placer state, so they keep the serial
// pipeline regardless of Workers/Memo.
func usesBlockBackend(opt Options) bool {
	if opt.NoLiveRangeSplitting || opt.FreePlacement {
		return false
	}
	return opt.Workers > 1 || opt.Memo != nil
}

// compileGraphBlocks is compileGraph for the default (virtual-topology)
// backend with Workers/Memo engaged.
func compileGraphBlocks(g *cfg.Graph, chip *arch.Chip, opt Options) (*Compiled, error) {
	tr := opt.Tracer
	ctx := opt.Context
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	root := tr.Start("compile")
	root.SetInt("blocks", len(g.Blocks))
	root.SetInt("workers", workers)
	defer root.End()

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp := tr.Start("ssi")
	err := cfg.ToSSI(g)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("biocoder: SSI conversion: %w", err)
	}
	sp = tr.Start("topology")
	topo, err := place.BuildTopologyFaulty(chip, opt.FaultyElectrodes)
	sp.End()
	if err != nil {
		return nil, err
	}

	policy := sched.CriticalPath
	if opt.MinSlackScheduling {
		policy = sched.MinSlack
	}
	schedConf := sched.Config{
		Res:         topo.Resources(),
		CyclePeriod: chip.CyclePeriod,
		Serial:      opt.SerialSchedules,
		Priority:    policy,
		Ctx:         ctx,
	}
	live := cfg.ComputeLiveness(g)

	var key depgraph.Key
	if opt.Memo != nil {
		key, err = depgraph.KeyFor(Version, chip, opt.CanonicalText())
		if err != nil {
			return nil, err
		}
	}

	// Per-block synthesis, fanned across the pool. Each job gets its own
	// Tracer (obs.Tracer is not safe for concurrent Start); the roots are
	// grafted under the phase span in block order afterwards, so the trace
	// is deterministic whatever the completion order was.
	var memoHits, memoMisses atomic.Int64
	n := len(g.Blocks)
	schedules := make([]*sched.BlockSchedule, n)
	placements := make([]*place.BlockPlacement, n)
	codes := make([]*codegen.BlockCode, n)
	tracers := make([]*obs.Tracer, n)

	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	runPool := func(jobs int, run func(i int, wtr *obs.Tracer) error) {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					if failed() {
						continue
					}
					if err := ctxErr(ctx); err != nil {
						setErr(err)
						continue
					}
					var wtr *obs.Tracer
					if tr != nil {
						wtr = obs.NewTracer()
						tracers[i] = wtr
					}
					if err := run(i, wtr); err != nil {
						setErr(err)
					}
				}
			}()
		}
		for i := 0; i < jobs; i++ {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}
	graft := func(under *obs.Span) {
		for i, wt := range tracers {
			if wt != nil {
				under.Graft(wt.Roots()...)
			}
			tracers[i] = nil
		}
	}

	sp = tr.Start("blocks")
	runPool(n, func(i int, wtr *obs.Tracer) error {
		b := g.Blocks[i]
		bsp := wtr.Start("block " + b.Label)
		defer bsp.End()
		bsp.SetInt("block", b.ID)
		if opt.Memo != nil {
			fp, err := depgraph.Fingerprint(key, b, live.Out[b.ID])
			if err != nil {
				return err
			}
			if bs, bp, bc, ok := opt.Memo.Lookup(fp, b, live.Out[b.ID]); ok {
				memoHits.Add(1)
				bsp.SetBool("memo", true)
				schedules[i], placements[i], codes[i] = bs, bp, bc
				return nil
			}
			memoMisses.Add(1)
			bsp.SetBool("memo", false)
			bs, bp, bc, err := synthBlock(b, schedConf, live, topo, wtr, opt)
			if err != nil {
				return err
			}
			opt.Memo.Store(fp, b, live.Out[b.ID], bs, bp, bc)
			schedules[i], placements[i], codes[i] = bs, bp, bc
			return nil
		}
		bs, bp, bc, err := synthBlock(b, schedConf, live, topo, wtr, opt)
		if err != nil {
			return err
		}
		schedules[i], placements[i], codes[i] = bs, bp, bc
		return nil
	})
	graft(sp)
	sp.End()
	if firstErr != nil {
		return nil, firstErr
	}

	sr := &sched.Result{Blocks: map[int]*sched.BlockSchedule{}}
	pl := &place.Placement{Topo: topo, Blocks: map[int]*place.BlockPlacement{}}
	ex := &codegen.Executable{
		Graph:  g,
		Topo:   topo,
		Blocks: map[int]*codegen.BlockCode{},
		Edges:  map[[2]int]*codegen.EdgeCode{},
	}
	for i, b := range g.Blocks {
		sr.Blocks[b.ID] = schedules[i]
		pl.Blocks[b.ID] = placements[i]
		ex.Blocks[b.ID] = codes[i]
	}
	if err := pl.Check(); err != nil {
		return nil, err
	}

	edges := g.Edges()
	edgeCodes := make([]*codegen.EdgeCode, len(edges))
	tracers = make([]*obs.Tracer, len(edges))
	sp = tr.Start("edges")
	runPool(len(edges), func(i int, wtr *obs.Tracer) error {
		e := edges[i]
		esp := wtr.Start("edge " + e.From.Label + "->" + e.To.Label)
		defer esp.End()
		ec, err := codegen.GenEdge(ctx, e.From, e.To, ex.Blocks[e.From.ID], ex.Blocks[e.To.ID], topo, wtr)
		if err != nil {
			return err
		}
		esp.SetInt("cycles", ec.Seq.NumCycles)
		esp.SetInt("copies", len(ec.Copies))
		edgeCodes[i] = ec
		return nil
	})
	graft(sp)
	sp.End()
	if firstErr != nil {
		return nil, firstErr
	}
	for i, e := range edges {
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = edgeCodes[i]
	}

	if opt.FoldEdges {
		sp = tr.Start("fold")
		folded, err := codegen.FoldNonCriticalEdges(ex)
		sp.SetInt("folded", folded)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	sp = tr.Start("check")
	err = ex.Check()
	sp.End()
	if err != nil {
		return nil, err
	}
	root.SetInt("memo_hits", int(memoHits.Load()))
	root.SetInt("memo_misses", int(memoMisses.Load()))
	return &Compiled{
		Chip:       chip,
		Graph:      g,
		Topology:   topo,
		Schedule:   sr,
		Placement:  pl,
		Executable: ex,
	}, nil
}

// synthBlock runs the three per-block synthesis stages.
func synthBlock(b *cfg.Block, schedConf sched.Config, live *cfg.Liveness, topo *place.Topology, wtr *obs.Tracer, opt Options) (*sched.BlockSchedule, *place.BlockPlacement, *codegen.BlockCode, error) {
	conf := schedConf
	conf.Tracer = wtr
	bs, err := sched.ScheduleBlock(b, conf, live)
	if err != nil {
		return nil, nil, nil, err
	}
	bp, err := place.PlaceBlock(bs, topo)
	if err != nil {
		return nil, nil, nil, err
	}
	bc, err := codegen.GenBlock(opt.Context, b, bs, bp, topo, wtr)
	if err != nil {
		return nil, nil, nil, err
	}
	return bs, bp, bc, nil
}
