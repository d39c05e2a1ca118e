package biocoder

// The compile pipeline. After live-range splitting every block's synthesis
// inputs are its TRANSFER_IN set, the chip and the options (the depgraph
// analysis, BF601, checks this), so schedule → place → codegen runs per
// block with no cross-block state, and each CFG edge is then routed between
// its two compiled blocks. Blocks and edges run on Options.Workers
// goroutines and are assembled in block and edge order, so the output and
// the error do not depend on the worker count.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// compileGraph is the compile pipeline behind Compile, CompileGraph,
// CompileGraphOptions and Recompiler.
func compileGraph(g *cfg.Graph, chip *arch.Chip, opt Options) (_ *Compiled, err error) {
	if opt.Registry != nil {
		start := time.Now()
		defer func() { recordCompile(opt.Registry, time.Since(start), err) }()
	}
	strategy := place.Virtual
	switch {
	case opt.NoLiveRangeSplitting && opt.FreePlacement:
		return nil, fmt.Errorf("biocoder: NoLiveRangeSplitting and FreePlacement are mutually exclusive")
	case opt.NoLiveRangeSplitting:
		strategy = place.Homed
	case opt.FreePlacement:
		strategy = place.Free
	}
	tr, ctx, reg := opt.Tracer, opt.Context, opt.Registry
	workers := max(opt.Workers, 1)
	root := tr.Start("compile")
	root.SetInt("blocks", len(g.Blocks))
	root.SetInt("workers", workers)
	defer root.End()

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ph := startPhase(tr, reg, "ssi")
	err = cfg.ToSSI(g)
	ph.end()
	if err != nil {
		return nil, fmt.Errorf("biocoder: SSI conversion: %w", err)
	}
	ph = startPhase(tr, reg, "topology")
	topo, err := place.BuildTopologyFaulty(chip, opt.FaultyElectrodes)
	ph.end()
	if err != nil {
		return nil, err
	}

	syn := &blockSynth{ctx: ctx, topo: topo, live: cfg.ComputeLiveness(g)}
	syn.conf = sched.Config{
		Res:             topo.Resources(),
		CyclePeriod:     chip.CyclePeriod,
		Serial:          opt.SerialSchedules,
		Priority:        sched.CriticalPath,
		BoundaryStorage: opt.NoLiveRangeSplitting,
		Ctx:             ctx,
	}
	if opt.MinSlackScheduling {
		syn.conf.Priority = sched.MinSlack
	}
	if strategy == place.Free {
		syn.conf.Res = place.FreeResources(topo)
	}
	if syn.place, err = place.NewBlockPlacer(strategy, g, topo); err != nil {
		return nil, err
	}
	// Homed placement depends on the graph-wide home slots, which a block
	// fingerprint does not cover, so only the virtual placer is memoized.
	if opt.Memo != nil && strategy == place.Virtual {
		syn.memo = opt.Memo
		if syn.key, err = depgraph.KeyFor(Version, chip, opt.CanonicalText()); err != nil {
			return nil, err
		}
	}

	n := len(g.Blocks)
	schedules := make([]*sched.BlockSchedule, n)
	placements := make([]*place.BlockPlacement, n)
	codes := make([]*codegen.BlockCode, n)
	ph = startPhase(tr, reg, "blocks")
	err = fanOut(ctx, tr, ph.sp, n, workers, func(i int, jtr *obs.Tracer) (err error) {
		schedules[i], placements[i], codes[i], err = syn.block(g.Blocks[i], jtr)
		return err
	})
	ph.end()
	if err != nil {
		return nil, err
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
	ph = startPhase(tr, reg, "edges")
	err = fanOut(ctx, tr, ph.sp, len(edges), workers, func(i int, jtr *obs.Tracer) error {
		e := edges[i]
		sp := jtr.Start("edge " + e.From.Label + "->" + e.To.Label)
		defer sp.End()
		ec, err := codegen.GenEdge(ctx, e.From, e.To, ex.Blocks[e.From.ID], ex.Blocks[e.To.ID], topo, jtr)
		if err != nil {
			return err
		}
		sp.SetInt("cycles", ec.Seq.NumCycles)
		sp.SetInt("copies", len(ec.Copies))
		edgeCodes[i] = ec
		return nil
	})
	ph.end()
	if err != nil {
		return nil, err
	}
	for i, e := range edges {
		ex.Edges[[2]int{e.From.ID, e.To.ID}] = edgeCodes[i]
	}

	if opt.FoldEdges {
		ph = startPhase(tr, reg, "fold")
		folded, err := codegen.FoldNonCriticalEdges(ex)
		ph.sp.SetInt("folded", folded)
		ph.end()
		if err != nil {
			return nil, err
		}
	}
	ph = startPhase(tr, reg, "check")
	err = ex.Check()
	ph.end()
	if err != nil {
		return nil, err
	}
	if syn.memo != nil {
		root.SetInt("memo_hits", int(syn.hits.Load()))
		root.SetInt("memo_misses", int(syn.misses.Load()))
	}
	return &Compiled{
		Chip:       chip,
		Graph:      g,
		Topology:   topo,
		Schedule:   sr,
		Placement:  pl,
		Executable: ex,
	}, nil
}

// blockSynth holds what every block's synthesis reads. It is fixed before
// the first block starts, so blocks synthesize concurrently.
type blockSynth struct {
	ctx   context.Context
	topo  *place.Topology
	conf  sched.Config
	live  *cfg.Liveness
	place place.BlockPlacer
	// memo is nil unless the compile memoizes blocks under key.
	memo *depgraph.Memo
	key  depgraph.Key

	hits, misses atomic.Int64
}

// block synthesizes b, or takes it from the memo, under a "block" span.
func (s *blockSynth) block(b *cfg.Block, tr *obs.Tracer) (*sched.BlockSchedule, *place.BlockPlacement, *codegen.BlockCode, error) {
	sp := tr.Start("block " + b.Label)
	defer sp.End()
	sp.SetInt("block", b.ID)
	if s.memo == nil {
		return s.synth(b, tr)
	}
	liveOut := s.live.Out[b.ID]
	fp, err := depgraph.Fingerprint(s.key, b, liveOut)
	if err != nil {
		return nil, nil, nil, err
	}
	if bs, bp, bc, ok := s.memo.Lookup(fp, b, liveOut); ok {
		s.hits.Add(1)
		sp.SetBool("memo", true)
		return bs, bp, bc, nil
	}
	s.misses.Add(1)
	sp.SetBool("memo", false)
	bs, bp, bc, err := s.synth(b, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	s.memo.Store(fp, b, liveOut, bs, bp, bc)
	return bs, bp, bc, nil
}

// synth runs the three per-block stages, each under its own span.
func (s *blockSynth) synth(b *cfg.Block, tr *obs.Tracer) (*sched.BlockSchedule, *place.BlockPlacement, *codegen.BlockCode, error) {
	sp := tr.Start("schedule")
	bs, err := sched.ScheduleBlock(b, s.conf, s.live)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.Start("place")
	bp, err := s.place(bs)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.Start("codegen")
	bc, err := codegen.GenBlock(s.ctx, b, bs, bp, s.topo, tr)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	return bs, bp, bc, nil
}

// fanOut runs job(i) for i in [0, n) on up to workers goroutines, the
// caller's among them, handing the indices out in order. It returns the
// error of the lowest-numbered failed job, which is the error one worker
// meets first: every job numbered below a failure was handed out before it
// and runs to the end, and no job above the lowest failure so far starts.
// With a tracer, each job records into a tracer of its own (obs.Tracer is
// not safe for concurrent use), grafted under parent in job order.
func fanOut(ctx context.Context, tr *obs.Tracer, parent *obs.Span, n, workers int, job func(i int, tr *obs.Tracer) error) error {
	tracers := make([]*obs.Tracer, n)
	errs := make([]error, n)
	var next, lowest atomic.Int64
	lowest.Store(int64(n))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= lowest.Load() {
				return
			}
			if tr != nil {
				tracers[i] = obs.NewTracer()
			}
			err := ctxErr(ctx)
			if err == nil {
				err = job(int(i), tracers[i])
			}
			if err == nil {
				continue
			}
			errs[i] = err
			for {
				l := lowest.Load()
				if i >= l || lowest.CompareAndSwap(l, i) {
					break
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, t := range tracers {
		if t != nil {
			parent.Graft(t.Roots()...)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phase is one top-level compile phase: a span under the "compile" root
// and a biocoder_compile_phase_seconds sample of the same name.
type phase struct {
	name string
	sp   *obs.Span
	reg  *obs.Registry
	t0   time.Time
}

func startPhase(tr *obs.Tracer, reg *obs.Registry, name string) phase {
	return phase{name: name, sp: tr.Start(name), reg: reg, t0: time.Now()}
}

func (p phase) end() {
	p.sp.End()
	if p.reg != nil {
		p.reg.Histogram("biocoder_compile_phase_seconds", "Compile phase durations.",
			obs.DefTimeBuckets, obs.L("phase", p.name)).Observe(time.Since(p.t0).Seconds())
	}
}

// recordCompile folds one finished compile into the registry: total
// latency and an outcome counter. Callers guard on a nil registry before
// deferring this.
func recordCompile(reg *obs.Registry, elapsed time.Duration, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	reg.Histogram("biocoder_compile_seconds", "Whole-compile wall-clock latency.",
		obs.DefTimeBuckets).Observe(elapsed.Seconds())
	reg.Counter("biocoder_compiles_total", "Compiles by outcome.",
		obs.L("outcome", outcome)).Inc()
}

// ctxErr reports the context's cancellation state; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
