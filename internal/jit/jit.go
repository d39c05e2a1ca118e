// Package jit reimplements the dynamic interpretation scheme the paper's
// static compiler replaces (§8.3, Fig. 14): a runtime interpreter with an
// integrated JIT compiler that compiles each basic block on-the-fly just
// before executing it. The assay pauses during every JIT invocation —
// droplets sit in storage while the host computes — which forces the JIT to
// use low-overhead greedy heuristics that produce relatively poor solution
// quality. Moving compilation offline removes the pauses and affords
// better optimization; this package exists as the measured baseline for
// that comparison (see BenchmarkStaticVsJIT).
package jit

import (
	"fmt"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/exec"
	"biocoder/internal/place"
	"biocoder/internal/sched"
)

// Pause models the real-time cost of one JIT invocation: a fixed dispatch
// overhead plus a per-operation term. The constants are deliberately modest
// — even a fast embedded JIT pays them on every block visit, because the
// placement context (which droplets sit where) differs per visit.
type Pause struct {
	PerBlock time.Duration
	PerOp    time.Duration
}

// DefaultPause is the pause model used by the benchmarks.
var DefaultPause = Pause{PerBlock: 250 * time.Millisecond, PerOp: 20 * time.Millisecond}

// Result summarizes a JIT-interpreted run.
type Result struct {
	// AssayTime is the fluidic execution time under the JIT's cheap
	// (serial) schedules.
	AssayTime time.Duration
	// CompileOverhead is the accumulated pause time across block visits.
	CompileOverhead time.Duration
	// Total is the end-to-end wall time the scientist waits.
	Total time.Duration
	// BlockVisits counts JIT invocations (one per visit: the droplet
	// context changes between visits, so blocks are recompiled).
	BlockVisits int
	// Exec carries the underlying simulation result.
	Exec *exec.Result
}

// Run interprets the program under the JIT scheme on the given chip.
// The graph must be freshly lowered (pre-SSI); Run converts it.
func Run(g *cfg.Graph, chip *arch.Chip, opts exec.Options, pause Pause) (*Result, error) {
	if err := cfg.ToSSI(g); err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	topo, err := place.BuildTopology(chip)
	if err != nil {
		return nil, err
	}
	// The JIT can only afford the greedy serial heuristic per block.
	sr, err := sched.Schedule(g, sched.Config{
		Res:         topo.Resources(),
		CyclePeriod: chip.CyclePeriod,
		Serial:      true,
	})
	if err != nil {
		return nil, err
	}
	pl, err := place.Place(g, sr, topo, place.Virtual)
	if err != nil {
		return nil, err
	}
	ex, err := codegen.Generate(g, sr, pl, topo)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(ex, chip, opts)
	if err != nil {
		return nil, err
	}
	out := &Result{AssayTime: res.Time, Exec: res}
	for _, v := range res.Trace.Visits {
		b := blockByLabel(g, v.Label)
		if b == nil || (b == g.Entry || b == g.Exit) {
			continue
		}
		out.BlockVisits++
		out.CompileOverhead += pause.PerBlock + time.Duration(len(b.Instrs))*pause.PerOp
	}
	out.Total = out.AssayTime + out.CompileOverhead
	return out, nil
}

func blockByLabel(g *cfg.Graph, label string) *cfg.Block {
	for _, b := range g.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}
