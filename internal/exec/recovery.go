package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/obs"
	"biocoder/internal/route"
	"biocoder/internal/verify"
)

// Hard-error recovery (paper §8.4, extended per Su & Chakrabarty's
// fault-tolerant reconfiguration): on a real cyber-physical DMFB a droplet
// can be lost mid-assay — evaporated, split unevenly — or an electrode can
// degrade permanently. The interpreter detects both through the
// cyber-physical feedback loop: a transient loss shows up as the
// electrode/droplet accounting no longer matching (DropletLossError), a
// permanent stuck-at-off electrode as a droplet failing to follow a
// commanded move (StuckElectrodeError).
//
// The controller in this file recovers differently per fault class.
// Transient losses flush the survivors to waste and restart the assay with
// fresh reagents — whole-program restart is the sound simplification of
// slice re-execution for assays whose droplets all transitively depend on
// the lost one, and gives an upper bound on recovery cost. Permanent
// faults instead close the loop the paper sketches: the suspect cell joins
// the fault set, the protocol is recompiled around it (verify-gated),
// repair routes carry the surviving droplets from their checkpointed
// positions into the new placement, and execution resumes from the last
// block boundary — falling back to whole-program restart (on the
// recompiled program when one exists) whenever recompilation or repair
// routing fails.

// Fault injects a transient droplet loss: at the first cycle ≥ Cycle, one
// droplet vanishes. The victim is chosen deterministically: the droplet
// whose cell is nearest Cell by Manhattan distance, ties broken by droplet
// ID (name, then SSI version). With the zero Cell this selects the droplet
// nearest the origin — not an arbitrary one.
type Fault struct {
	Cycle int
	Cell  arch.Point
}

// DropletLossError reports a detected loss: the cyber-physical feedback
// noticed fewer droplets than the executable expects.
type DropletLossError struct {
	Cycle   int
	Label   string
	Droplet string
}

func (e *DropletLossError) Error() string {
	return fmt.Sprintf("exec: droplet %s lost at cycle %d (in %s)", e.Droplet, e.Cycle, e.Label)
}

// RecompileFunc produces a replacement executable that avoids the given
// defective electrodes. The slice carries the full accumulated fault set —
// cells the current executable already avoided plus every newly detected
// one — so implementations replace, not append to, their fault list. The
// context bounds the recompilation (it is pol.Context, which also bounds
// the run).
type RecompileFunc func(ctx context.Context, faults []arch.Point) (*codegen.Executable, error)

// RecoveryPolicy configures RunWithPolicy.
type RecoveryPolicy struct {
	// MaxAttempts bounds executions, including the final successful one
	// (default 3).
	MaxAttempts int
	// Faults are transient droplet losses to inject, one per attempt in
	// cycle order (the electrode recovers after each incident).
	Faults []Fault
	// Recompile, when set, is invoked on every detected permanent fault to
	// compile around the accumulated fault set. The result is verify-gated
	// by the controller before use; nil means permanent faults can only be
	// retried by restarting on the unchanged program (which re-detects the
	// same fault and exhausts the budget — the §8.4 restart baseline).
	Recompile RecompileFunc
	// Restart forces whole-program restart even after a successful
	// recompile, skipping checkpointed resume — the baseline the
	// benchmarks compare recompile-and-resume against.
	Restart bool
	// Tracer, when non-nil, records recompile and repair-routing spans.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives per-incident recovery metrics:
	// segment durations (biocoder_recovery_segment_seconds), lost time
	// (biocoder_recovery_lost_seconds), and an incident counter by kind
	// and action (biocoder_recoveries_total).
	Registry *obs.Registry
	// Context bounds both execution and recompilation.
	Context context.Context
}

// RecoveryEvent is the per-incident accounting of one detected fault and
// the controller's response.
type RecoveryEvent struct {
	// Kind is "droplet-loss" or "stuck-electrode".
	Kind string
	// Cell is the suspect electrode (stuck-electrode incidents only).
	Cell arch.Point
	// Droplet is the droplet that surfaced the fault.
	Droplet string
	// DetectCycle is the machine cycle of detection; CheckpointCycle the
	// cycle of the checkpoint the controller held at that moment.
	DetectCycle     int
	CheckpointCycle int
	// Action is "resume" or "restart".
	Action string
	// Recompiled reports whether a replacement executable was adopted.
	Recompiled bool
	// RecompileWall is the wall-clock cost of recompilation. It stays off
	// the cycle axis so simulated time remains deterministic.
	RecompileWall time.Duration
	// RepairCycles is the length of the repair routes that moved the
	// checkpointed droplets into the new placement (resume only).
	RepairCycles int
	// LostCycles is the simulated time this incident wasted.
	LostCycles int
}

// RecoveryResult extends a Result with recovery accounting.
type RecoveryResult struct {
	*Result
	// Attempts counts executions, including the final successful one.
	Attempts int
	// Recoveries counts detected faults (Attempts - 1).
	Recoveries int
	// LostTime is the simulated time wasted on failed work: cycles rolled
	// back (to a checkpoint or to the start), flush overhead, and repair
	// routing.
	LostTime int // cycles
	// Events lists every incident in order.
	Events []RecoveryEvent
}

// RunWithRecovery executes the assay, injecting each Fault once and
// recovering by whole-program restart with flushed survivors. It is the
// transient-loss special case of RunWithPolicy, kept for callers that need
// no recompilation hook.
func RunWithRecovery(ex *codegen.Executable, chip *arch.Chip, opts Options, faults []Fault, maxAttempts int) (*RecoveryResult, error) {
	return RunWithPolicy(ex, chip, opts, RecoveryPolicy{MaxAttempts: maxAttempts, Faults: faults})
}

// RunWithPolicy executes the assay under the given recovery policy,
// stepping block by block and checkpointing at every boundary. On a
// transient loss it flushes and restarts (charged one chip traversal per
// surviving droplet); on a detected stuck electrode it recompiles around
// the accumulated fault set and resumes from the last checkpoint via
// repair routes, falling back to restart when recompilation or repair
// fails. Chip degradation state is shared across attempts: restarting the
// program does not heal the hardware.
func RunWithPolicy(ex *codegen.Executable, chip *arch.Chip, opts Options, pol RecoveryPolicy) (*RecoveryResult, error) {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 3
	}
	if opts.Verify {
		rep := verify.Run(&verify.Unit{Chip: chip, Exec: ex})
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("exec: refusing to run: %w", err)
		}
		opts.Verify = false // recompiled executables are gated below
	}
	if opts.Context == nil {
		opts.Context = pol.Context
	}
	transient := append([]Fault(nil), pol.Faults...)
	sort.Slice(transient, func(i, j int) bool { return transient[i].Cycle < transient[j].Cycle })
	if opts.Degradation != nil && opts.degrade == nil {
		// One shared chip-health state across all attempts.
		opts.degrade = newDegradeState(opts.Degradation)
	}

	out := &RecoveryResult{}
	flushPerDroplet := chip.Cols + chip.Rows // conservative traversal to waste
	faultSet := append([]arch.Point(nil), topoFaults(ex)...)
	cur := ex
	var cp *Checkpoint
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		out.Attempts = attempt
		o := opts
		if len(transient) > 0 {
			o.faults = transient[:1]
		}
		var st *Stepper
		if cp != nil {
			var err error
			if st, err = NewStepperAt(cur, chip, o, cp); err != nil {
				return nil, err
			}
		} else {
			st = NewStepper(cur, chip, o)
		}
		last, err := st.Checkpoint()
		if err != nil {
			return nil, err
		}
		runErr := func() error {
			for !st.Done() {
				if _, err := st.Step(); err != nil {
					return err
				}
				if !st.Done() {
					c, err := st.Checkpoint()
					if err != nil {
						return err
					}
					last = c
				}
			}
			return nil
		}()
		if runErr == nil {
			res, err := st.Finish()
			if err != nil {
				return nil, err
			}
			out.Result = res
			out.Result.Cycles += out.LostTime
			out.Result.Time = chip.Duration(out.Result.Cycles)
			for _, ev := range out.Events {
				res.Metrics.RecordRecovery(recoverySample(ev))
			}
			return out, nil
		}
		if loss, ok := errAsLoss(runErr); ok {
			// Transient fault consumed; flush survivors and restart. The
			// whole prefix of this attempt is wasted — including any
			// portion replayed from an earlier checkpoint.
			if len(transient) > 0 {
				transient = transient[1:]
			}
			out.Recoveries++
			waste := loss.Cycle + flushPerDroplet*loss.Survivors
			ev := RecoveryEvent{
				Kind: "droplet-loss", Droplet: loss.Droplet,
				DetectCycle: loss.Cycle, CheckpointCycle: last.Cycle,
				Action: "restart", LostCycles: waste,
			}
			out.Events = append(out.Events, ev)
			recordRecoveryMetrics(pol.Registry, chip, ev)
			out.LostTime += waste
			cp = nil
			continue
		}
		var stuck *StuckElectrodeError
		if !errors.As(runErr, &stuck) {
			return nil, runErr
		}
		out.Recoveries++
		if o.degrade != nil {
			o.degrade.markStuck(stuck.Cell)
		}
		faultSet = appendCell(faultSet, stuck.Cell)
		ev := RecoveryEvent{
			Kind: "stuck-electrode", Cell: stuck.Cell, Droplet: stuck.Droplet,
			DetectCycle: stuck.Cycle, CheckpointCycle: last.Cycle,
		}
		survivors := len(st.Droplets())
		if pol.Recompile != nil {
			sp := pol.Tracer.Start("recovery-recompile")
			sp.SetInt("faults", len(faultSet))
			t0 := time.Now()
			ex2, rerr := pol.Recompile(pol.Context, append([]arch.Point(nil), faultSet...))
			ev.RecompileWall = time.Since(t0)
			if rerr == nil {
				if vErr := verify.Run(&verify.Unit{Chip: chip, Exec: ex2}).Err(); vErr != nil {
					rerr = fmt.Errorf("exec: recompiled executable rejected: %w", vErr)
				}
			}
			sp.SetBool("ok", rerr == nil)
			sp.End()
			if rerr == nil {
				ev.Recompiled = true
				cur = ex2
				if !pol.Restart {
					sp := pol.Tracer.Start("recovery-repair")
					cp2, repair, perr := planRepair(cur, chip, last, faultSet)
					sp.SetBool("ok", perr == nil)
					if perr == nil {
						sp.SetInt("cycles", repair)
					}
					sp.End()
					if perr == nil {
						// Resume: the cycles between the checkpoint and
						// detection are replayed, plus the repair routes.
						waste := (stuck.Cycle - last.Cycle) + repair
						ev.Action = "resume"
						ev.RepairCycles = repair
						ev.LostCycles = waste
						out.LostTime += waste
						out.Events = append(out.Events, ev)
						recordRecoveryMetrics(pol.Registry, chip, ev)
						cp = cp2
						continue
					}
				}
			}
		}
		// Whole-program restart — on the recompiled program when one was
		// adopted, otherwise on the unchanged one (which will re-detect).
		waste := stuck.Cycle + flushPerDroplet*survivors
		ev.Action = "restart"
		ev.LostCycles = waste
		out.LostTime += waste
		out.Events = append(out.Events, ev)
		recordRecoveryMetrics(pol.Registry, chip, ev)
		cp = nil
	}
	return nil, fmt.Errorf("exec: assay failed after %d recovery attempts", pol.MaxAttempts)
}

// planRepair maps a checkpoint onto a recompiled executable: it locates
// the checkpointed block by label, matches every surviving droplet to the
// block's entry contract by fluid ID, and plans repair routes from the
// checkpointed cells into the new placement, treating the defective
// electrodes as obstacles. It returns a repaired checkpoint (droplets
// repositioned, ready for NewStepperAt on the new executable) and the
// repair length in cycles.
func planRepair(ex *codegen.Executable, chip *arch.Chip, cp *Checkpoint, faults []arch.Point) (*Checkpoint, int, error) {
	blk := blockByLabel(ex, cp.Block)
	if blk == nil {
		return nil, 0, fmt.Errorf("exec: recompiled program has no block %q", cp.Block)
	}
	bc := ex.Blocks[blk.ID]
	if bc == nil {
		return nil, 0, fmt.Errorf("exec: recompiled block %q has no code", cp.Block)
	}
	if len(bc.Entry) != len(cp.Droplets) {
		return nil, 0, fmt.Errorf("exec: recompiled block %q expects %d droplets, checkpoint has %d",
			cp.Block, len(bc.Entry), len(cp.Droplets))
	}
	reqs := make([]route.Request, 0, len(cp.Droplets))
	for _, d := range cp.Droplets {
		to, ok := bc.Entry[d.ID]
		if !ok {
			return nil, 0, fmt.Errorf("exec: droplet %s has no entry slot in recompiled block %q", d.ID, cp.Block)
		}
		reqs = append(reqs, route.Request{ID: d.ID, From: d.Pos, To: to})
	}
	obstacles := make([]arch.Rect, len(faults))
	for i, f := range faults {
		obstacles[i] = arch.Rect{X: f.X, Y: f.Y, W: 1, H: 1}
	}
	rres, err := route.Route(route.Config{Chip: chip, Obstacles: obstacles}, reqs)
	if err != nil {
		return nil, 0, fmt.Errorf("exec: repair routing failed: %w", err)
	}
	fixed := cp.clone()
	for _, d := range fixed.Droplets {
		d.Pos = bc.Entry[d.ID]
	}
	return fixed, rres.Cycles, nil
}

func topoFaults(ex *codegen.Executable) []arch.Point {
	if ex.Topo == nil {
		return nil
	}
	return ex.Topo.Faults
}

func appendCell(set []arch.Point, c arch.Point) []arch.Point {
	for _, p := range set {
		if p == c {
			return set
		}
	}
	return append(set, c)
}

// recordRecoveryMetrics folds one recovery incident into the process-wide
// registry. Segment durations land on the simulated-time axis via the
// chip's cycle period — except the recompile segment, which is wall clock
// (the chip genuinely stalls for it, so the SLO budget covers both axes).
// Incidents are rare, so per-event registry lookups are fine here; the hot
// per-cycle path uses pre-resolved handles instead (see newMachine).
func recordRecoveryMetrics(reg *obs.Registry, chip *arch.Chip, ev RecoveryEvent) {
	if reg == nil {
		return
	}
	seg := func(name string, d time.Duration) {
		reg.Histogram("biocoder_recovery_segment_seconds",
			"Recovery segment durations by phase; recompile is wall clock, the rest simulated time.",
			obs.DefTimeBuckets, obs.L("segment", name)).Observe(d.Seconds())
	}
	// detect: how far past the last checkpoint the fault surfaced — the
	// prefix that must be replayed (resume) or is simply lost (restart).
	seg("detect", chip.Duration(ev.DetectCycle-ev.CheckpointCycle))
	if ev.Recompiled || ev.RecompileWall > 0 {
		seg("recompile", ev.RecompileWall)
	}
	switch ev.Action {
	case "resume":
		seg("repair", chip.Duration(ev.RepairCycles))
		seg("resume", chip.Duration(ev.DetectCycle-ev.CheckpointCycle))
	case "restart":
		seg("restart", chip.Duration(ev.LostCycles))
	}
	reg.Summary("biocoder_recovery_lost_seconds",
		"Simulated time lost per recovery incident.").
		Observe(chip.Duration(ev.LostCycles).Seconds())
	reg.Counter("biocoder_recoveries_total",
		"Recovery incidents by fault kind and controller action.",
		obs.L("kind", ev.Kind), obs.L("action", ev.Action)).Inc()
}

func recoverySample(ev RecoveryEvent) obs.RecoverySample {
	return obs.RecoverySample{
		Kind:            ev.Kind,
		X:               ev.Cell.X,
		Y:               ev.Cell.Y,
		Droplet:         ev.Droplet,
		DetectCycle:     ev.DetectCycle,
		CheckpointCycle: ev.CheckpointCycle,
		Action:          ev.Action,
		Recompiled:      ev.Recompiled,
		RecompileNanos:  ev.RecompileWall.Nanoseconds(),
		RepairCycles:    ev.RepairCycles,
		LostCycles:      ev.LostCycles,
	}
}

type lossSignal struct {
	*DropletLossError
	Survivors int
}

func errAsLoss(err error) (*lossSignal, bool) {
	if l, ok := err.(*lossSignal); ok {
		return l, true
	}
	return nil, false
}

// faultDue reports whether injectFaults would take a droplet this cycle.
func (m *machine) faultDue() bool {
	return len(m.opts.faults) > 0 && m.res.Cycles >= m.opts.faults[0].Cycle && len(m.droplets) > 0
}

// injectFaults applies due faults before a frame: the chosen droplet
// silently vanishes, exactly like a dielectric breakdown would take it.
// Victim selection follows the Fault doc: nearest to the fault cell by
// Manhattan distance, ties broken by droplet ID name, then SSI version —
// fully deterministic.
func (m *machine) injectFaults() {
	if !m.faultDue() {
		return
	}
	f := m.opts.faults[0]
	ids := make([]ir.FluidID, 0, len(m.droplets))
	for id := range m.droplets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		di := m.droplets[ids[i]].Pos.Manhattan(f.Cell)
		dj := m.droplets[ids[j]].Pos.Manhattan(f.Cell)
		if di != dj {
			return di < dj
		}
		if ids[i].Name != ids[j].Name {
			return ids[i].Name < ids[j].Name
		}
		return ids[i].Ver < ids[j].Ver
	})
	m.lost = m.droplets[ids[0]]
	delete(m.droplets, ids[0])
	m.opts.faults = m.opts.faults[1:]
}
