// Package exec is the runtime execution engine and cycle-accurate DMFB
// simulator (paper §7.1): it interprets the compiled executable Δ, driving
// one electrode frame per 10 ms cycle, reconstructs droplet motion from the
// activation frames (the cyber-physical contract: the chip only sees
// electrodes), samples sensor models at sensing events, resolves control
// flow online by evaluating each block's dry program against the sensor
// readings, and reports the total bioassay execution time together with an
// execution trace listing the blocks executed in order and the evaluation
// of every conditional statement — the debugging aid §7.1 describes.
//
// With Options.Metrics set, the machine additionally collects cycle-accurate
// telemetry into an obs.Metrics snapshot on the Result: actuation counts and
// per-electrode heatmap, droplet population statistics, module occupancy,
// per-sequence visit aggregates, and a timeline of every block and CFG-edge
// execution. Touch accounting mirrors verify.ReplayTouches exactly, so the
// runtime's numbers reconcile against the static symbolic replay.
package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/obs"
	"biocoder/internal/sensor"
	"biocoder/internal/verify"
)

// Droplet is the simulator's view of one droplet on the array.
type Droplet struct {
	ID     ir.FluidID
	Pos    arch.Point
	Volume float64
	// Contents maps reagent names to their volumes, tracking composition
	// through merges and splits.
	Contents map[string]float64
}

func (d *Droplet) clone() *Droplet {
	c := *d
	c.Contents = make(map[string]float64, len(d.Contents))
	for k, v := range d.Contents {
		c.Contents[k] = v
	}
	return &c
}

// Visit records one executed CFG node or edge.
type Visit struct {
	Label  string
	Cycles int
}

// Condition records the online resolution of one branch.
type Condition struct {
	Block string
	Expr  string
	Value bool
}

// Reading records one sensor sample.
type Reading struct {
	Cycle    int
	Variable string
	Device   string
	Value    float64
}

// Trace is the execution trace (§7.1): the CFG nodes executed in order and
// every condition evaluation, for error diagnosis.
type Trace struct {
	Visits     []Visit
	Conditions []Condition
	Readings   []Reading
}

// RuntimeError is the uniform error type of the interpreter: every failure
// carries the block or edge label being executed and the absolute cycle
// number at which execution stopped, so cyber-physical incidents can be
// located on the timeline without grepping activation sequences.
type RuntimeError struct {
	// Label is the CFG node ("mix1") or edge ("b2->b4") being executed.
	Label string
	// Cycle is the absolute cycle count at the failure.
	Cycle int
	Err   error
}

func (e *RuntimeError) Error() string {
	if e.Label == "" {
		return fmt.Sprintf("exec: cycle %d: %v", e.Cycle, e.Err)
	}
	return fmt.Sprintf("exec: %s: cycle %d: %v", e.Label, e.Cycle, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// Result summarizes one simulated run.
type Result struct {
	// Cycles is the total actuation cycle count.
	Cycles int
	// Time is Cycles converted by the chip's cycle period — the
	// simulated bioassay execution time reported in Table 1.
	Time time.Duration
	// DryEnv is the final state of the host-side variables.
	DryEnv map[string]float64
	// Dispensed and Collected account for droplet I/O (conservation).
	Dispensed, Collected int
	Trace                *Trace
	// Contamination is populated when Options.TrackContamination is set.
	Contamination *Contamination
	// Metrics is the cycle-accurate telemetry snapshot, populated when
	// Options.Metrics is set. It is updated live during the run, so a
	// FrameHook or MetricsHook may read it mid-execution.
	Metrics *obs.Metrics
}

// Options configures a run.
type Options struct {
	// Sensors supplies readings; defaults to a zero-seeded uniform model.
	Sensors sensor.Model
	// MaxCycles aborts runaway executions (default 100M cycles ≈ 11.5
	// days of simulated time).
	MaxCycles int
	// FrameHook, when set, observes every executed frame (used by the
	// visualizer to produce per-cycle images).
	FrameHook func(cycle int, label string, frame codegen.Frame, droplets []*Droplet)
	// Metrics enables cycle-accurate telemetry collection into
	// Result.Metrics. Off by default: the per-cycle bookkeeping (heatmap
	// updates, occupancy scans) is cheap but not free.
	Metrics bool
	// MetricsHook, when set together with Metrics, streams the live
	// telemetry snapshot after every executed cycle — the runtime
	// counterpart of FrameHook for monitoring consoles.
	MetricsHook func(cycle int, m *obs.Metrics)
	// TrackContamination enables residue bookkeeping: every electrode a
	// droplet touches is marked with its reagents, and crossings of
	// foreign residue are reported (paper §5, wash droplets).
	TrackContamination bool
	// Verify runs the static verifier over the executable before the
	// first cycle and refuses to run anything carrying error-severity
	// diagnostics — a guard for executables loaded from disk or produced
	// by experimental transformations.
	Verify bool
	// Context, when non-nil, bounds the simulation: cancellation or
	// deadline expiry aborts the run at the next checkpoint (every
	// ctxCheckCycles cycles), surfacing as a RuntimeError wrapping the
	// context's error. Servers use this to shed abandoned or overlong
	// simulate requests.
	Context context.Context
	// Degradation, when non-nil, injects permanent electrode failures
	// (stuck-at-off cells and wear-out); a commanded move onto a dead
	// electrode surfaces as a StuckElectrodeError. Nil costs nothing on
	// the per-cycle path.
	Degradation *Degradation
	// Registry, when non-nil, receives process-wide run metrics
	// (biocoder_sim_* cycle, actuation, and droplet instruments). Unlike
	// Metrics — a per-run snapshot — the registry aggregates across runs;
	// handles are resolved once at machine construction, so a nil registry
	// adds a single branch and zero allocations per cycle.
	Registry *obs.Registry

	// faults holds pending transient droplet losses; set only through
	// the recovery controller.
	faults []Fault
	// degrade, when set by the recovery controller, shares one chip-health
	// state across attempts (hardware does not heal on restart); otherwise
	// a fresh state is derived from Degradation.
	degrade *degradeState
}

// ctxCheckCycles is how many simulated cycles pass between context
// checkpoints: frequent enough to abort within milliseconds of wall time,
// sparse enough that Context.Err's synchronization stays off the per-cycle
// fast path.
const ctxCheckCycles = 1024

// newMachine builds the interpreter state shared by Run and the Stepper,
// so both execution modes collect identical telemetry.
func newMachine(ex *codegen.Executable, chip *arch.Chip, opts Options) *machine {
	if opts.Sensors == nil {
		opts.Sensors = sensor.NewUniform(0)
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 100_000_000
	}
	m := &machine{
		chip:     chip,
		ex:       ex,
		opts:     opts,
		droplets: map[ir.FluidID]*Droplet{},
		env:      map[string]float64{},
		captured: map[int]float64{},
		res:      &Result{DryEnv: map[string]float64{}, Trace: &Trace{}},
	}
	if opts.TrackContamination {
		m.residue = newResidueTracker()
	}
	if opts.degrade != nil {
		m.ds = opts.degrade
	} else if opts.Degradation != nil {
		m.ds = newDegradeState(opts.Degradation)
	}
	if opts.Registry != nil {
		m.simCycles = opts.Registry.Counter("biocoder_sim_cycles_total",
			"Simulated actuation cycles executed.")
		m.simActs = opts.Registry.Counter("biocoder_sim_actuations_total",
			"Electrode actuations driven.")
		m.simDrops = opts.Registry.Gauge("biocoder_sim_droplets",
			"Droplets currently on chip in the most recent simulated cycle.")
	}
	if opts.Metrics {
		m.met = obs.NewMetrics(chip.Cols, chip.Rows)
		m.res.Metrics = m.met
		if ex.Topo != nil {
			m.cellSlot = map[arch.Point]int{}
			for _, s := range ex.Topo.Slots {
				for _, c := range s.Loc.Cells() {
					m.cellSlot[c] = s.Index
				}
			}
		}
	}
	return m
}

// Run interprets the executable on the given chip.
func Run(ex *codegen.Executable, chip *arch.Chip, opts Options) (*Result, error) {
	if opts.Verify {
		rep := verify.Run(&verify.Unit{Chip: chip, Exec: ex})
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("exec: refusing to run: %w", err)
		}
	}
	m := newMachine(ex, chip, opts)
	cur := ex.Graph.Entry
	for {
		bc := ex.Blocks[cur.ID]
		if bc == nil {
			return nil, m.failAt(cur.Label, errors.New("block has no compiled code"))
		}
		if err := m.runSequence(bc.Seq, cur.Label, false); err != nil {
			return nil, err
		}
		m.res.Trace.Visits = append(m.res.Trace.Visits, Visit{Label: cur.Label, Cycles: bc.Seq.NumCycles})
		if err := m.runDryProgram(cur); err != nil {
			return nil, m.failAt(cur.Label, err)
		}
		if cur == ex.Graph.Exit {
			break
		}
		next, err := m.pickSuccessor(cur)
		if err != nil {
			return nil, m.failAt(cur.Label, err)
		}
		ec := ex.Edge(cur, next)
		if ec == nil {
			return nil, m.failAt(cur.Label+"->"+next.Label, errors.New("edge has no compiled code"))
		}
		if err := m.runSequence(ec.Seq, cur.Label+"->"+next.Label, true); err != nil {
			return nil, err
		}
		cur = next
	}
	if len(m.droplets) != 0 {
		return nil, m.failAt(ex.Graph.Exit.Label, fmt.Errorf("%d droplets remain on chip at protocol end", len(m.droplets)))
	}
	if m.residue != nil {
		m.res.Contamination = m.residue.finish()
	}
	m.res.Time = time.Duration(m.res.Cycles) * chip.CyclePeriod
	for k, v := range m.env {
		m.res.DryEnv[k] = v
	}
	return m.res, nil
}

type machine struct {
	chip     *arch.Chip
	ex       *codegen.Executable
	opts     Options
	droplets map[ir.FluidID]*Droplet
	env      map[string]float64
	captured map[int]float64 // sense instr ID -> sampled value
	res      *Result
	residue  *residueTracker
	lost     *Droplet
	ds       *degradeState

	// Telemetry state (nil when Options.Metrics is off). vs and sm point
	// at the sample and aggregate of the sequence currently executing.
	met      *obs.Metrics
	cellSlot map[arch.Point]int
	vs       *obs.VisitSample
	sm       *obs.SeqMetrics
	// held counts the hold cycles executed since the last recorded cycle,
	// all of frame heldFrame; they are recorded as one batch by flushHeld.
	held      int
	heldFrame codegen.Frame

	// Process-wide registry handles (nil when Options.Registry is off),
	// pre-resolved so the per-cycle path never performs a registry lookup.
	simCycles *obs.Counter
	simActs   *obs.Counter
	simDrops  *obs.Gauge
}

// failAt wraps err with the runtime position: the label of the sequence
// being executed and the absolute cycle number. Droplet-loss signals and
// stuck-electrode detections pass through untouched (the recovery
// controller matches on them and they already carry a position), as do
// errors already wrapped.
func (m *machine) failAt(label string, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*lossSignal); ok {
		return err
	}
	if _, ok := err.(*StuckElectrodeError); ok {
		return err
	}
	var re *RuntimeError
	if errors.As(err, &re) {
		return err
	}
	return &RuntimeError{Label: label, Cycle: m.res.Cycles, Err: err}
}

// touch records n droplet arrivals for telemetry, mirroring the Touch
// accounting of the static replay (verify.ReplayTouches).
func (m *machine) touch(n int) {
	if m.met == nil {
		return
	}
	m.met.Touches += n
	if m.sm != nil {
		m.sm.Touches += n
		m.vs.Touches += n
	}
}

// recordCycles folds k executed cycles of frame f into the telemetry
// counters, all with the current droplet population and positions.
func (m *machine) recordCycles(f codegen.Frame, k int) {
	met := m.met
	met.Cycles += k
	met.Actuations += k * len(f)
	met.ActiveHist[len(f)] += k
	for _, c := range f {
		met.Heat[c.Y][c.X] += k
	}
	n := len(m.droplets)
	met.DropletCycles += k * n
	met.DropletHist[n] += k
	if n > met.MaxDroplets {
		met.MaxDroplets = n
	}
	if m.cellSlot != nil {
		for _, d := range m.droplets {
			if si, ok := m.cellSlot[d.Pos]; ok {
				met.ModuleOccupancy[si] += k
			}
		}
	}
	m.sm.Cycles += k
	m.sm.Actuations += k * len(f)
	m.vs.Cycles += k
	m.vs.Actuations += k * len(f)
	if n > m.vs.MaxDroplets {
		m.vs.MaxDroplets = n
	}
}

// flushHeld records the pending hold cycles. It must run before anything
// reads the telemetry and before the droplet population or positions
// change: a hold changes neither, so the batch records exactly what the
// cycles would have recorded one by one.
func (m *machine) flushHeld() {
	if m.held > 0 {
		m.recordCycles(m.heldFrame, m.held)
		m.held = 0
	}
}

// runSequence drives one activation sequence cycle by cycle: events apply
// between frames; each frame is interpreted physically — a droplet follows
// the unique activated electrode in its own cell or 4-neighborhood. isEdge
// marks CFG-edge sequences, whose telemetry mirrors the fold-aware static
// replay (empty edge sequences record no touches).
func (m *machine) runSequence(s *codegen.Sequence, label string, isEdge bool) error {
	if m.met != nil {
		m.vs, m.sm = m.met.BeginVisit(label, isEdge, m.res.Cycles)
		if n := len(m.droplets); n > m.vs.MaxDroplets {
			m.vs.MaxDroplets = n
		}
		if !isEdge || !s.Empty() {
			// Sequence-start arrivals: the replay touches every droplet
			// of the entry contract at cycle 0 of the sequence.
			m.touch(len(m.droplets))
		}
		defer func() {
			m.flushHeld()
			m.vs, m.sm = nil, nil
		}()
	}
	evIdx := 0
	applyEvents := func(cycle int) error {
		for evIdx < len(s.Events) && s.Events[evIdx].Cycle == cycle {
			if err := m.applyEvent(s.Events[evIdx]); err != nil {
				return m.failAt(label, err)
			}
			evIdx++
		}
		return nil
	}
	t := 0
	for _, run := range s.Runs {
		f := run.Frame
		for k := 0; k < run.Len; k, t = k+1, t+1 {
			// A cycle after the first of its run, with no event and no
			// droplet loss due, leaves every droplet on the active cell
			// it already occupies, so it records what the cycle before
			// it recorded: telemetry counts the run and records it once.
			hold := m.met != nil && k > 0 && (evIdx == len(s.Events) || s.Events[evIdx].Cycle != t) && !m.faultDue()
			if !hold {
				m.flushHeld()
			}
			if err := applyEvents(t); err != nil {
				return err
			}
			m.injectFaults()
			if err := m.applyFrame(f, label, t); err != nil {
				return m.failAt(label, err)
			}
			if m.residue != nil {
				for _, d := range m.droplets {
					m.residue.touch(d, m.res.Cycles, label)
				}
				m.residue.endCycle()
			}
			m.res.Cycles++
			if m.ds != nil {
				m.ds.advance(f)
			}
			if m.met != nil {
				if hold {
					m.held++
					m.heldFrame = f
				} else {
					m.recordCycles(f, 1)
				}
			}
			if m.simCycles != nil {
				m.simCycles.Inc()
				m.simActs.Add(int64(len(f)))
				m.simDrops.Set(int64(len(m.droplets)))
			}
			if m.res.Cycles > m.opts.MaxCycles {
				return m.failAt(label, fmt.Errorf("execution exceeded %d cycles (runaway loop?)", m.opts.MaxCycles))
			}
			if m.opts.Context != nil && m.res.Cycles%ctxCheckCycles == 0 {
				if err := m.opts.Context.Err(); err != nil {
					return m.failAt(label, err)
				}
			}
			if m.opts.FrameHook != nil {
				m.flushHeld()
				m.opts.FrameHook(m.res.Cycles, label, f, m.dropletList())
			}
			if m.opts.MetricsHook != nil && m.met != nil {
				m.flushHeld()
				m.opts.MetricsHook(m.res.Cycles, m.met)
			}
		}
	}
	m.flushHeld()
	return applyEvents(s.NumCycles)
}

func (m *machine) dropletList() []*Droplet {
	out := make([]*Droplet, 0, len(m.droplets))
	for _, d := range m.droplets {
		out = append(out, d)
	}
	return out
}

func (m *machine) applyEvent(ev codegen.Event) error {
	switch ev.Kind {
	case codegen.EvDispense:
		d := ev.Results[0]
		if _, dup := m.droplets[d]; dup {
			return fmt.Errorf("dispense of existing droplet %s", d)
		}
		m.droplets[d] = &Droplet{
			ID: d, Pos: ev.Cells[0], Volume: ev.Volume,
			Contents: map[string]float64{ev.Fluid: ev.Volume},
		}
		m.res.Dispensed++
		if m.met != nil {
			m.met.Dispenses++
			m.touch(1)
		}
	case codegen.EvOutput:
		d, err := m.take(ev.Inputs[0])
		if err != nil {
			return err
		}
		if d.Pos != ev.Cells[0] {
			return fmt.Errorf("output expects droplet %s at %v, found at %v", d.ID, ev.Cells[0], d.Pos)
		}
		m.res.Collected++
		if m.met != nil {
			m.met.Outputs++
		}
	case codegen.EvSplit:
		parent, err := m.take(ev.Inputs[0])
		if err != nil {
			return err
		}
		for i, rid := range ev.Results {
			child := parent.clone()
			child.ID = rid
			child.Pos = ev.Cells[i]
			child.Volume = parent.Volume / 2
			for k := range child.Contents {
				child.Contents[k] /= 2
			}
			m.droplets[rid] = child
		}
		if m.met != nil {
			m.met.Splits++
			m.touch(len(ev.Results))
		}
	case codegen.EvMerge:
		result := &Droplet{ID: ev.Results[0], Pos: ev.Cells[0], Contents: map[string]float64{}}
		for _, in := range ev.Inputs {
			d, err := m.take(in)
			if err != nil {
				return err
			}
			result.Volume += d.Volume
			for k, v := range d.Contents {
				result.Contents[k] += v
			}
		}
		m.droplets[result.ID] = result
		if m.met != nil {
			m.met.Merges++
			m.touch(1)
		}
	case codegen.EvRename:
		d, err := m.take(ev.Inputs[0])
		if err != nil {
			return err
		}
		d.ID = ev.Results[0]
		m.droplets[d.ID] = d
		if m.met != nil {
			m.met.Renames++
			m.touch(1)
		}
	case codegen.EvSense:
		d, ok := m.droplets[ev.Inputs[0]]
		if !ok {
			return fmt.Errorf("sensing missing droplet %s", ev.Inputs[0])
		}
		_ = d
		v := m.opts.Sensors.Read(ev.SensorVar, ev.Device, m.res.Cycles)
		m.captured[ev.InstrID] = v
		m.res.Trace.Readings = append(m.res.Trace.Readings, Reading{
			Cycle: m.res.Cycles, Variable: ev.SensorVar, Device: ev.Device, Value: v,
		})
		if m.met != nil {
			m.met.SensorReads++
		}
	default:
		return fmt.Errorf("unknown event kind %v", ev.Kind)
	}
	return nil
}

func (m *machine) take(id ir.FluidID) (*Droplet, error) {
	d, ok := m.droplets[id]
	if !ok {
		return nil, fmt.Errorf("droplet %s not on chip", id)
	}
	delete(m.droplets, id)
	return d, nil
}

// applyFrame moves every droplet according to the activated electrodes: a
// droplet whose own electrode stays active holds; otherwise it follows the
// unique active electrode among its four neighbors (Fig. 2). Zero or
// several candidates indicate a malformed executable.
func (m *machine) applyFrame(f codegen.Frame, label string, t int) error {
	active := make(map[arch.Point]bool, len(f))
	for _, c := range f {
		active[c] = true
	}
	if len(active) != len(m.droplets) {
		if m.lost != nil {
			// The cyber-physical feedback loop notices the discrepancy
			// one cycle after the loss: this is the detection signal the
			// recovery controller acts on (§8.4).
			return &lossSignal{
				DropletLossError: &DropletLossError{
					Cycle: m.res.Cycles, Label: label, Droplet: m.lost.ID.String(),
				},
				Survivors: len(m.droplets),
			}
		}
		return fmt.Errorf("%d electrodes active for %d droplets", len(active), len(m.droplets))
	}
	for _, d := range m.droplets {
		if active[d.Pos] {
			continue // hold
		}
		var next []arch.Point
		for _, delta := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			n := d.Pos.Add(delta[0], delta[1])
			if active[n] {
				next = append(next, n)
			}
		}
		switch len(next) {
		case 1:
			if m.ds != nil && m.ds.dead(next[0]) {
				// The droplet was commanded onto a dead electrode and did
				// not follow: the feedback loop implicates the target cell
				// (§8.4 extended to permanent faults). The droplet holds —
				// it is stuck, not lost.
				return &StuckElectrodeError{
					Cell: next[0], Cycle: m.res.Cycles,
					Label: label, Droplet: d.ID.String(),
				}
			}
			d.Pos = next[0]
			m.touch(1)
		case 0:
			return fmt.Errorf("droplet %s at %v stranded (no active electrode nearby)", d.ID, d.Pos)
		default:
			return fmt.Errorf("droplet %s at %v torn between %d electrodes", d.ID, d.Pos, len(next))
		}
	}
	return nil
}

// runDryProgram walks the block's instruction list in program order,
// binding captured sensor readings and evaluating dry computations — the
// host-side half of the hybrid IR.
func (m *machine) runDryProgram(b *cfg.Block) error {
	for _, in := range b.Instrs {
		switch in.Kind {
		case ir.Sense:
			v, ok := m.captured[in.ID]
			if !ok {
				return fmt.Errorf("no captured reading for %s", in)
			}
			m.env[in.SensorVar] = v
		case ir.Compute:
			v, err := in.DryExpr.Eval(m.env)
			if err != nil {
				return fmt.Errorf("%s: %w", in, err)
			}
			m.env[in.DryLHS] = v
		}
	}
	return nil
}

// pickSuccessor resolves control flow: unconditional blocks fall through;
// conditional blocks evaluate their dry expression against the environment.
func (m *machine) pickSuccessor(b *cfg.Block) (*cfg.Block, error) {
	if b.Branch == nil {
		if len(b.Succs) != 1 {
			return nil, fmt.Errorf("block has %d successors and no branch", len(b.Succs))
		}
		return b.Succs[0], nil
	}
	ok, err := ir.Truthy(b.Branch, m.env)
	if err != nil {
		return nil, fmt.Errorf("evaluating %s: %w", b.Branch, err)
	}
	m.res.Trace.Conditions = append(m.res.Trace.Conditions, Condition{
		Block: b.Label, Expr: b.Branch.String(), Value: ok,
	})
	if ok {
		return b.Then(), nil
	}
	return b.Else(), nil
}
