// Package sched implements basic-block scheduling for the DMFB back end
// (paper §5, §6.2): a resource-constrained list scheduler that computes
// start/finish cycles for every wet operation, inserts explicit storage
// operations so that t(v_i) = s(v_j) holds along every DAG edge, and honors
// the liveness-derived rules of §6.2 — a fluid live-in to a block (its φ
// destination after SSI conversion) is a pseudo-definition stored from the
// block's entry until first use, and a fluid live-out (a φ source on an
// outgoing edge) is a pseudo-use stored from its last definition to the
// block's exit.
//
// Scheduling is where DMFB compilation can fail: the chip has no off-chip
// storage to spill to (§6.6), so when droplet demand exceeds module capacity
// the scheduler reports an error instead of spilling.
package sched

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"biocoder/internal/cfg"
	"biocoder/internal/ir"
)

// Resources is the conservative spatial-resource abstraction the scheduler
// works against (the placer later binds operations to concrete locations).
// Slots counts the general-purpose work modules of the virtual topology;
// every on-chip droplet occupies one slot whether it is being worked on or
// merely stored. Sensors and Heaters count device-capable modules (disjoint
// subsets of the slots). Inputs and Outputs count perimeter reservoirs.
type Resources struct {
	Slots   int
	Sensors int
	Heaters int
	Inputs  int
	Outputs int
}

// Config parameterizes the scheduler.
type Config struct {
	Res Resources
	// CyclePeriod converts IR durations to cycles (10 ms on the paper's
	// chip).
	CyclePeriod time.Duration
	// DispenseCycles, OutputCycles and SplitCycles are the fixed latencies
	// of the untimed primitives. Zero values select the defaults below.
	DispenseCycles int
	OutputCycles   int
	SplitCycles    int
	// Serial restricts the schedule to one operation at a time — the
	// low-overhead greedy heuristic a JIT interpreter can afford
	// (paper §8.3, Fig. 14), used as the online-compilation baseline.
	Serial bool
	// Priority selects the list-scheduling priority function.
	Priority PriorityPolicy
	// Ctx, when non-nil, bounds scheduling: cancellation or deadline
	// expiry aborts at the next per-block or per-timestep checkpoint.
	Ctx context.Context
	// BoundaryStorage forces every cross-block droplet to pass through
	// an explicit storage interval at both block boundaries: φ
	// destinations become available one cycle into the block and
	// live-out droplets are stored through an extra final cycle. The
	// homed placer (§6.3.3 emulation) relies on these intervals to pin
	// boundary droplets at a fixed home slot so that control-flow edges
	// carry no transport.
	BoundaryStorage bool
}

// PriorityPolicy selects how ready operations are ranked.
type PriorityPolicy int

const (
	// CriticalPath ranks by the length of the dependence chain an
	// operation heads — the classic list-scheduling priority.
	CriticalPath PriorityPolicy = iota
	// MinSlack ranks by mobility (ALAP-ASAP slack), the light variant of
	// force-directed list scheduling (paper ref [60]).
	MinSlack
)

// Default latencies, in cycles: dispensing meters a droplet from a reservoir
// (~1 s), output walks the droplet off the array, and split stretches the
// droplet across three electrodes and cuts it (millisecond timescale, §3).
const (
	DefaultDispenseCycles = 100
	DefaultOutputCycles   = 10
	DefaultSplitCycles    = 3
)

func (c Config) dispenseCycles() int {
	if c.DispenseCycles > 0 {
		return c.DispenseCycles
	}
	return DefaultDispenseCycles
}

func (c Config) outputCycles() int {
	if c.OutputCycles > 0 {
		return c.OutputCycles
	}
	return DefaultOutputCycles
}

func (c Config) splitCycles() int {
	if c.SplitCycles > 0 {
		return c.SplitCycles
	}
	return DefaultSplitCycles
}

// cyclesFor returns the cycle count of a wet instruction.
func (c Config) cyclesFor(in *ir.Instr) int {
	switch in.Kind {
	case ir.Dispense:
		return c.dispenseCycles()
	case ir.Output:
		return c.outputCycles()
	case ir.Split:
		return c.splitCycles()
	default:
		n := int((in.Duration + c.CyclePeriod - 1) / c.CyclePeriod)
		if n < 1 {
			n = 1
		}
		return n
	}
}

// Item is one scheduled occupant of the chip: either a wet operation
// (Instr != nil) or a compiler-inserted storage interval for the droplet
// Fluid (Instr == nil). Start/End are cycle offsets within the block,
// [Start, End).
type Item struct {
	Instr *ir.Instr
	Fluid ir.FluidID
	Start int
	End   int
}

// IsStorage reports whether the item is an inserted storage interval.
func (it *Item) IsStorage() bool { return it.Instr == nil }

func (it *Item) String() string {
	if it.IsStorage() {
		return fmt.Sprintf("[%d,%d) store %s", it.Start, it.End, it.Fluid)
	}
	return fmt.Sprintf("[%d,%d) %s", it.Start, it.End, it.Instr)
}

// BlockSchedule is the schedule of one basic block.
type BlockSchedule struct {
	Block *cfg.Block
	// Items holds operations and storage intervals sorted by Start (ties
	// by kind, then instruction ID) — the order placement processes them.
	Items []*Item
	// Length is the block's makespan in cycles.
	Length int
}

// Result maps block IDs to their schedules.
type Result struct {
	Blocks map[int]*BlockSchedule
}

// debugSched enables start-event tracing for scheduler debugging. It is
// atomic so that a test toggling it cannot race with concurrent Schedule
// calls (the server compiles many requests in parallel).
var debugSched atomic.Bool

// Schedule computes a schedule for every block of the SSI-form graph g.
func Schedule(g *cfg.Graph, conf Config) (*Result, error) {
	if conf.CyclePeriod <= 0 {
		return nil, fmt.Errorf("sched: cycle period must be positive")
	}
	if err := cfg.IsSSI(g); err != nil {
		return nil, fmt.Errorf("sched: graph must be in SSI form: %w", err)
	}
	live := cfg.ComputeLiveness(g)
	res := &Result{Blocks: map[int]*BlockSchedule{}}
	for _, b := range g.Blocks {
		if err := ctxErr(conf.Ctx); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		bs, err := scheduleBlock(b, conf, live)
		if err != nil {
			return nil, fmt.Errorf("sched: block %s: %w", b.Label, err)
		}
		res.Blocks[b.ID] = bs
	}
	return res, nil
}

// ScheduleBlock schedules one block of an SSI-form graph against conf; live
// must be the liveness of the graph owning b (cfg.ComputeLiveness). It is the
// per-block entry point of the compile pipeline: Schedule is equivalent to
// calling it for every block. Block scheduling depends only on the block's
// own dependence DAG, the liveness sets and conf — never on sibling blocks —
// which is what makes the fan-out sound.
func ScheduleBlock(b *cfg.Block, conf Config, live *cfg.Liveness) (*BlockSchedule, error) {
	if conf.CyclePeriod <= 0 {
		return nil, fmt.Errorf("sched: cycle period must be positive")
	}
	bs, err := scheduleBlock(b, conf, live)
	if err != nil {
		return nil, fmt.Errorf("sched: block %s: %w", b.Label, err)
	}
	return bs, nil
}

// blockState tracks the resource counters during list scheduling.
type blockState struct {
	conf Config

	slotsUsed     int
	sensorsUsed   int
	heatersUsed   int
	inUsed        int
	outUsed       int
	activeOps     int
	splitsPending int

	// stored marks droplet versions currently occupying a storage slot.
	stored map[ir.FluidID]bool
	// availAt records when each version becomes available (producer
	// finish time). φ destinations are available at cycle 0.
	availAt map[ir.FluidID]int
}

// slotDelta returns how many slot units starting in acquires net of the
// storage slots its consumed arguments release, plus the device/port needs.
func opNeeds(in *ir.Instr) (slots, sensors, heaters, ins, outs int) {
	switch in.Kind {
	case ir.Dispense:
		return 1, 0, 0, 1, 0
	case ir.Output:
		return 0, 0, 0, 0, 1
	case ir.Split:
		return 2, 0, 0, 0, 0
	case ir.Sense:
		return 1, 1, 0, 0, 0
	case ir.Heat:
		return 1, 0, 1, 0, 0
	default: // Mix, Store
		return 1, 0, 0, 0, 0
	}
}

func (st *blockState) canStart(in *ir.Instr, t int) bool {
	if st.conf.Serial && st.activeOps > 0 {
		return false
	}
	for _, a := range in.Args {
		at, ok := st.availAt[a]
		if !ok || at > t {
			return false
		}
	}
	slots, sensors, heaters, ins, outs := opNeeds(in)
	freed := 0
	for _, a := range in.Args {
		if st.stored[a] {
			freed++
		}
	}
	if st.slotsUsed-freed+slots > st.conf.Res.Slots {
		return false
	}
	// Deadlock avoidance: a dispense introduces a droplet that only its
	// consumer can remove, and a pending split needs one extra slot to
	// fire (it frees its argument's slot but claims two). While any split
	// is still unscheduled, an eager dispense must not claim the last
	// free slot — otherwise the chip wedges with every consumer blocked.
	if in.Kind == ir.Dispense && st.splitsPending > 0 && st.slotsUsed > 0 &&
		st.slotsUsed+slots >= st.conf.Res.Slots {
		return false
	}
	return st.sensorsUsed+sensors <= st.conf.Res.Sensors &&
		st.heatersUsed+heaters <= st.conf.Res.Heaters &&
		st.inUsed+ins <= st.conf.Res.Inputs &&
		st.outUsed+outs <= st.conf.Res.Outputs
}

func (st *blockState) start(in *ir.Instr) {
	if in.Kind == ir.Split {
		st.splitsPending--
	}
	for _, a := range in.Args {
		if st.stored[a] {
			st.slotsUsed--
			delete(st.stored, a)
		}
	}
	slots, sensors, heaters, ins, outs := opNeeds(in)
	st.slotsUsed += slots
	st.sensorsUsed += sensors
	st.heatersUsed += heaters
	st.inUsed += ins
	st.outUsed += outs
	st.activeOps++
}

func (st *blockState) finish(in *ir.Instr, t int) {
	slots, sensors, heaters, ins, outs := opNeeds(in)
	st.activeOps--
	st.sensorsUsed -= sensors
	st.heatersUsed -= heaters
	st.inUsed -= ins
	st.outUsed -= outs
	// Result droplets transfer the op's slot units into storage; output
	// removed the droplet from the chip entirely.
	if in.Kind == ir.Output {
		_ = slots
	} else {
		for _, r := range in.Results {
			st.stored[r] = true
		}
		// Slot units remain held by the stored results (split acquired
		// 2 units for its 2 results; the others hold exactly 1).
	}
	for _, r := range in.Results {
		st.availAt[r] = t
	}
}

func scheduleBlock(b *cfg.Block, conf Config, live *cfg.Liveness) (*BlockSchedule, error) {
	var wet []*ir.Instr
	for _, in := range b.Instrs {
		if in.Kind.IsWet() {
			wet = append(wet, in)
		}
	}

	// Feasibility of individual operations (§6.6: compilation may fail).
	for _, in := range wet {
		slots, sensors, heaters, ins, outs := opNeeds(in)
		r := conf.Res
		if slots > r.Slots || sensors > r.Sensors || heaters > r.Heaters || ins > r.Inputs || outs > r.Outputs {
			return nil, fmt.Errorf("operation %s exceeds chip resources", in)
		}
	}

	st := &blockState{
		conf:    conf,
		stored:  map[ir.FluidID]bool{},
		availAt: map[ir.FluidID]int{},
	}
	for _, in := range wet {
		if in.Kind == ir.Split {
			st.splitsPending++
		}
	}
	// φ destinations are pseudo-definitions available (and stored) at entry.
	for _, phi := range b.Phis {
		if conf.BoundaryStorage {
			st.availAt[phi.Dst] = 1 // guarantee an entry storage interval
		} else {
			st.availAt[phi.Dst] = 0
		}
		st.stored[phi.Dst] = true
		st.slotsUsed++
	}
	if st.slotsUsed > conf.Res.Slots {
		return nil, fmt.Errorf("%d live-in droplets exceed %d storage slots", st.slotsUsed, conf.Res.Slots)
	}

	var prio map[*ir.Instr]int
	switch conf.Priority {
	case MinSlack:
		prio = mobility(wet, conf)
	default:
		prio = criticalPath(wet, conf)
	}

	type running struct {
		in  *ir.Instr
		end int
	}
	var items []*Item
	pending := map[*ir.Instr]bool{}
	for _, in := range wet {
		pending[in] = true
	}
	var active []running
	t := 0
	for len(pending) > 0 {
		if err := ctxErr(conf.Ctx); err != nil {
			return nil, err
		}
		// Start every startable op at time t, highest priority first.
		startable := func() []*ir.Instr {
			var out []*ir.Instr
			for in := range pending {
				out = append(out, in)
			}
			sort.Slice(out, func(i, j int) bool {
				if prio[out[i]] != prio[out[j]] {
					return prio[out[i]] > prio[out[j]]
				}
				return out[i].ID < out[j].ID
			})
			return out
		}
		progress := true
		for progress {
			progress = false
			// Highest priority first; after any start the scan restarts
			// from the top, so resources freed mid-round go to the most
			// critical blocked operation rather than to whichever lower-
			// priority op happens to come next (priority inversion).
			for _, in := range startable() {
				if !st.canStart(in, t) {
					continue
				}
				st.start(in)
				if debugSched.Load() {
					fmt.Printf("t=%d start %s (slots %d/%d)\n", t, in, st.slotsUsed, conf.Res.Slots)
				}
				dur := conf.cyclesFor(in)
				items = append(items, &Item{Instr: in, Start: t, End: t + dur})
				active = append(active, running{in, t + dur})
				delete(pending, in)
				progress = true
				break
			}
		}
		if len(pending) == 0 {
			break
		}
		if len(active) == 0 {
			// With no running ops the only future event is a droplet
			// availability time later than t (e.g. φ destinations made
			// available at cycle 1 under BoundaryStorage).
			nextAvail := -1
			for in := range pending {
				for _, a := range in.Args {
					if at, ok := st.availAt[a]; ok && at > t && (nextAvail < 0 || at < nextAvail) {
						nextAvail = at
					}
				}
			}
			if nextAvail > t {
				t = nextAvail
				continue
			}
			var stuck []string
			for in := range pending {
				stuck = append(stuck, in.String())
			}
			sort.Strings(stuck)
			return nil, fmt.Errorf("deadlock at cycle %d (slots %d/%d used): %d operations cannot obtain modules (demand exceeds on-chip capacity, §6.6): %s",
				t, st.slotsUsed, conf.Res.Slots, len(pending), strings.Join(stuck, "; "))
		}
		// Advance to the earliest finish event.
		next := -1
		for _, r := range active {
			if next < 0 || r.end < next {
				next = r.end
			}
		}
		t = next
		var still []running
		for _, r := range active {
			if r.end <= t {
				st.finish(r.in, r.end)
			} else {
				still = append(still, r)
			}
		}
		active = still
	}
	for _, r := range active {
		st.finish(r.in, r.end)
	}

	length := 0
	for _, it := range items {
		if it.End > length {
			length = it.End
		}
	}
	// An empty block with live-through droplets (e.g. a loop header or an
	// implicit else) still holds them: give it one cycle so every droplet
	// has a storage interval and hence a placement.
	if length == 0 && len(b.Phis) > 0 {
		length = 1
	}

	storage, length := storageItems(b, items, length, live, conf.BoundaryStorage)
	items = append(items, storage...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Start != items[j].Start {
			return items[i].Start < items[j].Start
		}
		si, sj := items[i].IsStorage(), items[j].IsStorage()
		if si != sj {
			return !si // operations before storage at equal start
		}
		if !si {
			return items[i].Instr.ID < items[j].Instr.ID
		}
		return lessFluid(items[i].Fluid, items[j].Fluid)
	})

	return &BlockSchedule{Block: b, Items: items, Length: length}, nil
}

func lessFluid(a, b ir.FluidID) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Ver < b.Ver
}

// storageItems inserts the storage intervals: for every droplet version, the
// gap between its definition (φ pseudo-definition at cycle 0, or producer
// finish) and its consumption (consumer start, or the block exit pseudo-use
// for live-out versions).
func storageItems(b *cfg.Block, ops []*Item, length int, live *cfg.Liveness, boundary bool) ([]*Item, int) {
	end := length
	if boundary && len(live.Out[b.ID]) > 0 {
		end = length + 1 // live-out droplets hold one extra cycle
	}
	defEnd := map[ir.FluidID]int{}
	useStart := map[ir.FluidID]int{}
	for _, phi := range b.Phis {
		defEnd[phi.Dst] = 0
	}
	for _, it := range ops {
		for _, r := range it.Instr.Results {
			defEnd[r] = it.End
		}
		for _, a := range it.Instr.Args {
			useStart[a] = it.Start
		}
	}
	var out []*Item
	for f, d := range defEnd {
		u, used := useStart[f]
		if !used {
			if !live.Out[b.ID][f] {
				continue // consumed by nothing and dead: outputs have no storage tail
			}
			u = end // live-out pseudo-use at block exit (§6.2)
		}
		if u > d {
			out = append(out, &Item{Fluid: f, Start: d, End: u})
		}
	}
	return out, end
}

// criticalPath returns, per instruction, the length in cycles of the longest
// dependence chain it starts — the classic list-scheduling priority.
func criticalPath(wet []*ir.Instr, conf Config) map[*ir.Instr]int {
	consumers := map[ir.FluidID][]*ir.Instr{}
	for _, in := range wet {
		for _, a := range in.Args {
			consumers[a] = append(consumers[a], in)
		}
	}
	memo := map[*ir.Instr]int{}
	var visit func(in *ir.Instr) int
	visit = func(in *ir.Instr) int {
		if v, ok := memo[in]; ok {
			return v
		}
		memo[in] = conf.cyclesFor(in) // provisional (graphs are acyclic per block)
		longest := 0
		for _, r := range in.Results {
			for _, c := range consumers[r] {
				if d := visit(c); d > longest {
					longest = d
				}
			}
		}
		memo[in] = conf.cyclesFor(in) + longest
		return memo[in]
	}
	for _, in := range wet {
		visit(in)
	}
	return memo
}

// DebugOn enables scheduler start tracing (tests only).
func DebugOn() { debugSched.Store(true) }

// DebugOff disables scheduler start tracing.
func DebugOff() { debugSched.Store(false) }

// ctxErr reports the context's cancellation state; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
