// Package verify is the static verifier and lint suite for the hybrid IR
// and for emitted DMFB executables — the compile-time counterpart of the
// cycle-accurate simulator. It is organized go/analysis-style: independent
// passes over a Unit (CFG, placement, executable) share one diagnostics
// model and report findings as coded Diags instead of aborting on the first
// problem.
//
// Two families of passes exist. IR/CFG passes check the fluidic discipline
// of the paper's §3-§6 statically: droplets are linear resources (consumed
// exactly once, never copied, never leaked), every control-transfer hands
// every live droplet to the successor, and SSI form is well-formed (φ at
// every join, sources matching predecessor exits). Executable passes
// symbolically replay every activation sequence Σ — per-block and per-edge —
// frame by frame, without running the simulator, and prove the fluidic
// constraints of §6.4: no two distinct droplets ever become adjacent except
// at sanctioned merges, every actuation stays on working electrodes,
// dispense/output/sense happen only at matching ports and devices, and
// droplet conservation holds across every CFG edge (block live-outs arrive
// exactly where the successor expects them).
//
// # Diagnostic codes
//
//	BF001  fluid linearity: use of a consumed or unavailable droplet
//	BF002  droplet leak: defined but neither consumed nor live-out
//	BF003  use of a fluid with no reaching definition
//	BF004  redefinition of a live droplet
//	BF005  volume conservation: non-positive or inconsistent volumes
//	BF006  dead sense reading: result overwritten before any use
//	BF007  unreachable block / block that cannot reach exit
//	BF008  SSI well-formedness: φ/π structure broken
//	BF009  droplet lost or materialized at a CFG edge (live-set mismatch)
//	BF010  malformed instruction (arity, missing operands)
//	BF011  malformed graph structure (entry/exit shape, branch arity)
//	BF012  dry variable read but never defined
//	BF101  frame/droplet population mismatch
//	BF102  fluidic constraint violation: distinct droplets adjacent
//	BF103  actuation off-chip or on a defective electrode
//	BF104  dispense/output not at a matching reservoir port
//	BF105  sensing away from a sensor device
//	BF106  droplet not conserved across a CFG edge transfer
//	BF107  uninterpretable frame: droplet stranded or torn
//	BF108  asymmetric split: child cells do not flank the parent (volume skew)
//	BF109  malformed droplet event
//	BF110  block boundary contract violated (entry/exit positions)
//	BF201  placement illegal (overlap, separation, capability)
//	BF401  electrode duty: continuous actuation beyond the hold limit
//
// The BF3xx range is reserved for the abstract-interpretation analyses in
// internal/analysis (volume/concentration intervals, static timing bounds,
// cross-contamination), and the BF5xx range for the pin-constrained safety
// analysis in internal/pinsafe (electrode interference and broadcast
// actuation replay); both report through this package's Diag model.
//
// Codes are stable: tests and tooling may match on them.
package verify

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/place"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// Info marks advisory findings.
	Info Severity = iota
	// Warning marks likely defects that do not invalidate the program.
	Warning
	// Error marks violations of the compilation contract: the program or
	// executable is unsafe to run on a chip.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Pos locates a diagnostic in the program or executable. Scope names a
// basic block ("block mix1") or a CFG edge ("edge b2->b4"); InstrID and
// Cycle are -1 when not applicable; Cell is meaningful only when HasCell.
type Pos struct {
	Scope   string
	InstrID int
	Cycle   int
	Cell    arch.Point
	HasCell bool
}

// NoPos is the zero location (whole-program diagnostics).
var NoPos = Pos{InstrID: -1, Cycle: -1}

func (p Pos) String() string {
	var parts []string
	if p.Scope != "" {
		parts = append(parts, p.Scope)
	}
	if p.InstrID >= 0 {
		parts = append(parts, fmt.Sprintf("instr %d", p.InstrID))
	}
	if p.Cycle >= 0 {
		parts = append(parts, fmt.Sprintf("cycle %d", p.Cycle))
	}
	if p.HasCell {
		parts = append(parts, fmt.Sprintf("@ %v", p.Cell))
	}
	return strings.Join(parts, ", ")
}

// Diag is one verifier finding.
type Diag struct {
	Code string
	Sev  Severity
	Pos  Pos
	Msg  string
}

func (d Diag) String() string {
	if loc := d.Pos.String(); loc != "" {
		return fmt.Sprintf("%s %s [%s]: %s", d.Code, d.Sev, loc, d.Msg)
	}
	return fmt.Sprintf("%s %s: %s", d.Code, d.Sev, d.Msg)
}

// Unit is the subject of one verification run. Graph alone enables the
// IR/CFG passes; Exec additionally enables the executable passes (Graph,
// Topo and Chip default from the executable when nil); Placement enables
// the placement pass.
type Unit struct {
	Graph     *cfg.Graph
	Chip      *arch.Chip
	Topo      *place.Topology
	Exec      *codegen.Executable
	Placement *place.Placement
}

func (u *Unit) normalized() *Unit {
	n := *u
	if n.Exec != nil {
		if n.Graph == nil {
			n.Graph = n.Exec.Graph
		}
		if n.Topo == nil {
			n.Topo = n.Exec.Topo
		}
	}
	if n.Chip == nil && n.Topo != nil {
		n.Chip = n.Topo.Chip
	}
	return &n
}

// Kind classifies a pass by the artifact it inspects.
type Kind int

const (
	// KindIR passes need only the CFG of hybrid-IR blocks.
	KindIR Kind = iota
	// KindExec passes need the compiled executable.
	KindExec
	// KindPlace passes need the placement (compile-time only).
	KindPlace
)

// Pass is one verifier check: a named analysis emitting a fixed set of
// diagnostic codes.
type Pass struct {
	Name  string
	Doc   string
	Codes []string
	Kind  Kind
	run   func(*context)
}

func (p *Pass) applicable(u *Unit) bool {
	switch p.Kind {
	case KindIR:
		return u.Graph != nil
	case KindExec:
		return u.Exec != nil && u.Chip != nil
	case KindPlace:
		return u.Placement != nil && u.Graph != nil
	}
	return false
}

// Passes returns every registered pass: the IR/CFG family, the executable
// family, and the placement pass, in a stable order.
func Passes() []*Pass {
	all := append([]*Pass{}, IRPasses()...)
	all = append(all, ExecPasses()...)
	all = append(all, placePass)
	return all
}

// IRPasses returns the IR/CFG lint family.
func IRPasses() []*Pass {
	return []*Pass{
		wellformedPass,
		reachPass,
		linearityPass,
		conservationPass,
		ssiPass,
		volumePass,
		sensePass,
		dryPass,
	}
}

// ExecPasses returns the executable verification family.
func ExecPasses() []*Pass {
	return []*Pass{
		framesPass,
		adjacencyPass,
		boundsPass,
		ioPass,
		devicePass,
		splitPass,
		eventsPass,
		transferPass,
		dutyPass,
	}
}

// maxDiags bounds a report so a thoroughly corrupted executable cannot
// produce an unbounded flood; the cap is far above anything a real
// compilation emits.
const maxDiags = 2000

// PassTime records the wall-clock cost of one pass in a verification run,
// for the pass-level timing in bfvet's machine-readable output.
type PassTime struct {
	Name     string
	Duration time.Duration
}

// Report collects the findings of one verification run.
type Report struct {
	Diags []Diag
	// Passes lists the names of the passes that actually ran.
	Passes []string
	// PassTimes carries the wall-clock cost of each pass, in run order.
	PassTimes []PassTime
}

// Run verifies u with the given passes (all applicable passes when none are
// given). Passes whose required artifacts are missing from u are skipped.
func Run(u *Unit, passes ...*Pass) *Report {
	if len(passes) == 0 {
		passes = Passes()
	}
	u = u.normalized()
	ctx := &context{unit: u}
	rep := &Report{}
	for _, p := range passes {
		if !p.applicable(u) {
			continue
		}
		ctx.pass = p
		rep.Passes = append(rep.Passes, p.Name)
		start := time.Now()
		p.run(ctx)
		rep.PassTimes = append(rep.PassTimes, PassTime{Name: p.Name, Duration: time.Since(start)})
	}
	rep.Diags = ctx.diags
	rep.sort()
	return rep
}

// NewReport wraps externally produced diagnostics (e.g. from the analyses in
// internal/analysis) in a Report, sorted and deduplicated like Run's output.
func NewReport(diags []Diag) *Report {
	rep := &Report{Diags: append([]Diag{}, diags...)}
	rep.sort()
	return rep
}

func (r *Report) sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos.Scope != b.Pos.Scope {
			return a.Pos.Scope < b.Pos.Scope
		}
		if a.Pos.Cycle != b.Pos.Cycle {
			return a.Pos.Cycle < b.Pos.Cycle
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	// Drop exact duplicates (the same finding surfaced through two passes
	// or two rounds of linting).
	out := r.Diags[:0]
	for i, d := range r.Diags {
		if i > 0 && d == r.Diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	r.Diags = out
}

// Merge folds other's findings into r, deduplicating exact repeats.
func (r *Report) Merge(other *Report) {
	r.Diags = append(r.Diags, other.Diags...)
	r.Passes = append(r.Passes, other.Passes...)
	r.PassTimes = append(r.PassTimes, other.PassTimes...)
	r.sort()
}

// Count returns the number of diagnostics at exactly severity sev.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any Error-severity diagnostic was found.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// ByCode returns the diagnostics carrying the given code.
func (r *Report) ByCode(code string) []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// Err returns nil when the report holds no errors, else an error
// summarizing the first error diagnostic and the total count.
func (r *Report) Err() error {
	if !r.HasErrors() {
		return nil
	}
	for _, d := range r.Diags {
		if d.Sev == Error {
			n := r.Count(Error)
			if n == 1 {
				return fmt.Errorf("verify: %s", d)
			}
			return fmt.Errorf("verify: %d errors, first: %s", n, d)
		}
	}
	return nil
}

func (r *Report) String() string {
	if len(r.Diags) == 0 {
		return ""
	}
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// context carries the unit plus artifacts shared between passes (liveness,
// per-block availability, the symbolic replay), each computed once.
type context struct {
	unit *Unit
	pass *Pass

	diags []Diag

	liveOnce bool
	live     *cfg.Liveness

	availOnce bool
	avail     map[int]cfg.Set // block ID -> fluids available at block exit
	availOK   map[int]bool    // linearity walk completed without errors

	replayOnce bool
	replay     *replayResult
}

func (c *context) report(sev Severity, code string, pos Pos, format string, args ...any) {
	if len(c.diags) >= maxDiags {
		return
	}
	c.diags = append(c.diags, Diag{Code: code, Sev: sev, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *context) errorf(code string, pos Pos, format string, args ...any) {
	c.report(Error, code, pos, format, args...)
}

func (c *context) warnf(code string, pos Pos, format string, args ...any) {
	c.report(Warning, code, pos, format, args...)
}

func (c *context) liveness() *cfg.Liveness {
	if !c.liveOnce {
		c.liveOnce = true
		if c.unit.Graph != nil && c.unit.Graph.Entry != nil {
			c.live = cfg.ComputeLiveness(c.unit.Graph)
		}
	}
	return c.live
}

func blockPos(b *cfg.Block) Pos {
	return Pos{Scope: "block " + b.Label, InstrID: -1, Cycle: -1}
}

func instrPos(b *cfg.Block, id int) Pos {
	return Pos{Scope: "block " + b.Label, InstrID: id, Cycle: -1}
}

func edgeScope(from, to *cfg.Block) string {
	return "edge " + from.Label + "->" + to.Label
}
