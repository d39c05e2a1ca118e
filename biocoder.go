// Package biocoder is a compiler and runtime for cyber-physical digital
// microfluidic biochips (DMFBs), reproducing Curtis, Grissom & Brisk,
// "A Compiler for Cyber-Physical Digital Microfluidic Biochips" (CGO 2018).
//
// Protocols are written in the updated BioCoder language — a fluent builder
// with structured control flow whose conditions read integrated sensors —
// and compiled fully offline into a DMFB executable: electrode-activation
// sequences for every basic block and every control-flow edge, plus the
// host-side dry program that resolves branches online from sensor data.
// A cycle-accurate simulator executes the result and reports the total
// bioassay execution time.
//
// Quick start:
//
//	bs := biocoder.New()
//	sample := bs.NewFluid("Sample", biocoder.Microliters(10))
//	c := bs.NewContainer("c")
//	bs.MeasureFluid(sample, c)
//	bs.Vortex(c, 2*time.Second)
//	bs.Drain(c, "")
//	prog, err := biocoder.Compile(bs, biocoder.Options{})
//	if err != nil { ... }
//	res, err := prog.Run(biocoder.RunOptions{})
//	fmt.Println(res.Time) // simulated execution time
package biocoder

import (
	"context"
	"io"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/depgraph"
	"biocoder/internal/dilute"
	"biocoder/internal/exec"
	"biocoder/internal/lang"
	"biocoder/internal/obs"
	"biocoder/internal/parser"
	"biocoder/internal/place"
	"biocoder/internal/sched"
	"biocoder/internal/sensor"
	"biocoder/internal/viz"
	"biocoder/internal/wash"
)

// Re-exported protocol-authoring API (the BioCoder language).
type (
	// BioSystem records a BioCoder protocol.
	BioSystem = lang.BioSystem
	// Fluid is a declared reagent.
	Fluid = lang.Fluid
	// Container holds at most one droplet.
	Container = lang.Container
	// Volume is a fluid volume in microliters.
	Volume = lang.Volume
	// CmpOp is a condition comparison operator.
	CmpOp = lang.CmpOp
	// Expr is a dry (host-side) expression.
	Expr = lang.Expr
)

// Comparison operators for IF/ELSE_IF/WHILE conditions.
const (
	LessThan       = lang.LessThan
	LessOrEqual    = lang.LessOrEqual
	GreaterThan    = lang.GreaterThan
	GreaterOrEqual = lang.GreaterOrEqual
	Equal          = lang.Equal
	NotEqual       = lang.NotEqual
)

// Version identifies the compiler build. It participates in the
// content-addressed cache keys of the bfd serving daemon (internal/serve),
// so it must change whenever the compiler's output for a fixed input could
// change — bump it in any PR touching scheduling, placement, routing, or
// code generation.
const Version = "biocoder-5"

// New starts an empty protocol.
func New() *BioSystem { return lang.New() }

// Expression builders for IfExpr/WhileExpr conditions and Let computations.
var (
	// V references a dry variable (sensor reading or Let binding).
	V = lang.V
	// Num is a numeric literal.
	Num = lang.Num
	// Cmp compares a dry variable against a threshold.
	Cmp = lang.Cmp
	// And, Or, Not combine conditions; Add, Sub, Mul, Div compute.
	And = lang.And
	Or  = lang.Or
	Not = lang.Not
	Add = lang.Add
	Sub = lang.Sub
	Mul = lang.Mul
	Div = lang.Div
)

// Microliters constructs a Volume.
func Microliters(v float64) Volume { return lang.Microliters(v) }

// Chip describes a DMFB (electrode array, devices, reservoirs).
type Chip = arch.Chip

// DefaultChip returns the paper's evaluation chip (§7.2): 15x19 electrodes,
// four sensors, two heaters, fourteen perimeter reservoirs, 10 ms cycle.
func DefaultChip() *Chip { return arch.Default() }

// LargeChip returns a 33x33 research-scale chip with four sensors and four
// heaters, for workloads wider than the paper's evaluation device.
func LargeChip() *Chip { return arch.Large() }

// Building blocks for custom chip construction (see arch's config format
// for the file-based alternative).
type (
	// Device is an integrated sensor or heater.
	Device = arch.Device
	// Port is a perimeter I/O reservoir.
	Port = arch.Port
	// DeviceKind distinguishes sensors from heaters.
	DeviceKind = arch.DeviceKind
	// PortKind distinguishes inputs from outputs.
	PortKind = arch.PortKind
	// Side is a chip perimeter edge.
	Side = arch.Side
)

// Device and port classification constants.
const (
	Sensor = arch.Sensor
	Heater = arch.Heater
	Input  = arch.Input
	Output = arch.Output
	North  = arch.North
	South  = arch.South
	East   = arch.East
	West   = arch.West
)

// RunOptions configures simulation (sensor model, cycle limits, frame hook).
type RunOptions = exec.Options

// Result reports a simulated execution.
type Result = exec.Result

// NewUniformSensors returns the paper's pseudo-random sensor model (§7.1).
func NewUniformSensors(seed int64) *sensor.Uniform { return sensor.NewUniform(seed) }

// NewScriptedSensors returns a deterministic sensor model replaying the
// given reading series per sensor variable.
func NewScriptedSensors(values map[string][]float64) *sensor.Scripted {
	return sensor.NewScripted(values)
}

// Options configures compilation.
type Options struct {
	// Chip is the target device; nil selects DefaultChip.
	Chip *Chip
	// NoLiveRangeSplitting selects the §6.3.3 placement alternative:
	// instead of splitting live ranges at block boundaries and routing
	// droplets on CFG edges, every cross-block fluid is pinned to a
	// fixed home slot, making Δ_E pure renames (§6.4.2). Costs extra
	// in-block transport and monopolizes plain slots per fluid.
	NoLiveRangeSplitting bool
	// SerialSchedules selects the JIT baseline's one-op-at-a-time
	// greedy scheduler instead of the parallel list scheduler.
	SerialSchedules bool
	// MinSlackScheduling ranks ready operations by mobility (ALAP-ASAP
	// slack) instead of critical-path length — the light variant of
	// force-directed list scheduling (paper ref [60]).
	MinSlackScheduling bool
	// FreePlacement uses the §6.3.1-6.3.2 placement formulation instead
	// of the virtual topology: arbitrary module rectangles under
	// constraints (2)-(4), first-fit. More packing freedom, but neither
	// placement nor routing success is guaranteed.
	FreePlacement bool
	// FoldEdges applies the §6.4.4 optimization: activation sequences of
	// non-critical CFG edges are merged into the adjacent block, so only
	// critical edges keep their own Σ.
	FoldEdges bool
	// FaultyElectrodes marks known-defective electrodes (stuck-off).
	// Compilation avoids them entirely: module slots overlapping a fault
	// are dropped, ports on faults are unusable, and droplets route
	// around them — the static half of hard-fault recovery (§8.4).
	FaultyElectrodes []Point
	// Tracer, when non-nil, collects hierarchical wall-clock spans for
	// every compilation phase (SSI → topology → blocks → edges → fold →
	// check), with per-block schedule/place/codegen stages and
	// per-routing-burst detail. A nil tracer costs nothing. Export the
	// collected spans with obs.SpanEvents / obs.WriteChromeTrace or
	// inspect them via Tracer.Roots.
	Tracer *Tracer
	// Context, when non-nil, bounds the compilation: cancellation or
	// deadline expiry aborts the pipeline at the next checkpoint — between
	// phases, per block and per edge, and inside the router's A* search —
	// and Compile returns an error wrapping the context's error. A nil
	// Context never cancels. The bfd daemon and the -timeout flags of
	// bfc/bfsim rely on this to shed slow compiles.
	Context context.Context
	// Workers sets the number of goroutines that synthesize blocks
	// (schedule → place → codegen) and route CFG edges; values below 2 use
	// the calling goroutine alone. Every placer runs block by block, so
	// the output, and the error of a failing compile, are the same at
	// every worker count: blocks are synthesized independently (the
	// depgraph analysis proves that independence) and assembled in block
	// order.
	Workers int
	// Memo, when non-nil, memoizes per-block synthesis across compiles,
	// keyed on the block's content-addressed fingerprint (dependence DAG +
	// chip + options + compiler Version — see internal/depgraph). An
	// edited assay then recompiles only its changed blocks. Share one Memo
	// across compilations to get reuse; it is safe for concurrent use.
	// Only the virtual-topology placer is memoized: homed placement
	// (NoLiveRangeSplitting) depends on graph-wide home slots the
	// fingerprint does not cover, and FreePlacement is not memoized
	// either.
	Memo *Memo
	// Registry, when non-nil, receives process-wide compile metrics:
	// per-phase durations (biocoder_compile_phase_seconds), total compile
	// latency (biocoder_compile_seconds), and an outcome counter
	// (biocoder_compiles_total). Unlike Tracer — a per-compile span tree —
	// the registry aggregates across compiles; a nil Registry costs
	// nothing. Like Workers/Memo/Tracer/Context, it never changes the
	// compiled output and is excluded from content-addressed cache keys.
	Registry *Registry
}

// Memoization re-exports (see internal/depgraph).
type (
	// Memo is the content-addressed per-block synthesis cache for
	// Options.Memo.
	Memo = depgraph.Memo
	// MemoStats is a snapshot of memo effectiveness counters.
	MemoStats = depgraph.Stats
)

// NewMemo returns an empty, memory-only per-block synthesis cache for
// Options.Memo.
func NewMemo() *Memo { return depgraph.NewMemo(nil) }

// Observability re-exports: phase tracing and runtime telemetry live in
// internal/obs; these aliases expose what external tooling needs.
type (
	// Tracer collects hierarchical compile-phase spans.
	Tracer = obs.Tracer
	// Span is one timed region of a traced compilation.
	Span = obs.Span
	// Metrics is the cycle-accurate runtime telemetry snapshot produced
	// when RunOptions.Metrics is set (see Result.Metrics).
	Metrics = obs.Metrics
	// Registry is the process-wide metrics registry for Options.Registry,
	// RunOptions.Registry, and RecoveryPolicy.Registry: counters, gauges,
	// and fixed-bucket histograms with Prometheus text exposition. A nil
	// *Registry is a valid no-op sink.
	Registry = obs.Registry
	// Label is one metric label pair for direct Registry use.
	Label = obs.Label
)

// NewTracer returns an empty compile tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewRegistry returns an empty process-wide metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Compiled is a fully compiled protocol with its intermediate artifacts
// exposed for inspection (SSI-form CFG, schedule, placement) and the final
// executable Δ = {Δ_B, Δ_E}.
type Compiled struct {
	Chip       *arch.Chip
	Graph      *cfg.Graph
	Topology   *place.Topology
	Schedule   *sched.Result
	Placement  *place.Placement
	Executable *codegen.Executable
}

// Compile runs the full static pipeline: lower the protocol to a CFG of
// hybrid-IR basic blocks, convert to SSI form (live-range splitting at
// every block boundary), schedule each block under the chip's resource
// abstraction, bind operations to virtual-topology module slots, route all
// droplet motion, and emit electrode-activation sequences for every block
// and CFG edge.
func Compile(bs *BioSystem, opt Options) (*Compiled, error) {
	chip := opt.Chip
	if chip == nil {
		chip = arch.Default()
	}
	sp := opt.Tracer.Start("lower")
	g, err := bs.Build()
	sp.End()
	if err != nil {
		return nil, err
	}
	return compileGraph(g, chip, opt)
}

// CompileGraph compiles an already-lowered CFG (used by the text front end
// and by tools that construct CFGs directly).
func CompileGraph(g *cfg.Graph, chip *arch.Chip) (*Compiled, error) {
	return compileGraph(g, chip, Options{})
}

// CompileGraphOptions is CompileGraph with explicit compilation options;
// a non-nil Options.Chip overrides the chip argument.
func CompileGraphOptions(g *cfg.Graph, chip *arch.Chip, opt Options) (*Compiled, error) {
	if opt.Chip != nil {
		chip = opt.Chip
	}
	if chip == nil {
		chip = arch.Default()
	}
	return compileGraph(g, chip, opt)
}

// Run simulates the compiled protocol.
func (c *Compiled) Run(opts RunOptions) (*Result, error) {
	return exec.Run(c.Executable, c.Chip, opts)
}

// Stepper executes an assay one CFG node at a time, for debuggers and
// monitoring consoles.
type Stepper = exec.Stepper

// NewStepper prepares stepwise execution of the compiled protocol.
func (c *Compiled) NewStepper(opts RunOptions) *Stepper {
	return exec.NewStepper(c.Executable, c.Chip, opts)
}

// Fault is a transient droplet-loss injection for recovery testing (§8.4).
type Fault = exec.Fault

// RecoveryResult extends Result with recovery accounting.
type RecoveryResult = exec.RecoveryResult

// Runtime fault-model re-exports: permanent electrode degradation and the
// checkpointed recovery machinery (see internal/exec).
type (
	// Degradation models permanent chip wear for RunOptions.Degradation:
	// scheduled stuck-at-off electrodes and an actuation wear budget.
	Degradation = exec.Degradation
	// StuckAt schedules one permanent electrode failure.
	StuckAt = exec.StuckAt
	// StuckElectrodeError is the typed detection of a permanent fault.
	StuckElectrodeError = exec.StuckElectrodeError
	// Checkpoint is a machine snapshot at a block boundary.
	Checkpoint = exec.Checkpoint
	// RecoveryEvent is the per-incident accounting of one recovery.
	RecoveryEvent = exec.RecoveryEvent
)

// RecoveryPolicy configures Compiled.RunWithPolicy — the online recovery
// controller that closes the cyber-physical loop: detect a permanent
// electrode fault, recompile around it, route the checkpointed droplets
// into the new placement, and resume.
type RecoveryPolicy struct {
	// MaxAttempts bounds executions, including the final successful one
	// (default 3).
	MaxAttempts int
	// Faults are transient droplet losses to inject, each recovered by
	// flushing the surviving droplets and restarting the assay with fresh
	// reagents (§8.4 generalized from DAGs to CFGs).
	Faults []Fault
	// Recompile produces a replacement program avoiding the given
	// electrodes; the slice is the full accumulated fault set (cells the
	// running program already avoided plus newly detected ones), so
	// implementations replace their FaultyElectrodes with it. Use
	// Recompiler for the canonical hook. The recompiled executable is
	// verify-gated by the controller before adoption.
	Recompile func(ctx context.Context, faults []Point) (*Compiled, error)
	// Restart forces whole-program restart even after a successful
	// recompile — the baseline checkpointed resume is measured against.
	Restart bool
	// Tracer records recompile and repair-routing spans.
	Tracer *Tracer
	// Registry receives per-incident recovery metrics (segment duration
	// histograms, lost-time summary, incident counters); nil disables.
	Registry *Registry
	// Context bounds execution and recompilation.
	Context context.Context
}

// RunWithPolicy simulates the compiled protocol under the given recovery
// policy: block-boundary checkpointing, typed fault detection, and — for
// permanent electrode faults — recompile-around with checkpointed resume,
// falling back to whole-program restart when recompilation or repair
// routing fails. Per-incident accounting lands in RecoveryResult.Events
// and, when RunOptions.Metrics is set, in Metrics.Recoveries.
func (c *Compiled) RunWithPolicy(opts RunOptions, pol RecoveryPolicy) (*RecoveryResult, error) {
	ep := exec.RecoveryPolicy{
		MaxAttempts: pol.MaxAttempts,
		Faults:      pol.Faults,
		Restart:     pol.Restart,
		Tracer:      pol.Tracer,
		Registry:    pol.Registry,
		Context:     pol.Context,
	}
	if pol.Recompile != nil {
		ep.Recompile = func(ctx context.Context, faults []Point) (*codegen.Executable, error) {
			p, err := pol.Recompile(ctx, faults)
			if err != nil {
				return nil, err
			}
			return p.Executable, nil
		}
	}
	return exec.RunWithPolicy(c.Executable, c.Chip, opts, ep)
}

// Recompiler returns the canonical RecoveryPolicy.Recompile hook: each
// invocation rebuilds a fresh protocol via build and compiles it with opt,
// the detected fault set replacing opt.FaultyElectrodes. The protocol
// lowering is deterministic, so block labels — and therefore checkpoints —
// stay valid across recompilations.
func Recompiler(build func() (*BioSystem, error), opt Options) func(context.Context, []Point) (*Compiled, error) {
	return func(ctx context.Context, faults []Point) (*Compiled, error) {
		bs, err := build()
		if err != nil {
			return nil, err
		}
		o := opt
		o.FaultyElectrodes = faults
		o.Context = ctx
		return Compile(bs, o)
	}
}

// Save serializes the executable Δ (plus the chip description and the CFG
// with its dry program) in the versioned text format, so that it can be
// executed later with Load/bfsim or archived.
func (c *Compiled) Save(w io.Writer) error {
	return codegen.Encode(w, c.Executable)
}

// Load reads an executable previously written by Save. The result carries
// no schedule or placement (those are compile-time artifacts); it can be
// inspected and Run.
func Load(r io.Reader) (*Compiled, error) {
	ex, err := codegen.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Chip:       ex.Topo.Chip,
		Graph:      ex.Graph,
		Topology:   ex.Topo,
		Executable: ex,
	}, nil
}

// ParseScript parses a BioScript source file (the textual form of the
// BioCoder language) into a protocol builder.
func ParseScript(src string) (*BioSystem, error) { return parser.Parse(src) }

// Recorder captures simulation frames for rendering; attach its Hook to
// RunOptions.FrameHook.
type Recorder = viz.Recorder

// NewRecorder returns a Recorder keeping every-th frame.
func NewRecorder(chip *Chip, every int) *Recorder { return viz.NewRecorder(chip, every) }

// Droplet is the simulator's view of a droplet (position, volume, contents).
type Droplet = exec.Droplet

// Frame is one cycle's set of activated electrodes.
type Frame = codegen.Frame

// RenderASCII draws one frame of chip state as ASCII art.
func RenderASCII(chip *Chip, frame codegen.Frame, droplets []*Droplet) string {
	return viz.ASCII(chip, frame, droplets)
}

// RenderSVG draws one frame of chip state as an SVG document.
func RenderSVG(chip *Chip, frame codegen.Frame, droplets []*Droplet) string {
	return viz.SVG(chip, frame, droplets)
}

// DilutionPlan describes a synthesized dilution protocol.
type DilutionPlan = dilute.Plan

// SynthesizeDilution appends a bit-serial dilution protocol to bs: after it
// runs, cur holds one droplet whose stock concentration approximates target
// to the given number of binary digits (the BioStream-style mix-split
// exchange algorithm; §8.2 of the paper discusses this workload family).
func SynthesizeDilution(bs *BioSystem, stock, buffer *Fluid, cur, spare *Container, target float64, bits int, mixTime time.Duration) (*DilutionPlan, error) {
	return dilute.Synthesize(bs, stock, buffer, cur, spare, target, bits, mixTime)
}

// Contamination is the residue report produced when
// RunOptions.TrackContamination is set.
type Contamination = exec.Contamination

// WashTour is a planned wash-droplet pass over contaminated electrodes.
type WashTour = wash.Tour

// PlanWash computes a wash tour covering the dirty cells while avoiding the
// given regions (paper §5: wash droplets clean residue left behind).
func PlanWash(chip *Chip, dirty []arch.Point, avoid []arch.Rect) (*WashTour, error) {
	return wash.Plan(chip, dirty, avoid)
}

// Point and Rect are chip coordinates, re-exported for wash planning and
// custom chip construction.
type (
	Point = arch.Point
	Rect  = arch.Rect
)
