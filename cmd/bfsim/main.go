// Command bfsim compiles a bioassay and executes it on the cycle-accurate
// DMFB simulator, reporting the simulated execution time, the execution
// trace (blocks in order plus every condition evaluation, §7.1), and
// optionally an ASCII "video" of the run.
//
// Usage:
//
//	bfsim -assay "PCR w/droplet replenishment" -scenario default
//	bfsim -assay "Probabilistic PCR" -seed 7 -range amp=0:1
//	bfsim -file protocol.bio -print-trace -video run.txt -every 100
//	bfsim -assay "PCR" -trace run.json -metrics -
//	bfsim -exe pcr.bfx -assay "PCR" -seed 1 -metrics run.json
//	bfsim -assay "PCR" -stick 4,7@2000 -recover recompile
//	bfsim -assay "PCR" -stick 10,2@0 -slo 30m
//
// -trace FILE writes a combined Chrome trace-event JSON file (compile
// phases plus the cycle-accurate runtime timeline) loadable in Perfetto.
// -metrics FILE writes the runtime telemetry as JSON ("-" prints a
// human-readable report with the actuation heatmap to stdout).
//
// Runtime fault injection (§8.4): -lose-droplet CYCLE (repeatable) injects
// transient droplet losses; -stick x,y@cycle (repeatable) schedules
// permanent stuck-at-off electrode failures detected through the feedback
// loop; -wear N kills every electrode after N actuations. -recover selects
// the permanent-fault policy: "recompile" (default) recompiles around the
// dead electrode and resumes from the last block-boundary checkpoint,
// "restart" flushes and re-executes from the beginning. The -exe path
// carries no source to recompile, so it always restarts.
//
// -exe FILE together with -assay NAME runs a saved executable of a
// benchmark assay under that assay's sensor ranges and scenarios, so it
// simulates exactly as the compiled assay does.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/obs"
	"biocoder/internal/parser"
	"biocoder/internal/sensor"
	"biocoder/internal/viz"
)

type rangeFlags []string

func (r *rangeFlags) String() string     { return strings.Join(*r, ",") }
func (r *rangeFlags) Set(v string) error { *r = append(*r, v); return nil }

type cycleFlags []int

func (c *cycleFlags) String() string {
	parts := make([]string, len(*c))
	for i, n := range *c {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (c *cycleFlags) Set(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return fmt.Errorf("want a positive cycle number, got %q", v)
	}
	*c = append(*c, n)
	return nil
}

func main() {
	assayName := flag.String("assay", "", "benchmark assay name (see bfc -list)")
	file := flag.String("file", "", "BioScript source file")
	exe := flag.String("exe", "", "pre-compiled executable written by bfc -o")
	scenarioName := flag.String("scenario", "", "scripted scenario to force an outcome (benchmark assays only)")
	seed := flag.Int64("seed", 0, "seed for the pseudo-random sensor model")
	chipCfg := flag.String("chip", "", "chip configuration file")
	printTrace := flag.Bool("print-trace", false, "print the execution trace")
	tracePath := flag.String("trace", "", "write compile spans + runtime timeline as Chrome trace-event JSON to this file")
	metricsPath := flag.String("metrics", "", "write runtime telemetry as JSON to this file (\"-\": text report to stdout)")
	contam := flag.Bool("contamination", false, "track residue and print the contamination report with a wash plan")
	video := flag.String("video", "", "write an ASCII frame animation to this file")
	every := flag.Int("every", 100, "keep every N-th frame in the video")
	var ranges rangeFlags
	flag.Var(&ranges, "range", "sensor range name=min:max (repeatable)")
	var faults rangeFlags
	flag.Var(&faults, "fault", "defective electrode x,y to compile around (repeatable)")
	var lose cycleFlags
	flag.Var(&lose, "lose-droplet", "inject a transient droplet loss at this cycle and recover by re-execution (§8.4; repeatable)")
	var sticks rangeFlags
	flag.Var(&sticks, "stick", "permanent stuck-at-off electrode x,y@cycle detected at runtime (repeatable)")
	wear := flag.Int("wear", 0, "actuation wear budget: every electrode fails stuck-at-off after N actuations")
	recoverMode := flag.String("recover", "recompile", "permanent-fault recovery policy: recompile (around the dead electrode, resume from checkpoint) or restart")
	slo := flag.Duration("slo", 0, "recovery SLO budget: exit 1 if p95 recovery or lost time exceeds this duration (0: no gate)")
	timeout := flag.Duration("timeout", 0, "abort the compile+simulate run after this duration (0: no limit)")
	flag.Parse()

	if *recoverMode != "recompile" && *recoverMode != "restart" {
		fatal(fmt.Errorf("bad -recover %q (want recompile or restart)", *recoverMode))
	}

	var runCtx context.Context
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		runCtx = ctx
	}

	faultCells, err := parseFaults(faults)
	if err != nil {
		fatal(err)
	}
	stuck, err := parseStuck(sticks)
	if err != nil {
		fatal(err)
	}

	chip := arch.Default()
	if *chipCfg != "" {
		f, err := os.Open(*chipCfg)
		if err != nil {
			fatal(err)
		}
		var perr error
		chip, perr = arch.ParseConfig(f)
		f.Close()
		if perr != nil {
			fatal(perr)
		}
	}

	// build recreates the protocol from its source — the hook online
	// recompilation needs. The -exe path has no source, so build stays nil
	// and permanent-fault recovery falls back to whole-program restart.
	var build func() (*biocoder.BioSystem, error)
	var assay *assays.Assay
	var prog *biocoder.Compiled
	switch {
	case *exe != "":
		f, err := os.Open(*exe)
		if err != nil {
			fatal(err)
		}
		prog, err = biocoder.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		chip = prog.Chip
		if *assayName != "" {
			if assay = assays.ByName(*assayName); assay == nil {
				fatal(fmt.Errorf("unknown assay %q (try bfc -list)", *assayName))
			}
		}
	case *assayName != "":
		assay = assays.ByName(*assayName)
		if assay == nil {
			fatal(fmt.Errorf("unknown assay %q (try bfc -list)", *assayName))
		}
		a := assay
		build = func() (*biocoder.BioSystem, error) { return a.Build(), nil }
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		build = func() (*biocoder.BioSystem, error) { return parser.Parse(string(src)) }
	default:
		fatal(fmt.Errorf("need -assay, -file, or -exe"))
	}

	var tracer *biocoder.Tracer
	if *tracePath != "" {
		tracer = biocoder.NewTracer()
	}
	compileOpts := biocoder.Options{Chip: chip, FaultyElectrodes: faultCells, Tracer: tracer, Context: runCtx}
	if prog == nil {
		bs, err := build()
		if err != nil {
			fatal(err)
		}
		prog, err = biocoder.Compile(bs, compileOpts)
		if err != nil {
			fatal(err)
		}
	} else if len(faultCells) > 0 {
		fatal(fmt.Errorf("-fault applies at compile time; recompile with bfc instead of -exe"))
	}

	model, err := buildSensors(assay, *scenarioName, *seed, ranges)
	if err != nil {
		fatal(err)
	}
	opts := biocoder.RunOptions{Sensors: model, TrackContamination: *contam, Context: runCtx}
	if *tracePath != "" || *metricsPath != "" {
		opts.Metrics = true
	}
	if len(stuck) > 0 || *wear > 0 {
		opts.Degradation = &biocoder.Degradation{Stuck: stuck, WearBudget: *wear}
	}

	var rec *viz.Recorder
	if *video != "" {
		rec = viz.NewRecorder(chip, *every)
		opts.FrameHook = rec.Hook
	}

	var res *biocoder.Result
	if len(lose) > 0 || opts.Degradation != nil {
		var transient []biocoder.Fault
		for _, c := range lose {
			transient = append(transient, biocoder.Fault{Cycle: c})
		}
		pol := biocoder.RecoveryPolicy{
			MaxAttempts: 5,
			Faults:      transient,
			Restart:     *recoverMode == "restart",
			Tracer:      tracer,
			Context:     runCtx,
		}
		// Restart mode still recompiles around the detected fault — it is
		// the "recompile but replay from scratch" baseline the checkpointed
		// resume is measured against. Without a recompiler every attempt
		// would re-hit the same permanently dead electrode.
		if build != nil {
			pol.Recompile = biocoder.Recompiler(build, compileOpts)
		} else if opts.Degradation != nil {
			fmt.Fprintln(os.Stderr, "bfsim: -exe carries no source to recompile around a permanent fault; restarting on the same program")
			pol.Restart = true
		}
		rec, err := prog.RunWithPolicy(opts, pol)
		if err != nil {
			fatal(err)
		}
		printRecovery(rec)
		if *slo > 0 {
			if err := gateRecoverySLO(rec, chip, *slo); err != nil {
				fatal(err)
			}
		}
		res = rec.Result
	} else {
		var err error
		res, err = prog.Run(opts)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("simulated execution time: %v (%d cycles)\n", res.Time, res.Cycles)
	fmt.Printf("droplets dispensed: %d, collected: %d\n", res.Dispensed, res.Collected)
	if *tracePath != "" {
		if err := writeChromeTrace(*tracePath, tracer, res.Metrics, chip); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in Perfetto)\n", *tracePath)
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, res.Metrics, chip); err != nil {
			fatal(err)
		}
	}
	if *printTrace {
		fmt.Println("\nexecution trace:")
		for _, v := range res.Trace.Visits {
			fmt.Printf("  %-10s %d cycles\n", v.Label, v.Cycles)
		}
		fmt.Println("conditions:")
		for _, c := range res.Trace.Conditions {
			fmt.Printf("  %-10s %-40s => %v\n", c.Block, c.Expr, c.Value)
		}
		fmt.Println("sensor readings:")
		for _, r := range res.Trace.Readings {
			fmt.Printf("  cycle %-9d %-20s (%s) = %.4f\n", r.Cycle, r.Variable, r.Device, r.Value)
		}
	}
	if *contam && res.Contamination != nil {
		c := res.Contamination
		fmt.Printf("\ncontamination: %d dirty electrodes, %d cross-contamination incidents\n",
			c.DirtyCells, len(c.Incidents))
		for i, inc := range c.Incidents {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(c.Incidents)-10)
				break
			}
			fmt.Printf("  cycle %-9d %-14s at %v picked up %v\n", inc.Cycle, inc.Droplet, inc.Cell, inc.Residues)
		}
		var dirty []biocoder.Point
		for p := range c.Residue {
			dirty = append(dirty, p)
		}
		tour, err := biocoder.PlanWash(chip, dirty, nil)
		if err != nil {
			fmt.Printf("  wash plan: %v\n", err)
		} else {
			fmt.Printf("  wash plan: %d cycles from %s to %s cover all %d cells\n",
				tour.Cycles(), tour.Source, tour.Drain, len(tour.Covered))
		}
	}
	if rec != nil {
		f, err := os.Create(*video)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteAnimation(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d frames to %s\n", rec.Len(), *video)
	}
}

// writeChromeTrace writes one Chrome trace file holding the compile spans
// (when the run compiled from source) and the runtime timeline side by side.
func writeChromeTrace(path string, tracer *biocoder.Tracer, m *biocoder.Metrics, chip *biocoder.Chip) error {
	var events []obs.TraceEvent
	if tracer != nil {
		events = append(events, obs.SpanEvents(tracer.Roots(), obs.CompileTrack, time.Time{})...)
	}
	events = append(events, obs.RuntimeEvents(m, chip.CyclePeriod)...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the telemetry snapshot: JSON to a file, or the
// human-readable report (with the actuation heatmap) to stdout for "-".
func writeMetrics(path string, m *biocoder.Metrics, chip *biocoder.Chip) error {
	if m == nil {
		return fmt.Errorf("no metrics collected")
	}
	if path == "-" {
		fmt.Println("\nruntime telemetry:")
		if err := m.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Print(viz.HeatmapASCII(chip, m.Heat))
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", path)
	return nil
}

// printRecovery reports the recovery accounting: a one-line summary and
// one line per fault incident with how it was detected and handled.
func printRecovery(rec *biocoder.RecoveryResult) {
	fmt.Printf("recovery: %d attempt(s), %d recovery(ies), %d cycles lost\n",
		rec.Attempts, rec.Recoveries, rec.LostTime)
	for _, ev := range rec.Events {
		switch ev.Kind {
		case "stuck-electrode":
			fmt.Printf("  cycle %-9d electrode (%d,%d) stuck at off, droplet %s stranded: %s",
				ev.DetectCycle, ev.Cell.X, ev.Cell.Y, ev.Droplet, ev.Action)
		default:
			fmt.Printf("  cycle %-9d droplet %s lost: %s", ev.DetectCycle, ev.Droplet, ev.Action)
		}
		if ev.Recompiled {
			fmt.Printf(" (recompiled in %v", ev.RecompileWall.Round(time.Microsecond))
			if ev.Action == "resume" {
				fmt.Printf("; %d repair cycles from checkpoint at cycle %d", ev.RepairCycles, ev.CheckpointCycle)
			}
			fmt.Print(")")
		}
		fmt.Printf(", %d cycles lost\n", ev.LostCycles)
	}
}

// gateRecoverySLO checks the run's recovery incidents against the -slo
// budget: nearest-rank p95 of per-incident recovery time (lost simulated
// time plus recompile wall clock — both stall the chip) and of lost time
// alone. A run with zero incidents passes vacuously.
func gateRecoverySLO(rec *biocoder.RecoveryResult, chip *arch.Chip, budget time.Duration) error {
	incidents := make([]obs.RecoveryIncident, len(rec.Events))
	for i, ev := range rec.Events {
		lost := chip.Duration(ev.LostCycles)
		incidents[i] = obs.RecoveryIncident{
			Kind:     ev.Kind,
			Action:   ev.Action,
			Lost:     lost,
			Recovery: lost + ev.RecompileWall,
		}
	}
	rep := obs.EvaluateRecoverySLO(incidents, budget)
	fmt.Printf("recovery SLO: budget %v, %d incident(s), p95 recovery %v, p95 lost %v, max recovery %v\n",
		rep.Budget, len(rep.Incidents), rep.P95Recovery, rep.P95Lost, rep.MaxRecovery)
	return rep.Err()
}

func parseStuck(specs []string) ([]biocoder.StuckAt, error) {
	var out []biocoder.StuckAt
	for _, s := range specs {
		var x, y, c int
		if _, err := fmt.Sscanf(s, "%d,%d@%d", &x, &y, &c); err != nil {
			return nil, fmt.Errorf("bad -stick %q (want x,y@cycle)", s)
		}
		out = append(out, biocoder.StuckAt{Cell: biocoder.Point{X: x, Y: y}, Cycle: c})
	}
	return out, nil
}

func parseFaults(specs []string) ([]biocoder.Point, error) {
	var out []biocoder.Point
	for _, s := range specs {
		var x, y int
		if _, err := fmt.Sscanf(s, "%d,%d", &x, &y); err != nil {
			return nil, fmt.Errorf("bad -fault %q (want x,y)", s)
		}
		out = append(out, biocoder.Point{X: x, Y: y})
	}
	return out, nil
}

func buildSensors(assay *assays.Assay, scenario string, seed int64, ranges []string) (sensor.Model, error) {
	uniform := sensor.NewUniform(seed)
	if err := sensor.ParseRanges(uniform, ranges); err != nil {
		return nil, err
	}
	if assay != nil {
		for v, r := range assay.Ranges {
			uniform.SetRange(v, r.Min, r.Max)
		}
	}
	if scenario == "" {
		return uniform, nil
	}
	if assay == nil {
		return nil, fmt.Errorf("-scenario needs -assay")
	}
	for _, sc := range assay.Scenarios {
		if sc.Name == scenario {
			m := sensor.NewScripted(sc.Script)
			m.Fallback = uniform
			return m, nil
		}
	}
	return nil, fmt.Errorf("assay %q has no scenario %q", assay.Name, scenario)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfsim:", err)
	os.Exit(1)
}
