// Command bfc is the BioCoder compiler driver: it compiles a benchmark
// assay (or a BioScript source file) for a target chip and dumps the
// requested compilation artifact.
//
// Usage:
//
//	bfc -assay "PCR" -emit ssi
//	bfc -file protocol.bio -emit delta
//	bfc -assay "Opiate detection immunoassay" -chip chip.cfg -emit summary
//
// Emit targets: cfg (pre-SSI control flow graph), ssi (after live-range
// splitting, the paper's Fig. 11 form), sched (per-block schedules), place
// (module bindings), delta (executable summary: Σ per block and edge),
// summary (whole-pipeline statistics).
//
// -trace FILE additionally records every compilation phase (parse → SSI →
// topology → blocks → edges → check, with each block's schedule, place and
// codegen stages and per-routing-burst detail) as Chrome trace-event JSON
// loadable in Perfetto or chrome://tracing.
//
// -j N compiles basic blocks and routes CFG edges on N workers (the output
// and any error are the same at every N), and -incremental compiles twice
// against a block memo keyed by content-addressed fingerprints, reporting
// the cache disposition — the warm recompile must be all hits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/obs"
	"biocoder/internal/parser"
	"biocoder/internal/pinsafe"
	"biocoder/internal/sched"
	"biocoder/internal/verify"
)

func main() {
	assayName := flag.String("assay", "", "benchmark assay name (see -list)")
	file := flag.String("file", "", "BioScript source file to compile")
	chipCfg := flag.String("chip", "", "chip configuration file (default: the paper's 15x19 chip)")
	emit := flag.String("emit", "summary", "artifact to emit: cfg|ssi|sched|place|delta|summary|fmt")
	out := flag.String("o", "", "write the serialized executable to this file")
	doVerify := flag.Bool("verify", false, "run the static verifier over the compiled program; fail on error diagnostics")
	doAnalyze := flag.Bool("analyze", false, "run the abstract-interpretation analyses (volumes, timing, contamination); fail on error diagnostics")
	doPins := flag.Bool("pins", false, "run the pin-constrained safety analysis (interference graph, DSATUR pin count, broadcast replay); fail on error diagnostics")
	tracePath := flag.String("trace", "", "write compile-phase spans as Chrome trace-event JSON (load in Perfetto) to this file")
	workers := flag.Int("j", 0, "compile basic blocks on this many workers (0 or 1: one; output is the same at every count)")
	incremental := flag.Bool("incremental", false, "compile twice against a block memo and report the cache disposition; the recompile must be all hits")
	timeout := flag.Duration("timeout", 0, "abort compilation after this duration (0: no limit)")
	list := flag.Bool("list", false, "list benchmark assays and exit")
	flag.Parse()

	if *list {
		for _, a := range assays.All() {
			fmt.Printf("%-32s %s\n", a.Name, a.Source)
		}
		return
	}

	chip := arch.Default()
	if *chipCfg != "" {
		f, err := os.Open(*chipCfg)
		if err != nil {
			fatal(err)
		}
		chip, err = arch.ParseConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	if *emit == "fmt" {
		if *file == "" {
			fatal(fmt.Errorf("-emit fmt needs -file"))
		}
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		stmts, err := parser.ParseAST(string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Print(parser.Format(stmts))
		return
	}

	var tracer *biocoder.Tracer
	if *tracePath != "" {
		tracer = biocoder.NewTracer()
	}

	parseSpan := tracer.Start("parse")
	g, err := loadGraph(*assayName, *file)
	parseSpan.End()
	if err != nil {
		fatal(err)
	}

	if *emit == "cfg" {
		fmt.Print(g.String())
		return
	}

	copt := biocoder.Options{Tracer: tracer, Workers: *workers}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		copt.Context = ctx
	}
	var memo *biocoder.Memo
	if *incremental {
		memo = biocoder.NewMemo()
		copt.Memo = memo
	}
	prog, err := biocoder.CompileGraphOptions(g, chip, copt)
	if err != nil {
		fatal(err)
	}

	// -incremental: recompile the unedited program against the warm memo.
	// Every block must come back as a hit, and the recompiled executable
	// must serialize byte-for-byte identically to the cold one.
	if *incremental {
		cold := memo.Stats()
		g2, err := loadGraph(*assayName, *file)
		if err != nil {
			fatal(err)
		}
		ropt := copt
		ropt.Tracer = nil
		prog2, err := biocoder.CompileGraphOptions(g2, chip, ropt)
		if err != nil {
			fatal(err)
		}
		var a, b strings.Builder
		if err := prog.Save(&a); err != nil {
			fatal(err)
		}
		if err := prog2.Save(&b); err != nil {
			fatal(err)
		}
		warm := memo.Stats()
		hits, misses := warm.Hits-cold.Hits, warm.Misses-cold.Misses
		fmt.Fprintf(os.Stderr, "incremental: cold %d miss(es); warm %d hit(s), %d miss(es), %d rejected; %d memo entrie(s)\n",
			cold.Misses, hits, misses, warm.Rejected, warm.Entries)
		if a.String() != b.String() {
			fatal(fmt.Errorf("incremental recompile diverged from the cold compile"))
		}
		if misses > 0 {
			fatal(fmt.Errorf("incremental recompile of an unedited program missed the memo %d time(s)", misses))
		}
	}

	if *doVerify {
		sp := tracer.Start("verify")
		rep := verify.Run(&verify.Unit{
			Graph:     prog.Graph,
			Exec:      prog.Executable,
			Placement: prog.Placement,
		})
		sp.End()
		if s := rep.String(); s != "" {
			fmt.Fprint(os.Stderr, s)
		}
		if rep.HasErrors() {
			fatal(fmt.Errorf("verification failed with %d error(s)", rep.Count(verify.Error)))
		}
	}

	if *doAnalyze {
		sp := tracer.Start("analysis")
		res, err := analysis.Analyze(&verify.Unit{
			Graph: prog.Graph,
			Exec:  prog.Executable,
		}, analysis.Config{})
		sp.End()
		if err != nil {
			fatal(err)
		}
		if s := res.Report.String(); s != "" {
			fmt.Fprint(os.Stderr, s)
		}
		if t := res.Timing; t != nil {
			fmt.Fprintf(os.Stderr, "analysis: best %d cycles (%v), worst %d cycles (%v)\n",
				t.BestCycles, t.Best, t.WorstCycles, t.Worst)
		}
		if res.Report.HasErrors() {
			fatal(fmt.Errorf("analysis failed with %d error(s)", res.Report.Count(verify.Error)))
		}
	}

	if *doPins {
		res, err := pinsafe.Analyze(&verify.Unit{
			Graph: prog.Graph,
			Exec:  prog.Executable,
		}, pinsafe.Config{Tracer: tracer})
		if err != nil {
			fatal(err)
		}
		if s := res.Report.String(); s != "" {
			fmt.Fprint(os.Stderr, s)
		}
		fmt.Fprintf(os.Stderr, "pins: %d electrodes, %d interference edge(s), minimum %d safe pin(s)\n",
			res.Electrodes, len(res.Conflicts), res.MinPins)
		if res.Report.HasErrors() {
			fatal(fmt.Errorf("pin-safety analysis failed with %d error(s)", res.Report.Count(verify.Error)))
		}
	}

	// Written after the optional analyses so their spans (verify,
	// analysis, and pinsafe with its interference/assign/broadcast) land
	// in the trace too.
	if *tracePath != "" {
		if err := writeTrace(*tracePath, tracer); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote compile trace to %s\n", *tracePath)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := prog.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote executable to %s\n", *out)
	}

	switch *emit {
	case "ssi":
		fmt.Print(prog.Graph.String())
	case "sched":
		printSchedule(prog)
	case "place":
		printPlacement(prog)
	case "delta":
		printDelta(prog)
	case "summary":
		printSummary(prog)
	default:
		fatal(fmt.Errorf("unknown -emit %q", *emit))
	}
}

func loadGraph(assayName, file string) (*cfg.Graph, error) {
	switch {
	case assayName != "" && file != "":
		return nil, fmt.Errorf("use either -assay or -file, not both")
	case assayName != "":
		a := assays.ByName(assayName)
		if a == nil {
			return nil, fmt.Errorf("unknown assay %q (try -list)", assayName)
		}
		return a.Build().Build()
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		bs, err := parser.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return bs.Build()
	default:
		return nil, fmt.Errorf("need -assay or -file (or -list)")
	}
}

func sortedBlocks(prog *biocoder.Compiled) []*cfg.Block {
	blocks := append([]*cfg.Block(nil), prog.Graph.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	return blocks
}

func printSchedule(prog *biocoder.Compiled) {
	for _, b := range sortedBlocks(prog) {
		bs := prog.Schedule.Blocks[b.ID]
		if len(bs.Items) == 0 {
			continue
		}
		fmt.Printf("%s: %d cycles\n", b.Label, bs.Length)
		for _, it := range bs.Items {
			fmt.Printf("  %s\n", it)
		}
	}
}

func printPlacement(prog *biocoder.Compiled) {
	for _, b := range sortedBlocks(prog) {
		bp := prog.Placement.Blocks[b.ID]
		if len(bp.Assign) == 0 {
			continue
		}
		fmt.Printf("%s:\n", b.Label)
		items := append([]*sched.Item(nil), bp.Sched.Items...)
		for _, it := range items {
			asn := bp.Assign[it]
			where := fmt.Sprintf("slot %d %v", asn.Slot, asn.Rect)
			if asn.Port != "" {
				where = fmt.Sprintf("port %s %v", asn.Port, asn.Rect)
			}
			fmt.Printf("  %-52s -> %s\n", it, where)
		}
	}
}

func printDelta(prog *biocoder.Compiled) {
	fmt.Println("Δ_B (basic block activation sequences):")
	for _, b := range sortedBlocks(prog) {
		bc := prog.Executable.Blocks[b.ID]
		fmt.Printf("  Σ_%-8s %7d cycles %8d activations %3d events\n",
			b.Label, bc.Seq.NumCycles, bc.Seq.ActiveCount(), len(bc.Seq.Events))
	}
	fmt.Println("Δ_E (control-flow edge activation sequences):")
	for _, e := range prog.Graph.Edges() {
		ec := prog.Executable.Edge(e.From, e.To)
		status := "in-place renames"
		if ec.Seq.NumCycles > 0 {
			status = fmt.Sprintf("%d transport cycles", ec.Seq.NumCycles)
		} else if len(ec.Copies) == 0 {
			status = "empty"
		}
		fmt.Printf("  Σ_(%s,%s): %d copies, %s\n", e.From.Label, e.To.Label, len(ec.Copies), status)
	}
}

func printSummary(prog *biocoder.Compiled) {
	blocks, edges := 0, len(prog.Graph.Edges())
	instrs := 0
	for _, b := range prog.Graph.Blocks {
		blocks++
		instrs += len(b.Instrs)
	}
	totalCycles, totalEvents := 0, 0
	for _, bc := range prog.Executable.Blocks {
		totalCycles += bc.Seq.NumCycles
		totalEvents += len(bc.Seq.Events)
	}
	edgeTransport := 0
	for _, ec := range prog.Executable.Edges {
		if ec.Seq.NumCycles > 0 {
			edgeTransport++
		}
	}
	res := prog.Topology.Resources()
	fmt.Printf("chip:        %dx%d, %d module slots (%d plain, %d sensor, %d heater), cycle %v\n",
		prog.Chip.Cols, prog.Chip.Rows, len(prog.Topology.Slots),
		res.Slots, res.Sensors, res.Heaters, prog.Chip.CyclePeriod)
	fmt.Printf("CFG:         %d blocks, %d edges, %d instructions, fluids: %s\n",
		blocks, edges, instrs, strings.Join(prog.Graph.FluidNames(), ", "))
	fmt.Printf("executable:  %d block cycles total, %d events, %d/%d edges need transport\n",
		totalCycles, totalEvents, edgeTransport, edges)
	_ = codegen.EvMerge
}

// writeTrace exports the collected compile spans as Chrome trace JSON.
func writeTrace(path string, tracer *biocoder.Tracer) error {
	events := obs.SpanEvents(tracer.Roots(), obs.CompileTrack, time.Time{})
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfc:", err)
	os.Exit(1)
}
