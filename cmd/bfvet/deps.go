package main

// The deps subcommand: the inter-block effect and dependency analysis of
// internal/depgraph (BF601-BF603). For each target it prints (or emits as
// JSON) the per-block effect summaries — transfer-in/out droplets, sensor
// reads, reservoir traffic, chip footprint, content-addressed fingerprint —
// and the droplet-carrying CFG edges, runs the three proof obligations
// behind parallel and incremental compilation, and can export the block
// dependency graph in Graphviz dot syntax.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"biocoder"
	"biocoder/internal/depgraph"
	"biocoder/internal/ir"
	"biocoder/internal/verify"
)

func runDeps(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfvet deps", flag.ContinueOnError)
	fs.SetOutput(stderr)
	assayName := fs.String("assay", "", "analyze a benchmark assay by name")
	chipCfg := fs.String("chip", "", "chip configuration file (default: the paper's 15x19 chip)")
	wError := fs.Bool("Werror", false, "treat warnings as errors")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON results")
	dotFile := fs.String("dot", "", "write the block dependency graph in dot syntax to this file (\"-\" for stdout)")
	list := fs.Bool("list", false, "list benchmark assays and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		listAssays(stdout)
		return 0
	}

	chip, ok := loadChip(*chipCfg, stderr)
	if !ok {
		return 2
	}
	jobs, ok := buildJobs(*assayName, fs.Args(), stderr)
	if !ok {
		return 2
	}
	if len(jobs) == 0 {
		fmt.Fprintln(stderr, "bfvet deps: nothing to analyze (give .bio files or -assay)")
		fs.Usage()
		return 2
	}
	if *dotFile != "" && len(jobs) > 1 {
		fmt.Fprintln(stderr, "bfvet deps: -dot wants exactly one target")
		return 2
	}
	if *dotFile == "-" && *asJSON {
		fmt.Fprintln(stderr, "bfvet deps: -dot - would interleave with the -json report; write to a file")
		return 2
	}

	failed := false
	var targets []jsonTarget
	for _, j := range jobs {
		g, err := j.graph()
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: %v\n", j.name, err)
			failed = true
			continue
		}
		prog, err := biocoder.CompileGraph(g, chip)
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: compile: %v\n", j.name, err)
			failed = true
			continue
		}
		key, err := depgraph.KeyFor(biocoder.Version, prog.Chip, biocoder.Options{}.CanonicalText())
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: %v\n", j.name, err)
			failed = true
			continue
		}
		res, err := depgraph.Analyze(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable},
			depgraph.Config{Key: key})
		if err != nil {
			fmt.Fprintf(stderr, "bfvet: %s: deps: %v\n", j.name, err)
			failed = true
			continue
		}
		if *asJSON {
			t := jsonTarget{Name: j.name}
			depsJSON(&t, res)
			targets = append(targets, t)
			passTimes(stderr, j.name, res.Report)
		} else {
			printDeps(stdout, j.name, res)
		}
		if res.Report.HasErrors() || (*wError && res.Report.Count(verify.Warning) > 0) {
			failed = true
		}
		if *dotFile != "" {
			dot := res.DOT(j.name)
			if *dotFile == "-" {
				fmt.Fprint(stdout, dot)
			} else if err := os.WriteFile(*dotFile, []byte(dot), 0o644); err != nil {
				fmt.Fprintln(stderr, "bfvet:", err)
				return 2
			}
		}
	}

	if *asJSON {
		if err := writeJSON(stdout, targets); err != nil {
			fmt.Fprintln(stderr, "bfvet:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

func printDeps(w io.Writer, name string, res *depgraph.Result) {
	for _, d := range res.Report.Diags {
		fmt.Fprintf(w, "%s: %s\n", name, d)
	}
	fps := map[string]bool{}
	for _, s := range res.Summaries {
		fps[s.Fingerprint] = true
		fp := s.Fingerprint
		if len(fp) > 12 {
			fp = fp[:12]
		}
		fmt.Fprintf(w, "%s: block %s: fp %s, in %d, out %d, footprint %d cell(s)",
			name, s.Label, fp, len(s.TransferIn), len(s.TransferOut), len(s.Footprint))
		if len(s.SensorReads) > 0 {
			fmt.Fprintf(w, ", reads %v", s.SensorReads)
		}
		if len(s.ReservoirIn) > 0 {
			fmt.Fprintf(w, ", dispenses %v", s.ReservoirIn)
		}
		if len(s.ReservoirOut) > 0 {
			fmt.Fprintf(w, ", outputs %v", s.ReservoirOut)
		}
		fmt.Fprintln(w)
	}
	droplets := 0
	for _, d := range res.Deps {
		droplets += len(d.Droplets)
	}
	fmt.Fprintf(w, "%s: %d block(s), %d edge(s) transferring %d droplet(s), %d distinct fingerprint(s)\n",
		name, len(res.Summaries), len(res.Deps), droplets, len(fps))
}

func fluidNames(fs []ir.FluidID) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// depsJSON folds a dependency analysis result into a target record.
func depsJSON(t *jsonTarget, res *depgraph.Result) {
	t.Diags = diagsJSON(res.Report)
	for _, s := range res.Summaries {
		t.Blocks = append(t.Blocks, jsonBlockSummary{
			Block:          s.Block,
			Label:          s.Label,
			TransferIn:     fluidNames(s.TransferIn),
			TransferOut:    fluidNames(s.TransferOut),
			SensorReads:    s.SensorReads,
			ReservoirIn:    s.ReservoirIn,
			ReservoirOut:   s.ReservoirOut,
			FootprintCells: len(s.Footprint),
			Fingerprint:    s.Fingerprint,
		})
	}
	for _, d := range res.Deps {
		t.DepEdges = append(t.DepEdges, jsonDepEdge{
			From: d.From, To: d.To, FromLabel: d.FromLabel, ToLabel: d.ToLabel,
			Droplets: fluidNames(d.Droplets),
		})
	}
}
