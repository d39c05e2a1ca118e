// Command bftable regenerates Table 1 of the paper: it compiles every
// benchmark assay, runs each outcome scenario on the cycle-accurate
// simulator with that scenario's scripted sensor readings, and prints the
// paper-reported versus measured execution times side by side, bracketed by
// the static best/worst-case bounds from the abstract-interpretation timing
// analysis (every measured run must land inside its bracket).
//
// Each row also breaks the compile time down by stage (schedule, place,
// route, codegen) from the compiler's own per-block stage spans; routing is
// reported separately even though it runs inside code generation. The Pins column
// reports the pin-constrained summary from internal/pinsafe: the DSATUR
// minimum safe control-pin count over the number of electrodes actuated.
//
// Usage:
//
//	bftable            # markdown table
//	bftable -tsv       # tab-separated (for plotting)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/assays"
	"biocoder/internal/obs"
	"biocoder/internal/pinsafe"
	"biocoder/internal/sensor"
	"biocoder/internal/verify"
)

// compilePhases extracts the per-phase compile-time breakdown from the
// collected spans: every block's schedule, place and codegen stages, and
// the edge phase, which is code generation too. Routing runs nested inside
// the codegen stages and the edge spans, so it is pulled out and codegen
// reports only its own share.
func compilePhases(tr *biocoder.Tracer) (sched, place, route, cg time.Duration) {
	roots := tr.Roots()
	sched = obs.NamedTotal(roots, "schedule")
	place = obs.NamedTotal(roots, "place")
	route = obs.NamedTotal(roots, "route")
	cg = obs.NamedTotal(roots, "codegen") + obs.NamedTotal(roots, "edges") - route
	if cg < 0 {
		cg = 0
	}
	return sched, place, route, cg
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

func main() {
	tsv := flag.Bool("tsv", false, "emit tab-separated values instead of a table")
	flag.Parse()

	type row struct {
		assay, scenario, source string
		paper, measured         time.Duration
		best, worst             time.Duration
		hasBounds               bool
		sched, place, route, cg time.Duration
		minPins, electrodes     int
	}
	var rows []row

	for _, a := range assays.All() {
		tracer := biocoder.NewTracer()
		prog, err := biocoder.Compile(a.Build(), biocoder.Options{Tracer: tracer})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bftable: %s: %v\n", a.Name, err)
			os.Exit(1)
		}
		phSched, phPlace, phRoute, phCG := compilePhases(tracer)
		var best, worst time.Duration
		hasBounds := false
		ares, err := analysis.Analyze(&verify.Unit{
			Graph: prog.Graph,
			Exec:  prog.Executable,
		}, analysis.Config{})
		if err == nil && ares.Timing != nil {
			best, worst, hasBounds = ares.Timing.Best, ares.Timing.Worst, true
		}
		minPins, electrodes := 0, 0
		if pres, err := pinsafe.Analyze(&verify.Unit{
			Graph: prog.Graph,
			Exec:  prog.Executable,
		}, pinsafe.Config{}); err == nil {
			minPins, electrodes = pres.MinPins, pres.Electrodes
		}
		for _, sc := range a.Scenarios {
			model := sensor.NewScripted(sc.Script)
			model.Fallback = sensor.NewUniform(1)
			res, err := prog.Run(biocoder.RunOptions{Sensors: model})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bftable: %s/%s: %v\n", a.Name, sc.Name, err)
				os.Exit(1)
			}
			rows = append(rows, row{a.Name, sc.Name, a.Source, sc.PaperTime, res.Time,
				best, worst, hasBounds, phSched, phPlace, phRoute, phCG, minPins, electrodes})
		}
	}

	if *tsv {
		fmt.Println("benchmark\tscenario\tsource\tpaper_s\tmeasured_s\tstatic_best_s\tstatic_worst_s\tsched_ms\tplace_ms\troute_ms\tcodegen_ms\tmin_pins\telectrodes")
		for _, r := range rows {
			fmt.Printf("%s\t%s\t%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
				r.assay, r.scenario, r.source, r.paper.Seconds(), r.measured.Seconds(),
				r.best.Seconds(), r.worst.Seconds(),
				float64(r.sched.Microseconds())/1000, float64(r.place.Microseconds())/1000,
				float64(r.route.Microseconds())/1000, float64(r.cg.Microseconds())/1000,
				r.minPins, r.electrodes)
		}
		return
	}

	fmt.Println("Table 1. Benchmark assays and simulated execution times (paper vs this implementation)")
	fmt.Println()
	fmt.Printf("| %-30s | %-10s | %-8s | %-12s | %-12s | %-6s | %-12s | %-12s | %-8s | %-8s | %-8s | %-8s | %-8s |\n",
		"Benchmark", "Scenario", "Source", "Paper", "Measured", "Dev", "Static best", "Static worst",
		"Sched", "Place", "Route", "Codegen", "Pins")
	fmt.Printf("|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|%s|\n",
		dashes(32), dashes(12), dashes(10), dashes(14), dashes(14), dashes(8), dashes(14), dashes(14),
		dashes(10), dashes(10), dashes(10), dashes(10), dashes(10))
	for _, r := range rows {
		dev := (r.measured.Seconds() - r.paper.Seconds()) / r.paper.Seconds() * 100
		sb, sw := "n/a", "n/a"
		if r.hasBounds {
			sb, sw = fmtDur(r.best), fmtDur(r.worst)
		}
		pins := "n/a"
		if r.electrodes > 0 {
			pins = fmt.Sprintf("%d/%d", r.minPins, r.electrodes)
		}
		fmt.Printf("| %-30s | %-10s | %-8s | %-12s | %-12s | %+5.1f%% | %-12s | %-12s | %-8s | %-8s | %-8s | %-8s | %-8s |\n",
			r.assay, r.scenario, r.source, fmtDur(r.paper), fmtDur(r.measured), dev, sb, sw,
			fmtMS(r.sched), fmtMS(r.place), fmtMS(r.route), fmtMS(r.cg), pins)
	}
}

func fmtDur(d time.Duration) string {
	d = d.Round(time.Second)
	m := int(d.Minutes())
	s := int(d.Seconds()) - 60*m
	return fmt.Sprintf("%dm %02ds", m, s)
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
