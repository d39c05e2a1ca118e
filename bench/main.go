// Command bench is the repository's benchmark: it runs one of three
// workloads against the library and an in-process bfd, checks every output
// against recorded or independent references, and prints one JSON line of
// metrics. See NOTES.md for why each workload exists and what each metric
// should move.
//
// Run it through run.sh from the repository root:
//
//	bash bench/run.sh --workload author --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced, prints a per-layer table on stderr, writes the
// spans as a Chrome trace under .bench_build/, and prints the per-layer
// metrics. --repeat N runs the workload N times in child processes with
// seeds seed..seed+N-1 and prints the spread of every end-to-end metric.
// --record rewrites refs.json from the current compiler.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints on stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metric units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"alloc_mb", "MiB"},
	{"sim_mcycles_s", "Mcycles/s"},
	{"recover_s", "s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
}

// tally counts operations and the ones whose output failed a check.
type tally struct {
	attempted, failed int
	first             []string
}

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 8 {
			t.first = append(t.first, err.Error())
		}
	}
}

// env is what every workload shares: where the checkout is, the seed, and
// the references outputs are checked against.
type env struct {
	root string
	seed int64
	refs *refs
	ops  tally
}

// workDir returns a fresh directory under .bench_build/tmp in the checkout.
func (e *env) workDir(prefix string) (string, error) {
	dir := filepath.Join(e.root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, prefix)
}

// runner is one set-up workload, ready to measure.
type runner interface {
	// measure runs passes (or the request schedule) for about window and
	// returns the workload's own end-to-end metrics. It paces ctl's
	// repetitions over the window; with a non-nil tracing it also
	// attributes work to layers.
	measure(window time.Duration, tc *tracing, ctl *control) (map[string]float64, error)
	// headline is the time the traced run compares against the untraced
	// run for obs.trace_overhead_pct.
	headline(m map[string]float64) float64
	close()
}

// workload names a set-up function and the end-to-end metrics its own
// traffic provides; the rest come from the control probes (control.go).
// Own metrics in unscaled are reported as measured, not at the reference
// speed (calib.go).
type workload struct {
	setup    func(e *env) (runner, error)
	own      []string
	unscaled []string
}

// workloads are described in NOTES.md and BENCHMARK.json.
var workloads = map[string]workload{
	"author":  {setupAuthor, []string{"verdict_s", "alloc_mb"}, nil},
	"operate": {setupOperate, []string{"alloc_mb", "sim_mcycles_s", "recover_s"}, nil},
	"serve":   {setupServe, []string{"req_p50_ms", "req_p90_ms"}, []string{"req_p50_ms"}},
}

func main() {
	var (
		name   = flag.String("workload", "", "workload: author, operate or serve")
		seed   = flag.Int64("seed", 1, "seed for every random choice of inputs")
		secs   = flag.Float64("seconds", 20, "length of the timed window")
		trace  = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		root   = flag.String("root", ".", "repository checkout")
		repeat = flag.Int("repeat", 0, "run the workload this many times in child processes and print the spread of every metric")
		record = flag.Bool("record", false, "rewrite refs.json from the current compiler and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace, *root, *repeat, *record); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs float64, trace int, root string, repeat int, record bool) error {
	if record {
		return recordRefs(root)
	}
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want author, operate or serve)", name)
	}
	if secs <= 0 || (trace != 0 && trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	if repeat > 0 {
		return steadiness(root, name, seed, secs, repeat)
	}
	r, err := loadRefs(root)
	if err != nil {
		return err
	}
	e := &env{root: root, seed: seed, refs: r}
	window := time.Duration(secs * float64(time.Second))
	var res *result
	if trace == 1 {
		res, err = runTraced(e, name, wl, window)
	} else {
		res, err = runTimed(e, wl, window)
	}
	if err != nil {
		return err
	}
	for _, f := range e.ops.first {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runTimed is the untraced run: set up at least minSetups times and for at
// least setupFloor (setup_s is the median, at the reference speed of
// calibration samples taken between the set-ups), then measure the
// workload's own metrics with the control repetitions paced over the same
// window.
func runTimed(e *env, wl workload, window time.Duration) (*result, error) {
	need := controlled(wl)
	var (
		r        runner
		ctl      *control
		times    []float64
		spent    time.Duration
		setupCal = newCalibrator()
	)
	for len(times) < minSetups || spent < setupFloor {
		if r != nil {
			r.close()
			ctl.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = wl.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if ctl, err = newControl(e, need); err != nil {
			r.close()
			return nil, fmt.Errorf("control set-up: %w", err)
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		runtime.GC()
		for i := 0; i < setupSamples; i++ {
			setupCal.sample()
		}
	}
	defer ctl.close()
	runtime.GC()
	own, err := r.measure(window, nil, ctl)
	r.close()
	if err != nil {
		return nil, err
	}
	ctlVals := ctl.measure()
	// Control readings are scaled by the samples of their own rounds, the
	// workload's by the samples taken among its operations: the same
	// samples on author and operate, the window's own on serve.
	factor := ctl.cal.factor()
	ownFactor := factor
	if len(ctl.window.samples) > 0 {
		ownFactor = ctl.window.factor()
	}
	raw := map[string]float64{}
	vals := map[string]float64{"setup_s": median(times) * setupCal.factor()}
	for _, n := range wl.own {
		raw[n] = own[n]
		vals[n] = scale(n, own[n], ownFactor)
		if slices.Contains(wl.unscaled, n) {
			vals[n] = own[n]
		}
	}
	for n, v := range ctlVals {
		raw[n] = v
		vals[n] = scale(n, v, factor)
	}
	fmt.Fprintf(os.Stderr, "bench: %d set-ups, median %.4f s, set-up speed factor %.4f; speed factor %.4f (median of %d calibration samples %.3f ms); window's %.4f (%d samples); unscaled %v\n",
		len(times), median(times), setupCal.factor(), factor, len(ctl.cal.samples), 1000*median(ctl.cal.samples), ownFactor, len(ctl.window.samples), raw)
	res := &result{Correct: e.ops.failed == 0, Attempted: e.ops.attempted, Failed: e.ops.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// A run sets up at least minSetups times and for at least setupFloor:
// author's set-up takes about 0.2 s, so it repeats until its median rests
// on about ten samples; operate's and serve's take seconds each and stop
// at three. setupSamples calibration samples follow each set-up.
const (
	minSetups    = 3
	setupFloor   = 2 * time.Second
	setupSamples = 4
)

// controlled lists the end-to-end metrics a workload's own traffic does not
// provide.
func controlled(wl workload) []string {
	var out []string
	for _, m := range endToEnd {
		if m.name == "setup_s" {
			continue
		}
		own := false
		for _, n := range wl.own {
			own = own || n == m.name
		}
		if !own {
			out = append(out, m.name)
		}
	}
	return out
}

// runTraced sets up once, measures one untraced window, then one traced
// window, and reports the per-layer metrics of the traced window.
func runTraced(e *env, name string, wl workload, window time.Duration) (*result, error) {
	r, err := wl.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	runtime.GC()
	plain, err := r.measure(window, nil, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tc := newTracing()
	traced, err := r.measure(window, tc, nil)
	if err != nil {
		return nil, err
	}
	base := r.headline(plain)
	overhead := 0.0
	if base > 0 {
		overhead = 100 * (r.headline(traced) - base) / base
	}
	tc.set("obs.trace_overhead_pct", overhead)
	path := filepath.Join(e.root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", name, e.seed))
	if err := tc.writeChrome(path); err != nil {
		return nil, err
	}
	tc.printTable(os.Stderr, name)
	fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s\n", tc.spanCount(), path)
	res := &result{Correct: e.ops.failed == 0, Attempted: e.ops.attempted, Failed: e.ops.failed, Metrics: map[string]metric{}}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{tc.vals[l.name], l.unit}
	}
	return res, nil
}

// steadiness re-runs the benchmark in child processes, one seed each, and
// prints median, quartiles and range of every metric with the interquartile
// spread as a share of the median — the figures the bounds in
// BENCHMARK.json were set from.
func steadiness(root, name string, seed int64, secs float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < n; i++ {
		cmd := osexec.Command(self, "--root", root, "--workload", name, "--seed", fmt.Sprint(seed+int64(i)),
			"--seconds", fmt.Sprint(secs))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d): %d of %d operations failed", i, seed+int64(i), res.Failed, res.Attempted)
		}
		fmt.Fprintf(os.Stderr, "run %d seed %d: %s\n", i, seed+int64(i), lines[len(lines)-1])
		for k, m := range res.Metrics {
			if _, ok := vals[k]; !ok {
				names = append(names, k)
			}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Printf("%s, %d runs of %gs, seeds %d..%d\n", name, n, secs, seed, seed+int64(n)-1)
	fmt.Printf("%-16s %-10s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, m := range endToEnd {
		xs, ok := vals[m.name]
		if !ok {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-16s %-10s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%%\n", m.name, units[m.name],
			percentile(xs, 0), q1, q2, q3, percentile(xs, 100), 100*spread)
	}
	return nil
}
