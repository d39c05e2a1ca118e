package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/serve"
)

const testRoot = ".."

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	r, err := loadRefs(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: testRoot, seed: seed, refs: r}
}

// A corrupted byte of an executable and a corrupted diagnostic count or
// cycle count must each fail their operation's check and be counted.
func TestCorruptOutputCountsAsFailed(t *testing.T) {
	e := testEnv(t, 1)
	scripts, err := loadScripts(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVerdicter()
	if err != nil {
		t.Fatal(err)
	}
	out, err := v.verdict(scripts["pcr.bio"], nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := e.refs.Scripts["pcr.bio"]
	e.ops.op(out.check(ref))
	if e.ops.failed != 0 {
		t.Fatalf("clean verdict failed its check: %v", e.ops.first)
	}

	byteFlip := *out
	i := len(out.exe) / 2
	byteFlip.exe = out.exe[:i] + string(out.exe[i]^1) + out.exe[i+1:]
	e.ops.op(byteFlip.check(ref))

	countOff := *out
	countOff.codes = map[string]int{}
	for k, n := range out.codes {
		countOff.codes[k] = n
	}
	countOff.codes["BF320"]++
	e.ops.op(countOff.check(ref))

	// A simulate stream whose result is one cycle off.
	s := &server{e: e, bodies: map[string]string{}}
	rec, err := json.Marshal(&serve.SimRecord{Type: "result", Cycles: ref.SeedCycles[6] + 1})
	if err != nil {
		t.Fatal(err)
	}
	sim := &outcome{rq: request{kind: kindSimulate, script: "pcr.bio", seed: 7}, status: 200, body: append(rec, '\n')}
	e.ops.op(s.check(sim))

	if e.ops.attempted != 4 || e.ops.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3 (%v)", e.ops.attempted, e.ops.failed, e.ops.first)
	}
	for _, want := range []string{"sha256", "BF320", "cycles"} {
		found := false
		for _, f := range e.ops.first {
			found = found || strings.Contains(f, want)
		}
		if !found {
			t.Errorf("no failure mentions %q: %v", want, e.ops.first)
		}
	}
}

// inputs renders every seed-drawn input of the three workloads.
func inputs(t *testing.T, seed int64) string {
	t.Helper()
	e := testEnv(t, seed)
	var b strings.Builder
	a, err := setupAuthor(e)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, a.(*author).order)
	scripts, err := loadScripts(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule(seed, 20*time.Second, scripts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(describe(sched))
	rng := rand.New(rand.NewSource(seed))
	for _, name := range []string{"PCR", "Probabilistic PCR"} {
		oa, err := newOpAssay(e, assays.ByName(name), rng)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, name, oa.seed, oa.stuck)
	}
	return b.String()
}

func TestSeedDeterminesInputs(t *testing.T) {
	one, again, other := inputs(t, 11), inputs(t, 11), inputs(t, 12)
	if one != again {
		t.Errorf("seed 11 drew different inputs twice")
	}
	if one == other {
		t.Errorf("seeds 11 and 12 drew identical inputs")
	}
}

// opPass runs one operate pass over two small assays and returns its
// metrics and the cycle counts it checked.
func opPass(t *testing.T, seed int64) (map[string]float64, map[string][2]int) {
	t.Helper()
	e := testEnv(t, seed)
	rng := rand.New(rand.NewSource(seed))
	o := &operate{e: e, faultCycles: map[string][2]int{}}
	for _, name := range []string{"PCR", "Probabilistic PCR"} {
		oa, err := newOpAssay(e, assays.ByName(name), rng)
		if err != nil {
			t.Fatal(err)
		}
		o.assays = append(o.assays, oa)
	}
	m, err := o.measure(time.Nanosecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.ops.failed != 0 {
		t.Fatalf("operate pass failed: %v", e.ops.first)
	}
	return m, o.faultCycles
}

// The same seed gives the same simulated cycles and, within 0.1%, the same
// allocation per pass.
func TestSeedDeterminesCounts(t *testing.T) {
	m1, c1 := opPass(t, 5)
	m2, c2 := opPass(t, 5)
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Errorf("faulted-run cycles differ: %v vs %v", c1, c2)
	}
	if d := math.Abs(m1["alloc_mb"]-m2["alloc_mb"]) / m1["alloc_mb"]; d > 0.001 {
		t.Errorf("alloc_mb %.4f vs %.4f differs by %.3f%%", m1["alloc_mb"], m2["alloc_mb"], 100*d)
	}
}

// Every duration edit keeps the script compilable, so serve's misses do
// not fail on their inputs.
func TestEditsCompile(t *testing.T) {
	scripts, err := loadScripts(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, f := range smallScripts {
		for i := 0; i < 4; i++ {
			src, err := editDuration(scripts[f], i, rng)
			if err != nil {
				t.Fatal(err)
			}
			if src == scripts[f] {
				t.Errorf("%s: edit left the source unchanged", f)
			}
			bs, err := biocoder.ParseScript(src)
			if err == nil {
				_, err = biocoder.Compile(bs, biocoder.Options{})
			}
			if err != nil {
				t.Errorf("%s edit %d: %v", f, i, err)
			}
		}
	}
}

// Every seed offers serve the same mix of classes, and the two windows of
// a traced run, sharing one server, never send the same edited revision.
func TestScheduleMix(t *testing.T) {
	scripts, err := loadScripts(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	const edits = 83 + 4*2 // n/6 of iterScript, two of each other script
	seen := map[string]bool{}
	var first string
	for _, seed := range []int64{7, 7 + 7919} {
		sched, err := schedule(seed, 20*time.Second, scripts, seen)
		if err != nil {
			t.Fatal(err)
		}
		mix := map[string]int{}
		for _, rq := range sched {
			if rq.kind != kindRepeat {
				mix[kindNames[rq.kind]+" "+rq.script]++
			} else {
				mix["repeat"]++
			}
		}
		if len(sched) != 500 || mix["edit "+iterScript] != 83 || mix["edit neurotransmitter.bio"] != 2 || mix["simulate pcr.bio"] != 2 {
			t.Errorf("seed %d: %d requests, mix %v", seed, len(sched), mix)
		}
		if first == "" {
			first = fmt.Sprint(mix)
		} else if got := fmt.Sprint(mix); got != first {
			t.Errorf("mix differs between seeds: %s vs %s", first, got)
		}
	}
	if want := len(allScripts) + 2*edits; len(seen) != want {
		t.Errorf("%d distinct revisions over two windows, want %d", len(seen), want)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// On a run slower than the reference (factor below 1), host CPU times and
// latencies shrink and rates grow; allocation is not scaled, and scale
// leaves set-up time to runTimed, which scales it by its own samples.
func TestScaleToReferenceSpeed(t *testing.T) {
	const f = 0.8
	for _, c := range []struct {
		name    string
		in, out float64
	}{
		{"verdict_s", 10, 8},
		{"recover_s", 5, 4},
		{"req_p50_ms", 2, 1.6},
		{"req_p90_ms", 50, 40},
		{"sim_mcycles_s", 4, 5},
		{"setup_s", 3, 3},
		{"alloc_mb", 200, 200},
	} {
		if got := scale(c.name, c.in, f); math.Abs(got-c.out) > 1e-9 {
			t.Errorf("scale(%s, %g, %g) = %g, want %g", c.name, c.in, f, got, c.out)
		}
	}
}

func TestHarrellDavis(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := hdQuantile(xs, 0.5); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := hdQuantile([]float64{3, 3, 3, 3}, 0.9); math.Abs(got-3) > 1e-9 {
		t.Errorf("p90 of a constant = %v, want 3", got)
	}
	var big []float64
	for i := 0; i < 300; i++ {
		big = append(big, float64(i))
	}
	// Close to the interpolated order statistic on an even spread.
	if got, want := hdQuantile(big, 0.9), percentile(big, 90); math.Abs(got-want) > 1 {
		t.Errorf("p90 of 0..299 = %v, order statistic %v", got, want)
	}
}

// describe renders a schedule compactly, for the seed tests.
func describe(rs []request) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s %s %d %x\n", kindNames[r.kind], r.script, r.seed, hash(r.src))
	}
	return b.String()
}
