package biocoder_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/verify"
)

// randomProtocol generates a structurally valid random protocol: a bounded
// mix of dispenses, merges, mixes, heats, senses, conditionals and loops,
// with every container drained at the end. It mirrors the builder's
// container discipline so the generated program is always well-formed —
// the property under test is that the *compiler and simulator* accept every
// well-formed program, not that the builder rejects bad ones.
func randomProtocol(r *rand.Rand) *biocoder.BioSystem {
	bs := biocoder.New()
	fluids := []*biocoder.Fluid{
		bs.NewFluid("FluidA", biocoder.Microliters(10)),
		bs.NewFluid("FluidB", biocoder.Microliters(8)),
	}
	nCont := 1 + r.Intn(2)
	containers := make([]*biocoder.Container, nCont)
	filled := make([]bool, nCont)
	for i := range containers {
		containers[i] = bs.NewContainer(fmt.Sprintf("c%d", i))
	}
	sensed := false
	dur := func() time.Duration {
		return time.Duration(1+r.Intn(10)) * 100 * time.Millisecond
	}

	// A state-preserving op on a filled container (safe inside loops and
	// conditional arms).
	preserving := func(i int) {
		switch r.Intn(4) {
		case 0:
			bs.Vortex(containers[i], dur())
		case 1:
			bs.StoreFor(containers[i], 37+float64(r.Intn(60)), dur())
		case 2:
			bs.Weigh(containers[i], "w")
			sensed = true
		case 3:
			bs.MeasureFluid(fluids[r.Intn(len(fluids))], containers[i]) // merge
		}
	}
	anyFilled := func() int {
		for i, f := range filled {
			if f {
				return i
			}
		}
		return -1
	}

	// Always start with one dispense so the protocol is never empty.
	bs.MeasureFluid(fluids[0], containers[0])
	filled[0] = true

	steps := 3 + r.Intn(8)
	for s := 0; s < steps; s++ {
		switch r.Intn(6) {
		case 0, 1: // dispense into an empty container
			for i := range filled {
				if !filled[i] {
					bs.MeasureFluid(fluids[r.Intn(len(fluids))], containers[i])
					filled[i] = true
					break
				}
			}
		case 2, 3: // work on a filled container
			if i := anyFilled(); i >= 0 {
				preserving(i)
			}
		case 4: // conditional with state-preserving arms
			if i := anyFilled(); i >= 0 && sensed {
				bs.If("w", biocoder.LessThan, 0.5)
				preserving(i)
				if r.Intn(2) == 0 {
					bs.Else()
					preserving(i)
				}
				bs.EndIf()
			}
		case 5: // bounded loop with a state-preserving body
			if i := anyFilled(); i >= 0 {
				bs.Loop(1 + r.Intn(3))
				preserving(i)
				bs.EndLoop()
			}
		}
	}
	for i := range filled {
		if filled[i] {
			bs.Drain(containers[i], "")
		}
	}
	bs.EndProtocol()
	return bs
}

// TestFuzzPipeline: every well-formed protocol must compile and simulate
// without error under each pipeline variant, and the interpreter's own
// conservation checks (droplets never lost, frames always consistent) must
// hold along the way.
func TestFuzzPipeline(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	variants := []struct {
		name string
		opt  biocoder.Options
	}{
		{"default", biocoder.Options{}},
		{"serial", biocoder.Options{SerialSchedules: true}},
		{"folded", biocoder.Options{FoldEdges: true}},
		{"homed", biocoder.Options{NoLiveRangeSplitting: true}},
		{"free", biocoder.Options{FreePlacement: true}},
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		for _, v := range variants {
			bs := randomProtocol(rand.New(rand.NewSource(int64(seed))))
			prog, err := biocoder.Compile(bs, v.opt)
			if err != nil {
				t.Fatalf("seed %d variant %s: compile: %v", seed, v.name, err)
			}
			res, err := prog.Run(biocoder.RunOptions{
				Sensors:            biocoder.NewUniformSensors(int64(seed)),
				TrackContamination: seed%4 == 0,
				Verify:             true,
			})
			if err != nil {
				t.Fatalf("seed %d variant %s: run: %v", seed, v.name, err)
			}
			if res.Collected == 0 || res.Dispensed < res.Collected {
				t.Errorf("seed %d variant %s: implausible I/O %d/%d",
					seed, v.name, res.Dispensed, res.Collected)
			}
		}
		_ = r
	}
}

// FuzzVerifyExecutable feeds serialized executables — valid ones from the
// random-protocol generator plus whatever mutations the fuzzer finds —
// through the decode → verify round trip. The verifier must never panic on
// any input the decoder accepts, and must be deterministic: verifying the
// same executable twice yields the identical report.
func FuzzVerifyExecutable(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		bs := randomProtocol(rand.New(rand.NewSource(seed)))
		prog, err := biocoder.Compile(bs, biocoder.Options{FoldEdges: seed%2 == 0})
		if err != nil {
			f.Fatalf("seed %d: compile: %v", seed, err)
		}
		var buf bytes.Buffer
		if err := prog.Save(&buf); err != nil {
			f.Fatalf("seed %d: save: %v", seed, err)
		}
		f.Add(buf.Bytes())
		if seed == 0 {
			// Two malformed inputs the decoder must reject, not crash on:
			// a negative cycle count, and a track running past its
			// sequence's declared cycles.
			f.Add(corruptLine(f, buf.String(), "cycles ", func(string) string { return "cycles -1" }))
			f.Add(corruptLine(f, buf.String(), "track ", func(l string) string { return l + " 0,0x100000" }))
		}
	}
	orig, stretched := stretchedPCR(f)
	f.Add(stretched)
	// Inputs Load must refuse: non-finite volumes, which BF109's old
	// volume <= 0 test passed, and a chip of more than
	// arch.MaxElectrodes electrodes.
	f.Add(bytes.ReplaceAll(orig, []byte("volume=10"), []byte("volume=NaN")))
	f.Add(resizedChip(f, orig, 4000))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := biocoder.Load(bytes.NewReader(data))
		if err != nil {
			return // not a decodable executable; nothing to verify
		}
		unit := &verify.Unit{Exec: prog.Executable}
		rep1 := verify.Run(unit)
		rep2 := verify.Run(unit)
		// Wall-clock pass timings differ between runs by nature; the
		// determinism contract covers the diagnostics.
		rep1.PassTimes, rep2.PassTimes = nil, nil
		if !reflect.DeepEqual(rep1, rep2) {
			t.Fatalf("verification is nondeterministic:\n--- first\n%s--- second\n%s", rep1, rep2)
		}
		// A decoded executable passed codegen's own Check on the way in;
		// the bundled seeds must also satisfy the stronger verifier.
		for _, d := range rep1.Diags {
			t.Logf("diag: %s", d)
		}
	})
}

// stretchedCycles is the cycle count stretchedPCR declares.
const stretchedCycles = 10_000_000

// stretchedPCR returns the PCR assay's saved executable and a copy whose
// first non-empty block declares stretchedCycles cycles, with the track
// that lasted to the block's old end stretched over them by one run-length
// token: a few bytes more of file, thousands of times the cycles.
func stretchedPCR(tb testing.TB) (orig, stretched []byte) {
	tb.Helper()
	prog, err := biocoder.Compile(assays.PCR().Build(), biocoder.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	old := 0
	for i, l := range lines {
		f := strings.Fields(l)
		switch {
		case old == 0 && len(f) == 2 && f[0] == "cycles" && f[1] != "0":
			old, _ = strconv.Atoi(f[1])
			lines[i] = fmt.Sprintf("cycles %d", stretchedCycles)
		case old > 0 && len(f) > 3 && f[0] == "track" && trackEnd(tb, f) == old:
			last := f[len(f)-1]
			if x := strings.IndexByte(last, 'x'); x >= 0 {
				last = last[:x]
			}
			lines[i] = fmt.Sprintf("%s %sx%d", l, last, stretchedCycles-old)
			return buf.Bytes(), []byte(strings.Join(lines, "\n"))
		}
	}
	tb.Fatal("no track lasts to the end of the first non-empty block")
	return nil, nil
}

// trackEnd returns the cycle after the track of a "track" line's fields.
func trackEnd(tb testing.TB, f []string) int {
	end, err := strconv.Atoi(f[2])
	if err != nil {
		tb.Fatal(err)
	}
	for _, tok := range f[3:] {
		n := 1
		if x := strings.IndexByte(tok, 'x'); x >= 0 {
			if n, err = strconv.Atoi(tok[x+1:]); err != nil {
				tb.Fatal(err)
			}
		}
		end += n
	}
	return end
}

// loadBytes returns the bytes Load allocates for data, averaged over three
// calls after a warm-up.
func loadBytes(t *testing.T, data []byte) float64 {
	t.Helper()
	load := func() {
		if _, err := biocoder.Load(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 3
}

// loadByteSlack is how many more bytes Load may allocate for the stretched
// PCR executable than for the original. Decoding it once took 383 MiB:
// one frame slot and one track cell per declared cycle.
const loadByteSlack = 64 << 10

// Decode's memory follows the file, not the cycle counts it declares.
func TestLoadBoundedByFile(t *testing.T) {
	orig, stretched := stretchedPCR(t)
	a, b := loadBytes(t, orig), loadBytes(t, stretched)
	if b > a+loadByteSlack {
		t.Errorf("Load allocates %.0f bytes for PCR and %.0f declaring %d cycles (slack %d)", a, b, stretchedCycles, loadByteSlack)
	}
}

// resizedChip returns a saved executable with its chip declared side x side
// electrodes and its east ports moved to the new east edge, so that the
// chip is valid in all but its size.
func resizedChip(tb testing.TB, exe []byte, side int) []byte {
	tb.Helper()
	lines := strings.Split(string(exe), "\n")
	resized := false
	for i, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 3 && f[0] == "chip":
			lines[i] = fmt.Sprintf("chip %d %d", side, side)
			resized = true
		case len(f) >= 5 && (f[0] == "input" || f[0] == "output") && f[2] == "east":
			f[3] = strconv.Itoa(side - 1)
			lines[i] = strings.Join(f, " ")
		}
	}
	if !resized {
		tb.Fatal("no chip line")
	}
	return []byte(strings.Join(lines, "\n"))
}

// A chip of more than arch.MaxElectrodes electrodes is refused before
// anything is sized by it. PCR's saved executable declared on a 257x257,
// 1000x1000 or 4000x4000 chip fails to load, allocating less than loading
// PCR itself; before the bound the last two allocated 69 and 267 MB of
// topology slots. At 256x256 it still loads.
func TestLoadRefusesOversizedChip(t *testing.T) {
	orig, _ := stretchedPCR(t)
	if _, err := biocoder.Load(bytes.NewReader(resizedChip(t, orig, 256))); err != nil {
		t.Fatalf("PCR on a 256x256 chip: %v", err)
	}
	full := loadBytes(t, orig)
	for _, side := range []int{257, 1000, 4000} {
		data := resizedChip(t, orig, side)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := biocoder.Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("PCR on a %dx%d chip loads", side, side)
		}
		if got := float64(after.TotalAlloc - before.TotalAlloc); got > full {
			t.Errorf("refusing a %dx%d chip allocates %.0f bytes, loading PCR %.0f", side, side, got, full)
		}
	}
}

// corruptLine rewrites the first line of an encoded executable that starts
// with prefix.
func corruptLine(f *testing.F, exe, prefix string, repl func(string) string) []byte {
	f.Helper()
	lines := strings.Split(exe, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			lines[i] = repl(l)
			return []byte(strings.Join(lines, "\n"))
		}
	}
	f.Fatalf("no %q line to corrupt", prefix)
	return nil
}
