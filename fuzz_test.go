package biocoder_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"biocoder"
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
