package biocoder_test

// Acceptance tests for the compile pipeline's fan-out and memo. The central
// claim is byte-identity: whatever combination of Workers and Memo is
// engaged, the serialized executable must equal a one-worker compile's, on
// every assay of the benchmark corpus; and a failing compile reports the
// same error at every worker count.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/depgraph"
)

func saveBytes(t *testing.T, prog *biocoder.Compiled) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := prog.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compileAssay(t *testing.T, a *assays.Assay, opt biocoder.Options) *biocoder.Compiled {
	t.Helper()
	prog, err := biocoder.Compile(a.Build(), opt)
	if err != nil {
		t.Fatalf("compile %s (workers=%d, memo=%v): %v", a.Name, opt.Workers, opt.Memo != nil, err)
	}
	return prog
}

// TestParallelCompileMatchesSerial compiles every corpus assay four ways —
// serial, parallel, parallel+cold memo, parallel+warm memo — and insists on
// byte-identical executables. The warm compile must additionally be served
// entirely from the memo (zero misses): that is the incremental-compilation
// contract at its degenerate best case, an unedited assay.
func TestParallelCompileMatchesSerial(t *testing.T) {
	for _, a := range assays.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			serial := saveBytes(t, compileAssay(t, a, biocoder.Options{}))
			par := saveBytes(t, compileAssay(t, a, biocoder.Options{Workers: 4}))
			if !bytes.Equal(serial, par) {
				t.Fatal("parallel compile (workers=4) diverged from serial output")
			}
			memo := biocoder.NewMemo()
			cold := saveBytes(t, compileAssay(t, a, biocoder.Options{Workers: 4, Memo: memo}))
			if !bytes.Equal(serial, cold) {
				t.Fatal("memoized cold compile diverged from serial output")
			}
			after := memo.Stats()
			if after.Misses == 0 {
				t.Fatal("cold compile hit an empty memo")
			}
			warm := saveBytes(t, compileAssay(t, a, biocoder.Options{Workers: 4, Memo: memo}))
			if !bytes.Equal(serial, warm) {
				t.Fatal("memoized warm compile diverged from serial output")
			}
			ws := memo.Stats()
			if ws.Misses != after.Misses {
				t.Errorf("warm recompile of an unedited assay missed the memo %d times", ws.Misses-after.Misses)
			}
			if ws.Hits <= after.Hits {
				t.Errorf("warm recompile recorded no memo hits (stats %+v)", ws)
			}
		})
	}
}

// incrementalProtocol is the one-block-edit fixture: a branchy protocol
// whose then-branch incubation is the only thing the parameter changes.
func incrementalProtocol(incubate time.Duration) *biocoder.BioSystem {
	bs := biocoder.New()
	sample := bs.NewFluid("Sample", biocoder.Microliters(10))
	reagent := bs.NewFluid("Reagent", biocoder.Microliters(10))
	c := bs.NewContainer("c")
	d := bs.NewContainer("d")
	bs.MeasureFluid(sample, c)
	bs.Detect(c, "level", 2*time.Second)
	bs.If("level", biocoder.GreaterThan, 0.5)
	bs.MeasureFluid(reagent, d)
	bs.Vortex(d, incubate)
	bs.Drain(d, "")
	bs.EndIf()
	bs.Vortex(c, 3*time.Second)
	bs.Drain(c, "")
	return bs
}

// TestMemoRecompilesOnlyEditedBlocks proves the incremental contract with
// the memo counters: editing one block of an assay and recompiling against
// the warm memo re-synthesizes only the changed block — every untouched
// block is served from the cache even though the edit shifted the SSI
// version numbers and instruction IDs of everything after it.
func TestMemoRecompilesOnlyEditedBlocks(t *testing.T) {
	memo := biocoder.NewMemo()
	v1, err := biocoder.Compile(incrementalProtocol(10*time.Second), biocoder.Options{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	blocks := len(v1.Graph.Blocks)
	if blocks < 3 {
		t.Fatalf("fixture lowered to %d blocks; the test needs a branchy CFG", blocks)
	}
	cold := memo.Stats()

	v2, err := biocoder.Compile(incrementalProtocol(20*time.Second), biocoder.Options{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	warm := memo.Stats()
	misses := warm.Misses - cold.Misses
	hits := warm.Hits - cold.Hits
	if misses < 1 {
		t.Fatalf("edited block was served from the memo (misses=%d): fingerprints failed to distinguish the edit", misses)
	}
	if misses >= int64(blocks) {
		t.Fatalf("one-block edit recompiled all %d blocks (misses=%d): no incremental reuse", blocks, misses)
	}
	if hits < int64(blocks)-misses {
		t.Errorf("one-block edit reused %d of %d blocks, want %d (misses=%d, rejected=%d)",
			hits, blocks, int64(blocks)-misses, misses, warm.Rejected-cold.Rejected)
	}

	// The memoized artifacts must serialize exactly like a from-scratch
	// serial compile of the edited assay.
	fresh, err := biocoder.Compile(incrementalProtocol(20*time.Second), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, v2), saveBytes(t, fresh)) {
		t.Fatal("memoized compile of the edited assay diverged from a fresh serial compile")
	}
}

// TestFingerprintVersionKeyed is the compiler-version audit: the fingerprint
// key constructor takes the version as a required positional argument (so
// leaving it out does not compile at the call site), rejects an empty
// version at runtime, and two keys differing only in version must never
// share a block fingerprint — a memo surviving a compiler upgrade must go
// fully cold rather than serve stale synthesis results.
func TestFingerprintVersionKeyed(t *testing.T) {
	if _, err := depgraph.NewKey("", "chip", "options"); err == nil {
		t.Fatal("NewKey accepted an empty compiler version")
	}

	a := assays.ByName("Probabilistic PCR")
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := biocoder.Options{}.CanonicalText()
	cur, err := depgraph.KeyFor(biocoder.Version, prog.Chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	next, err := depgraph.KeyFor(biocoder.Version+"-next", prog.Chip, opts)
	if err != nil {
		t.Fatal(err)
	}
	live := cfg.ComputeLiveness(prog.Graph)
	for _, b := range prog.Graph.Blocks {
		f1, err := depgraph.Fingerprint(cur, b, live.Out[b.ID])
		if err != nil {
			t.Fatal(err)
		}
		f2, err := depgraph.Fingerprint(next, b, live.Out[b.ID])
		if err != nil {
			t.Fatal(err)
		}
		if f1 == f2 {
			t.Fatalf("block %s fingerprints identically under two compiler versions", b.Label)
		}
	}
}

// TestCompileErrorIndependentOfWorkers compiles PCR around a fault set the
// chip cannot absorb, so that several blocks fail. The error must be the one
// a single worker meets, block b1's, at every worker count and in every run.
func TestCompileErrorIndependentOfWorkers(t *testing.T) {
	faults := []biocoder.Point{{X: 6, Y: 10}, {X: 16, Y: 13}, {X: 15, Y: 7}, {X: 4, Y: 0},
		{X: 4, Y: 12}, {X: 8, Y: 12}, {X: 9, Y: 2}, {X: 6, Y: 5}, {X: 8, Y: 9}, {X: 17, Y: 3},
		{X: 7, Y: 12}, {X: 13, Y: 14}, {X: 0, Y: 5}, {X: 4, Y: 14}, {X: 6, Y: 10}, {X: 6, Y: 7}}
	a := assays.ByName("PCR")
	compileErr := func(workers int) string {
		_, err := biocoder.Compile(a.Build(), biocoder.Options{FaultyElectrodes: faults, Workers: workers})
		if err == nil {
			t.Fatalf("PCR compiled around %d faults at %d worker(s)", len(faults), workers)
		}
		return err.Error()
	}
	want := compileErr(1)
	if !strings.Contains(want, "block b1:") {
		t.Fatalf("one worker reports %q, want block b1's error", want)
	}
	for run := 0; run < 100; run++ {
		for _, workers := range []int{1, 4} {
			if got := compileErr(workers); got != want {
				t.Fatalf("run %d at %d worker(s): %q, want %q", run, workers, got, want)
			}
		}
	}
}
