package biocoder_test

// Goroutine-safety tests for the compiler entry points. The bfd daemon
// compiles many protocols in parallel from one process, so the whole
// pipeline must be free of shared mutable state: this file compiles the
// entire benchmark corpus concurrently (several goroutines per assay,
// different assays interleaved) and asserts that every run succeeds with
// byte-identical serialized output. CI runs it under the race detector.
//
// It also covers Options.Context: compilation and simulation must abort
// promptly — surfacing the context's error — when canceled.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"biocoder"
	"biocoder/internal/assays"
)

// TestConcurrentCompileCorpus compiles every benchmark assay from several
// goroutines at once. Any data race in sched/place/route/codegen package
// state shows up under -race; any nondeterminism shows up as divergent
// serialized executables.
func TestConcurrentCompileCorpus(t *testing.T) {
	const perAssay = 3
	for _, a := range assays.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			outs := make([][]byte, perAssay)
			errs := make([]error, perAssay)
			for i := 0; i < perAssay; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					g, err := a.Build().Build()
					if err != nil {
						errs[i] = err
						return
					}
					prog, err := biocoder.CompileGraphOptions(g, biocoder.DefaultChip(), biocoder.Options{})
					if err != nil {
						errs[i] = err
						return
					}
					var buf bytes.Buffer
					if err := prog.Save(&buf); err != nil {
						errs[i] = err
						return
					}
					outs[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("concurrent compile %d: %v", i, err)
				}
			}
			for i := 1; i < perAssay; i++ {
				if !bytes.Equal(outs[0], outs[i]) {
					t.Fatalf("concurrent compile %d produced different output than compile 0", i)
				}
			}
		})
	}
}

// TestConcurrentParallelCompileCorpus is TestConcurrentCompileCorpus with
// the pipeline's fan-out and memo engaged: several goroutines per assay, each
// compiling with workers>1 against one process-wide shared memo,
// interleaved across assays. Under -race this holds both the worker pool
// and the memo's internal synchronization; the byte-comparison against a
// one-worker reference holds the output contract — parallel, memoized
// compilation must be indistinguishable from a plain compile.
func TestConcurrentParallelCompileCorpus(t *testing.T) {
	const perAssay = 3
	memo := biocoder.NewMemo()
	for _, a := range assays.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			g, err := a.Build().Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := biocoder.CompileGraphOptions(g, biocoder.DefaultChip(), biocoder.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := ref.Save(&want); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			outs := make([][]byte, perAssay)
			errs := make([]error, perAssay)
			for i := 0; i < perAssay; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					g, err := a.Build().Build()
					if err != nil {
						errs[i] = err
						return
					}
					prog, err := biocoder.CompileGraphOptions(g, biocoder.DefaultChip(),
						biocoder.Options{Workers: 4, Memo: memo})
					if err != nil {
						errs[i] = err
						return
					}
					var buf bytes.Buffer
					if err := prog.Save(&buf); err != nil {
						errs[i] = err
						return
					}
					outs[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("concurrent parallel compile %d: %v", i, err)
				}
			}
			for i := 0; i < perAssay; i++ {
				if !bytes.Equal(want.Bytes(), outs[i]) {
					t.Fatalf("parallel+memo compile %d diverged from the serial reference", i)
				}
			}
		})
	}
}

func TestCompileContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := assays.ByName("Probabilistic PCR")
	g, err := a.Build().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = biocoder.CompileGraphOptions(g, biocoder.DefaultChip(), biocoder.Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("compile with canceled context: err = %v, want context.Canceled", err)
	}
}

func TestCompileContextDeadline(t *testing.T) {
	// A deadline in the past must abort at one of the in-pipeline
	// checkpoints, not just the entry check: warm past the entry by
	// canceling after compilation starts.
	a := assays.ByName("PCR w/droplet replenishment")
	g, err := a.Build().Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	_, err = biocoder.CompileGraphOptions(g, biocoder.DefaultChip(), biocoder.Options{Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("compile past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunContextCanceled(t *testing.T) {
	a := assays.ByName("Probabilistic PCR")
	g, err := a.Build().Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := biocoder.CompileGraphOptions(g, biocoder.DefaultChip(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = prog.Run(biocoder.RunOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run with canceled context: err = %v, want context.Canceled", err)
	}
}
