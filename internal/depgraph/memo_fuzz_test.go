package depgraph_test

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/depgraph"
)

// capture is a Persister that keeps every blob written to it.
type capture struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *capture) Get(string) ([]byte, bool) { return nil, false }

func (c *capture) Put(key string, blob []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), blob...)
	return nil
}

// corpusMemoEntry compiles the PCR assay through a persisted memo and
// returns the largest entry it wrote.
func corpusMemoEntry(tb testing.TB) []byte {
	tb.Helper()
	p := &capture{m: map[string][]byte{}}
	memo := biocoder.NewMemo()
	memo.SetPersist(p)
	if _, err := biocoder.Compile(assays.PCR().Build(), biocoder.Options{Memo: memo}); err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 0, len(p.m))
	for k := range p.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var best []byte
	for _, k := range keys {
		if len(p.m[k]) > len(best) {
			best = p.m[k]
		}
	}
	if best == nil {
		tb.Fatal("compiling PCR persisted no memo entry")
	}
	return best
}

// FuzzMemoDiskEntry feeds arbitrary bytes to the memo's disk decoder, the
// reader of entries another process wrote. Any input decodes to an error
// or to an entry whose sequence has the shape Decode guarantees for
// executables; an error is a miss in the memo's disk lookup, never a
// panic; a decoded entry survives a second round trip unchanged (gob's map
// order makes the bytes vary, so the entries are compared).
func FuzzMemoDiskEntry(f *testing.F) {
	blob := corpusMemoEntry(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(bytes.Replace(blob, []byte("bfmemo2"), []byte("bfmemo1"), 1))
	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := depgraph.DecodeMemoEntry(blob)
		if hit := depgraph.DiskLookup("fp", blob); hit != (err == nil) {
			t.Fatalf("disk lookup hit=%v, decode error %v", hit, err)
		}
		if err != nil {
			return
		}
		if err := e.Seq().Validate(); err != nil {
			t.Fatalf("decoded entry carries a malformed sequence: %v", err)
		}
		again, err := depgraph.EncodeMemoEntry(e)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		e2, err := depgraph.DecodeMemoEntry(again)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("entry changed through a second round trip:\n%+v\n%+v", e, e2)
		}
	})
}
