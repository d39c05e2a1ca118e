package depgraph

// White-box tests of the memo's disk layer: write-through on Store,
// fall-back on in-memory miss, promotion into the in-memory map, and
// graceful degradation on undecodable blobs.

import (
	"reflect"
	"sync"
	"testing"
)

// mapPersister is an in-memory Persister for tests.
type mapPersister struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
}

func newMapPersister() *mapPersister { return &mapPersister{m: map[string][]byte{}} }

func (p *mapPersister) Get(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	blob, ok := p.m[key]
	return blob, ok
}

func (p *mapPersister) Put(key string, blob []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m[key] = append([]byte(nil), blob...)
	return nil
}

func TestMemoPersistRoundTrip(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	p := newMapPersister()

	warm := NewMemo()
	warm.SetPersist(p)
	bs, bp, bc := fakeArtifacts(b, lo)
	warm.Store(fp, b, lo, bs, bp, bc)
	if len(p.m) != 1 {
		t.Fatalf("Store did not write through: %d blobs", len(p.m))
	}

	// A fresh memo (simulating a restarted daemon) must answer from disk,
	// including for an order-preserving renaming of the block.
	cold := NewMemo()
	cold.SetPersist(p)
	rb, rlo := renameBlock(b, lo, func(v int) int { return v + 7 }, 30, false)
	rfp, err := Fingerprint(k, rb, rlo)
	if err != nil {
		t.Fatal(err)
	}
	if rfp != fp {
		t.Fatal("renaming moved the fingerprint; disk path cannot be exercised")
	}
	nbs, nbp, nbc, ok := cold.Lookup(rfp, rb, rlo)
	if !ok {
		t.Fatalf("cold lookup missed: %+v", cold.Stats())
	}
	if st := cold.Stats(); st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit / 1 hit", st)
	}
	if nbs.Length != bs.Length || len(nbs.Items) != len(bs.Items) {
		t.Fatalf("decoded schedule shape differs: %+v vs %+v", nbs, bs)
	}
	for i, it := range nbs.Items {
		if it.Instr != rb.Instrs[i] {
			t.Errorf("item %d not retargeted to the requesting block", i)
		}
		if nbp.Assign[it] != bp.Assign[bs.Items[i]] {
			t.Errorf("item %d lost its placement through the wire", i)
		}
	}
	if nbc.Seq.NumCycles != bc.Seq.NumCycles || len(nbc.Seq.Runs) != len(bc.Seq.Runs) {
		t.Fatalf("decoded sequence shape differs")
	}
	if nbc.Seq.Events[0].InstrID != rb.Instrs[0].ID {
		t.Errorf("event InstrID not retargeted after decode: got %d", nbc.Seq.Events[0].InstrID)
	}
	for f := range rlo {
		if _, ok := nbc.Exit[f]; !ok {
			t.Errorf("exit contract for %s lost through the wire", f)
		}
	}

	// The decoded entry must be promoted: a second lookup stays in memory.
	gets := p.gets
	if _, _, _, ok := cold.Lookup(rfp, rb, rlo); !ok {
		t.Fatal("second cold lookup missed")
	}
	if p.gets != gets {
		t.Errorf("second lookup went back to disk (%d extra gets)", p.gets-gets)
	}
}

func TestMemoPersistEncodeDecodeIdentity(t *testing.T) {
	b, lo := testBlock()
	bs, bp, bc := fakeArtifacts(b, lo)
	m := NewMemo()
	k := testKey(t)
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	m.Store(fp, b, lo, bs, bp, bc)
	m.mu.Lock()
	e := m.entries[fp]
	m.mu.Unlock()

	blob, err := encodeMemoEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeMemoEntry(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.sigs) != len(e.sigs) || len(d.items) != len(e.items) || d.length != e.length {
		t.Fatalf("decoded entry shape differs: %+v vs %+v", d, e)
	}
	for i := range e.sigs {
		if d.sigs[i].id != e.sigs[i].id || d.sigs[i].hash != e.sigs[i].hash {
			t.Errorf("sig %d differs through the wire", i)
		}
	}
	if !reflect.DeepEqual(d.seq.Runs, e.seq.Runs) {
		t.Error("runs differ through the wire")
	}
	if len(d.entry) != len(e.entry) || len(d.exit) != len(e.exit) {
		t.Error("entry/exit contracts differ through the wire")
	}
}

func TestMemoPersistRejectsGarbage(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	p := newMapPersister()
	p.m[fp] = []byte("not a gob stream")

	m := NewMemo()
	m.SetPersist(p)
	if _, _, _, ok := m.Lookup(fp, b, lo); ok {
		t.Fatal("garbage blob produced a hit")
	}
	if st := m.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want miss without disk hit", st)
	}
	// A valid store under the same fingerprint must recover.
	bs, bp, bc := fakeArtifacts(b, lo)
	m.Store(fp, b, lo, bs, bp, bc)
	if _, _, _, ok := m.Lookup(fp, b, lo); !ok {
		t.Fatal("store after garbage blob did not recover")
	}
}

func TestMemoPersistNilSafe(t *testing.T) {
	var m *Memo
	m.SetPersist(newMapPersister()) // must not panic
	b, lo := testBlock()
	bs, bp, bc := fakeArtifacts(b, lo)
	m.Store("fp", b, lo, bs, bp, bc)
	if _, _, _, ok := m.Lookup("fp", b, lo); ok {
		t.Fatal("nil memo hit")
	}
}
