package depgraph

// White-box tests of the memo's disk tier over a real store: write-through
// on Store, fall-back on in-memory miss, promotion into memory, and
// quarantine of undecodable entries.

import (
	"reflect"
	"testing"

	"biocoder/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	disk, err := store.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

func TestMemoPersistRoundTrip(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	disk := openStore(t)

	warm := NewMemo(disk)
	bs, bp, bc := fakeArtifacts(b, lo)
	warm.Store(fp, b, lo, bs, bp, bc)
	warm.Store(fp, b, lo, bs, bp, bc) // resident: kept, not written again
	if st := disk.Stats(); st.Writes != 1 {
		t.Fatalf("disk writes = %d, want 1 (write-through on the first Store only)", st.Writes)
	}

	// A fresh memo (simulating a restarted daemon) must answer from disk,
	// including for an order-preserving renaming of the block.
	cold := NewMemo(disk)
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
	reads := func() int64 { st := disk.Stats(); return st.Hits + st.Misses }
	before := reads()
	if _, _, _, ok := cold.Lookup(rfp, rb, rlo); !ok {
		t.Fatal("second cold lookup missed")
	}
	if n := reads() - before; n != 0 {
		t.Errorf("second lookup went back to disk (%d extra reads)", n)
	}
}

func TestMemoPersistEncodeDecodeIdentity(t *testing.T) {
	b, lo := testBlock()
	bs, bp, bc := fakeArtifacts(b, lo)
	m := NewMemo(nil)
	k := testKey(t)
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	m.Store(fp, b, lo, bs, bp, bc)
	e, _ := m.cache.Get(nil, fp)

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
	disk := openStore(t)
	if err := disk.Put(fp, []byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}

	m := NewMemo(disk)
	if _, _, _, ok := m.Lookup(fp, b, lo); ok {
		t.Fatal("garbage blob produced a hit")
	}
	if st := m.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want miss without disk hit", st)
	}
	// Intact but undecodable: counted corrupt and moved out of the way.
	if st := disk.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("store stats = %+v, want 1 corrupt / 1 quarantined", st)
	}
	// A valid store under the same fingerprint must recover, on disk too.
	bs, bp, bc := fakeArtifacts(b, lo)
	m.Store(fp, b, lo, bs, bp, bc)
	if _, _, _, ok := m.Lookup(fp, b, lo); !ok {
		t.Fatal("store after garbage blob did not recover")
	}
	if _, _, _, ok := NewMemo(disk).Lookup(fp, b, lo); !ok {
		t.Fatal("store after garbage blob did not reach the disk")
	}
}

func TestMemoPersistNilSafe(t *testing.T) {
	var m *Memo
	b, lo := testBlock()
	bs, bp, bc := fakeArtifacts(b, lo)
	m.Store("fp", b, lo, bs, bp, bc) // must not panic
	if _, _, _, ok := m.Lookup("fp", b, lo); ok {
		t.Fatal("nil memo hit")
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("nil memo stats = %+v", st)
	}
}
