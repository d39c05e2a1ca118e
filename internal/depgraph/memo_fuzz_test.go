package depgraph_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/depgraph"
	"biocoder/internal/store"
)

// corpusMemoEntry compiles the PCR assay through a memo over a store and
// returns the largest payload it wrote.
func corpusMemoEntry(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	disk, err := store.Open(dir, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := biocoder.Compile(assays.PCR().Build(), biocoder.Options{Memo: depgraph.NewMemo(disk)}); err != nil {
		tb.Fatal(err)
	}
	var best []byte
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// An entry file ends in its payload, whose length the header's
		// third field gives.
		var tag, sum string
		var keyLen, payLen int
		if _, err := fmt.Sscanf(string(data), "%s %d %d %s", &tag, &keyLen, &payLen, &sum); err != nil {
			return err
		}
		if payload := data[len(data)-payLen:]; len(payload) > len(best) {
			best = payload
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if best == nil {
		tb.Fatal("compiling PCR persisted no memo entry")
	}
	return best
}

// FuzzMemoDiskEntry feeds arbitrary bytes to the memo's disk decoder, the
// reader of entries another process wrote. Any input decodes to an error
// or to an entry whose sequence has the shape Decode guarantees for
// executables; an error is a miss in the memo's disk lookup that
// quarantines the entry, never a panic; a decoded entry survives a second
// round trip unchanged (gob's map order makes the bytes vary, so the
// entries are compared).
func FuzzMemoDiskEntry(f *testing.F) {
	blob := corpusMemoEntry(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(bytes.Replace(blob, []byte("bfmemo2"), []byte("bfmemo1"), 1))
	disk, err := store.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := depgraph.DecodeMemoEntry(blob)
		if err := disk.Put("fp", blob); err != nil {
			t.Fatal(err)
		}
		corrupt := disk.Stats().Corrupt
		if hit := depgraph.DiskLookup(disk, "fp"); hit != (err == nil) {
			t.Fatalf("disk lookup hit=%v, decode error %v", hit, err)
		}
		if err != nil {
			if n := disk.Stats().Corrupt - corrupt; n != 1 {
				t.Fatalf("undecodable entry raised Corrupt by %d, want 1", n)
			}
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
