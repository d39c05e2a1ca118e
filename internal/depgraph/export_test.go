package depgraph

import "biocoder/internal/codegen"

// SetTestDestabilize toggles the deliberate canonicalization breaker used
// to prove the BF603 self-check can fire. Test-only.
func SetTestDestabilize(v bool) { testDestabilize = v }

// MemoEntry is a decoded memo disk entry.
type MemoEntry = memoEntry

// DecodeMemoEntry and EncodeMemoEntry expose the memo's disk format.
func DecodeMemoEntry(blob []byte) (*MemoEntry, error) { return decodeMemoEntry(blob) }
func EncodeMemoEntry(e *MemoEntry) ([]byte, error)    { return encodeMemoEntry(e) }

// Seq returns the entry's stored sequence.
func (e *memoEntry) Seq() *codegen.Sequence { return e.seq }

// DiskLookup reports whether a fresh memo answers key from a persister
// holding blob under it.
func DiskLookup(key string, blob []byte) bool {
	p := newMapPersister()
	p.m[key] = blob
	return NewMemo().diskLookup(p, key) != nil
}
