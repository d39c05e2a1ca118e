package depgraph

import (
	"biocoder/internal/codegen"
	"biocoder/internal/store"
)

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

// DiskLookup reports whether a fresh memo over disk answers key from it.
func DiskLookup(disk *store.Store, key string) bool {
	_, tier := NewMemo(disk).cache.Get(nil, key)
	return tier == store.Disk
}
