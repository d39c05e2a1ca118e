package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// entry is one cached compile: the canonical JSON response body served to
// every requester of the same key, plus the serialized executable kept
// alongside so /v1/simulate can rehydrate a runnable program without
// re-parsing the response. Entries are immutable after insertion — readers
// share the byte slices and must not modify them.
type entry struct {
	key  string
	body []byte // canonical /v1/compile response body
	exe  []byte // codegen.Encode serialization of the executable
}

func (e *entry) size() int64 { return int64(len(e.body) + len(e.exe)) }

// cacheFormatTag versions the on-disk cache-entry encoding (inside
// internal/store's integrity envelope). Bump on any change to diskEntry.
const cacheFormatTag = "bfdcache1"

// diskEntry is the persisted form of one compile-cache entry.
type diskEntry struct {
	Tag  string
	Key  string
	Body []byte
	Exe  []byte
}

func encodeDiskEntry(e *entry) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&diskEntry{Tag: cacheFormatTag, Key: e.key, Body: e.body, Exe: e.exe})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeDiskEntry(key string, blob []byte) (*entry, error) {
	var d diskEntry
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&d); err != nil {
		return nil, err
	}
	if d.Tag != cacheFormatTag || d.Key != key {
		return nil, fmt.Errorf("disk entry tag/key mismatch")
	}
	return &entry{key: key, body: d.Body, exe: d.Exe}, nil
}
