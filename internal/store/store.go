// Package store is a content-addressed on-disk artifact store, and the
// two-tier Cache (an LRU in memory over a Store) that bfd's compile
// responses and the per-block synthesis memo are both instances of, so a
// restarted daemon starts warm instead of cold.
//
// Keys are opaque strings chosen by the caller; both users key on content
// hashes that already embed biocoder.Version, so a stored artifact can
// never be served stale — a compiler upgrade simply misses. Durability is
// best-effort by design: every failure mode (unreadable file, truncated
// write, flipped bit) degrades to a miss, never to a wrong answer.
//
// Layout: <dir>/<aa>/<name>.art where name = hex(SHA-256(key)) and aa is
// its first byte, plus <dir>/quarantine/ for corrupt entries. Each file
// carries a one-line header (format tag, key length, payload length,
// payload SHA-256) followed by the key and the payload. Writes go to a
// temp file in the same directory and are renamed into place, so readers
// — including other processes sharing the directory — never observe a
// partial entry. Reads check the header's lengths against the file size
// before reading, re-hash the payload and compare against the header; a
// mismatch moves the file into quarantine/ (kept for post-mortems, out of
// the addressable namespace) and reports a miss. A byte budget is
// enforced after writes by deleting the oldest entries (mtime order).
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// magic tags the on-disk entry format; bump it when the header changes so
// old files quarantine instead of misparsing.
const magic = "bfart1"

// quarantineDir collects entries that failed verification.
const quarantineDir = "quarantine"

// Store is one artifact directory. All methods are safe for concurrent
// use; concurrent writers of the same key are harmless (content-addressed
// keys pin the bytes, so last-rename-wins installs identical content).
type Store struct {
	dir    string
	budget int64

	mu      sync.Mutex // serializes size accounting and GC
	bytes   int64
	entries int64

	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	writeErrs   atomic.Int64
	corrupt     atomic.Int64
	quarantined atomic.Int64
	evicted     atomic.Int64
}

// Stats is a point-in-time snapshot of store effectiveness and health.
type Stats struct {
	Hits        int64 // Get calls served from a verified entry
	Misses      int64 // Get calls with no (valid) entry
	Writes      int64 // entries durably installed by Put
	WriteErrors int64 // Put calls that failed (disk full, permissions)
	Corrupt     int64 // entries that failed verification or that the caller could not decode
	Quarantined int64 // corrupt entries successfully moved to quarantine/
	Evicted     int64 // entries deleted by the byte-budget GC
	Entries     int64 // entries currently resident
	Bytes       int64 // bytes currently resident (headers included)
	Budget      int64 // configured byte budget
}

// Open creates (or reopens) the store rooted at dir. budgetBytes bounds
// resident bytes (<= 0 selects 256 MiB). An existing directory is scanned
// so the budget accounts for entries written by earlier processes.
func Open(dir string, budgetBytes int64) (*Store, error) {
	if budgetBytes <= 0 {
		budgetBytes = 256 << 20
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, budget: budgetBytes}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if d != nil && d.IsDir() && d.Name() == quarantineDir && path != dir {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".art") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			s.bytes += info.Size()
			s.entries++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the cumulative counters. Nil-safe.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	bytes, entries := s.bytes, s.entries
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
		Corrupt:     s.corrupt.Load(),
		Quarantined: s.quarantined.Load(),
		Evicted:     s.evicted.Load(),
		Entries:     entries,
		Bytes:       bytes,
		Budget:      s.budget,
	}
}

// path maps a key to its entry file.
func (s *Store) path(key string) string {
	name := hex.EncodeToString(sum256(key))
	return filepath.Join(s.dir, name[:2], name+".art")
}

func sum256(key string) []byte {
	h := sha256.Sum256([]byte(key))
	return h[:]
}

// Put installs payload under key: temp file in the entry's directory, then
// an atomic rename. Nil-safe (a nil store drops the write).
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d %d %s\n", magic, len(key), len(payload), hex.EncodeToString(sum[:]))
	buf.WriteString(key)
	buf.Write(payload)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		s.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	prev, _ := fileSize(path) // 0 when new
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	s.mu.Lock()
	s.bytes += int64(buf.Len()) - prev
	if prev == 0 {
		s.entries++
	}
	overBudget := s.bytes > s.budget
	s.mu.Unlock()
	if overBudget {
		s.gc()
	}
	return nil
}

// Get returns the payload stored under key, re-verified against the
// header's SHA-256. Any defect — missing file, bad header, hash or key
// mismatch — is a miss; defective files are quarantined. Nil-safe.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key)
	f, err := os.Open(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := readEntry(f, key)
	f.Close()
	if err != nil {
		s.misses.Add(1)
		s.quarantine(path)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Quarantine moves the entry under key into quarantine/ and counts it
// corrupt: for a payload that passed the SHA-256 check but that the
// caller cannot decode. Nil-safe.
func (s *Store) Quarantine(key string) {
	if s == nil {
		return
	}
	s.quarantine(s.path(key))
}

// readEntry parses and verifies one entry file against the expected key.
// Only a header in the exact form Put writes is accepted, and its lengths
// must add up to the file's size before anything is allocated by them.
func readEntry(f *os.File, key string) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReader(f)
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	header := string(line)
	var tag, sumHex string
	var keyLen, payLen int64
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), "%s %d %d %s", &tag, &keyLen, &payLen, &sumHex); err != nil {
		return nil, fmt.Errorf("store: bad header: %w", err)
	}
	if header != fmt.Sprintf("%s %d %d %s\n", magic, keyLen, payLen, sumHex) {
		return nil, fmt.Errorf("store: bad header %q", header)
	}
	size := info.Size()
	if keyLen < 0 || payLen < 0 || keyLen > size || payLen > size || int64(len(header))+keyLen+payLen != size {
		return nil, fmt.Errorf("store: header claims %d key and %d payload bytes in a %d-byte file", keyLen, payLen, size)
	}
	storedKey := make([]byte, keyLen)
	if _, err := io.ReadFull(br, storedKey); err != nil {
		return nil, fmt.Errorf("store: reading key: %w", err)
	}
	if string(storedKey) != key {
		return nil, fmt.Errorf("store: key mismatch (SHA-256 filename collision or tamper)")
	}
	payload := make([]byte, payLen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("store: reading payload: %w", err)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("store: payload SHA-256 mismatch")
	}
	return payload, nil
}

// quarantine counts a defective entry and moves it out of the addressable
// namespace, keeping the bytes for post-mortem inspection.
func (s *Store) quarantine(path string) {
	s.corrupt.Add(1)
	size, _ := fileSize(path)
	dest := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dest); err != nil {
		// Another reader may have quarantined it already; else best-effort
		// delete so the corrupt entry can't keep costing misses.
		if os.Remove(path) != nil {
			return
		}
	} else {
		s.quarantined.Add(1)
	}
	s.mu.Lock()
	s.bytes -= size
	s.entries--
	s.mu.Unlock()
}

// gc deletes the oldest entries (mtime order) until the store fits its
// byte budget. Runs opportunistically after writes; holding no lock during
// the directory walk keeps Put cheap for other goroutines.
func (s *Store) gc() {
	type ent struct {
		path  string
		size  int64
		mtime int64
	}
	var all []ent
	var total int64
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if d != nil && d.IsDir() && d.Name() == quarantineDir && path != s.dir {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".art") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		all = append(all, ent{path, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
		return nil
	})
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	removed := int64(0)
	var freed int64
	for _, e := range all {
		if total-freed <= s.budget {
			break
		}
		if os.Remove(e.path) == nil {
			freed += e.size
			removed++
			s.evicted.Add(1)
		}
	}
	s.mu.Lock()
	s.bytes = total - freed
	s.entries = int64(len(all)) - removed
	s.mu.Unlock()
}

func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
