package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello, artifact")
	if err := s.Put("key-1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("key-1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get("key-2"); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > 1024 {
		t.Fatalf("implausible resident bytes %d", st.Bytes)
	}
}

func TestEmptyPayloadAndBinaryKeys(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := "bin\x00\nkey with spaces\xff"
	if err := s.Put(key, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || len(got) != 0 {
		t.Fatalf("Get = %q, %v; want empty, true", got, ok)
	}
}

func TestReopenFindsEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("persist-me", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	wantBytes := s1.Stats().Bytes

	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.Entries != 1 || got.Bytes != wantBytes {
		t.Fatalf("reopened stats = %+v, want 1 entry / %d bytes", got, wantBytes)
	}
	got, ok := s2.Get("persist-me")
	if !ok || string(got) != "payload" {
		t.Fatalf("Get after reopen = %q, %v", got, ok)
	}
}

// entryFile locates the single .art file under dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".art") {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatal("no entry file on disk")
	}
	return found
}

func TestCorruptPayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key", []byte("pristine payload bytes")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("key"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt / 1 quarantined", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still addressable")
	}
	qdir := filepath.Join(dir, quarantineDir)
	ents, err := os.ReadDir(qdir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(ents), err)
	}
	// Corruption must not be sticky: a rewrite serves again.
	if err := s.Put("key", []byte("pristine payload bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key"); !ok {
		t.Fatal("rewrite after quarantine still misses")
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key", []byte("a payload that will be cut short")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}
}

func TestGCRespectsByteBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
		// mtime granularity on some filesystems is coarse; spread writes
		// so eviction order is deterministic.
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("resident %d bytes over budget %d", st.Bytes, st.Budget)
	}
	if st.Evicted == 0 {
		t.Fatal("nothing evicted despite over-budget writes")
	}
	// The newest entry must have survived; the oldest must be gone.
	if _, ok := s.Get("key-7"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := s.Get("key-0"); ok {
		t.Fatal("oldest entry survived GC")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i%4)
			payload := []byte(fmt.Sprintf("payload-%d", i%4))
			for j := 0; j < 50; j++ {
				if err := s.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("Get(%s) = %q", key, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent same-key writes produced corruption: %+v", st)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// writeEntryFile installs data as the entry file of key, bypassing Put.
func writeEntryFile(t testing.TB, s *Store, key string, data []byte) string {
	t.Helper()
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A header may claim more key or payload bytes than its file holds; the
// claim is refused before anything is allocated by it.
func TestOversizedHeaderIsMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	path := writeEntryFile(t, s, "k", []byte("bfart1 1073741824 7 00\nkpayload"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := s.Get("k")
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("oversized header served as a hit")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("Get allocated %d bytes for a 31-byte entry", n)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 corrupt / 1 quarantined", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("oversized entry still addressable")
	}
}

// FuzzStoreEntry writes arbitrary bytes as the entry file of a key. Get
// either returns a payload whose canonical entry (header, key, lengths and
// SHA-256 as Put writes them) is exactly the file, or misses with the file
// moved out of its path and Corrupt raised by one.
func FuzzStoreEntry(f *testing.F) {
	const key = "k"
	canonical := func(payload []byte) []byte {
		return fmt.Appendf(nil, "bfart1 %d %d %x\n%s%s", len(key), len(payload), sha256.Sum256(payload), key, payload)
	}
	valid := canonical([]byte("payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("bfart1 1073741824 7 00\nkpayload"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		path := writeEntryFile(t, s, key, data)
		got, ok := s.Get(key)
		if ok {
			if !bytes.Equal(canonical(got), data) {
				t.Fatalf("hit %q from an entry that is not its canonical form", got)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("defective entry left in place")
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Fatalf("stats = %+v, want 1 corrupt", st)
		}
	})
}
