package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biocoder/internal/obs"
)

// bytesCache weighs each value by its length and stores it verbatim on
// disk behind a one-byte tag, so a payload without the tag is undecodable.
func bytesCache(disk *Store, budget int64) *Cache[[]byte] {
	return NewCache(disk, budget,
		func(v []byte) int64 { return int64(len(v)) },
		func(v []byte) ([]byte, error) { return append([]byte{'v'}, v...), nil },
		func(_ string, p []byte) ([]byte, error) {
			if len(p) == 0 || p[0] != 'v' {
				return nil, errors.New("untagged payload")
			}
			return p[1:], nil
		})
}

func TestLRUCacheEviction(t *testing.T) {
	c := bytesCache(nil, 100)
	mk := func(n int) []byte { return bytes.Repeat([]byte("b"), n) }
	c.Put("a", mk(40))
	c.Put("b", mk(40))
	if _, tier := c.Get(nil, "a"); tier != Memory {
		t.Fatal("a evicted under budget")
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", mk(40))
	if _, tier := c.Get(nil, "b"); tier != Miss {
		t.Error("b not evicted")
	}
	if _, tier := c.Get(nil, "a"); tier != Memory {
		t.Error("a (recently used) evicted")
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 80 || st.Evicted != 1 {
		t.Errorf("stats = %+v, want 2 entries, 80 bytes, 1 evicted", st)
	}
	// Oversized values are not kept in memory.
	c.Put("huge", mk(200))
	if _, tier := c.Get(nil, "huge"); tier != Miss {
		t.Error("oversized value was cached")
	}
	// A cache without a budget keeps nothing in memory.
	off := bytesCache(nil, -1)
	off.Put("x", mk(1))
	if _, tier := off.Get(nil, "x"); tier != Miss {
		t.Error("disabled cache stored a value")
	}
}

// The first value stored under a key is kept in memory and on disk, and
// only an insertion writes through; a value too heavy for memory still
// reaches the disk, and a fresh cache over the same store reads both back.
func TestCacheDiskTier(t *testing.T) {
	disk, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := bytesCache(disk, 10)
	c.Put("k", []byte("first"))
	c.Put("k", []byte("second"))
	if v, tier := c.Get(nil, "k"); tier != Memory || string(v) != "first" {
		t.Fatalf("Get = %q from tier %d, want the first value from memory", v, tier)
	}
	c.Put("heavy", []byte("too heavy for ten"))
	if st := disk.Stats(); st.Writes != 2 {
		t.Fatalf("disk writes = %d, want 2 (one per insertion plus the heavy value)", st.Writes)
	}

	warm := bytesCache(disk, 10)
	if v, tier := warm.Get(nil, "k"); tier != Disk || string(v) != "first" {
		t.Fatalf("restarted Get = %q from tier %d, want the first value from disk", v, tier)
	}
	if _, tier := warm.Get(nil, "k"); tier != Memory {
		t.Error("disk hit was not promoted")
	}
	if v, tier := warm.Get(nil, "heavy"); tier != Disk || string(v) != "too heavy for ten" {
		t.Errorf("heavy Get = %q from tier %d, want it from disk", v, tier)
	}
	if st := warm.Stats(); st.DiskHits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 disk hits, 1 entry", st)
	}
}

// A payload that passes the SHA-256 check but does not decode is a miss,
// counted corrupt and moved out of the store's namespace.
func TestCacheQuarantinesUndecodable(t *testing.T) {
	disk, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put("k", []byte("no tag")); err != nil {
		t.Fatal(err)
	}
	c := bytesCache(disk, 100)
	if _, tier := c.Get(nil, "k"); tier != Miss {
		t.Fatal("undecodable payload served")
	}
	if st := disk.Stats(); st.Corrupt != 1 || st.Quarantined != 1 || st.Entries != 0 {
		t.Errorf("store stats = %+v, want 1 corrupt, 1 quarantined, 0 entries", st)
	}
	if _, err := os.Stat(disk.path("k")); !os.IsNotExist(err) {
		t.Error("undecodable entry still addressable")
	}
	if st := c.Stats(); st.DiskHits != 0 {
		t.Errorf("cache stats = %+v, want no disk hit", st)
	}
}

// A memory miss over a disk opens a disk.lookup span; a memory hit does not.
func TestCacheTracesDiskLookup(t *testing.T) {
	disk, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bytesCache(disk, 100).Put("k", []byte("v"))
	c := bytesCache(disk, 100)
	tr := obs.NewTracer()
	c.Get(tr, "k")
	c.Get(tr, "k")
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "disk.lookup" {
		t.Fatalf("spans = %+v, want one disk.lookup", roots)
	}
}

// Goroutines racing to store and read the same keys, in a memory tier too
// small for all of them, always read a value stored under the key.
func TestCacheConcurrent(t *testing.T) {
	disk, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := bytesCache(disk, 16) // room for two of the four values
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", i%4)
				c.Put(key, []byte(fmt.Sprintf("%s-%d", key, g)))
				v, tier := c.Get(nil, key)
				if tier == Miss || !strings.HasPrefix(string(v), key+"-") {
					t.Errorf("Get(%s) = %q from tier %d", key, v, tier)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 2 || st.Bytes > 16 {
		t.Errorf("stats = %+v, over the budget of 16", st)
	}
	if st := disk.Stats(); st.Corrupt != 0 {
		t.Errorf("store stats = %+v, want no corruption", st)
	}
}

// followers returns how many callers wait on g's flight under key.
func followers[V any](g *Flight[V], key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// Goroutines that miss a key only the disk holds, all at once, share one
// store read, one decode and one disk hit. The decoder holds the leader's
// read open until every other goroutine waits on it.
func TestCacheOneDiskReadPerKey(t *testing.T) {
	disk, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bytesCache(disk, 100).Put("k", []byte("value"))

	const n = 8
	started, release := make(chan struct{}), make(chan struct{})
	var decodes atomic.Int64
	c := NewCache(disk, 100, func(v []byte) int64 { return int64(len(v)) }, nil,
		func(_ string, p []byte) ([]byte, error) {
			if decodes.Add(1) == 1 {
				close(started)
			}
			<-release
			return p[1:], nil
		})
	var wg sync.WaitGroup
	tiers := make([]Tier, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], tiers[i] = c.Get(nil, "k")
		}(i)
	}
	<-started
	for followers(&c.reads, "k") < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := range tiers {
		if tiers[i] != Disk || string(vals[i]) != "value" {
			t.Errorf("Get %d = %q from tier %d, want the value from disk", i, vals[i], tiers[i])
		}
	}
	if got := decodes.Load(); got != 1 {
		t.Errorf("decodes = %d, want 1", got)
	}
	if st := disk.Stats(); st.Hits != 1 {
		t.Errorf("store reads = %d, want 1", st.Hits)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 disk hit and 1 entry", st)
	}
}

// A follower whose context ends stops waiting; a leader that panics leaves
// its followers ErrFlightAborted.
func TestFlightCancelAndPanic(t *testing.T) {
	var g Flight[int]
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("leader fails")
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, shared, err := g.Do(ctx, "k", func() (int, error) { return 1, nil }); !shared || err != context.Canceled {
		t.Errorf("canceled follower: shared %t, err %v, want a shared context.Canceled", shared, err)
	}
	errc := make(chan error)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		errc <- err
	}()
	for followers(&g, "k") < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if err := <-errc; !errors.Is(err, ErrFlightAborted) {
		t.Errorf("follower of a panicking leader: err %v, want ErrFlightAborted", err)
	}
	if v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || shared || err != nil {
		t.Errorf("next flight = %d, %t, %v, want a fresh leader's 7", v, shared, err)
	}
}
