package store

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"biocoder/internal/obs"
)

// Tier names the tier of a Cache that answered a Get.
type Tier int

const (
	Miss   Tier = iota // neither tier holds the key
	Memory             // the in-memory LRU
	Disk               // the Store, decoded and promoted into memory
)

// Cache is a two-tier cache of decoded values: a least-recently-used set
// in memory, bounded by the summed weight of its values, over an optional
// Store on disk. Get reads the disk on a memory miss and promotes what it
// decodes; Put keeps the first value stored under a key and writes it
// through. A payload that passes the Store's SHA-256 check but that the
// decoder rejects is quarantined like a corrupt one. Goroutines that miss
// one key in memory at the same time share one disk read of it. Values are
// shared by every caller that gets them and must not be modified. Safe for
// concurrent use.
type Cache[V any] struct {
	disk   *Store
	budget int64
	weigh  func(V) int64
	encode func(V) ([]byte, error)
	decode func(key string, payload []byte) (V, error)

	mu      sync.Mutex
	lru     list.List // front = most recently used; values are *cached[V]
	items   map[string]*list.Element
	weight  int64
	evicted int64

	reads    Flight[read[V]]
	diskHits atomic.Int64
}

// read is the outcome of one disk lookup, shared by its flight.
type read[V any] struct {
	val  V
	tier Tier
}

type cached[V any] struct {
	key    string
	val    V
	weight int64
}

// CacheStats is a point-in-time snapshot of a Cache.
type CacheStats struct {
	Entries  int   // values resident in memory
	Bytes    int64 // summed weight of the resident values, in the caller's unit
	Evicted  int64 // values evicted from memory to fit the budget
	DiskHits int64 // memory misses answered by the disk tier
}

// NewCache returns an empty cache over disk (nil keeps values in memory
// only). budget bounds the summed weigh of the values kept in memory
// (<= 0 keeps none, so every Get goes to disk). encode and decode convert
// a value to and from its disk payload; decode gets the key as well, for
// payloads that carry it.
func NewCache[V any](disk *Store, budget int64, weigh func(V) int64,
	encode func(V) ([]byte, error), decode func(key string, payload []byte) (V, error)) *Cache[V] {
	return &Cache[V]{disk: disk, budget: budget, weigh: weigh, encode: encode, decode: decode,
		items: map[string]*list.Element{}}
}

// Get returns the value under key and the tier that held it. A memory
// miss reads the disk inside a "disk.lookup" span of tr (nil-safe); the
// goroutines that miss the key at the same time wait for that one read.
func (c *Cache[V]) Get(tr *obs.Tracer, key string) (V, Tier) {
	if v, ok := c.resident(key); ok {
		return v, Memory
	}
	var zero V
	if c.disk == nil {
		return zero, Miss
	}
	sp := tr.Start("disk.lookup")
	defer sp.End()
	r, _, err := c.reads.Do(context.Background(), key, func() (read[V], error) {
		// A read that finished since the lookup above promoted the value.
		if v, ok := c.resident(key); ok {
			return read[V]{v, Memory}, nil
		}
		payload, ok := c.disk.Get(key)
		if !ok {
			return read[V]{}, nil
		}
		v, err := c.decode(key, payload)
		if err != nil {
			// Intact bytes this build cannot read: a format revision it
			// does not know. Keep them out of every later lookup.
			c.disk.Quarantine(key)
			return read[V]{}, nil
		}
		c.diskHits.Add(1)
		v, _ = c.insert(key, v)
		return read[V]{v, Disk}, nil
	})
	if err != nil {
		return zero, Miss
	}
	return r.val, r.tier
}

// resident returns the value under key from memory, refreshing it.
func (c *Cache[V]) resident(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cached[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores v under key unless a value is already resident there, and
// then writes it through to disk (best-effort: a failed write costs a
// later process a recompute, never a wrong answer; the Store counts it).
// A value too heavy for the memory budget is written through only.
func (c *Cache[V]) Put(key string, v V) {
	if _, dup := c.insert(key, v); dup || c.disk == nil {
		return
	}
	if payload, err := c.encode(v); err == nil {
		c.disk.Put(key, payload)
	}
}

// insert makes v the most recently used value under key, evicting the
// least recently used values past the budget, and returns it. When key
// is resident it refreshes and returns the resident value instead, with
// dup set. A value heavier than the whole budget is not kept.
func (c *Cache[V]) insert(key string, v V) (_ V, dup bool) {
	w := c.weigh(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cached[V]).val, true
	}
	if c.budget <= 0 || w > c.budget {
		return v, false
	}
	c.items[key] = c.lru.PushFront(&cached[V]{key: key, val: v, weight: w})
	c.weight += w
	for c.weight > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*cached[V])
		delete(c.items, old.key)
		c.weight -= old.weight
		c.evicted++
	}
	return v, false
}

// Stats returns the cache's occupancy and lifetime counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.items), Bytes: c.weight, Evicted: c.evicted, DiskHits: c.diskHits.Load()}
}
