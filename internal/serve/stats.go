package serve

import (
	"time"

	"biocoder"
	"biocoder/internal/obs"
)

// Stats is the server's counter block, backed by the process-wide metrics
// registry: every field IS a registry instrument, so /v1/stats and
// GET /metrics read the very same atomics and can never disagree. The
// request path updates these handles directly — a handle operation is one
// atomic update, no registry lookup.
type Stats struct {
	start time.Time

	Requests    *obs.Counter // bfd_requests_total
	Compiles    *obs.Counter // bfd_compiles_total
	CompileErrs *obs.Counter // bfd_compile_errors_total
	Simulates   *obs.Counter // bfd_simulates_total
	CacheHits   *obs.Counter // bfd_cache_hits_total
	CacheMisses *obs.Counter // bfd_cache_misses_total
	DiskHits    *obs.Counter // bfd_disk_hits_total
	Coalesced   *obs.Counter // bfd_coalesced_total
	Rejected    *obs.Counter // bfd_rejected_total
	Panics      *obs.Counter // bfd_panics_total
	Timeouts    *obs.Counter // bfd_timeouts_total
	InFlight    *obs.Gauge   // bfd_in_flight
	WorkersBusy *obs.Gauge   // bfd_workers_busy

	// WorkerWait tracks how long heavy requests queued for a worker slot —
	// the saturation signal (bfd_worker_wait_seconds).
	WorkerWait *obs.Histogram
}

// newStats registers the request-path instruments on the registry.
func newStats(reg *obs.Registry, start time.Time) Stats {
	return Stats{
		start:       start,
		Requests:    reg.Counter("bfd_requests_total", "HTTP requests accepted into a handler."),
		Compiles:    reg.Counter("bfd_compiles_total", "Backend compiles actually executed."),
		CompileErrs: reg.Counter("bfd_compile_errors_total", "Backend compiles that failed."),
		Simulates:   reg.Counter("bfd_simulates_total", "Simulate runs executed."),
		CacheHits:   reg.Counter("bfd_cache_hits_total", "Compile requests served from the LRU."),
		CacheMisses: reg.Counter("bfd_cache_misses_total", "Compile requests that went to the backend."),
		DiskHits:    reg.Counter("bfd_disk_hits_total", "Compile requests served from the persistent disk store."),
		Coalesced:   reg.Counter("bfd_coalesced_total", "Requests that piggybacked on an in-flight compile."),
		Rejected:    reg.Counter("bfd_rejected_total", "Requests refused (overload, draining, too large)."),
		Panics:      reg.Counter("bfd_panics_total", "Handler panics recovered by middleware."),
		Timeouts:    reg.Counter("bfd_timeouts_total", "Requests aborted by deadline or client cancel."),
		InFlight:    reg.Gauge("bfd_in_flight", "Requests currently inside a handler."),
		WorkersBusy: reg.Gauge("bfd_workers_busy", "Worker-pool slots currently executing a heavy request."),
		WorkerWait: reg.Histogram("bfd_worker_wait_seconds",
			"Time heavy requests queued for a worker-pool slot.", obs.DefTimeBuckets),
	}
}

// registerDerived exposes values owned by other subsystems — the block
// memo, the response LRU, the clock — as scrape-time functions, so the
// exposition can never drift from the owner's own accounting.
func (s *Server) registerDerived() {
	reg := s.reg
	reg.GaugeFunc("bfd_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.stats.start).Seconds() })
	reg.GaugeFunc("bfd_workers", "Worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.CounterFunc("bfd_block_memo_hits_total", "Per-block synthesis memo hits.",
		func() int64 { return s.memo.Stats().Hits })
	reg.CounterFunc("bfd_block_memo_misses_total", "Per-block synthesis memo misses.",
		func() int64 { return s.memo.Stats().Misses })
	reg.CounterFunc("bfd_block_memo_rejected_total", "Blocks the memo refused to cache.",
		func() int64 { return s.memo.Stats().Rejected })
	reg.GaugeFunc("bfd_block_memo_entries", "Blocks currently memoized.",
		func() float64 { return float64(s.memo.Stats().Entries) })
	reg.GaugeFunc("bfd_cache_entries", "Compile responses in the LRU.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("bfd_cache_bytes", "Bytes held by the compile-response LRU.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.CounterFunc("bfd_cache_evictions_total", "Compile responses evicted from the LRU.",
		func() int64 { return s.cache.Stats().Evicted })
	reg.GaugeFunc("bfd_cache_budget_bytes", "Byte budget of the compile-response LRU.",
		func() float64 { return float64(s.cfg.CacheBytes) })
	if s.cfg.CacheStore != nil || s.cfg.MemoStore != nil {
		// Persistent-store health, summed over the cache and memo stores
		// (both are nil-safe to snapshot).
		reg.CounterFunc("bfd_disk_corrupt_total", "Disk-store entries that failed SHA-256 verification or did not decode.",
			func() int64 { return s.cfg.CacheStore.Stats().Corrupt + s.cfg.MemoStore.Stats().Corrupt })
		reg.CounterFunc("bfd_disk_writes_total", "Entries written through to the disk stores.",
			func() int64 { return s.cfg.CacheStore.Stats().Writes + s.cfg.MemoStore.Stats().Writes })
		reg.CounterFunc("bfd_disk_evictions_total", "Disk-store entries deleted by the byte-budget GC.",
			func() int64 { return s.cfg.CacheStore.Stats().Evicted + s.cfg.MemoStore.Stats().Evicted })
		reg.GaugeFunc("bfd_disk_bytes", "Bytes resident across the disk stores.",
			func() float64 { return float64(s.cfg.CacheStore.Stats().Bytes + s.cfg.MemoStore.Stats().Bytes) })
		reg.CounterFunc("bfd_block_memo_disk_hits_total", "Block-memo misses answered by the persistent store.",
			func() int64 { return s.memo.Stats().DiskHits })
	}
}

// StatsSnapshot is the JSON shape served at /v1/stats.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Requests      int64   `json:"requests"`
	Compiles      int64   `json:"compiles"`
	CompileErrors int64   `json:"compileErrors"`
	Simulates     int64   `json:"simulates"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	Coalesced     int64   `json:"coalesced"`
	Rejected      int64   `json:"rejected"`
	Panics        int64   `json:"panics"`
	Timeouts      int64   `json:"timeouts"`
	InFlight      int64   `json:"inFlight"`
	CacheEntries  int     `json:"cacheEntries"`
	CacheBytes    int64   `json:"cacheBytes"`
	CacheBudget   int64   `json:"cacheBudgetBytes"`
	CacheEvicted  int64   `json:"cacheEvictions"`
	// Persistent-store disposition (zero when no -cache-dir/-memo-dir):
	// DiskHits counts compile responses served from the disk store after
	// an LRU miss; DiskCorrupt sums entries (cache and memo stores) that
	// failed SHA-256 verification or did not decode, and were quarantined.
	DiskHits     int64 `json:"diskHits"`
	DiskCorrupt  int64 `json:"diskCorrupt"`
	DiskWrites   int64 `json:"diskWrites"`
	DiskBytes    int64 `json:"diskBytes"`
	DiskEntries  int64 `json:"diskEntries"`
	MemoDiskHits int64 `json:"blockMemoDiskHits"`
	// Block-memo disposition: per-block synthesis reuse across backend
	// compiles, keyed by content-addressed block fingerprints. Distinct
	// from the response LRU above, which caches whole compile responses.
	MemoHits     int64  `json:"blockMemoHits"`
	MemoMisses   int64  `json:"blockMemoMisses"`
	MemoRejected int64  `json:"blockMemoRejected"`
	MemoEntries  int    `json:"blockMemoEntries"`
	Workers      int    `json:"workers"`
	Version      string `json:"version"`
	Draining     bool   `json:"draining"`
}

// snapshotStats gathers the whole /v1/stats snapshot in one place — the
// registry-backed counters, cache and memo occupancy, and drain state —
// so the handler takes one coherent-enough snapshot instead of assembling
// it field by field from four sources.
func (s *Server) snapshotStats() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeSeconds: time.Since(s.stats.start).Seconds(),
		Requests:      s.stats.Requests.Load(),
		Compiles:      s.stats.Compiles.Load(),
		CompileErrors: s.stats.CompileErrs.Load(),
		Simulates:     s.stats.Simulates.Load(),
		CacheHits:     s.stats.CacheHits.Load(),
		CacheMisses:   s.stats.CacheMisses.Load(),
		Coalesced:     s.stats.Coalesced.Load(),
		Rejected:      s.stats.Rejected.Load(),
		Panics:        s.stats.Panics.Load(),
		Timeouts:      s.stats.Timeouts.Load(),
		InFlight:      s.stats.InFlight.Load(),
		CacheBudget:   s.cfg.CacheBytes,
		Workers:       s.cfg.Workers,
		Version:       biocoder.Version,
	}
	cs := s.cache.Stats()
	snap.CacheEntries, snap.CacheBytes, snap.CacheEvicted = cs.Entries, cs.Bytes, cs.Evicted
	ms := s.memo.Stats()
	snap.MemoHits, snap.MemoMisses, snap.MemoRejected = ms.Hits, ms.Misses, ms.Rejected
	snap.MemoEntries = ms.Entries
	snap.MemoDiskHits = ms.DiskHits
	snap.DiskHits = s.stats.DiskHits.Load()
	ds, ms2 := s.cfg.CacheStore.Stats(), s.cfg.MemoStore.Stats()
	snap.DiskCorrupt = ds.Corrupt + ms2.Corrupt
	snap.DiskWrites = ds.Writes + ms2.Writes
	snap.DiskBytes = ds.Bytes + ms2.Bytes
	snap.DiskEntries = ds.Entries + ms2.Entries
	s.mu.Lock()
	snap.Draining = s.draining
	s.mu.Unlock()
	return snap
}
