// Package serve implements bfd, the BioCoder compile-and-simulate daemon:
// an HTTP/JSON front end over the offline compiler (biocoder.Compile), the
// static verifier (internal/verify), and the cycle-accurate simulator
// (internal/exec).
//
// Endpoints:
//
//	POST /v1/compile   BioScript source or a named benchmark assay, plus a
//	                   chip configuration and compiler options, to a DMFB
//	                   executable with verifier diagnostics.
//	POST /v1/simulate  The same compile inputs plus seed/scenario/ranges;
//	                   streams per-cycle telemetry as NDJSON. A posted
//	                   precompiled executable skips compilation entirely.
//	GET  /v1/healthz   Liveness (always 200 while the process serves).
//	GET  /v1/readyz    Readiness (503 while draining; gateways route on it).
//	GET  /v1/stats     Request, cache, and worker-pool counters (JSON).
//	GET  /metrics      The same counters plus latency/recovery histograms
//	                   in Prometheus text exposition format.
//
// Every response carries an X-Bfd-Request ID that is also stamped on the
// request's trace root span and on the structured request log line (when
// Config.Logger is set), so one ID correlates log ↔ span tree ↔ metrics.
//
// Compiles are cached in a content-addressed, byte-budgeted LRU (a
// store.Cache, over the disk store when one is configured) keyed by a
// hash of the canonical (pre-SSI) IR, the chip configuration, the compile
// options, and biocoder.Version; concurrent identical requests coalesce
// onto one backend compile (a store.Flight), and every requester receives
// the byte-identical cached body (the cache disposition travels in the
// X-Bfd-Cache header, never in the body). A request whose fields repeat
// an earlier request's byte for byte finds its canonical key through a
// bounded memo of request hashes, so a repeat served from the cache is
// never parsed. Every served executable has passed the full
// internal/verify pass suite with no error diagnostics.
//
// The request path is bounded end to end: a worker-pool semaphore caps
// concurrent heavy requests, MaxBytesReader caps body sizes, every request
// carries a deadline, panics are recovered and counted, and Drain refuses
// new work while in-flight requests finish.
package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biocoder"
	"biocoder/internal/arch"
	"biocoder/internal/assays"
	"biocoder/internal/cfg"
	"biocoder/internal/depgraph"
	"biocoder/internal/obs"
	"biocoder/internal/sensor"
	"biocoder/internal/store"
	"biocoder/internal/verify"
)

// Request-propagation headers: a fronting bfgate (internal/fleet) stamps
// these on replica requests so one request ID correlates gateway and
// replica logs/spans, and so retries honor the client's remaining
// deadline instead of resetting it per attempt.
const (
	// HeaderRequestID carries the caller-assigned request ID; the daemon
	// adopts it (when well-formed) instead of minting its own.
	HeaderRequestID = "X-Bfd-Request-Id"
	// HeaderDeadlineMs carries the caller's remaining per-request budget
	// in milliseconds; the daemon clamps its own RequestTimeout to it.
	HeaderDeadlineMs = "X-Bfd-Deadline-Ms"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Workers caps concurrently executing compile/simulate requests
	// (default: GOMAXPROCS). Excess requests queue on the pool until
	// their deadline expires.
	Workers int
	// CacheBytes budgets the compile cache (default 64 MiB; <0 disables
	// caching entirely).
	CacheBytes int64
	// MaxRequestBytes caps request bodies (default 1 MiB).
	MaxRequestBytes int64
	// RequestTimeout bounds each request — queue wait, compile, and
	// simulation included (default 120s). Backend compiles triggered by
	// a request run under a server-scoped deadline of the same length,
	// detached from the requester: a canceled client does not waste the
	// nearly finished compile that followers and the cache want.
	RequestTimeout time.Duration
	// Registry receives the daemon's metrics and backs GET /metrics. Nil
	// creates a private registry, so the exposition always serves; pass
	// one explicitly to share instruments with an embedding process.
	Registry *obs.Registry
	// Logger, when non-nil, receives one structured log record per HTTP
	// request (id, method, path, status, cache disposition, duration).
	// Nil disables request logging entirely.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profiles expose internals and cost CPU when scraped.
	EnablePprof bool
	// CacheStore, when non-nil, persists compile responses beneath the
	// in-memory LRU: an LRU miss consults the disk before compiling
	// (X-Bfd-Cache: disk), and every fresh compile is written through, so
	// a restarted daemon answers repeated keys without recompiling. Keys
	// embed biocoder.Version, so entries can never be served stale; an
	// entry that no longer decodes is quarantined.
	CacheStore *store.Store
	// MemoStore, when non-nil, persists the per-block synthesis memo the
	// same way (fingerprints are version-keyed too).
	MemoStore *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	return c
}

// Server is the bfd daemon. Create with New, mount Handler on an
// http.Server, and call Drain before shutting the listener down.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	logger   *slog.Logger
	stats    Stats
	cache    *store.Cache[*entry] // compile responses by their bytes, over cfg.CacheStore
	requests *store.Cache[string] // canonical keys by request key (requestKey), in memory only
	memo     *biocoder.Memo       // process-wide block memo shared by every backend compile
	flights  store.Flight[*entry]
	sem      chan struct{}

	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // non-nil while a Drain waits for inflight work

	// testCompileStarted, when non-nil, observes every backend compile
	// as it begins (test seam for coalescing and drain tests).
	testCompileStarted func(key string)
}

// New returns a ready-to-serve daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		logger:   cfg.Logger,
		stats:    newStats(reg, time.Now()),
		cache:    store.NewCache(cfg.CacheStore, cfg.CacheBytes, (*entry).size, encodeDiskEntry, decodeDiskEntry),
		requests: store.NewCache(nil, requestKeyBound, func(string) int64 { return 1 }, nil, nil),
		memo:     depgraph.NewMemo(cfg.MemoStore),
		sem:      make(chan struct{}, cfg.Workers),
	}
	s.registerDerived()
	return s
}

// Registry returns the metrics registry backing GET /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/compile", s.heavy(s.handleCompile))
	mux.HandleFunc("/v1/simulate", s.heavy(s.handleSimulate))
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.recovered(mux)
}

// Drain switches the server to lame-duck mode: /v1/readyz turns 503 (so
// gateways and load balancers stop routing here; liveness at /v1/healthz
// stays 200), new compile/simulate requests are refused with 503, and
// Drain blocks until every in-flight request has finished or ctx expires.
// Call it before http.Server.Shutdown so the connection-level drain finds
// no active handlers.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

// enter admits one heavy request; it returns false while draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) leave() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// statusWriter tracks whether a response has started (so the panic
// recovery layer knows when a 500 can still be written) and the status
// code actually sent (for the request log).
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
	}
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
	}
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestIDKey carries the per-request ID through the request context.
type requestIDKey struct{}

// reqFallback numbers request IDs when the random source fails.
var reqFallback atomic.Int64

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", reqFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts caller-supplied IDs (HeaderRequestID) that are
// short and log-safe; anything else is replaced by a fresh ID so a hostile
// client can't inject log or header content.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// RequestID returns the ID assigned to this request by the middleware, or
// "" outside a request. Handlers stamp it on their trace root span so one
// ID correlates the log line, the span tree, and the response headers.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// recovered is the outermost middleware: request-ID assignment, request
// counting, latency observation, structured logging, and panic
// containment for every route.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(HeaderRequestID)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set("X-Bfd-Request", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		s.stats.Requests.Add(1)
		s.stats.InFlight.Add(1)
		defer s.stats.InFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.stats.Panics.Add(1)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, nil, "internal error: %v", p)
				}
			}
			s.finishRequest(r, sw, id, time.Since(start))
		}()
		next.ServeHTTP(sw, r)
	})
}

// finishRequest observes the request's latency histogram (heavy routes,
// split by cache disposition) and emits the structured log record.
func (s *Server) finishRequest(r *http.Request, sw *statusWriter, id string, elapsed time.Duration) {
	route := ""
	switch r.URL.Path {
	case "/v1/compile":
		route = "compile"
	case "/v1/simulate":
		route = "simulate"
	}
	disposition := sw.Header().Get("X-Bfd-Cache")
	if route != "" {
		d := disposition
		if d == "" {
			// Rejected, refused, or failed before the cache was consulted.
			d = "error"
		}
		s.reg.Histogram("bfd_request_seconds",
			"Heavy-request latency by route and cache disposition.",
			obs.DefTimeBuckets, obs.L("route", route), obs.L("disposition", d)).
			Observe(elapsed.Seconds())
	}
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.statusCode()),
		slog.String("cache", disposition),
		slog.Duration("duration", elapsed),
	)
}

// heavy wraps the compile/simulate handlers with the admission pipeline:
// POST-only, drain gate, body-size limit, worker-pool semaphore, and the
// per-request deadline.
func (s *Server) heavy(next func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, nil, "use POST")
			return
		}
		if !s.enter() {
			s.stats.Rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, nil, "server is draining")
			return
		}
		defer s.leave()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)

		// A fronting gateway forwards the client's remaining budget; honor
		// it when it is tighter than our own ceiling, so a retried request
		// spends what the client has left rather than a full fresh window.
		timeout := s.cfg.RequestTimeout
		if v := r.Header.Get(HeaderDeadlineMs); v != "" {
			if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
				if d := time.Duration(ms) * time.Millisecond; d < timeout {
					timeout = d
				}
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		wait := time.Now()
		select {
		case s.sem <- struct{}{}:
			s.stats.WorkerWait.Observe(time.Since(wait).Seconds())
			s.stats.WorkersBusy.Add(1)
			defer func() {
				s.stats.WorkersBusy.Add(-1)
				<-s.sem
			}()
		case <-ctx.Done():
			s.stats.Rejected.Add(1)
			s.stats.Timeouts.Add(1)
			writeError(w, http.StatusServiceUnavailable, nil, "worker pool saturated: %v", ctx.Err())
			return
		}
		next(w, r.WithContext(ctx))
	}
}

// handleHealthz is pure liveness: 200 for as long as the process can
// answer HTTP at all — including during a graceful drain, when the
// process is healthy but refusing new work. Routing decisions belong to
// readiness below.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 while draining, so a fronting bfgate (or
// any load balancer probing it) stops routing new work here while
// in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotStats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, nil, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteExposition(w)
}

// verifyError is a compile refused by the static verifier: mechanically
// successful, but the executable violates the compilation contract.
type verifyError struct{ rep *verify.Report }

func (e *verifyError) Error() string {
	return fmt.Sprintf("executable failed verification with %d error(s)", e.rep.Count(verify.Error))
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	tr := obs.NewTracer()
	root := tr.Start("serve.compile")
	root.SetStr("request", RequestID(r.Context()))
	defer root.End()

	sp := tr.Start("decode")
	var req CompileRequest
	err := decodeJSON(r, &req)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, nil, "bad request: %v", err)
		return
	}

	e, disposition, err := s.resolve(r.Context(), tr, &req)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}

	w.Header().Set("X-Bfd-Cache", disposition)
	w.Header().Set("X-Bfd-Key", e.key)
	if r.URL.Query().Get("trace") == "1" {
		root.End()
		writeTraced(w, tr, e.body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
}

// resolve turns compile inputs into a cache entry, served from the LRU,
// the persistent disk store, an in-flight compile, or a new compile it
// leads. The disposition is "hit", "disk", "coalesced", or "miss". A
// request whose fields match an earlier one's byte for byte is looked up
// under the canonical key recorded for its request key, and is answered
// without parsing anything when either tier holds that key; any other
// request is canonicalized first. The store re-verifies a disk payload's
// SHA-256 on read, so a disk-served entry is byte-for-byte what an earlier
// process compiled (and verify-gated) under the same content key.
func (s *Server) resolve(ctx context.Context, tr *obs.Tracer, req *CompileRequest) (*entry, string, error) {
	rk := requestKey(req)
	sp := tr.Start("cache.lookup")
	key, seen := s.requests.Get(nil, rk)
	e, tier := (*entry)(nil), store.Miss
	if seen == store.Memory {
		e, tier = s.cache.Get(tr, key)
	}
	sp.End()

	var (
		g    *cfg.Graph
		chip *arch.Chip
	)
	if tier == store.Miss {
		var err error
		sp = tr.Start("canonicalize")
		g, _, chip, key, err = canonicalize(req)
		sp.End()
		if err != nil {
			return nil, "", err
		}
		// A request seen before was looked up under this key above.
		if seen == store.Miss {
			s.requests.Put(rk, key)
			sp = tr.Start("cache.lookup")
			e, tier = s.cache.Get(tr, key)
			sp.End()
		}
	}
	switch tier {
	case store.Memory:
		s.stats.CacheHits.Add(1)
		return e, "hit", nil
	case store.Disk:
		s.stats.DiskHits.Add(1)
		return e, "disk", nil
	}

	e, shared, err := s.flights.Do(ctx, key, func() (*entry, error) {
		// A flight that finished between our lookup and this one may
		// have populated the cache already.
		if e, tier := s.cache.Get(nil, key); tier != store.Miss {
			return e, nil
		}
		return s.compileEntry(tr, key, g, chip, req.Options)
	})
	if shared {
		s.stats.Coalesced.Add(1)
		return e, "coalesced", err
	}
	s.stats.CacheMisses.Add(1)
	return e, "miss", err
}

// compileEntry is the backend compile: it runs under a server-scoped
// deadline (detached from any single requester), gates the result on the
// full static-verifier suite, and encodes the canonical response body.
func (s *Server) compileEntry(tr *obs.Tracer, key string, g *cfg.Graph, chip *arch.Chip, opt CompileOptions) (*entry, error) {
	s.stats.Compiles.Add(1)
	if s.testCompileStarted != nil {
		s.testCompileStarted(key)
	}
	cctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()

	memo := s.memo
	if opt.NoMemo {
		memo = nil
	}
	prog, err := biocoder.CompileGraphOptions(g, chip, biocoder.Options{
		NoLiveRangeSplitting: opt.NoLiveRangeSplitting,
		SerialSchedules:      opt.SerialSchedules,
		MinSlackScheduling:   opt.MinSlackScheduling,
		FreePlacement:        opt.FreePlacement,
		FoldEdges:            opt.FoldEdges,
		FaultyElectrodes:     faultPoints(opt.Faults),
		Workers:              opt.Workers,
		Memo:                 memo,
		Tracer:               tr,
		Registry:             s.reg,
		Context:              cctx,
	})
	if err != nil {
		s.stats.CompileErrs.Add(1)
		return nil, err
	}

	sp := tr.Start("verify")
	rep := verify.Run(&verify.Unit{
		Graph:     prog.Graph,
		Exec:      prog.Executable,
		Placement: prog.Placement,
	})
	sp.SetInt("diags", len(rep.Diags))
	sp.End()
	for _, pt := range rep.PassTimes {
		s.reg.Histogram("biocoder_verify_pass_seconds",
			"Static-verifier pass durations.", obs.DefTimeBuckets,
			obs.L("pass", pt.Name)).Observe(pt.Duration.Seconds())
	}
	if rep.HasErrors() {
		s.stats.CompileErrs.Add(1)
		return nil, &verifyError{rep}
	}

	sp = tr.Start("encode")
	defer sp.End()
	var exeBuf bytes.Buffer
	if err := prog.Save(&exeBuf); err != nil {
		s.stats.CompileErrs.Add(1)
		return nil, fmt.Errorf("encoding executable: %w", err)
	}
	body, err := json.Marshal(&CompileResponse{
		Key:             key,
		CompilerVersion: biocoder.Version,
		Summary:         summarize(prog),
		Diagnostics:     diagsJSON(rep),
		Executable:      exeBuf.String(),
	})
	if err != nil {
		return nil, err
	}
	e := &entry{key: key, body: body, exe: exeBuf.Bytes()}
	s.cache.Put(key, e)
	return e, nil
}

// CacheKey computes the content-addressed compile cache key for req: a
// hash of the canonical (pre-SSI) IR, the chip configuration, the option
// set, and biocoder.Version. Exported for the fleet gateway
// (internal/fleet), which consistent-hashes replicas on the same key the
// replicas cache on — so repeated requests land where their entry lives.
func CacheKey(req *CompileRequest) (string, error) {
	_, _, _, key, err := canonicalize(req)
	return key, err
}

// requestKeyBound caps the request keys the server remembers, the block
// memo's bound; past it the least recently used is forgotten, and its
// next request is canonicalized again.
const requestKeyBound = 4096

// requestKey hashes the fields of a compile request as sent: a repeat whose
// fields match byte for byte has the same key. canonicalize is a pure
// function of the same fields, so a request key names one canonical key.
// The fields are framed as canonicalize frames its parts and written into
// the hash directly, without copying them into a formatted buffer.
func requestKey(req *CompileRequest) string {
	h := sha256.New()
	var n [20]byte
	for _, part := range []string{
		biocoder.Version,
		req.Assay,
		req.Source,
		req.Chip,
		canonicalOptions(req.Options),
	} {
		h.Write(append(strconv.AppendInt(n[:0], int64(len(part)), 10), 0))
		io.WriteString(h, part)
	}
	return string(h.Sum(nil))
}

// canonicalize builds the pre-SSI CFG and the chip, and derives the
// content-addressed cache key from their canonical text forms plus the
// option set and the compiler version.
func canonicalize(req *CompileRequest) (*cfg.Graph, *assays.Assay, *arch.Chip, string, error) {
	var (
		g     *cfg.Graph
		assay *assays.Assay
		err   error
	)
	switch {
	case req.Assay != "" && req.Source != "":
		return nil, nil, nil, "", &badRequestError{fmt.Errorf("use either assay or source, not both")}
	case req.Assay != "":
		assay = assays.ByName(req.Assay)
		if assay == nil {
			return nil, nil, nil, "", &badRequestError{fmt.Errorf("unknown assay %q", req.Assay)}
		}
		g, err = assay.Build().Build()
	case req.Source != "":
		var bs *biocoder.BioSystem
		bs, err = biocoder.ParseScript(req.Source)
		if err == nil {
			g, err = bs.Build()
		}
	default:
		return nil, nil, nil, "", &badRequestError{fmt.Errorf("need assay or source")}
	}
	if err != nil {
		return nil, nil, nil, "", &badRequestError{fmt.Errorf("building protocol: %w", err)}
	}

	chip := arch.Default()
	if req.Chip != "" {
		chip, err = arch.ParseConfig(strings.NewReader(req.Chip))
		if err != nil {
			return nil, nil, nil, "", &badRequestError{fmt.Errorf("parsing chip config: %w", err)}
		}
	}
	var chipText bytes.Buffer
	if err := arch.WriteConfig(&chipText, chip); err != nil {
		return nil, nil, nil, "", err
	}

	h := sha256.New()
	for _, part := range []string{
		biocoder.Version,
		chipText.String(),
		canonicalOptions(req.Options),
		g.String(), // pre-SSI: compileGraph mutates g to SSI form in place
	} {
		fmt.Fprintf(h, "%d\x00%s", len(part), part)
	}
	return g, assay, chip, fmt.Sprintf("%x", h.Sum(nil)), nil
}

// canonicalOptions renders the option set order- and duplicate-insensitive.
func canonicalOptions(opt CompileOptions) string {
	faults := append([]Point(nil), opt.Faults...)
	sort.Slice(faults, func(i, j int) bool {
		if faults[i].Y != faults[j].Y {
			return faults[i].Y < faults[j].Y
		}
		return faults[i].X < faults[j].X
	})
	var b strings.Builder
	fmt.Fprintf(&b, "nolrs=%t serial=%t minslack=%t free=%t fold=%t workers=%d nomemo=%t faults=",
		opt.NoLiveRangeSplitting, opt.SerialSchedules, opt.MinSlackScheduling,
		opt.FreePlacement, opt.FoldEdges, normalizeWorkers(opt.Workers), opt.NoMemo)
	for _, p := range faults {
		fmt.Fprintf(&b, "(%d,%d)", p.X, p.Y)
	}
	return b.String()
}

// normalizeWorkers collapses every one-worker Workers value to 0, so
// requests differing only in a no-op worker count share a cache entry.
// Values above 1 keep their identity in the key even though the output is
// byte-identical at every count: the key stays a pure function of the
// request, never of a compiler equivalence claim.
func normalizeWorkers(w int) int {
	if w < 2 {
		return 0
	}
	return w
}

func faultPoints(pts []Point) []biocoder.Point {
	out := make([]biocoder.Point, len(pts))
	for i, p := range pts {
		out[i] = biocoder.Point{X: p.X, Y: p.Y}
	}
	return out
}

func summarize(prog *biocoder.Compiled) CompileSummary {
	var sum CompileSummary
	sum.Blocks = len(prog.Graph.Blocks)
	sum.Edges = len(prog.Graph.Edges())
	for _, b := range prog.Graph.Blocks {
		sum.Instructions += len(b.Instrs)
	}
	for _, bc := range prog.Executable.Blocks {
		sum.BlockCycles += bc.Seq.NumCycles
		sum.Events += len(bc.Seq.Events)
	}
	for _, ec := range prog.Executable.Edges {
		if ec.Seq.NumCycles > 0 {
			sum.EdgeTransports++
		}
	}
	return sum
}

func diagsJSON(rep *verify.Report) []Diag {
	out := make([]Diag, 0, len(rep.Diags))
	for _, d := range rep.Diags {
		out = append(out, Diag{
			Code:     d.Code,
			Severity: d.Sev.String(),
			Pos:      d.Pos.String(),
			Message:  d.Msg,
		})
	}
	return out
}

// badRequestError marks client-side input errors (HTTP 400).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, diags []Diag, format string, args ...any) {
	writeJSON(w, code, &ErrorResponse{
		Error:       fmt.Sprintf(format, args...),
		Diagnostics: diags,
	})
}

// writeResolveError maps a resolve failure to its HTTP status: 400 for bad
// inputs, 422 with diagnostics for verification refusals, 503 for
// deadline/cancellation (counted as a timeout), 500 otherwise.
func (s *Server) writeResolveError(w http.ResponseWriter, err error) {
	var bad *badRequestError
	if errors.As(err, &bad) {
		writeError(w, http.StatusBadRequest, nil, "bad request: %v", err)
		return
	}
	var ve *verifyError
	if errors.As(err, &ve) {
		writeError(w, http.StatusUnprocessableEntity, diagsJSON(ve.rep), "%v", err)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.stats.Timeouts.Add(1)
		writeError(w, http.StatusServiceUnavailable, nil, "compile aborted: %v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, nil, "compile failed: %v", err)
}

// writeTraced answers a ?trace=1 request: the canonical body wrapped
// alongside this request's span tree as Chrome trace-event JSON.
func writeTraced(w http.ResponseWriter, tr *obs.Tracer, body []byte) {
	var traceBuf bytes.Buffer
	events := obs.SpanEvents(tr.Roots(), obs.CompileTrack, time.Time{})
	if err := obs.WriteChromeTrace(&traceBuf, events); err != nil {
		writeError(w, http.StatusInternalServerError, nil, "trace export: %v", err)
		return
	}
	// Marshal compactly (not via writeJSON's indenting encoder) so the
	// embedded canonical body stays byte-identical to the cached form.
	out, err := json.Marshal(&TracedResponse{
		Trace:  traceBuf.Bytes(),
		Result: body,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, nil, "trace export: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	tr := obs.NewTracer()
	root := tr.Start("serve.simulate")
	root.SetStr("request", RequestID(r.Context()))
	defer root.End()

	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, nil, "bad request: %v", err)
		return
	}
	if req.Every <= 0 {
		req.Every = 1000
	}

	// Two ways to name the program: compile inputs resolved through the
	// cache, or a precompiled executable posted directly (the fleet
	// gateway's fan-out path: one compile, M seeds across M replicas).
	var (
		exe         []byte
		key         string
		disposition string
	)
	if req.Executable != "" {
		if req.Source != "" || req.Chip != "" {
			writeError(w, http.StatusBadRequest, nil, "bad request: executable excludes source and chip (assay may name scenarios)")
			return
		}
		if req.Assay != "" && assays.ByName(req.Assay) == nil {
			writeError(w, http.StatusBadRequest, nil, "bad request: unknown assay %q", req.Assay)
			return
		}
		exe = []byte(req.Executable)
		sum := sha256.Sum256(exe)
		key = hex.EncodeToString(sum[:])
		disposition = "posted"
	} else {
		e, disp, err := s.resolve(r.Context(), tr, &req.CompileRequest)
		if err != nil {
			s.writeResolveError(w, err)
			return
		}
		exe, key, disposition = e.exe, e.key, disp
	}
	// The assay (for ranges and scenarios) comes from the request, not
	// the cache entry; the name was validated above either way.
	var assay *assays.Assay
	if req.Assay != "" {
		assay = assays.ByName(req.Assay)
	}
	model, err := buildSensors(assay, req.Scenario, req.Seed, req.Ranges)
	if err != nil {
		writeError(w, http.StatusBadRequest, nil, "bad request: %v", err)
		return
	}

	sp := tr.Start("decode.executable")
	prog, err := biocoder.Load(bytes.NewReader(exe))
	sp.End()
	if err != nil {
		if disposition == "posted" {
			writeError(w, http.StatusBadRequest, nil, "bad request: decoding posted executable: %v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, nil, "decoding cached executable: %v", err)
		return
	}
	if disposition == "posted" {
		// The verify gate holds for posted executables too: nothing runs
		// on this daemon that the static verifier hasn't passed.
		sp := tr.Start("verify")
		rep := verify.Run(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable})
		sp.SetInt("diags", len(rep.Diags))
		sp.End()
		if rep.HasErrors() {
			writeError(w, http.StatusUnprocessableEntity, diagsJSON(rep), "posted executable failed verification with %d error(s)", rep.Count(verify.Error))
			return
		}
	}

	s.stats.Simulates.Add(1)
	w.Header().Set("X-Bfd-Cache", disposition)
	w.Header().Set("X-Bfd-Key", key)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(rec *SimRecord) {
		enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(&SimRecord{
		Type:            "start",
		Key:             key,
		CompilerVersion: biocoder.Version,
		Cache:           disposition,
	})

	sp = tr.Start("simulate")
	res, err := prog.Run(biocoder.RunOptions{
		Sensors:            model,
		MaxCycles:          req.MaxCycles,
		Metrics:            true,
		TrackContamination: req.TrackContamination,
		Registry:           s.reg,
		Context:            r.Context(),
		MetricsHook: func(cycle int, m *obs.Metrics) {
			if cycle%req.Every != 0 {
				return
			}
			emit(&SimRecord{
				Type:        "telemetry",
				Cycle:       cycle,
				Actuations:  m.Actuations,
				Touches:     m.Touches,
				SensorReads: m.SensorReads,
				MaxDroplets: m.MaxDroplets,
			})
		},
	})
	sp.End()
	if err != nil {
		s.stats.Timeouts.Add(boolInt(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)))
		emit(&SimRecord{Type: "error", Error: err.Error()})
		return
	}
	final := &SimRecord{
		Type:        "result",
		Cycles:      res.Cycles,
		TimeSeconds: res.Time.Seconds(),
		Dispensed:   res.Dispensed,
		Collected:   res.Collected,
		Actuations:  res.Metrics.Actuations,
		Touches:     res.Metrics.Touches,
		SensorReads: res.Metrics.SensorReads,
		MaxDroplets: res.Metrics.MaxDroplets,
	}
	if res.Contamination != nil {
		final.DirtyCells = res.Contamination.DirtyCells
	}
	emit(final)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// buildSensors mirrors bfsim's sensor-model construction: a seeded uniform
// model with per-assay and per-request ranges, optionally overlaid by a
// scripted scenario (benchmark assays only).
func buildSensors(assay *assays.Assay, scenario string, seed int64, ranges map[string][2]float64) (sensor.Model, error) {
	uniform := sensor.NewUniform(seed)
	if assay != nil {
		for v, r := range assay.Ranges {
			uniform.SetRange(v, r.Min, r.Max)
		}
	}
	for v, r := range ranges {
		uniform.SetRange(v, r[0], r[1])
	}
	if scenario == "" {
		return uniform, nil
	}
	if assay == nil {
		return nil, fmt.Errorf("scenario needs a named assay")
	}
	for _, sc := range assay.Scenarios {
		if sc.Name == scenario {
			m := sensor.NewScripted(sc.Script)
			m.Fallback = uniform
			return m, nil
		}
	}
	return nil, fmt.Errorf("assay %q has no scenario %q", assay.Name, scenario)
}
