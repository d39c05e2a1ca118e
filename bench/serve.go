package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/obs"
	"biocoder/internal/serve"
	"biocoder/internal/store"
)

// server is an in-process bfd on a loopback listener with a fresh disk
// store, an LRU smaller than the run's working set, and a client limited to
// one connection per CPU.
type server struct {
	e       *env
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	client  *http.Client
	tr      *http.Transport
	base    string
	scripts map[string]string
	// bodies maps each cache key to the hash of the first body served for
	// it; every later body for the key must be byte-identical.
	bodies  map[string]string
	windows int
}

// newServer starts bfd with an LRU of lru bytes over fresh disk stores.
func newServer(e *env, lru int64, scripts map[string]string) (*server, error) {
	dir, err := e.workDir("serve-")
	if err != nil {
		return nil, err
	}
	s := &server{e: e, dir: dir, scripts: scripts, bodies: map[string]string{}, served: make(chan error, 1)}
	cache, err := store.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		s.close()
		return nil, err
	}
	memo, err := store.Open(filepath.Join(dir, "memo"), 0)
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = serve.New(serve.Config{CacheBytes: lru, CacheStore: cache, MemoStore: memo})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	conns := runtime.GOMAXPROCS(0)
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	return s, nil
}

// prime compiles every given script once and checks each executable
// against its recorded reference.
func (s *server) prime(files []string) error {
	for _, f := range files {
		out := s.do(context.Background(), request{kind: kindRepeat, script: f, src: s.scripts[f]}, time.Now(), false)
		if err := s.check(out); err != nil {
			return fmt.Errorf("priming %s: %w", f, err)
		}
	}
	return nil
}

func (s *server) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.srv.Drain(ctx)
		s.hs.Shutdown(ctx)
		cancel()
		<-s.served
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// outcome is one answered request.
type outcome struct {
	rq      request
	status  int
	disp    string // X-Bfd-Cache
	key     string // X-Bfd-Key
	body    []byte
	trace   []byte // ?trace=1 span tree (Chrome trace JSON)
	latency time.Duration
	late    time.Duration
	err     error
}

// do sends one request due at due and reads the whole response; its
// latency runs from due to the last body byte.
func (s *server) do(ctx context.Context, rq request, due time.Time, traced bool) *outcome {
	out := &outcome{rq: rq, late: time.Since(due)}
	var (
		path string
		body any
	)
	switch rq.kind {
	case kindSimulate:
		path = "/v1/simulate"
		a := assays.ByName(scriptAssay[rq.script])
		body = &serve.SimulateRequest{CompileRequest: serve.CompileRequest{Source: rq.src}, Seed: rq.seed, Ranges: rangesOf(a)}
	default:
		path = "/v1/compile"
		if traced {
			path += "?trace=1"
		}
		body = &serve.CompileRequest{Source: rq.src}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		out.err = err
		return out
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(payload))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		out.err = err
		out.latency = time.Since(due)
		return out
	}
	out.body, out.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.latency = time.Since(due)
	out.status = resp.StatusCode
	out.disp = resp.Header.Get("X-Bfd-Cache")
	out.key = resp.Header.Get("X-Bfd-Key")
	if traced && rq.kind != kindSimulate && out.err == nil && out.status == http.StatusOK {
		var tresp struct {
			Trace  json.RawMessage `json:"trace"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(out.body, &tresp); err != nil {
			out.err = fmt.Errorf("traced response: %w", err)
			return out
		}
		out.body, out.trace = tresp.Result, tresp.Trace
	}
	return out
}

// check validates one response: status 200, a body byte-identical to every
// other body served under its cache key, the recorded executable for an
// unedited script, and for a simulate a stream ending in a result record
// with the recorded cycle count.
func (s *server) check(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	ref := s.e.refs.Scripts[o.rq.script]
	if o.rq.kind == kindSimulate {
		lines := bytes.Split(bytes.TrimSpace(o.body), []byte("\n"))
		var rec serve.SimRecord
		if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
			return fmt.Errorf("simulate stream: %w", err)
		}
		if rec.Type != "result" {
			return fmt.Errorf("simulate stream ended in %q record: %s", rec.Type, rec.Error)
		}
		if want := ref.SeedCycles[o.rq.seed-1]; rec.Cycles != want {
			return fmt.Errorf("simulate seed %d: %d cycles, recorded %d", o.rq.seed, rec.Cycles, want)
		}
		return nil
	}
	h := hash(string(o.body))
	if prev, ok := s.bodies[o.key]; ok && prev != h {
		return fmt.Errorf("key %.12s served two different bodies", o.key)
	}
	s.bodies[o.key] = h
	if !o.rq.edited {
		var resp serve.CompileResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return fmt.Errorf("compile response: %w", err)
		}
		if got := hash(resp.Executable); got != ref.ExeSHA256 {
			return fmt.Errorf("executable sha256 %.12s, recorded %.12s", got, ref.ExeSHA256)
		}
	}
	return nil
}

// calEvery spaces the calibration samples of a serve window: about 100 in
// 20 s, skipping those that would overlap a request.
const calEvery = 4

// serveLoad is the serve workload: an open loop at serveRate requests per
// second over at most one loopback connection per CPU, after priming bfd
// with all six scripts.
type serveLoad struct {
	*server
	seen map[string]bool // every revision sent so far
}

func setupServe(e *env) (runner, error) {
	scripts, err := loadScripts(e.root)
	if err != nil {
		return nil, err
	}
	s, err := newServer(e, serveLRUSize, scripts)
	if err != nil {
		return nil, err
	}
	if err := s.prime(allScripts); err != nil {
		s.close()
		return nil, err
	}
	return &serveLoad{server: s, seen: map[string]bool{}}, nil
}

// measure sends the seeded schedule of one window as an open loop and
// waits for every answer. req_p50_ms and req_p90_ms are percentiles of
// latency from each request's due time to its last body byte. 30 ms
// before every calEvery-th request is due, if no request is in flight, the
// generator times one calibration loop into ctl.window, whose factor
// scales both (calib.go). ctl's repetitions all run after the window
// (through ctl.measure), so they never share the CPUs with a request.
func (s *serveLoad) measure(window time.Duration, tc *tracing, ctl *control) (map[string]float64, error) {
	// A second window in one process (the traced run) gets its own
	// schedule, so its edits are misses again.
	sched, err := schedule(s.e.seed+int64(s.windows)*7919, window, s.scripts, s.seen)
	s.windows++
	if err != nil {
		return nil, err
	}
	before, err := s.stats()
	if err != nil {
		return nil, err
	}
	outs := make([]*outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	var inflight atomic.Int32
	for i, rq := range sched {
		due := start.Add(rq.due)
		if ctl != nil && i%calEvery == 0 {
			time.Sleep(time.Until(due.Add(-30 * time.Millisecond)))
			if inflight.Load() == 0 {
				ctl.window.sample()
			}
		}
		time.Sleep(time.Until(due))
		wg.Add(1)
		inflight.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			outs[i] = s.send(rq, due, tc)
		}()
	}
	wg.Wait()
	after, err := s.stats()
	if err != nil {
		return nil, err
	}
	var lat []float64
	for _, o := range outs {
		lat = append(lat, ms(o.latency))
		s.e.ops.op(wrap(s.check(o), "serve %s %s", kindNames[o.rq.kind], o.rq.script))
	}
	if tc != nil {
		if err := s.attribute(tc, outs, before, after); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"req_p50_ms": hdQuantile(lat, 0.5),
		"req_p90_ms": hdQuantile(lat, 0.9),
	}, nil
}

// send issues one scheduled request; in a traced window it wraps the
// request in a client span and grafts bfd's ?trace=1 span tree under it.
func (s *serveLoad) send(rq request, due time.Time, tc *tracing) *outcome {
	if tc == nil {
		return s.do(context.Background(), rq, due, false)
	}
	rt := obs.NewTracer()
	sp := rt.Start("request")
	sp.SetStr("kind", kindNames[rq.kind])
	o := s.do(context.Background(), rq, due, true)
	sp.SetStr("cache", o.disp)
	sp.End()
	if o.trace != nil {
		if spans, err := spansFromChrome(o.trace, sp.Begin); err == nil {
			sp.Graft(spans...)
		}
	}
	tc.graft(rt.Roots()...)
	return o
}

func (s *serveLoad) headline(m map[string]float64) float64 { return m["req_p50_ms"] }

// stats reads /v1/stats plus the worker-wait histogram from /metrics.
func (s *server) stats() (map[string]float64, error) {
	out := map[string]float64{}
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	var snap map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for k, v := range snap {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	resp, err = s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && (f[0] == "bfd_worker_wait_seconds_sum" || f[0] == "bfd_worker_wait_seconds_count") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// attribute turns the traced window into per-layer metrics: client-side
// medians by disposition, the server's own counters, the span trees bfd
// returned for ?trace=1, and ParseScript and Load timed around the same
// sources and executables the requests carried.
func (s *serveLoad) attribute(tc *tracing, outs []*outcome, before, after map[string]float64) error {
	d := func(k string) float64 { return after[k] - before[k] }
	by := map[string][]float64{}
	var late []float64
	for _, o := range outs {
		class := o.disp
		if o.rq.kind == kindSimulate {
			class = "sim"
		}
		by[class] = append(by[class], ms(o.latency))
		late = append(late, ms(o.late))
	}
	tc.set("serve.hit_ms", median(by["hit"]))
	tc.set("serve.disk_ms", median(by["disk"]))
	tc.set("serve.miss_ms", median(by["miss"]))
	tc.set("serve.sim_ms", median(by["sim"]))
	tc.set("serve.late_ms", median(late))
	lookups := d("cacheHits") + d("diskHits") + d("cacheMisses") + d("coalesced")
	if lookups > 0 {
		tc.set("serve.lru_hit_ratio", d("cacheHits")/lookups)
	}
	if lruMisses := d("diskHits") + d("cacheMisses") + d("coalesced"); lruMisses > 0 {
		tc.set("store.disk_hit_ratio", d("diskHits")/lruMisses)
	}
	tc.set("serve.coalesced", d("coalesced"))
	tc.set("store.writes", d("diskWrites"))
	if n := d("blockMemoHits") + d("blockMemoMisses"); n > 0 {
		tc.set("depgraph.memo_hit_ratio", d("blockMemoHits")/n)
	}
	if n := d("bfd_worker_wait_seconds_count"); n > 0 {
		tc.set("serve.worker_wait_ms", 1000*d("bfd_worker_wait_seconds_sum")/n)
	}
	var canon []float64
	for _, r := range tc.roots {
		walkSpans(r, func(sp *obs.Span) {
			if sp.Name == "canonicalize" {
				canon = append(canon, ms(sp.Duration))
			}
		})
	}
	tc.set("serve.canonicalize_ms", median(canon))

	// Compile time per assay from the compile spans bfd returned.
	for _, o := range outs {
		if o.trace == nil || o.disp != "miss" {
			continue
		}
		spans, err := spansFromChrome(o.trace, time.Time{})
		if err != nil {
			return err
		}
		tc.add("compile."+shortOf[o.rq.script]+".ms", ms(obs.NamedTotal(spans, "compile")))
	}

	// ParseScript and Load replayed on the requests' own inputs: bfd
	// parses every request, hits included, and decodes the cached
	// executable of every simulate.
	exes := map[string]string{}
	for _, o := range outs {
		f := tc.begin("parse")
		_, err := biocoder.ParseScript(o.rq.src)
		tc.end(f, "parser")
		if err != nil {
			return err
		}
		if o.rq.kind != kindSimulate {
			continue
		}
		exe, ok := exes[o.rq.script]
		if !ok {
			var resp serve.CompileResponse
			r := s.do(context.Background(), request{kind: kindRepeat, script: o.rq.script, src: o.rq.src}, time.Now(), false)
			if r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("fetching %s: %v", o.rq.script, r.err)
			}
			if err := json.Unmarshal(r.body, &resp); err != nil {
				return err
			}
			exe = resp.Executable
			exes[o.rq.script] = exe
		}
		f = tc.begin("decode.executable")
		_, err = biocoder.Load(strings.NewReader(exe))
		tc.end(f, "codegen")
		if err != nil {
			return err
		}
		tc.add("codegen.decode_ms", ms(f.sp.Duration))
	}
	tc.finish(float64(len(outs)))
	return nil
}

func walkSpans(s *obs.Span, fn func(*obs.Span)) {
	fn(s)
	for _, c := range s.Children {
		walkSpans(c, fn)
	}
}

// spansFromChrome rebuilds a span tree from the complete events of a
// Chrome trace (bfd's ?trace=1 export), nesting each event under the
// innermost earlier event that contains it. Begin times are placed
// relative to base.
func spansFromChrome(doc []byte, base time.Time) ([]*obs.Span, error) {
	ct, err := obs.ReadChromeTrace(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	evs := append([]obs.TraceEvent(nil), ct.TraceEvents...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		return evs[i].Dur > evs[j].Dur
	})
	var roots, stack []*obs.Span
	var ends []float64
	for _, ev := range evs {
		if ev.Ph != "X" {
			continue
		}
		sp := &obs.Span{
			Name:     ev.Name,
			Begin:    base.Add(time.Duration(ev.Ts * float64(time.Microsecond))),
			Duration: time.Duration(ev.Dur * float64(time.Microsecond)),
		}
		for len(stack) > 0 && ev.Ts >= ends[len(ends)-1] {
			stack, ends = stack[:len(stack)-1], ends[:len(ends)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, sp)
		} else {
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, sp)
		}
		stack, ends = append(stack, sp), append(ends, ev.Ts+ev.Dur)
	}
	if len(roots) == 0 {
		return nil, errors.New("empty trace")
	}
	return roots, nil
}
