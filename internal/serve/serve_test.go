package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"biocoder/internal/codegen"
	"biocoder/internal/verify"
)

const testAssay = "Probabilistic PCR"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func compileBody(assay string) string {
	return fmt.Sprintf(`{"assay":%q}`, assay)
}

// mustVerifyClean decodes the executable from a compile response body and
// re-runs the full static verifier over it: every served executable must
// be bfvet-clean.
func mustVerifyClean(t *testing.T, body []byte) {
	t.Helper()
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshaling compile response: %v", err)
	}
	if resp.Executable == "" {
		t.Fatal("compile response has no executable")
	}
	ex, err := codegen.Decode(strings.NewReader(resp.Executable))
	if err != nil {
		t.Fatalf("decoding served executable: %v", err)
	}
	rep := verify.Run(&verify.Unit{Exec: ex})
	if rep.HasErrors() {
		t.Fatalf("served executable fails verification:\n%s", rep)
	}
	for _, d := range resp.Diagnostics {
		if d.Severity == verify.Error.String() {
			t.Fatalf("served response carries an error diagnostic: %+v", d)
		}
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Bfd-Cache"); got != "miss" {
		t.Errorf("X-Bfd-Cache = %q, want miss", got)
	}
	if resp.Header.Get("X-Bfd-Key") == "" {
		t.Error("missing X-Bfd-Key header")
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if cr.Key != resp.Header.Get("X-Bfd-Key") {
		t.Errorf("body key %q != header key %q", cr.Key, resp.Header.Get("X-Bfd-Key"))
	}
	if cr.Summary.Blocks == 0 || cr.Summary.BlockCycles == 0 {
		t.Errorf("empty summary: %+v", cr.Summary)
	}
	mustVerifyClean(t, body)
}

func TestCompileCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, body1 := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	resp2, body2 := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Bfd-Cache"); got != "hit" {
		t.Errorf("second request X-Bfd-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("hit and miss bodies differ")
	}
	if got := s.stats.Compiles.Load(); got != 1 {
		t.Errorf("backend compiles = %d, want 1", got)
	}
	if got := s.stats.CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestCompileCoalescing is the singleflight acceptance test: N concurrent
// identical requests trigger exactly one backend compile, and every
// requester receives the byte-identical, verifier-clean response.
func TestCompileCoalescing(t *testing.T) {
	const n = 8
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: n})
	var once sync.Once
	s.testCompileStarted = func(string) {
		once.Do(func() { close(started) })
		<-release
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		errs   []error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
				strings.NewReader(compileBody(testAssay)))
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			if resp.StatusCode != http.StatusOK {
				errs = append(errs, fmt.Errorf("status %d: %s", resp.StatusCode, body))
			} else {
				bodies = append(bodies, body)
			}
			mu.Unlock()
		}()
	}

	// Hold the one backend compile until every request is in flight, so
	// all of them must coalesce onto it (or hit the cache it fills).
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		inflight := s.inflight
		s.mu.Unlock()
		if inflight >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests in flight", inflight, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if len(bodies) != n {
		t.Fatalf("%d/%d successful responses", len(bodies), n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if got := s.stats.Compiles.Load(); got != 1 {
		t.Errorf("backend compiles = %d, want exactly 1", got)
	}
	if got := s.stats.Coalesced.Load() + s.stats.CacheHits.Load(); got != n-1 {
		t.Errorf("coalesced+hits = %d, want %d", got, n-1)
	}
	mustVerifyClean(t, bodies[0])
}

// TestDrain asserts lame-duck shutdown: in-flight requests finish, new
// requests and health checks are refused while draining.
func TestDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 2})
	var once sync.Once
	s.testCompileStarted = func(string) {
		once.Do(func() { close(started) })
		<-release
	}

	type result struct {
		status int
		body   []byte
		err    error
	}
	inflightDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
			strings.NewReader(compileBody(testAssay)))
		if err != nil {
			inflightDone <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflightDone <- result{status: resp.StatusCode, body: body}
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()

	// Draining must become observable (on readiness, not liveness) before
	// the in-flight compile ends.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 while draining")
		}
		time.Sleep(time.Millisecond)
	}
	// Liveness must hold through the drain: the process is healthy, it is
	// just refusing new work.
	if resp, err := http.Get(ts.URL + "/v1/healthz"); err != nil {
		t.Fatalf("healthz during drain: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz during drain = %d, want 200", resp.StatusCode)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, body %s", resp.StatusCode, body)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned (%v) before the in-flight request finished", err)
	default:
	}

	close(release)
	r := <-inflightDone
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request drained with status %d: %s", r.status, r.body)
	}
	mustVerifyClean(t, r.body)
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := s.stats.Rejected.Load(); got == 0 {
		t.Error("drained request was not counted as rejected")
	}
}

func TestSimulateStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"assay":%q,"scenario":"early-exit","seed":7,"every":50}`, testAssay)
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var recs []SimRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec SimRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("only %d records; want start + telemetry + result", len(recs))
	}
	if recs[0].Type != "start" || recs[0].Key == "" {
		t.Errorf("first record = %+v, want start with key", recs[0])
	}
	last := recs[len(recs)-1]
	if last.Type != "result" {
		t.Fatalf("last record = %+v, want result", last)
	}
	if last.Cycles <= 0 || last.TimeSeconds <= 0 {
		t.Errorf("empty result: %+v", last)
	}
	sawTelemetry := false
	for _, rec := range recs[1 : len(recs)-1] {
		if rec.Type == "telemetry" && rec.Cycle > 0 {
			sawTelemetry = true
		}
	}
	if !sawTelemetry {
		t.Error("no telemetry records in stream")
	}
	if got := s.stats.Simulates.Load(); got != 1 {
		t.Errorf("simulates = %d, want 1", got)
	}

	// The compile that backed this simulation populated the cache: an
	// identical /v1/compile request must hit it.
	resp2, _ := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if got := resp2.Header.Get("X-Bfd-Cache"); got != "hit" {
		t.Errorf("compile after simulate: X-Bfd-Cache = %q, want hit", got)
	}
}

func TestCompileTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile?trace=1", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var traced struct {
		Trace  json.RawMessage `json:"trace"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatalf("unmarshal traced response: %v", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traced.Trace, &chrome); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	mustVerifyClean(t, traced.Result)

	// The inner result must be the canonical cached body, byte for byte.
	resp2, body2 := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if got := resp2.Header.Get("X-Bfd-Cache"); got != "hit" {
		t.Errorf("X-Bfd-Cache = %q, want hit", got)
	}
	if !bytes.Equal([]byte(traced.Result), body2) {
		t.Error("traced result differs from canonical cached body")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 4 << 10})
	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown assay", `{"assay":"no such assay"}`, http.StatusBadRequest},
		{"both inputs", `{"assay":"PCR","source":"x"}`, http.StatusBadRequest},
		{"neither input", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"assy":"PCR"}`, http.StatusBadRequest},
		{"bad source", `{"source":"definitely not bioscript("}`, http.StatusBadRequest},
		{"oversized body", `{"source":"` + strings.Repeat("x", 8<<10) + `"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/compile", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q not an ErrorResponse (%v)", body, err)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile: status %d, want 405", resp.StatusCode)
	}
}

// A chip of more than arch.MaxElectrodes electrodes is a client error on
// both routes that read one: a compile request's chip, and the [chip]
// section of a posted executable (its east ports moved to the new edge,
// so only the size is wrong).
func TestOversizedChipRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := json.Marshal(map[string]any{"assay": testAssay, "chip": "chip 4000 4000\ncycle 10ms\noutput o east 3999 2\n"})
	if resp, body := postJSON(t, ts.URL+"/v1/compile", string(req)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("compile on a 4000x4000 chip: %d %s, want 400", resp.StatusCode, body)
	}

	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(cr.Executable, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 3 && f[0] == "chip":
			lines[i] = "chip 4000 4000"
		case len(f) >= 5 && f[2] == "east":
			f[3] = "3999"
			lines[i] = strings.Join(f, " ")
		}
	}
	sim, _ := json.Marshal(map[string]any{"executable": strings.Join(lines, "\n")})
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", string(sim)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("simulate on a 4000x4000 chip: %d %s, want 400", resp.StatusCode, body)
	}
}

func TestSimulateBadScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		fmt.Sprintf(`{"assay":%q,"scenario":"no-such-scenario"}`, testAssay))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	resp, _ := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}

	sresp, sbody := getJSON(t, ts.URL+"/v1/stats")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", sresp.StatusCode)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(sbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Compiles != 1 || snap.CacheHits != 1 {
		t.Errorf("snapshot compiles=%d hits=%d, want 1/1", snap.Compiles, snap.CacheHits)
	}
	if snap.Workers != 3 || snap.Version == "" || snap.CacheEntries != 1 || snap.CacheBytes <= 0 {
		t.Errorf("snapshot misconfigured: %+v", snap)
	}
	if snap.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", snap.Requests)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz: %d %s", resp.StatusCode, body)
	}
}

// TestCacheKeySensitivity asserts that every compile input participates in
// the content address: different options or chips must never share a key.
func TestCacheKeySensitivity(t *testing.T) {
	keyOf := func(req CompileRequest) string {
		t.Helper()
		key, err := CacheKey(&req)
		if err != nil {
			t.Fatalf("CacheKey(%+v): %v", req, err)
		}
		return key
	}
	base := keyOf(CompileRequest{Assay: testAssay})
	if got := keyOf(CompileRequest{Assay: testAssay}); got != base {
		t.Error("identical requests produced different keys")
	}
	variants := []CompileRequest{
		{Assay: "PCR"},
		{Assay: testAssay, Options: CompileOptions{SerialSchedules: true}},
		{Assay: testAssay, Options: CompileOptions{MinSlackScheduling: true}},
		{Assay: testAssay, Options: CompileOptions{FoldEdges: true}},
		{Assay: testAssay, Options: CompileOptions{Faults: []Point{{X: 3, Y: 3}}}},
	}
	seen := map[string]int{base: -1}
	for i, req := range variants {
		k := keyOf(req)
		if j, dup := seen[k]; dup {
			t.Errorf("variant %d shares a key with variant %d", i, j)
		}
		seen[k] = i
	}
	// Fault order must not matter.
	a := keyOf(CompileRequest{Assay: testAssay, Options: CompileOptions{Faults: []Point{{X: 1, Y: 2}, {X: 3, Y: 4}}}})
	b := keyOf(CompileRequest{Assay: testAssay, Options: CompileOptions{Faults: []Point{{X: 3, Y: 4}, {X: 1, Y: 2}}}})
	if a != b {
		t.Error("fault order changed the cache key")
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	s.testCompileStarted = func(string) { panic("boom") }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := s.stats.Panics.Load(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	// The server must keep serving after a recovered panic.
	s.testCompileStarted = nil
	resp2, body2 := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d: %s", resp2.StatusCode, body2)
	}
}

func TestRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond, Workers: 1})
	block := make(chan struct{})
	s.testCompileStarted = func(string) { <-block }
	defer close(block)

	// First request occupies the only worker; the second cannot get a
	// slot before its deadline and must be shed.
	go http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(compileBody(testAssay)))
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never entered")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody("PCR"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := s.stats.Timeouts.Load(); got == 0 {
		t.Error("shed request not counted as timeout")
	}
}

// TestStatsBlockMemo holds the process-wide block memo surface: backend
// compiles populate it (misses, entries), a second compile of a different
// program reuses structurally identical blocks (hits, e.g. the empty
// entry/exit blocks), and the counters are exported at /v1/stats. The
// served executables must remain bfvet-clean under memoized compilation.
func TestStatsBlockMemo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, body)
	}
	mustVerifyClean(t, body)
	resp, body = postJSON(t, ts.URL+"/v1/compile", compileBody("PCR"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, body)
	}
	mustVerifyClean(t, body)

	sresp, sbody := getJSON(t, ts.URL+"/v1/stats")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", sresp.StatusCode)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(sbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Compiles != 2 {
		t.Fatalf("compiles = %d, want 2 (distinct programs must both reach the backend)", snap.Compiles)
	}
	if snap.MemoMisses == 0 || snap.MemoEntries == 0 {
		t.Errorf("block memo never populated: %+v", snap)
	}
	if snap.MemoHits == 0 {
		t.Errorf("no block reuse across compiles (entry/exit blocks at least should hit): %+v", snap)
	}
	if snap.MemoRejected != 0 {
		t.Errorf("memo rejected %d translation(s) on a clean corpus", snap.MemoRejected)
	}
	if !bytes.Contains(sbody, []byte("blockMemoHits")) {
		t.Errorf("stats JSON lacks blockMemoHits:\n%s", sbody)
	}
}
