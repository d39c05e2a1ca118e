package serve

// Persistence tests: a daemon restarted over the same -cache-dir/-memo-dir
// must start warm — repeated compile keys come back from the disk store
// (X-Bfd-Cache: disk) byte-identical to the original response, and block
// synthesis reuses persisted memo entries. Plus the propagation contract a
// fronting gateway relies on: caller-supplied request IDs are adopted and
// caller deadlines clamp the per-request budget.

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"biocoder/internal/store"
)

func mustOpenStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// First process: compile once (miss), which writes through to disk.
	s1, ts1 := newTestServer(t, Config{CacheStore: mustOpenStore(t, dir)})
	resp1, body1 := postJSON(t, ts1.URL+"/v1/compile", compileBody(testAssay))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Bfd-Cache"); got != "miss" {
		t.Fatalf("first compile disposition = %q, want miss", got)
	}
	if st := s1.cfg.CacheStore.Stats(); st.Writes != 1 {
		t.Fatalf("disk writes = %d, want 1", st.Writes)
	}

	// Second process over the same directory: the repeated key must be
	// served from disk, byte-identical, without a backend compile.
	s2, ts2 := newTestServer(t, Config{CacheStore: mustOpenStore(t, dir)})
	resp2, body2 := postJSON(t, ts2.URL+"/v1/compile", compileBody(testAssay))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted compile: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Bfd-Cache"); got != "disk" {
		t.Fatalf("restarted compile disposition = %q, want disk", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("disk-served body differs from the original compile")
	}
	if got := s2.stats.Compiles.Load(); got != 0 {
		t.Fatalf("restarted daemon ran %d backend compiles, want 0", got)
	}

	// The disk hit promoted the entry into the LRU: a third request is a
	// plain memory hit.
	resp3, _ := postJSON(t, ts2.URL+"/v1/compile", compileBody(testAssay))
	if got := resp3.Header.Get("X-Bfd-Cache"); got != "hit" {
		t.Fatalf("post-promotion disposition = %q, want hit", got)
	}

	// /v1/stats carries the disk disposition.
	_, sbody := getJSON(t, ts2.URL+"/v1/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(sbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.DiskHits != 1 || snap.DiskCorrupt != 0 {
		t.Fatalf("stats diskHits=%d diskCorrupt=%d, want 1/0", snap.DiskHits, snap.DiskCorrupt)
	}
}

// A traced request served from disk shows the LRU lookup and, inside it,
// the disk lookup, which the benchmark charges to the store layer.
func TestDiskLookupTraced(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheStore: mustOpenStore(t, dir)})
	postJSON(t, ts1.URL+"/v1/compile", compileBody(testAssay))

	_, ts2 := newTestServer(t, Config{CacheStore: mustOpenStore(t, dir)})
	resp, body := postJSON(t, ts2.URL+"/v1/compile?trace=1", compileBody(testAssay))
	if got := resp.Header.Get("X-Bfd-Cache"); got != "disk" {
		t.Fatalf("disposition = %q, want disk", got)
	}
	var traced struct {
		Trace struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range traced.Trace.TraceEvents {
		seen[ev.Name] = true
	}
	if !seen["cache.lookup"] || !seen["disk.lookup"] {
		t.Fatalf("trace spans %v lack cache.lookup or disk.lookup", seen)
	}
}

func TestMemoStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	_, ts1 := newTestServer(t, Config{MemoStore: mustOpenStore(t, dir)})
	if resp, body := postJSON(t, ts1.URL+"/v1/compile", compileBody(testAssay)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d %s", resp.StatusCode, body)
	}

	// A fresh daemon with an empty in-memory memo but the same memo dir:
	// the backend compile must reuse persisted per-block artifacts, and
	// the output must stay byte-identical.
	_, ts0 := newTestServer(t, Config{})
	_, coldBody := postJSON(t, ts0.URL+"/v1/compile", compileBody(testAssay))

	s2, ts2 := newTestServer(t, Config{MemoStore: mustOpenStore(t, dir)})
	resp, warmBody := postJSON(t, ts2.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm compile: %d %s", resp.StatusCode, warmBody)
	}
	if got := resp.Header.Get("X-Bfd-Cache"); got != "miss" {
		t.Fatalf("warm compile disposition = %q, want miss (no response cache here)", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("memo-warmed compile is not byte-identical to a cold compile")
	}
	ms := s2.memo.Stats()
	if ms.DiskHits == 0 {
		t.Fatalf("restarted daemon never hit the persisted memo: %+v", ms)
	}

	_, sbody := getJSON(t, ts2.URL+"/v1/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(sbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.MemoDiskHits == 0 {
		t.Fatalf("stats blockMemoDiskHits = 0: %s", sbody)
	}
}

func TestRequestIDAdoption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRequestID, "gw-abc123.retry-2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Bfd-Request"); got != "gw-abc123.retry-2" {
		t.Fatalf("request ID not adopted: got %q", got)
	}

	// Malformed IDs (oversized, forbidden characters) are replaced with a
	// freshly minted one, never echoed.
	oversized := strings.Repeat("x", 65)
	req.Header.Set(HeaderRequestID, oversized)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Bfd-Request"); got == "" || got == oversized {
		t.Fatalf("oversized request ID echoed: %q", got)
	}
}

func TestDeadlineHeaderClampsTimeout(t *testing.T) {
	// The server's own ceiling is a minute; a caller advertising 50 ms of
	// remaining budget must give up on the worker queue at ~50 ms, not 60 s.
	// Saturate the single worker slot directly (in-package) so the request
	// queues, then watch the clamped deadline expire.
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Minute})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", strings.NewReader(compileBody(testAssay)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderDeadlineMs, "50")
	begin := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (clamped deadline expired in queue)", resp.StatusCode)
	}
	if waited := time.Since(begin); waited > 10*time.Second {
		t.Fatalf("waited %v before rejecting; the 50 ms advertised budget did not clamp", waited)
	}

	// A roomy advertised budget must not get in the way once a slot frees.
	<-s.sem
	defer func() { s.sem <- struct{}{} }() // rebalance for the deferred drain above
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", strings.NewReader(compileBody(testAssay)))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(HeaderDeadlineMs, "60000")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status with roomy deadline = %d, want 200", resp2.StatusCode)
	}
}

func TestSimulatePostedExecutable(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Compile once to obtain a verified executable.
	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}

	// Simulate by posting the executable back: no compile, cache
	// disposition "posted", and a result record at the end.
	simReq, err := json.Marshal(map[string]any{
		"executable": cr.Executable,
		"assay":      testAssay,
		"scenario":   "early-exit",
		"seed":       7,
		"every":      100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{}) // fresh daemon: proves no compile needed
	resp2, nd := postJSON(t, ts2.URL+"/v1/simulate", string(simReq))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp2.StatusCode, nd)
	}
	if got := resp2.Header.Get("X-Bfd-Cache"); got != "posted" {
		t.Fatalf("disposition = %q, want posted", got)
	}
	lines := strings.Split(strings.TrimSpace(string(nd)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream too short: %q", nd)
	}
	var last SimRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "result" || last.Cycles == 0 {
		t.Fatalf("final record = %+v, want a result", last)
	}
	if got := s2.stats.Compiles.Load(); got != 0 {
		t.Fatalf("posted-executable simulate ran %d compiles, want 0", got)
	}

	// Garbage executables are a client error, not a 500.
	bad, _ := json.Marshal(map[string]any{"executable": "not an executable"})
	resp3, _ := postJSON(t, ts2.URL+"/v1/simulate", string(bad))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage executable: %d, want 400", resp3.StatusCode)
	}

	// Executable + source is ambiguous: refused.
	amb, _ := json.Marshal(map[string]any{"executable": cr.Executable, "source": "x"})
	resp4, _ := postJSON(t, ts2.URL+"/v1/simulate", string(amb))
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("executable+source: %d, want 400", resp4.StatusCode)
	}
}

func TestDiskCorruptEntryFallsBackToCompile(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{CacheStore: mustOpenStore(t, dir)})
	resp, body1 := postJSON(t, ts1.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d", resp.StatusCode)
	}
	_ = s1

	// Corrupt every stored artifact byte-by-byte flip.
	corruptAll(t, dir)

	_, ts2 := newTestServer(t, Config{CacheStore: mustOpenStore(t, dir)})
	resp2, body2 := postJSON(t, ts2.URL+"/v1/compile", compileBody(testAssay))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("compile after corruption: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Bfd-Cache"); got != "miss" {
		t.Fatalf("disposition = %q, want miss (corrupt disk must not serve)", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("recompiled body differs from the original")
	}
	_, sbody := getJSON(t, ts2.URL+"/v1/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(sbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.DiskCorrupt == 0 {
		t.Fatalf("diskCorrupt = 0 after tampering: %s", sbody)
	}
}

// An intact store entry whose payload is not a response entry (a format
// revision this build does not read) is a miss, counted corrupt and
// quarantined, and the recompile takes its place on disk.
func TestDiskUndecodableEntryQuarantined(t *testing.T) {
	disk := mustOpenStore(t, t.TempDir())
	key, err := CacheKey(&CompileRequest{Assay: testAssay})
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put(key, []byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CacheStore: disk})
	resp, body := postJSON(t, ts.URL+"/v1/compile", compileBody(testAssay))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Bfd-Cache"); got != "miss" {
		t.Fatalf("disposition = %q, want miss", got)
	}
	_, sbody := getJSON(t, ts.URL+"/v1/stats")
	var snap StatsSnapshot
	if err := json.Unmarshal(sbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.DiskCorrupt != 1 || snap.DiskHits != 0 {
		t.Fatalf("stats diskCorrupt=%d diskHits=%d, want 1/0", snap.DiskCorrupt, snap.DiskHits)
	}
	if st := disk.Stats(); st.Quarantined != 1 || st.Writes != 2 {
		t.Fatalf("store stats = %+v, want 1 quarantined and the recompile written", st)
	}
	_, ts2 := newTestServer(t, Config{CacheStore: disk})
	if resp, _ := postJSON(t, ts2.URL+"/v1/compile", compileBody(testAssay)); resp.Header.Get("X-Bfd-Cache") != "disk" {
		t.Fatalf("restarted disposition = %q, want disk", resp.Header.Get("X-Bfd-Cache"))
	}
}

// corruptAll flips the last byte of every .art file under dir.
func corruptAll(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x01
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no .art files found to corrupt")
	}
}
