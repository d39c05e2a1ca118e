package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"biocoder/internal/arch"
	"biocoder/internal/obs"
	"biocoder/internal/store"
)

// readScript returns a corpus script's BioScript source.
func readScript(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "assays", "scripts", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func sourceBody(t testing.TB, src string) string {
	t.Helper()
	b, err := json.Marshal(&CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tracedSpans posts body to ?trace=1 and returns the disposition, the key,
// the canonical body and the names of the request's spans.
func tracedSpans(t *testing.T, url, body string) (disp, key string, result []byte, names []string) {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/compile?trace=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var traced struct {
		Trace  json.RawMessage `json:"trace"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &traced); err != nil {
		t.Fatal(err)
	}
	ct, err := obs.ReadChromeTrace(bytes.NewReader(traced.Trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range ct.TraceEvents {
		names = append(names, ev.Name)
	}
	return resp.Header.Get("X-Bfd-Cache"), resp.Header.Get("X-Bfd-Key"), traced.Result, names
}

// resolveSpans resolves req in process and returns the disposition, the
// entry and the span tree resolve recorded, as "name(child child)".
func resolveSpans(t *testing.T, s *Server, req CompileRequest) (string, *entry, string) {
	t.Helper()
	tr := obs.NewTracer()
	e, disp, err := s.resolve(context.Background(), tr, &req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	var render func(sps []*obs.Span) string
	render = func(sps []*obs.Span) string {
		var parts []string
		for _, sp := range sps {
			p := sp.Name
			if len(sp.Children) > 0 {
				p += "(" + render(sp.Children) + ")"
			}
			parts = append(parts, p)
		}
		return strings.Join(parts, " ")
	}
	return disp, e, render(tr.Roots())
}

// An identical repeat is answered from the cache without canonicalizing:
// its span tree is serve.compile with decode and cache.lookup only, and it
// carries the first answer's key and body.
func TestRepeatSkipsCanonicalize(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := sourceBody(t, readScript(t, "pcr.bio"))

	disp1, key1, result1, names1 := tracedSpans(t, ts.URL, body)
	if disp1 != "miss" || !slices.Contains(names1, "canonicalize") {
		t.Fatalf("first request: %s with spans %v, want a miss that canonicalizes", disp1, names1)
	}
	disp2, key2, result2, names2 := tracedSpans(t, ts.URL, body)
	if disp2 != "hit" {
		t.Fatalf("repeat disposition = %q, want hit", disp2)
	}
	slices.Sort(names2)
	if want := []string{"cache.lookup", "decode", "serve.compile"}; !slices.Equal(names2, want) {
		t.Errorf("repeat spans = %v, want %v", names2, want)
	}
	if key2 != key1 || !bytes.Equal(result2, result1) {
		t.Error("repeat answered with another key or body")
	}
	if want, err := CacheKey(&CompileRequest{Source: readScript(t, "pcr.bio")}); err != nil || key1 != want {
		t.Errorf("X-Bfd-Key = %s, want CacheKey's %s (%v)", key1, want, err)
	}
	if st := s.requests.Stats(); st.Entries != 1 {
		t.Errorf("request memo holds %d entries, want 1", st.Entries)
	}
	if got := s.stats.Compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
}

// A formatting variant of a cached source is canonicalized once and then
// shares the cached entry: a hit under the same key with the same body.
func TestRepeatFormattingVariant(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := readScript(t, "pcr.bio")
	resp1, body1 := postJSON(t, ts.URL+"/v1/compile", sourceBody(t, src))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	variant := sourceBody(t, src+"\n# a comment changes the bytes, not the program\n")
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/compile", variant)
		if got := resp.Header.Get("X-Bfd-Cache"); got != "hit" {
			t.Fatalf("variant request %d: X-Bfd-Cache = %q, want hit", i, got)
		}
		if resp.Header.Get("X-Bfd-Key") != resp1.Header.Get("X-Bfd-Key") || !bytes.Equal(body, body1) {
			t.Fatalf("variant request %d answered with another key or body", i)
		}
	}
	if st := s.requests.Stats(); st.Entries != 2 {
		t.Errorf("request memo holds %d entries, want 2 (the source and its variant)", st.Entries)
	}
	if got := s.stats.Compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
}

// A request that fails to canonicalize is refused every time it arrives,
// and leaves nothing in the request memo.
func TestRepeatBadRequestNotMemoized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, body := range []string{
		sourceBody(t, "definitely not bioscript("),
		`{"assay":"no such assay"}`,
		`{"assay":"PCR","chip":"chip 0 0\ncycle 1ms"}`,
	} {
		for i := 0; i < 3; i++ {
			resp, data := postJSON(t, ts.URL+"/v1/compile", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s, attempt %d: status %d (%s), want 400", body, i, resp.StatusCode, data)
			}
			resp, data = postJSON(t, ts.URL+"/v1/simulate", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("simulate %s, attempt %d: status %d (%s), want 400", body, i, resp.StatusCode, data)
			}
		}
	}
	if st := s.requests.Stats(); st.Entries != 0 {
		t.Errorf("request memo holds %d entries, want none", st.Entries)
	}
}

// The memo forgets its least recently used request key at its bound: that
// request is canonicalized again, while a refreshed one is not.
func TestRequestMemoEvictsLRU(t *testing.T) {
	s := New(Config{})
	src := readScript(t, "pcr.bio")
	variant := func(i int) CompileRequest {
		return CompileRequest{Source: fmt.Sprintf("%s\n# variant %d\n", src, i)}
	}
	for i := 0; i < requestKeyBound; i++ {
		if _, _, spans := resolveSpans(t, s, variant(i)); !strings.Contains(spans, "canonicalize") {
			t.Fatalf("first request of variant %d did not canonicalize: %s", i, spans)
		}
	}
	// Refresh variant 0; variant 1 becomes the least recently used.
	if _, _, spans := resolveSpans(t, s, variant(0)); spans != "cache.lookup" {
		t.Fatalf("repeat of variant 0 spans = %s, want cache.lookup only", spans)
	}
	resolveSpans(t, s, variant(requestKeyBound))
	if st := s.requests.Stats(); st.Entries != requestKeyBound || st.Evicted != 1 {
		t.Fatalf("request memo stats = %+v, want %d entries and 1 eviction", st, requestKeyBound)
	}
	if _, _, spans := resolveSpans(t, s, variant(0)); spans != "cache.lookup" {
		t.Errorf("refreshed variant 0 spans = %s, want cache.lookup only", spans)
	}
	if disp, _, spans := resolveSpans(t, s, variant(1)); disp != "hit" || !strings.Contains(spans, "canonicalize") {
		t.Errorf("evicted variant 1: %s with spans %s, want a hit that canonicalizes", disp, spans)
	}
}

// A request whose response has left both tiers is canonicalized again and
// recompiled under the key the memo holds for it.
func TestRepeatAfterEviction(t *testing.T) {
	s := New(Config{CacheBytes: -1})
	req := CompileRequest{Source: readScript(t, "pcr.bio")}
	disp1, e1, _ := resolveSpans(t, s, req)
	disp2, e2, spans := resolveSpans(t, s, req)
	if disp1 != "miss" || disp2 != "miss" || !strings.Contains(spans, "canonicalize") {
		t.Fatalf("without a cache: %s then %s (%s), want two misses that canonicalize", disp1, disp2, spans)
	}
	if e1.key != e2.key || !bytes.Equal(e1.body, e2.body) {
		t.Error("recompile answered with another key or body")
	}
}

// Across the corpus scripts, option sets and chips, a repeat answers with
// the key canonicalize computes and the body of the first answer, and
// /v1/simulate repeats share the memo with /v1/compile.
func TestRepeatKeysMatchCanonical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var chip bytes.Buffer
	if err := arch.WriteConfig(&chip, arch.Large()); err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob(filepath.Join("..", "assays", "scripts", "*.bio"))
	if err != nil || len(scripts) != 6 {
		t.Fatalf("corpus scripts: %v (%v)", scripts, err)
	}
	var reqs []CompileRequest
	for _, path := range scripts {
		src := readScript(t, filepath.Base(path))
		reqs = append(reqs,
			CompileRequest{Source: src},
			CompileRequest{Source: src, Options: CompileOptions{FoldEdges: true, Workers: 2}},
			CompileRequest{Source: src, Chip: chip.String()})
	}
	reqs = append(reqs, CompileRequest{Assay: "PCR"}, CompileRequest{Assay: "PCR", Options: CompileOptions{SerialSchedules: true}})
	for _, req := range reqs {
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CacheKey(&req)
		if err != nil {
			t.Fatal(err)
		}
		resp1, body1 := postJSON(t, ts.URL+"/v1/compile", string(body))
		resp2, body2 := postJSON(t, ts.URL+"/v1/compile", string(body))
		if resp1.StatusCode != http.StatusOK || resp2.Header.Get("X-Bfd-Cache") != "hit" {
			t.Fatalf("%.40q: status %d then %q, want 200 then a hit", req.Source+req.Assay, resp1.StatusCode, resp2.Header.Get("X-Bfd-Cache"))
		}
		if k1, k2 := resp1.Header.Get("X-Bfd-Key"), resp2.Header.Get("X-Bfd-Key"); k1 != want || k2 != want {
			t.Errorf("%.40q: keys %s, %s, want %s", req.Source+req.Assay, k1, k2, want)
		}
		if !bytes.Equal(body1, body2) {
			t.Errorf("%.40q: repeat body differs", req.Source+req.Assay)
		}
		if memo, tier := s.requests.Get(nil, requestKey(&req)); tier != store.Memory || memo != want {
			t.Errorf("%.40q: memoized key %s (tier %d), want %s", req.Source+req.Assay, memo, tier, want)
		}
	}
	before := s.requests.Stats().Entries
	resp, data := postJSON(t, ts.URL+"/v1/simulate", sourceBody(t, readScript(t, "pcr.bio")))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Bfd-Cache") != "hit" {
		t.Fatalf("simulate repeat: status %d, X-Bfd-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Bfd-Cache"), data)
	}
	if after := s.requests.Stats().Entries; after != before {
		t.Errorf("simulate repeat added a memo entry: %d → %d", before, after)
	}
}

// Concurrent identical repeats and formatting variants all receive the one
// compiled body (run it under -race).
func TestRepeatConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	src := readScript(t, "pcr.bio")
	_, want := postJSON(t, ts.URL+"/v1/compile", sourceBody(t, src))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := sourceBody(t, fmt.Sprintf("%s\n# client %d\n", src, g%2))
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("client %d request %d: status %d, body differs", g, i, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.stats.Compiles.Load(); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	if st := s.requests.Stats(); st.Entries != 3 {
		t.Errorf("request memo holds %d entries, want 3", st.Entries)
	}
}
