package serve

// Throughput and latency benchmarks for the bfd request path, separating
// the three compile dispositions: cold (backend compile every time), cache
// hit (LRU lookup + byte copy), and coalesced (N concurrent identical
// requests sharing one backend compile). TestWriteBenchServeJSON runs the
// same scenarios under testing.Benchmark and emits a machine-readable
// BENCH_serve.json when BENCH_SERVE_OUT is set (CI archives it).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"biocoder"
)

const benchFan = 8 // concurrent requests per coalesced round

func benchPost(url, body string) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// BenchmarkCompileCold measures the uncached path: the cache is disabled,
// so every sequential request runs a full backend compile plus the verify
// gate and response encoding.
func BenchmarkCompileCold(b *testing.B) {
	ts := httptest.NewServer(New(Config{CacheBytes: -1}).Handler())
	defer ts.Close()
	body := compileBody(testAssay)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchPost(ts.URL+"/v1/compile", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCacheHit measures the hot path: one warming compile,
// then every request is an LRU hit serving the cached body.
func BenchmarkCompileCacheHit(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := compileBody(testAssay)
	if err := benchPost(ts.URL+"/v1/compile", body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchPost(ts.URL+"/v1/compile", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSourceHit measures the repeat of a BioScript source:
// one warming compile of pcr.bio, then every identical request is an LRU
// hit found through the request-key memo, without parsing the source.
func BenchmarkCompileSourceHit(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := sourceBody(b, readScript(b, "pcr.bio"))
	if err := benchPost(ts.URL+"/v1/compile", body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchPost(ts.URL+"/v1/compile", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCoalesced measures singleflight amortization: each
// iteration fires benchFan concurrent identical requests against a
// cacheless server, so they coalesce onto (at most) one backend compile
// per round. Per-op cost is the whole round.
func BenchmarkCompileCoalesced(b *testing.B) {
	s := New(Config{CacheBytes: -1, Workers: benchFan})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := compileBody(testAssay)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, benchFan)
		for j := 0; j < benchFan; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				errs[j] = benchPost(ts.URL+"/v1/compile", body)
			}(j)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.stats.Compiles.Load())/float64(b.N), "compiles/round")
}

// BenchmarkSimulate measures an end-to-end compile-from-cache-and-simulate
// round (deterministic early-exit scenario, sparse telemetry sampling).
func BenchmarkSimulate(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"assay":%q,"scenario":"early-exit","seed":7,"every":100000}`, testAssay)
	if err := benchPost(ts.URL+"/v1/simulate", body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchPost(ts.URL+"/v1/simulate", body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteBenchServeJSON emits the serving benchmarks in machine-readable
// form to the path in BENCH_SERVE_OUT (skipped when unset). CI runs it and
// archives the artifact so throughput regressions are diffable across PRs.
func TestWriteBenchServeJSON(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		t.Skip("BENCH_SERVE_OUT not set")
	}
	scenarios := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"compileCold", BenchmarkCompileCold},
		{"compileCacheHit", BenchmarkCompileCacheHit},
		{"compileCoalesced", BenchmarkCompileCoalesced},
		{"simulate", BenchmarkSimulate},
	}
	type row struct {
		N           int     `json:"n"`
		NsPerOp     int64   `json:"nsPerOp"`
		MsPerOp     float64 `json:"msPerOp"`
		OpsPerSec   float64 `json:"opsPerSec"`
		BytesPerOp  int64   `json:"bytesPerOp"`
		AllocsPerOp int64   `json:"allocsPerOp"`
	}
	doc := struct {
		Version string         `json:"compilerVersion"`
		GoOS    string         `json:"goos"`
		GoArch  string         `json:"goarch"`
		CPUs    int            `json:"cpus"`
		Assay   string         `json:"assay"`
		Results map[string]row `json:"results"`
	}{
		Version: biocoder.Version,
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Assay:   testAssay,
		Results: map[string]row{},
	}
	for _, sc := range scenarios {
		r := testing.Benchmark(sc.fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", sc.name)
		}
		ns := r.NsPerOp()
		doc.Results[sc.name] = row{
			N:           r.N,
			NsPerOp:     ns,
			MsPerOp:     float64(ns) / 1e6,
			OpsPerSec:   1e9 / float64(ns),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		t.Logf("%-18s %s", sc.name, r)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
