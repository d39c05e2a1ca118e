package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"biocoder/internal/obs"
	"biocoder/internal/verify"
)

// Per-layer metrics, in BENCHMARK.json order. Times are per pass on the
// closed-loop workloads and per request on serve; see NOTES.md.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"parser.ms", "ms"}, {"parser.alloc_mb", "MiB"},
		{"cfg.lower_ms", "ms"}, {"cfg.ssi_ms", "ms"},
		{"sched.ms", "ms"}, {"place.topology_ms", "ms"}, {"place.ms", "ms"}, {"route.ms", "ms"},
		{"codegen.ms", "ms"}, {"codegen.check_ms", "ms"}, {"codegen.decode_ms", "ms"},
		{"compile.ms", "ms"}, {"compile.alloc_mb", "MiB"},
	}
	for _, a := range assayShort {
		out = append(out, struct{ name, unit string }{"compile." + a + ".ms", "ms"},
			struct{ name, unit string }{"compile." + a + ".alloc_mb", "MiB"})
	}
	out = append(out, struct{ name, unit string }{"verify.ms", "ms"})
	for _, p := range verify.Passes() {
		out = append(out, struct{ name, unit string }{"verify." + p.Name + "_ms", "ms"})
	}
	out = append(out, []struct{ name, unit string }{
		{"depgraph.ms", "ms"}, {"depgraph.memo_hit_ratio", "ratio"},
		{"pinsafe.ms", "ms"}, {"pinsafe.interference_ms", "ms"}, {"pinsafe.assign_ms", "ms"}, {"pinsafe.broadcast_ms", "ms"},
		{"analysis.volume_ms", "ms"}, {"analysis.timing_ms", "ms"}, {"analysis.contamination_ms", "ms"},
	}...)
	for _, a := range assayShort {
		out = append(out, struct{ name, unit string }{"exec.ns_per_cycle." + a, "ns"})
	}
	out = append(out, []struct{ name, unit string }{
		{"exec.recovery_ms", "ms"}, {"exec.lost_cycles", "count"},
		{"serve.hit_ms", "ms"}, {"serve.disk_ms", "ms"}, {"serve.miss_ms", "ms"}, {"serve.sim_ms", "ms"},
		{"serve.canonicalize_ms", "ms"}, {"serve.lru_hit_ratio", "ratio"}, {"serve.coalesced", "count"},
		{"serve.worker_wait_ms", "ms"}, {"serve.late_ms", "ms"},
		{"store.disk_hit_ratio", "ratio"}, {"store.writes", "count"},
		{"obs.trace_overhead_pct", "%"},
	}...)
	return out
}()

// assayShort names the Table 1 assays in per-assay metrics.
var assayShort = []string{"opiate", "ppcr", "replenish", "image", "neuro", "pcr"}

var shortOf = map[string]string{
	"Opiate detection immunoassay": "opiate",
	"Probabilistic PCR":            "ppcr",
	"PCR w/droplet replenishment":  "replenish",
	"Image probe synthesis":        "image",
	"Neurotransmitter sensing":     "neuro",
	"PCR":                          "pcr",
	"opiate.bio":                   "opiate",
	"probabilistic_pcr.bio":        "ppcr",
	"pcr_replenish.bio":            "replenish",
	"image_probe.bio":              "image",
	"neurotransmitter.bio":         "neuro",
	"pcr.bio":                      "pcr",
}

// layerOf maps a span name to the module doing the work; spans not named
// here (per-block and per-edge detail) belong to their parent's layer.
var layerOf = map[string]string{
	"parse":            "parser",
	"lower":            "cfg",
	"ssi":              "cfg",
	"compile":          "biocoder",
	"biocoder.Compile": "biocoder",
	"recompile":        "biocoder",
	"blocks":           "biocoder",
	"topology":         "place",
	"place":            "place",
	"schedule":         "sched",
	"codegen":          "codegen",
	"edges":            "codegen",
	"check":            "codegen",
	"encode":           "codegen",
	"decode":           "serve",
	"route":            "route",
	"verify":           "verify",
	"depgraph":         "depgraph",
	"pinsafe":          "pinsafe",
	"interference":     "pinsafe",
	"assign":           "pinsafe",
	"broadcast":        "pinsafe",
	"analysis":         "analysis",
	"run":              "exec",
	"recover":          "exec",
	"recovery-repair":  "exec",
	// The controller's recompile span covers the hook (the benchmark's
	// own "recompile" child span) and the verify gate on its result, so
	// its self time is the gate.
	"recovery-recompile": "verify",
	"decode.executable":  "codegen",
	"request":            "serve",
	"serve.compile":      "serve",
	"serve.simulate":     "serve",
	"canonicalize":       "serve",
	"cache.lookup":       "serve",
	"disk.lookup":        "store",
	"simulate":           "exec",
}

var layerOrder = []string{"parser", "cfg", "sched", "place", "route", "codegen", "biocoder",
	"verify", "depgraph", "pinsafe", "analysis", "exec", "serve", "store", "bench"}

// tracing collects the traced window: spans recorded around every public
// call (with the program's own spans nested or grafted beneath them),
// allocation per layer, and the per-layer metric values.
type tracing struct {
	mu    sync.Mutex
	tr    *obs.Tracer
	roots []*obs.Span // spans from other tracers (serve requests)
	alloc map[string]uint64
	acc   map[string]float64
	vals  map[string]float64
	self  map[string]time.Duration
	norm  float64
}

func newTracing() *tracing {
	return &tracing{tr: obs.NewTracer(), alloc: map[string]uint64{}, acc: map[string]float64{}, vals: map[string]float64{}}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// frame is one open benchmark span and the allocation count at its start.
type frame struct {
	sp    *obs.Span
	alloc uint64
}

// begin opens a span around a public call. Nil-safe: an untraced run
// passes a nil *tracing and pays nothing.
func (tc *tracing) begin(name string) *frame {
	if tc == nil {
		return nil
	}
	return &frame{sp: tc.tr.Start(name), alloc: totalAlloc()}
}

// end closes f and charges the bytes allocated since begin to key; an
// empty key (a span that only groups others) charges nothing.
func (tc *tracing) end(f *frame, key string) {
	if tc == nil || f == nil {
		return
	}
	a := totalAlloc() - f.alloc
	f.sp.End()
	if key == "" {
		return
	}
	tc.mu.Lock()
	tc.alloc[key] += a
	tc.mu.Unlock()
}

// passTimes grafts a report's PassTimes under sp as consecutive child
// spans named prefix.pass and accumulates prefix.pass_ms.
func (tc *tracing) passTimes(f *frame, prefix string, pts []verify.PassTime) {
	if tc == nil || f == nil {
		return
	}
	at := f.sp.Begin
	for _, pt := range pts {
		f.sp.Graft(&obs.Span{Name: prefix + "." + pt.Name, Begin: at, Duration: pt.Duration})
		at = at.Add(pt.Duration)
		tc.add(prefix+"."+pt.Name+"_ms", ms(pt.Duration))
	}
}

// add accumulates a per-layer quantity (divided by the window's
// normalizer at finish unless it is set directly).
func (tc *tracing) add(name string, v float64) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.acc[name] += v
	tc.mu.Unlock()
}

// set fixes a per-layer metric value as is.
func (tc *tracing) set(name string, v float64) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.vals[name] = v
	tc.mu.Unlock()
}

// graft adds span trees recorded by another tracer.
func (tc *tracing) graft(roots ...*obs.Span) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.roots = append(tc.roots, roots...)
	tc.mu.Unlock()
}

func (tc *tracing) forest() []*obs.Span {
	return append(append([]*obs.Span(nil), tc.tr.Roots()...), tc.roots...)
}

// finish derives the per-layer metrics from the spans and accumulators,
// dividing times and allocations by norm (passes or requests).
func (tc *tracing) finish(norm float64) {
	if tc == nil {
		return
	}
	if norm <= 0 {
		norm = 1
	}
	tc.norm = norm
	roots := tc.forest()
	tc.self = selfByLayer(roots)
	named := func(n string) float64 { return ms(obs.NamedTotal(roots, n)) / norm }
	put := func(name string, v float64) {
		if _, ok := tc.vals[name]; !ok {
			tc.vals[name] = v
		}
	}
	put("parser.ms", ms(tc.self["parser"])/norm)
	put("parser.alloc_mb", float64(tc.alloc["parser"])/mib/norm)
	put("cfg.lower_ms", named("lower"))
	put("cfg.ssi_ms", named("ssi"))
	put("sched.ms", named("schedule"))
	put("place.topology_ms", named("topology"))
	put("place.ms", named("place"))
	put("route.ms", named("route"))
	put("codegen.ms", ms(tc.self["codegen"])/norm)
	put("codegen.check_ms", named("check"))
	put("verify.ms", ms(tc.self["verify"])/norm)
	put("depgraph.ms", named("depgraph"))
	put("pinsafe.ms", named("pinsafe"))
	put("pinsafe.interference_ms", named("interference"))
	put("pinsafe.assign_ms", named("assign"))
	put("pinsafe.broadcast_ms", named("broadcast"))
	var compileAlloc uint64
	var compileMs float64
	for _, a := range assayShort {
		compileAlloc += tc.alloc["compile."+a]
		compileMs += tc.acc["compile."+a+".ms"]
		put("compile."+a+".alloc_mb", float64(tc.alloc["compile."+a])/mib/norm)
	}
	put("compile.ms", compileMs/norm)
	put("compile.alloc_mb", float64(compileAlloc)/mib/norm)
	for k, v := range tc.acc {
		put(k, v/norm)
	}
	for _, l := range perLayer {
		put(l.name, 0)
	}
}

// selfByLayer charges every span's self time (its duration minus its
// children's) to its layer.
func selfByLayer(roots []*obs.Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	var walk func(s *obs.Span, parent string)
	walk = func(s *obs.Span, parent string) {
		layer, ok := layerOf[s.Name]
		if !ok {
			layer = parent
			for prefix, l := range map[string]string{"verify.": "verify", "analysis.": "analysis", "depgraph.": "depgraph"} {
				if strings.HasPrefix(s.Name, prefix) {
					layer = l
				}
			}
		}
		self := s.Duration
		for _, c := range s.Children {
			self -= c.Duration
			walk(c, layer)
		}
		if self > 0 {
			out[layer] += self
		}
	}
	for _, r := range roots {
		walk(r, "bench")
	}
	return out
}

func (tc *tracing) spanCount() int {
	n := 0
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		n++
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range tc.forest() {
		walk(r)
	}
	return n
}

// writeChrome writes every span of the traced window as Chrome trace-event
// JSON (load it in Perfetto).
func (tc *tracing) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, obs.SpanEvents(tc.forest(), obs.CompileTrack, time.Time{})); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the per-layer self time and allocation of the traced
// window, per pass or request.
func (tc *tracing) printTable(w io.Writer, workload string) {
	var total time.Duration
	for _, d := range tc.self {
		total += d
	}
	fmt.Fprintf(w, "%s traced window: %.0f passes/requests; per pass/request:\n", workload, tc.norm)
	fmt.Fprintf(w, "%-10s %12s %7s %12s\n", "layer", "self ms", "share", "alloc MiB")
	for _, l := range layerOrder {
		d := tc.self[l]
		var alloc uint64
		for k, v := range tc.alloc {
			if k == l || strings.HasPrefix(k, l+".") || (l == "biocoder" && strings.HasPrefix(k, "compile.")) {
				alloc += v
			}
		}
		if d == 0 && alloc == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "%-10s %12.3f %6.1f%% %12.3f\n", l, ms(d)/tc.norm, share, float64(alloc)/mib/tc.norm)
	}
	for _, l := range perLayer {
		if v := tc.vals[l.name]; v != 0 {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", l.name, v, l.unit)
		}
	}
}
