package serve

// JSON request and response shapes of the bfd HTTP API. The compile
// response is serialized once per cache entry with encoding/json (whose
// field order follows struct declaration order), so identical requests are
// answered with byte-identical bodies whether they hit the cache, miss it,
// or coalesce onto an in-flight compile.

// CompileRequest is the body of POST /v1/compile. Exactly one of Assay
// (a named entry of the built-in benchmark corpus, see bfc -list) or
// Source (BioScript text) selects the protocol.
type CompileRequest struct {
	// Assay names a built-in benchmark assay, e.g. "Probabilistic PCR".
	Assay string `json:"assay,omitempty"`
	// Source is BioScript protocol text.
	Source string `json:"source,omitempty"`
	// Chip is a chip configuration in the arch config format; empty
	// selects the paper's default 15x19 chip.
	Chip string `json:"chip,omitempty"`
	// Options selects compiler variants and fault sets.
	Options CompileOptions `json:"options,omitempty"`
}

// CompileOptions mirrors the compiler's Options knobs that affect output,
// plus the backend-execution knobs (Workers, NoMemo) that don't — those
// still join the cache key so a cached response always answers exactly
// the request that was made.
type CompileOptions struct {
	NoLiveRangeSplitting bool `json:"noLiveRangeSplitting,omitempty"`
	SerialSchedules      bool `json:"serialSchedules,omitempty"`
	MinSlackScheduling   bool `json:"minSlackScheduling,omitempty"`
	FreePlacement        bool `json:"freePlacement,omitempty"`
	FoldEdges            bool `json:"foldEdges,omitempty"`
	// Faults lists known-defective electrodes to compile around.
	Faults []Point `json:"faults,omitempty"`
	// Workers sets how many goroutines synthesize this compile's blocks
	// and edges (biocoder.Options.Workers); values below 2 use one. Output
	// is byte-identical at every count.
	Workers int `json:"workers,omitempty"`
	// NoMemo opts this compile out of the daemon's process-wide
	// per-block synthesis memo.
	NoMemo bool `json:"noMemo,omitempty"`
}

// Point is an electrode coordinate.
type Point struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// CompileResponse is the body of a successful POST /v1/compile.
type CompileResponse struct {
	// Key is the content-addressed cache key: a hash of the canonical
	// IR, the chip configuration, the compile options, and the compiler
	// version. Identical keys guarantee identical executables.
	Key string `json:"key"`
	// CompilerVersion is the biocoder.Version the executable was built by.
	CompilerVersion string `json:"compilerVersion"`
	// Summary carries whole-pipeline statistics.
	Summary CompileSummary `json:"summary"`
	// Diagnostics lists every static-verifier finding. Executables with
	// error-severity findings are never served (HTTP 422), so entries
	// here are at most warnings.
	Diagnostics []Diag `json:"diagnostics"`
	// Executable is the compiled program in the versioned text format of
	// bfc -o; feed it to bfsim -exe or POST it back to /v1/simulate.
	Executable string `json:"executable"`
}

// CompileSummary is the whole-pipeline statistics block.
type CompileSummary struct {
	Blocks       int `json:"blocks"`
	Edges        int `json:"edges"`
	Instructions int `json:"instructions"`
	// BlockCycles totals the per-block activation sequence lengths.
	BlockCycles int `json:"blockCycles"`
	// Events totals droplet events across all block sequences.
	Events int `json:"events"`
	// EdgeTransports counts CFG edges whose Σ moves droplets.
	EdgeTransports int `json:"edgeTransports"`
}

// Diag is one static-verifier finding in JSON form.
type Diag struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Pos      string `json:"pos,omitempty"`
	Message  string `json:"message"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Diagnostics is populated when the error is a verification refusal
	// (HTTP 422): the compile succeeded mechanically but the executable
	// failed the static verifier.
	Diagnostics []Diag `json:"diagnostics,omitempty"`
}

// TracedResponse wraps a compile response when ?trace=1 is set: Trace is a
// Chrome trace-event JSON document (load in Perfetto) of this request's
// span tree, and Result is the canonical compile response body.
type TracedResponse struct {
	Trace  jsonRaw `json:"trace"`
	Result jsonRaw `json:"result"`
}

type jsonRaw []byte

func (r jsonRaw) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return r, nil
}

// SimulateRequest is the body of POST /v1/simulate: the compile inputs
// (resolved through the same cache as /v1/compile) plus simulation
// parameters. The response is an NDJSON stream of SimRecord lines.
type SimulateRequest struct {
	CompileRequest
	// Executable, when set, is a precompiled program in the text format
	// of CompileResponse.Executable: the daemon verify-gates and runs it
	// directly, skipping compilation entirely (X-Bfd-Cache: posted).
	// Excludes Source and Chip; Assay may still name the assay whose
	// scenarios and sensor ranges apply. This is the fleet gateway's
	// fan-out path — one compile, many seeds across many replicas.
	Executable string `json:"executable,omitempty"`
	// Seed seeds the pseudo-random sensor model.
	Seed int64 `json:"seed,omitempty"`
	// Scenario names a scripted sensor scenario (benchmark assays only).
	Scenario string `json:"scenario,omitempty"`
	// Ranges overrides sensor reading ranges: variable -> [min, max].
	Ranges map[string][2]float64 `json:"ranges,omitempty"`
	// MaxCycles aborts runaway executions (0: the simulator default).
	MaxCycles int `json:"maxCycles,omitempty"`
	// Every emits one telemetry record per N simulated cycles
	// (default 1000; telemetry is sampled, the final record is exact).
	Every int `json:"every,omitempty"`
	// TrackContamination enables residue bookkeeping.
	TrackContamination bool `json:"trackContamination,omitempty"`
}

// SimRecord is one NDJSON line of a /v1/simulate response stream. Type is
// "start" (first line: cache key and compile provenance), "telemetry"
// (periodic in-flight sample), "result" (final line of a successful run),
// or "error" (final line of a failed run).
type SimRecord struct {
	Type string `json:"type"`

	// start
	Key             string `json:"key,omitempty"`
	CompilerVersion string `json:"compilerVersion,omitempty"`
	Cache           string `json:"cache,omitempty"` // hit|disk|miss|coalesced|posted

	// telemetry (cumulative counters as of Cycle)
	Cycle       int `json:"cycle,omitempty"`
	Actuations  int `json:"actuations,omitempty"`
	Touches     int `json:"touches,omitempty"`
	SensorReads int `json:"sensorReads,omitempty"`
	MaxDroplets int `json:"maxDroplets,omitempty"`

	// result
	Cycles      int     `json:"cycles,omitempty"`
	TimeSeconds float64 `json:"timeSeconds,omitempty"`
	Dispensed   int     `json:"dispensed,omitempty"`
	Collected   int     `json:"collected,omitempty"`
	DirtyCells  int     `json:"dirtyCells,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}
