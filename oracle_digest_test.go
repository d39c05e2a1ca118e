// The static-oracle digest guard: one golden SHA-256 per corpus unit over the
// rendered findings of the three static checkers — the verify report, the
// pinsafe interference graph, derived pin map and broadcast report, and the
// analysis report with its contamination hazards and wash suggestions —
// committed in ci/oracle-digest.json. A unit is one benchmark assay or one
// bundled script, compiled with default options and with FoldEdges.
//
// The checkers are pure functions of the compiled executable, so any change
// to a digest is a change in what they report. Optimizations of the
// checkers must leave the file untouched; a deliberate change in their
// findings regenerates it with:
//
//	BFORACLE_UPDATE=1 go test -run TestOracleDigest .
package biocoder_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"testing"

	"biocoder"
	"biocoder/internal/analysis"
	"biocoder/internal/pinsafe"
	"biocoder/internal/verify"
)

const oracleFile = "ci/oracle-digest.json"

// oracleSHA256 compiles one unit and hashes what the static checkers say
// about it.
func oracleSHA256(bs *biocoder.BioSystem, opt biocoder.Options) (string, error) {
	prog, err := biocoder.Compile(bs, opt)
	if err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	h := sha256.New()
	vrep := verify.Run(&verify.Unit{Graph: prog.Graph, Exec: prog.Executable, Placement: prog.Placement})
	fmt.Fprintf(h, "verify\n%s", vrep)

	unit := &verify.Unit{Graph: prog.Graph, Exec: prog.Executable}
	pres, err := pinsafe.Analyze(unit, pinsafe.Config{})
	if err != nil {
		return "", fmt.Errorf("pinsafe: %w", err)
	}
	fmt.Fprintf(h, "pinsafe electrodes=%d minpins=%d\n", pres.Electrodes, pres.MinPins)
	writeEach(h, pres.Conflicts)
	for _, c := range pres.Map.Cells() {
		fmt.Fprintf(h, "%v pin %d\n", c, pres.Map.Pins[c])
	}
	fmt.Fprintf(h, "%s", pres.Report)

	ares, err := analysis.Analyze(unit, analysis.Config{})
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	fmt.Fprintf(h, "analysis\n%s", ares.Report)
	writeEach(h, ares.Hazards)
	writeEach(h, ares.Suggestions)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func writeEach[T any](h hash.Hash, xs []T) {
	for _, x := range xs {
		fmt.Fprintf(h, "%+v\n", x)
	}
}

// oracleDigests returns the digest of every corpus unit, keyed
// "assay:<name>/<variant>" or "script:<file>/<variant>".
func oracleDigests(t *testing.T) map[string]string {
	t.Helper()
	names, systems := corpusSystems(t)
	out := map[string]string{}
	for _, name := range names {
		for _, v := range []struct {
			name string
			opt  biocoder.Options
		}{
			{"default", biocoder.Options{}},
			{"folded", biocoder.Options{FoldEdges: true}},
		} {
			unit := name + "/" + v.name
			sum, err := oracleSHA256(systems[name], v.opt)
			if err != nil {
				t.Fatalf("%s: %v", unit, err)
			}
			out[unit] = sum
		}
	}
	return out
}

func TestOracleDigest(t *testing.T) {
	got := oracleDigests(t)

	if os.Getenv("BFORACLE_UPDATE") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d units", oracleFile, len(got))
		return
	}

	data, err := os.ReadFile(oracleFile)
	if err != nil {
		t.Fatalf("%v (regenerate with BFORACLE_UPDATE=1 go test -run TestOracleDigest .)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", oracleFile, err)
	}
	for unit, sum := range got {
		switch w, ok := want[unit]; {
		case !ok:
			t.Errorf("%s: not in %s", unit, oracleFile)
		case w != sum:
			t.Errorf("%s: static-checker findings changed\n  golden: %s\n  got:    %s", unit, w, sum)
		}
	}
	for unit := range want {
		if _, ok := got[unit]; !ok {
			t.Errorf("%s: in %s but no longer in the corpus", unit, oracleFile)
		}
	}
	if t.Failed() {
		t.Log("if the change in findings is deliberate, regenerate with BFORACLE_UPDATE=1 go test -run TestOracleDigest .")
	}
}
