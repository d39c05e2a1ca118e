package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/verify"
)

// refsFile holds the outputs recorded from the compiler at the version it
// names: the reference every later run is checked against.
const refsFile = "bench/refs.json"

// refs are the recorded outputs. Scripts are keyed by file name, assays by
// their Table 1 name.
type refs struct {
	Version string                `json:"version"`
	Scripts map[string]*scriptRef `json:"scripts"`
	Assays  map[string]*assayRef  `json:"assays"`
}

type scriptRef struct {
	// ExeSHA256 is the SHA-256 of the executable Compiled.Save writes.
	ExeSHA256 string `json:"exe_sha256"`
	// Codes counts every diagnostic of verify, depgraph, pinsafe and
	// analysis by BF code.
	Codes map[string]int `json:"codes"`
	// SeedCycles[i] is the cycle count of a simulation with uniform
	// sensor seed i+1 over the assay's ranges (smaller scripts only).
	SeedCycles []int `json:"seed_cycles,omitempty"`
}

type assayRef struct {
	// SeedCycles[i] is the cycle count of a seeded uniform-sensor run with
	// seed i+1.
	SeedCycles []int `json:"seed_cycles"`
}

func hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func loadRefs(root string) (*refs, error) {
	b, err := os.ReadFile(filepath.Join(root, refsFile))
	if err != nil {
		return nil, err
	}
	var r refs
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", refsFile, err)
	}
	if r.Version != biocoder.Version {
		return nil, fmt.Errorf("%s was recorded at %s but the compiler is %s; re-record with --record",
			refsFile, r.Version, biocoder.Version)
	}
	return &r, nil
}

// exeText serializes a compiled program the way bfc -o and bfd do.
func exeText(p *biocoder.Compiled) (string, error) {
	var b strings.Builder
	err := p.Save(&b)
	return b.String(), err
}

// countCodes tallies the diagnostics of several reports by code.
func countCodes(reps ...*verify.Report) map[string]int {
	out := map[string]int{}
	for _, r := range reps {
		for _, d := range r.Diags {
			out[d.Code]++
		}
	}
	return out
}

// diffCodes describes how got differs from want, or returns "".
func diffCodes(got, want map[string]int) string {
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var ks []string
	for k := range keys {
		if got[k] != want[k] {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	var parts []string
	for _, k := range ks {
		parts = append(parts, fmt.Sprintf("%s %d want %d", k, got[k], want[k]))
	}
	return strings.Join(parts, ", ")
}

// recordRefs recomputes refs.json with library calls: the executable and
// diagnostic counts of every script (the author pass), and the cycle
// counts of every pooled sensor seed.
func recordRefs(root string) error {
	scripts, err := loadScripts(root)
	if err != nil {
		return err
	}
	v, err := newVerdicter()
	if err != nil {
		return err
	}
	r := &refs{Version: biocoder.Version, Scripts: map[string]*scriptRef{}, Assays: map[string]*assayRef{}}
	for _, f := range allScripts {
		out, err := v.verdict(scripts[f], nil)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		ref := &scriptRef{ExeSHA256: hash(out.exe), Codes: out.codes}
		if f != "opiate.bio" {
			a := assays.ByName(scriptAssay[f])
			for s := int64(1); s <= scriptSeedPool; s++ {
				res, err := out.prog.Run(biocoder.RunOptions{Sensors: uniformFor(a, s)})
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", f, s, err)
				}
				ref.SeedCycles = append(ref.SeedCycles, res.Cycles)
			}
		}
		r.Scripts[f] = ref
		fmt.Fprintf(os.Stderr, "recorded %s\n", f)
	}
	for _, a := range assays.All() {
		prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		ref := &assayRef{}
		for s := int64(1); s <= assaySeedPool; s++ {
			res, err := prog.Run(biocoder.RunOptions{Sensors: uniformFor(a, s)})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", a.Name, s, err)
			}
			ref.SeedCycles = append(ref.SeedCycles, res.Cycles)
		}
		r.Assays[a.Name] = ref
		fmt.Fprintf(os.Stderr, "recorded %s\n", a.Name)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, refsFile), append(b, '\n'), 0o644)
}
