package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"biocoder/internal/assays"
	"biocoder/internal/sensor"
)

// scriptDir holds the BioScript sources of the Table 1 assays.
const scriptDir = "internal/assays/scripts"

// smallScripts are the five Table 1 scripts small enough for a static
// verdict and a cold compile inside one run; opiate.bio is left out (its
// verdict takes about 37 s, its cold compile about 3.5 s in bfd).
var smallScripts = []string{
	"image_probe.bio",
	"neurotransmitter.bio",
	"pcr.bio",
	"pcr_replenish.bio",
	"probabilistic_pcr.bio",
}

// allScripts adds opiate.bio, which serve primes and repeats.
var allScripts = append(append([]string(nil), smallScripts...), "opiate.bio")

// scriptAssay names the Table 1 assay each script expresses; its sensor
// ranges drive seeded simulations of the script.
var scriptAssay = map[string]string{
	"image_probe.bio":       "Image probe synthesis",
	"neurotransmitter.bio":  "Neurotransmitter sensing",
	"opiate.bio":            "Opiate detection immunoassay",
	"pcr.bio":               "PCR",
	"pcr_replenish.bio":     "PCR w/droplet replenishment",
	"probabilistic_pcr.bio": "Probabilistic PCR",
}

// Sensor seeds are drawn from the pools 1..assaySeedPool (operate) and
// 1..scriptSeedPool (serve simulates), whose cycle counts refs.json records.
const (
	assaySeedPool  = 32
	scriptSeedPool = 64
)

func loadScripts(root string) (map[string]string, error) {
	out := map[string]string{}
	for _, f := range allScripts {
		b, err := os.ReadFile(filepath.Join(root, scriptDir, f))
		if err != nil {
			return nil, err
		}
		out[f] = string(b)
	}
	return out, nil
}

// uniformFor is the seeded sensor model of a §7.1 random-readings run: the
// assay's ranges over a uniform source, as bfsim and bfd build it.
func uniformFor(a *assays.Assay, seed int64) *sensor.Uniform {
	u := sensor.NewUniform(seed)
	for v, r := range a.Ranges {
		u.SetRange(v, r.Min, r.Max)
	}
	return u
}

// rangesOf renders an assay's sensor ranges as a bfd simulate request does.
func rangesOf(a *assays.Assay) map[string][2]float64 {
	out := map[string][2]float64{}
	for v, r := range a.Ranges {
		out[v] = [2]float64{r.Min, r.Max}
	}
	return out
}

// heatLit matches the duration literal, in seconds, of a heat step ("for
// 45s"). A heat is a hold: its length changes neither the executable's size
// nor the compile's work, while a vortex is emitted frame by frame and
// grows with its duration.
var heatLit = regexp.MustCompile(`(?m)^\s*heat\b.*?\bfor (\d+)s\b`)

// maxMove is the largest move of an edited heat literal, in seconds: enough
// distinct revisions that the traced run's two windows never repeat one.
const maxMove = 30

// editDuration returns src with its lit-th heat literal (modulo their
// number) moved by one to maxMove seconds, in a direction and by an amount
// chosen by rng.
func editDuration(src string, lit int, rng *rand.Rand) (string, error) {
	locs := heatLit.FindAllStringSubmatchIndex(src, -1)
	if len(locs) == 0 {
		return "", fmt.Errorf("no heat literal")
	}
	loc := locs[lit%len(locs)]
	num, err := strconv.Atoi(src[loc[2]:loc[3]])
	if err != nil {
		return "", err
	}
	v := num + 1 + rng.Intn(maxMove)
	if down := min(maxMove, num-1); down > 0 && rng.Intn(2) == 0 {
		v = num - 1 - rng.Intn(down)
	}
	return src[:loc[2]] + strconv.Itoa(v) + src[loc[3]:], nil
}

// Serve request classes.
const (
	kindRepeat = iota
	kindEdit
	kindSimulate
)

var kindNames = [...]string{"repeat", "edit", "simulate"}

// request is one scheduled bfd request.
type request struct {
	due    time.Duration // offset from the start of the window
	kind   int
	script string // file the revision derives from
	src    string
	edited bool
	seed   int64 // simulate: sensor seed from the script's pool
}

// Serve traffic shape. A window of n requests at serveRate holds, in a
// seeded order:
//   - n/6 edits of iterScript: one author iterating on a protocol. Each is a
//     miss costing about the same, so together they are a dense band of
//     latencies, and the 90th percentile falls inside it;
//   - n/200 edits of each other small script and n/200 simulates of each
//     small script: the slowest requests, nearly all above the band. Fixed
//     counts keep the number of requests above the band the same on every
//     run, so the 90th percentile does not jump across a gap;
//   - repeats, the rest (80%), where the median falls.
//
// The six primed scripts take about 360 KiB of LRU and an edited revision
// 5–35 KiB, so the LRU keeps the originals and the last few edits, and
// older edits are answered from disk.
const (
	serveRate    = 25.0
	iterScript   = "pcr.bio"
	serveLRUSize = 640 << 10
)

// schedule draws the whole serve request sequence for one window from seed.
// The count of each class is fixed, so every seed offers the same mix; the
// seed orders the requests and picks the revision a repeat asks for, the
// value an edit moves its literal to and the sensor seed of a simulate.
// Every edit is a revision not in seen, which it adds to, so a later
// window of the same server gets misses too.
func schedule(seed int64, window time.Duration, scripts map[string]string, seen map[string]bool) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(window.Seconds() * serveRate)
	each := max(n/200, 1)
	type slot struct {
		kind   int
		script string
	}
	var slots []slot
	for i := 0; i < n/6; i++ {
		slots = append(slots, slot{kindEdit, iterScript})
	}
	for _, f := range smallScripts {
		for i := 0; i < each; i++ {
			if f != iterScript {
				slots = append(slots, slot{kindEdit, f})
			}
			slots = append(slots, slot{kindSimulate, f})
		}
	}
	for len(slots) < n {
		slots = append(slots, slot{kind: kindRepeat})
	}
	rng.Shuffle(n, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// A script's edits move its heat literals in turn from a seed-chosen
	// first one, so every run edits the same spread of literals: which
	// block a miss recompiles changes its cost.
	nextLit := map[string]int{}
	for _, f := range smallScripts {
		nextLit[f] = rng.Intn(64)
	}
	unused := map[string][]int64{}
	for _, f := range smallScripts {
		for _, p := range rng.Perm(scriptSeedPool) {
			unused[f] = append(unused[f], int64(p+1))
		}
	}
	type rev struct {
		script, src string
		edited      bool
	}
	var originals, edits []rev
	if seen == nil {
		seen = map[string]bool{}
	}
	for _, f := range allScripts {
		originals = append(originals, rev{f, scripts[f], false})
		seen[scripts[f]] = true
	}
	out := make([]request, 0, n)
	for i, sl := range slots {
		rq := request{due: time.Duration(float64(i) / serveRate * float64(time.Second)), kind: sl.kind}
		f := sl.script
		switch sl.kind {
		case kindRepeat:
			// Two repeats in three ask for an original script, the third
			// for an earlier edit, which older edits answer from disk.
			r := originals[rng.Intn(len(originals))]
			if len(edits) > 0 && rng.Intn(3) == 0 {
				r = edits[rng.Intn(len(edits))]
			}
			rq.script, rq.src, rq.edited = r.script, r.src, r.edited
		case kindEdit:
			src := ""
			for tries := 0; src == ""; tries++ {
				s, err := editDuration(scripts[f], nextLit[f], rng)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				if !seen[s] {
					src = s
				} else if tries > 100 {
					return nil, fmt.Errorf("%s: no fresh edit", f)
				}
			}
			seen[src] = true
			nextLit[f]++
			edits = append(edits, rev{f, src, true})
			rq.script, rq.src, rq.edited = f, src, true
		case kindSimulate:
			if len(unused[f]) == 0 {
				return nil, fmt.Errorf("%s: sensor seed pool exhausted", f)
			}
			rq.script, rq.src, rq.seed = f, scripts[f], unused[f][0]
			unused[f] = unused[f][1:]
		}
		out = append(out, rq)
	}
	return out, nil
}
