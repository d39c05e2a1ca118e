package biocoder_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"biocoder"
	"biocoder/internal/assays"
	"biocoder/internal/ir"
)

// fluidOf parses a droplet name as ir.FluidID.String prints it.
func fluidOf(s string) ir.FluidID {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		if v, err := strconv.Atoi(s[i+1:]); err == nil {
			return ir.FluidID{Name: s[:i], Ver: v}
		}
	}
	return ir.FluidID{Name: s}
}

// Residue incidents that share a cycle are reported in droplet order, so
// every run of one program under one sensor seed reports the same
// Contamination. Opiate under uniform sensors is the only corpus system
// whose incidents share cycles. With seed 2, the smallest such run, five
// pairs do; touched in map order, they came out in droplet order in 14 of
// 20 runs. With seed 3, 35 pairs do, and none of 6 such runs was in order.
// So one seed-3 run checks the order, and two seed-2 runs must report the
// same Contamination.
func TestContaminationIncidentOrder(t *testing.T) {
	a := assays.ByName("Opiate detection immunoassay")
	prog, err := biocoder.Compile(a.Build(), biocoder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, seed int64) *biocoder.Contamination {
		u := biocoder.NewUniformSensors(seed)
		for v, r := range a.Ranges {
			u.SetRange(v, r.Min, r.Max)
		}
		res, err := prog.Run(biocoder.RunOptions{Sensors: u, TrackContamination: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Contamination
	}

	// The two halves run in parallel: the seed-3 run is the longer.
	t.Run("order", func(t *testing.T) {
		t.Parallel()
		c := run(t, 3)
		shared := 0
		for i := 1; i < len(c.Incidents); i++ {
			prev, in := c.Incidents[i-1], c.Incidents[i]
			if in.Cycle != prev.Cycle {
				continue
			}
			shared++
			if fluidOf(prev.Droplet).Compare(fluidOf(in.Droplet)) >= 0 {
				t.Errorf("cycle %d: incident of %s reported before %s's", in.Cycle, prev.Droplet, in.Droplet)
			}
		}
		if shared == 0 {
			t.Fatalf("no two of the %d incidents share a cycle; the run no longer tests their order", len(c.Incidents))
		}
	})
	t.Run("rerun", func(t *testing.T) {
		t.Parallel()
		if first, again := run(t, 2), run(t, 2); !reflect.DeepEqual(first, again) {
			t.Error("two runs under seed 2 report different Contaminations")
		}
	})
}
