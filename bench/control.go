package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"biocoder"
	"biocoder/internal/assays"
)

// control takes the calibration samples (calib.go), and measures an
// end-to-end metric on a workload whose own traffic has none of that kind
// of work: every run must report every metric, so these workloads report
// a control reading instead, taken on the smallest Table 1 assay (PCR). A
// control should not move when only the workload's own path changes.
//
//   - verdict_s, alloc_mb: the author chain on pcr.bio (median host
//     seconds, mean MiB allocated per verdict).
//   - sim_mcycles_s: seeded clean runs of PCR, cycles ÷ host seconds.
//   - recover_s: PCR with a stuck electrode under RunWithPolicy with the
//     full Recompiler (median host seconds).
//   - req_p50_ms, req_p90_ms: closed-loop repeat compiles of pcr.bio
//     against an in-process bfd, answered from its LRU (latency from send
//     to last body byte).
//
// The machine's speed drifts over seconds, so a reading taken in one burst
// samples one state of it. On the closed-loop workloads the repetitions
// are therefore spread over the whole window: the workload calls pace
// after each operation with the share of the window gone, and pace runs
// the repetitions that are due. serve's open loop must not share the CPUs
// with them, so there they all run after the window, and the calibration
// samples taken in the same rounds carry their speed. Controls stay out of
// the traced run, so per-layer attribution covers only the workload's own
// traffic.
type control struct {
	e     *env
	need  map[string]bool
	rng   *rand.Rand
	v     *verdicter
	src   string
	a     *assays.Assay
	prog  *biocoder.Compiled
	stuck biocoder.StuckAt
	srv   *server

	cal                         *calibrator
	window                      *calibrator // serve's samples among its requests
	done                        int         // rounds run so far
	verdict, recover, sim, reqs []float64
	cycles                      int
	allocBytes                  uint64
}

// controlRounds is the number of rounds in a run. Each round takes two
// calibration samples and runs one repetition of every control the
// workload needs, and controlRequests/controlRounds requests: 200 requests
// put twenty beyond their 90th percentile.
const (
	controlRounds   = 40
	controlRequests = 200
)

func newControl(e *env, need []string) (*control, error) {
	c := &control{e: e, need: map[string]bool{}, rng: rand.New(rand.NewSource(e.seed ^ 0x5eed)),
		cal: newCalibrator(), window: newCalibrator()}
	for _, n := range need {
		c.need[n] = true
	}
	if len(need) == 0 {
		return c, nil
	}
	b, err := os.ReadFile(filepath.Join(e.root, scriptDir, "pcr.bio"))
	if err != nil {
		return nil, err
	}
	c.src = string(b)
	if c.need["verdict_s"] || c.need["alloc_mb"] {
		if c.v, err = newVerdicter(); err != nil {
			return nil, err
		}
	}
	if c.need["sim_mcycles_s"] || c.need["recover_s"] {
		c.a = assays.ByName("PCR")
		if c.prog, err = biocoder.Compile(c.a.Build(), biocoder.Options{}); err != nil {
			return nil, err
		}
		// The control's fault is the same on every run, so its set-up
		// cost does not depend on the seed.
		if c.stuck, err = probeStuck(c.a, c.prog, 0); err != nil {
			return nil, err
		}
	}
	if c.need["req_p50_ms"] || c.need["req_p90_ms"] {
		if c.srv, err = newServer(e, serveLRUSize, map[string]string{"pcr.bio": c.src}); err != nil {
			return nil, err
		}
		if err := c.srv.prime([]string{"pcr.bio"}); err != nil {
			c.srv.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *control) close() {
	if c != nil && c.srv != nil {
		c.srv.close()
	}
}

// pace runs the rounds due once frac of the window has gone. Nil-safe.
func (c *control) pace(frac float64) {
	if c == nil {
		return
	}
	for float64(c.done) < frac*controlRounds && c.done < controlRounds {
		c.round()
		c.done++
	}
}

// round takes two calibration samples around one repetition of every
// needed control, and checks the controls' outputs.
func (c *control) round() {
	c.cal.sample()
	defer c.cal.sample()
	if c.v != nil {
		m0 := totalAlloc()
		c0 := cpuTime()
		o, err := c.v.verdict(c.src, nil)
		c.verdict = append(c.verdict, (cpuTime() - c0).Seconds())
		c.allocBytes += totalAlloc() - m0
		if err == nil {
			err = o.check(c.e.refs.Scripts["pcr.bio"])
		}
		c.e.ops.op(wrap(err, "control verdict"))
	}
	if c.need["sim_mcycles_s"] {
		seed := 1 + c.rng.Int63n(assaySeedPool)
		c0 := cpuTime()
		res, err := c.prog.Run(biocoder.RunOptions{Sensors: uniformFor(c.a, seed)})
		c.sim = append(c.sim, (cpuTime() - c0).Seconds())
		if err == nil {
			c.cycles += res.Cycles
			if want := c.e.refs.Assays[c.a.Name].SeedCycles[seed-1]; res.Cycles != want {
				err = fmt.Errorf("seed %d: %d cycles, recorded %d", seed, res.Cycles, want)
			}
		}
		c.e.ops.op(wrap(err, "control simulate"))
	}
	if c.need["recover_s"] {
		o := &operate{e: c.e, faultCycles: map[string][2]int{}}
		oa := &opAssay{a: c.a, short: "pcr", prog: c.prog, stuck: c.stuck}
		c0 := cpuTime()
		err := o.faulted(oa, nil)
		c.recover = append(c.recover, (cpuTime() - c0).Seconds())
		c.e.ops.op(wrap(err, "control recover"))
	}
	if c.srv != nil {
		for i := 0; i < controlRequests/controlRounds; i++ {
			rq := request{kind: kindRepeat, script: "pcr.bio", src: c.src}
			o := c.srv.do(context.Background(), rq, time.Now(), false)
			c.reqs = append(c.reqs, ms(o.latency))
			c.e.ops.op(wrap(c.srv.check(o), "control request"))
		}
	}
}

// measure finishes any rounds still due and returns the control readings.
func (c *control) measure() map[string]float64 {
	c.pace(1)
	out := map[string]float64{}
	if c.need["verdict_s"] {
		out["verdict_s"] = median(c.verdict)
	}
	if c.need["alloc_mb"] {
		out["alloc_mb"] = float64(c.allocBytes) / mib / float64(len(c.verdict))
	}
	if c.need["sim_mcycles_s"] {
		out["sim_mcycles_s"] = float64(c.cycles) / 1e6 / sum(c.sim)
	}
	if c.need["recover_s"] {
		out["recover_s"] = median(c.recover)
	}
	if c.srv != nil {
		out["req_p50_ms"] = hdQuantile(c.reqs, 0.5)
		out["req_p90_ms"] = hdQuantile(c.reqs, 0.9)
	}
	return out
}
