package main

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// The machine this benchmark runs on changes speed by 10–25% over
// seconds to minutes, and most of the program's work follows: a PCR
// verdict, a PCR simulation and a sort loop that allocates nothing slow
// down together (see NOTES.md). A run therefore times a fixed calibration
// loop of its own among the workload's operations, and reports its host
// CPU times and latencies at a reference speed: each is multiplied by
// refCalibration ÷ (the median calibration time), and a rate over host CPU
// time divided by it. The loop belongs to the benchmark and allocates
// nothing, so no change to the program can move it. The closed-loop
// workloads time it in the control rounds paced over their window; serve
// times it inside its window, only while no request is in flight, so the
// program's own load never lands in it. Set-up time is scaled by samples
// taken between the set-ups. Serve's median latency is the one time left
// as measured: it lands on LRU hits, which wait on loopback wake-ups after
// an idle gap more than on the processor's speed.

// refCalibration is the median time of one calibration loop over thirty
// runs on the 2-vCPU machine the bounds in BENCHMARK.json were measured on.
const refCalibration = 7900 * time.Microsecond

// speedScaled gives, for each end-to-end metric that is a host CPU time or
// a latency (1) or a rate over host CPU time (-1), the power of the speed
// factor it is multiplied by.
var speedScaled = map[string]float64{
	"verdict_s":     1,
	"sim_mcycles_s": -1,
	"recover_s":     1,
	"req_p50_ms":    1,
	"req_p90_ms":    1,
}

// calibrator holds the calibration loop's input and scratch buffer, both
// allocated once, so the timed loop itself allocates nothing.
type calibrator struct {
	src, buf []int
	samples  []float64 // seconds
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(4))
	c := &calibrator{src: make([]int, 20000), buf: make([]int, 20000)}
	for i := range c.src {
		c.src[i] = r.Int()
	}
	return c
}

// sample times one calibration loop: four sorts of 20,000 integers.
func (c *calibrator) sample() {
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		copy(c.buf, c.src)
		slices.Sort(c.buf)
	}
	c.samples = append(c.samples, time.Since(t0).Seconds())
}

// factor is refCalibration ÷ the median sample: below 1 when the machine
// ran slower than the reference.
func (c *calibrator) factor() float64 {
	return refCalibration.Seconds() / median(c.samples)
}

// scale converts a metric measured at the run's speed to the reference
// speed.
func scale(name string, v, factor float64) float64 {
	return v * math.Pow(factor, speedScaled[name])
}
