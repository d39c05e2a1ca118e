// Fault recovery (paper §8.4), all three flavors on vanilla PCR:
//
//  1. transient droplet loss — the cyber-physical feedback loop detects
//     the loss, the controller flushes survivors, and the assay
//     re-executes with fresh reagents;
//  2. static fault avoidance — electrodes known dead before the run are
//     mapped out at compile time;
//  3. online recompile-around — an electrode fails stuck-at-off MID-RUN,
//     the feedback loop localizes it when a droplet refuses to follow a
//     commanded move, and the controller recompiles around the defect and
//     resumes from the last block-boundary checkpoint, measured against
//     the whole-program-restart baseline.
package main

import (
	"fmt"
	"log"
	"time"

	"biocoder"
)

func pcr() *biocoder.BioSystem {
	bs := biocoder.New()
	mix := bs.NewFluid("PCRMasterMix", biocoder.Microliters(10))
	template := bs.NewFluid("Template", biocoder.Microliters(10))
	tube := bs.NewContainer("tube")
	bs.MeasureFluid(mix, tube)
	bs.Vortex(tube, time.Second)
	bs.MeasureFluid(template, tube)
	bs.Vortex(tube, time.Second)
	bs.StoreFor(tube, 95, 45*time.Second)
	bs.Loop(10)
	bs.StoreFor(tube, 95, 20*time.Second)
	bs.StoreFor(tube, 53, 30*time.Second)
	bs.StoreFor(tube, 72, 15*time.Second)
	bs.EndLoop()
	bs.Drain(tube, "PCR")
	bs.EndProtocol()
	return bs
}

func main() {
	prog, err := biocoder.Compile(pcr(), biocoder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	clean, err := prog.Run(biocoder.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean run:                 %v\n", clean.Time.Round(time.Second))

	for _, cycle := range []int{5_000, 30_000, 60_000} {
		res, err := prog.RunWithPolicy(biocoder.RunOptions{},
			biocoder.RecoveryPolicy{Faults: []biocoder.Fault{{Cycle: cycle}}, MaxAttempts: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loss at %6.0fs, recovered: %v  (%d recovery, %.0fs wasted)\n",
			float64(cycle)/100, res.Time.Round(time.Second), res.Recoveries, float64(res.LostTime)/100)
	}

	// Static fault avoidance (§8.4's other half): compile around a known
	// defective electrode instead of recovering at run time.
	faulty, err := biocoder.Compile(pcr(), biocoder.Options{
		FaultyElectrodes: []biocoder.Point{{X: 7, Y: 2}, {X: 9, Y: 8}},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := faulty.Run(biocoder.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith 2 dead electrodes mapped out at compile time: %v (%d of %d module slots remain)\n",
		res.Time.Round(time.Second), len(faulty.Topology.Slots), len(prog.Topology.Slots))

	// Online recompile-around: the electrode fails DURING the run. Probe a
	// mid-assay droplet move so the injected fault is guaranteed to be
	// detectable, then run it under both recovery policies.
	sa := probeStuckCell(prog, clean.Cycles)
	fmt.Printf("\nelectrode (%d,%d) fails stuck-at-off at cycle %d (%.0fs into the run):\n",
		sa.Cell.X, sa.Cell.Y, sa.Cycle, float64(sa.Cycle)/100)
	recompile := biocoder.Recompiler(func() (*biocoder.BioSystem, error) { return pcr(), nil },
		biocoder.Options{})
	for _, pol := range []struct {
		name    string
		restart bool
	}{{"recompile+resume", false}, {"restart baseline", true}} {
		res, err := prog.RunWithPolicy(
			biocoder.RunOptions{Degradation: &biocoder.Degradation{Stuck: []biocoder.StuckAt{sa}}},
			biocoder.RecoveryPolicy{Recompile: recompile, Restart: pol.restart})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-17s finished in %v, %.0fs wasted\n",
			pol.name, res.Time.Round(time.Second), float64(res.LostTime)/100)
		for _, ev := range res.Events {
			fmt.Printf("    detected via droplet %s at cycle %d -> %s (recompiled in %v)\n",
				ev.Droplet, ev.DetectCycle, ev.Action, ev.RecompileWall.Round(time.Millisecond))
		}
	}
}

// probeStuckCell replays the assay once, watching droplet motion through
// the FrameHook, and returns a mid-assay move target as the electrode to
// kill: a cell a droplet is commanded onto is exactly what the feedback
// loop can detect.
func probeStuckCell(prog *biocoder.Compiled, cleanCycles int) biocoder.StuckAt {
	var sa biocoder.StuckAt
	prev := map[string]biocoder.Point{}
	hook := func(cycle int, label string, frame biocoder.Frame, ds []*biocoder.Droplet) {
		for _, d := range ds {
			id := d.ID.String()
			if p, ok := prev[id]; ok && p.Manhattan(d.Pos) == 1 && sa.Cycle == 0 && cycle*2 >= cleanCycles {
				// FrameHook reports the post-increment cycle; the move was
				// commanded one machine cycle earlier.
				sa = biocoder.StuckAt{Cell: d.Pos, Cycle: cycle - 1}
			}
			prev[id] = d.Pos
		}
	}
	if _, err := prog.Run(biocoder.RunOptions{FrameHook: hook}); err != nil {
		log.Fatal(err)
	}
	if sa.Cycle == 0 {
		log.Fatal("no mid-assay droplet move observed")
	}
	return sa
}
