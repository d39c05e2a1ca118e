// Package wash plans wash-droplet routes (paper §5: the router may
// interleave wash droplets to clean residue left behind by functional
// droplets; refs [77-79]). Given the set of contaminated electrodes — as
// reported by the simulator's residue tracker — it computes a tour for a
// wash droplet: dispensed from an input reservoir, visiting every dirty
// cell, and disposed at an output reservoir. Cells a wash droplet passes
// are scrubbed clean.
package wash

import (
	"fmt"
	"slices"

	"biocoder/internal/arch"
	"biocoder/internal/route"
)

// Tour is a planned wash pass.
type Tour struct {
	// Path is the droplet trajectory from the source port cell to the
	// drain port cell, one step per cycle.
	Path route.Path
	// Covered lists the dirty cells the tour scrubs, in visit order.
	Covered []arch.Point
	// Skipped lists dirty cells the tour could not reach (walled off by
	// the avoid set).
	Skipped []arch.Point
	// Source and Drain name the ports used.
	Source, Drain string
}

// Cycles returns the tour length in actuation cycles.
func (t *Tour) Cycles() int { return len(t.Path) - 1 }

// Plan computes a wash tour over the dirty cells. The avoid rectangles
// (e.g. module slots holding parked droplets when washing between blocks)
// are never entered; dirty cells inside them are reported as skipped. The
// tour uses a greedy nearest-neighbor order with A* legs, which is within a
// small factor of optimal for the street-shaped free space of a virtual
// topology.
func Plan(chip *arch.Chip, dirty []arch.Point, avoid []arch.Rect) (*Tour, error) {
	src, err := pickPort(chip, arch.Input)
	if err != nil {
		return nil, err
	}
	drain, err := pickPort(chip, arch.Output)
	if err != nil {
		return nil, err
	}

	blocked := func(p arch.Point) bool {
		for _, r := range avoid {
			if r.Contains(p) {
				return true
			}
		}
		return !chip.InBounds(p)
	}

	// Partition dirty cells into reachable and skipped; deduplicate.
	seen := map[arch.Point]bool{}
	var targets, skipped []arch.Point
	for _, c := range dirty {
		if seen[c] {
			continue
		}
		seen[c] = true
		if blocked(c) {
			skipped = append(skipped, c)
		} else {
			targets = append(targets, c)
		}
	}
	slices.SortFunc(targets, arch.Point.Compare)
	slices.SortFunc(skipped, arch.Point.Compare)

	tour := &Tour{Source: src.Name, Drain: drain.Name, Skipped: skipped}
	cur := src.Cell
	tour.Path = route.Path{cur}
	remaining := append([]arch.Point(nil), targets...)
	for len(remaining) > 0 {
		// Nearest unvisited target.
		best, bestIdx := -1, -1
		for i, c := range remaining {
			d := cur.Manhattan(c)
			if best < 0 || d < best {
				best, bestIdx = d, i
			}
		}
		next := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		leg, err := shortestPath(chip, cur, next, blocked)
		if err != nil {
			// Unreachable given the avoid set: skip it.
			tour.Skipped = append(tour.Skipped, next)
			continue
		}
		tour.Path = append(tour.Path, leg[1:]...)
		tour.Covered = append(tour.Covered, next)
		cur = next
	}
	leg, err := shortestPath(chip, cur, drain.Cell, blocked)
	if err != nil {
		return nil, fmt.Errorf("wash: cannot reach drain port %s: %w", drain.Name, err)
	}
	tour.Path = append(tour.Path, leg[1:]...)
	slices.SortFunc(tour.Skipped, arch.Point.Compare)
	return tour, nil
}

func pickPort(chip *arch.Chip, kind arch.PortKind) (arch.Port, error) {
	ports := chip.PortsOf(kind)
	if len(ports) == 0 {
		return arch.Port{}, fmt.Errorf("wash: chip has no %v reservoir", kind)
	}
	// Prefer a dedicated "wash"/"waste" reservoir when present.
	for _, p := range ports {
		if p.Fluid == "Wash" || p.Name == "wash" || p.Name == "waste" {
			return p, nil
		}
	}
	return ports[0], nil
}

// shortestPath is plain BFS over free cells (the wash droplet is alone, so
// no space-time constraints apply).
func shortestPath(chip *arch.Chip, from, to arch.Point, blocked func(arch.Point) bool) (route.Path, error) {
	if from == to {
		return route.Path{from}, nil
	}
	prev := map[arch.Point]arch.Point{}
	visited := map[arch.Point]bool{from: true}
	queue := []arch.Point{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			n := cur.Add(d[0], d[1])
			if visited[n] || blocked(n) {
				continue
			}
			visited[n] = true
			prev[n] = cur
			if n == to {
				var rev route.Path
				for p := to; p != from; p = prev[p] {
					rev = append(rev, p)
				}
				rev = append(rev, from)
				out := make(route.Path, len(rev))
				for i := range rev {
					out[i] = rev[len(rev)-1-i]
				}
				return out, nil
			}
			queue = append(queue, n)
		}
	}
	return nil, fmt.Errorf("no path %v -> %v", from, to)
}

// Scrub returns the residue map with every cell on the tour removed — the
// post-wash contamination state.
func Scrub(residue map[arch.Point][]string, tour *Tour) map[arch.Point][]string {
	washed := map[arch.Point]bool{}
	for _, p := range tour.Path {
		washed[p] = true
	}
	out := map[arch.Point][]string{}
	for p, r := range residue {
		if !washed[p] {
			out[p] = append([]string(nil), r...)
		}
	}
	return out
}
