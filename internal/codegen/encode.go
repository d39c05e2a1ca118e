package codegen

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"biocoder/internal/arch"
	"biocoder/internal/ir"
)

// The executable serialization format is a line-based, versioned text
// format, so a protocol can be compiled once with bfc and executed many
// times with bfsim (or archived next to the lab notebook):
//
//	biocoder-executable v1
//	[chip]        — the arch config format
//	[graph]       — blocks, φ-functions, instructions, branches, edges
//	[code ...]    — per block/edge: the cycle count, then droplet tracks
//	                (run-length encoded, within the cycle count) and
//	                structural events; the runs of frames are
//	                reconstructed as the union of track positions, which
//	                Executable.Check guarantees is exactly the frame set
//	[end]
//
// All strings are Go-quoted; fluid versions are encoded as "name":ver.

const magic = "biocoder-executable v1"

// Encode writes the executable to w.
func Encode(w io.Writer, ex *Executable) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, magic)

	fmt.Fprintln(bw, "[chip]")
	if err := arch.WriteConfig(bw, ex.Topo.Chip); err != nil {
		return err
	}
	if len(ex.Topo.Faults) > 0 {
		fmt.Fprintln(bw, "[faults]")
		for _, f := range ex.Topo.Faults {
			fmt.Fprintf(bw, "fault %d %d\n", f.X, f.Y)
		}
	}

	fmt.Fprintln(bw, "[graph]")
	for _, b := range ex.Graph.Blocks {
		fmt.Fprintf(bw, "block %d %s\n", b.ID, strconv.Quote(b.Label))
		for _, phi := range b.Phis {
			fmt.Fprintf(bw, "phi %d %s", b.ID, encFluid(phi.Dst))
			ids := make([]int, 0, len(phi.Srcs))
			for id := range phi.Srcs {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				fmt.Fprintf(bw, " %d=%s", id, encFluid(phi.Srcs[id]))
			}
			fmt.Fprintln(bw)
		}
		for _, in := range b.Instrs {
			encodeInstr(bw, b.ID, in)
		}
		if b.Branch != nil {
			fmt.Fprintf(bw, "branch %d %s\n", b.ID, strconv.Quote(b.Branch.String()))
		}
	}
	for _, e := range ex.Graph.Edges() {
		fmt.Fprintf(bw, "edge %d %d\n", e.From.ID, e.To.ID)
	}

	for _, b := range ex.Graph.Blocks {
		bc := ex.Blocks[b.ID]
		fmt.Fprintf(bw, "[code block %d]\n", b.ID)
		encodeBoundary(bw, "entry", bc.Entry)
		encodeBoundary(bw, "exit", bc.Exit)
		encodeSequence(bw, bc.Seq)
	}
	for _, e := range ex.Graph.Edges() {
		ec := ex.Edge(e.From, e.To)
		fmt.Fprintf(bw, "[code edge %d %d]\n", e.From.ID, e.To.ID)
		for _, cp := range ec.Copies {
			fmt.Fprintf(bw, "copy %s %s\n", encFluid(cp.Dst), encFluid(cp.Src))
		}
		encodeSequence(bw, ec.Seq)
	}
	fmt.Fprintln(bw, "[end]")
	return bw.Flush()
}

func encFluid(f ir.FluidID) string {
	// Fluid names are identifier-shaped (enforced by the language), so no
	// quoting is needed and `name:ver` parses unambiguously.
	return fmt.Sprintf("%s:%d", f.Name, f.Ver)
}

func encodeBoundary(w io.Writer, kind string, m map[ir.FluidID]arch.Point) {
	fluids := make([]ir.FluidID, 0, len(m))
	for f := range m {
		fluids = append(fluids, f)
	}
	ir.SortFluids(fluids)
	for _, f := range fluids {
		p := m[f]
		fmt.Fprintf(w, "%s %s %d %d\n", kind, encFluid(f), p.X, p.Y)
	}
}

func encodeInstr(w io.Writer, blockID int, in *ir.Instr) {
	fmt.Fprintf(w, "instr %d %d %s", blockID, in.ID, in.Kind)
	fmt.Fprintf(w, " args=%s results=%s", encFluidList(in.Args), encFluidList(in.Results))
	if in.FluidType != "" {
		fmt.Fprintf(w, " fluidtype=%s", strconv.Quote(in.FluidType))
	}
	if in.Volume != 0 {
		fmt.Fprintf(w, " volume=%g", in.Volume)
	}
	if in.Duration != 0 {
		fmt.Fprintf(w, " duration=%d", int64(in.Duration))
	}
	if in.Temp != 0 {
		fmt.Fprintf(w, " temp=%g", in.Temp)
	}
	if in.SensorVar != "" {
		fmt.Fprintf(w, " sensorvar=%s", strconv.Quote(in.SensorVar))
	}
	if in.Port != "" {
		fmt.Fprintf(w, " port=%s", strconv.Quote(in.Port))
	}
	if in.Kind == ir.Compute {
		fmt.Fprintf(w, " drylhs=%s dryexpr=%s", strconv.Quote(in.DryLHS), strconv.Quote(in.DryExpr.String()))
	}
	fmt.Fprintln(w)
}

func encFluidList(fs []ir.FluidID) string {
	if len(fs) == 0 {
		return "-"
	}
	out := ""
	for i, f := range fs {
		if i > 0 {
			out += ","
		}
		out += encFluid(f)
	}
	return out
}

func encodeSequence(w io.Writer, s *Sequence) {
	fmt.Fprintf(w, "cycles %d\n", s.NumCycles)
	fluids := make([]ir.FluidID, 0, len(s.Tracks))
	for f := range s.Tracks {
		fluids = append(fluids, f)
	}
	ir.SortFluids(fluids)
	for _, f := range fluids {
		tr := s.Tracks[f]
		fmt.Fprintf(w, "track %s %d", encFluid(f), tr.Start)
		for _, st := range tr.Stays {
			if st.Len > 1 {
				fmt.Fprintf(w, " %d,%dx%d", st.Cell.X, st.Cell.Y, st.Len)
			} else {
				fmt.Fprintf(w, " %d,%d", st.Cell.X, st.Cell.Y)
			}
		}
		fmt.Fprintln(w)
	}
	for _, ev := range s.Events {
		fmt.Fprintf(w, "event %d %s instr=%d in=%s out=%s cells=%s",
			ev.Cycle, ev.Kind, ev.InstrID, encFluidList(ev.Inputs), encFluidList(ev.Results), encCells(ev.Cells))
		if ev.Port != "" {
			fmt.Fprintf(w, " port=%s", strconv.Quote(ev.Port))
		}
		if ev.Fluid != "" {
			fmt.Fprintf(w, " fluidtype=%s", strconv.Quote(ev.Fluid))
		}
		if ev.Volume != 0 {
			fmt.Fprintf(w, " volume=%g", ev.Volume)
		}
		if ev.SensorVar != "" {
			fmt.Fprintf(w, " sensorvar=%s", strconv.Quote(ev.SensorVar))
		}
		if ev.Device != "" {
			fmt.Fprintf(w, " device=%s", strconv.Quote(ev.Device))
		}
		fmt.Fprintln(w)
	}
}

func encCells(cells []arch.Point) string {
	if len(cells) == 0 {
		return "-"
	}
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += ";"
		}
		out += fmt.Sprintf("%d,%d", c.X, c.Y)
	}
	return out
}
