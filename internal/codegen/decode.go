package codegen

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/ir"
	"biocoder/internal/place"
)

// Decode reads an executable previously written by Encode and verifies it
// with Executable.Check before returning.
func Decode(r io.Reader) (*Executable, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // long RLE track lines
	d := &decoder{sc: sc}
	ex, err := d.decode()
	if err != nil {
		return nil, fmt.Errorf("codegen: decode line %d: %w", d.line, err)
	}
	if err := ex.Check(); err != nil {
		return nil, fmt.Errorf("codegen: decoded executable invalid: %w", err)
	}
	return ex, nil
}

type decoder struct {
	sc   *bufio.Scanner
	line int
	cur  string
	eof  bool
}

func (d *decoder) next() bool {
	if d.eof {
		return false
	}
	if !d.sc.Scan() {
		d.eof = true
		return false
	}
	d.line++
	d.cur = d.sc.Text()
	return true
}

func (d *decoder) decode() (*Executable, error) {
	if !d.next() || d.cur != magic {
		return nil, fmt.Errorf("bad magic %q (want %q)", d.cur, magic)
	}
	if !d.next() || d.cur != "[chip]" {
		return nil, fmt.Errorf("expected [chip], found %q", d.cur)
	}
	chip, faults, err := d.decodeChip()
	if err != nil {
		return nil, err
	}
	topo, err := place.BuildTopologyFaulty(chip, faults)
	if err != nil {
		return nil, err
	}
	g, err := d.decodeGraph()
	if err != nil {
		return nil, err
	}
	ex := &Executable{
		Graph:  g,
		Topo:   topo,
		Blocks: map[int]*BlockCode{},
		Edges:  map[[2]int]*EdgeCode{},
	}
	blocks := map[int]*cfg.Block{}
	for _, b := range g.Blocks {
		blocks[b.ID] = b
	}
	// Code sections until [end].
	for {
		fields := strings.Fields(d.cur)
		switch {
		case d.cur == "[end]":
			return ex, nil
		case len(fields) == 3 && fields[0] == "[code" && fields[1] == "block":
			id, err := strconv.Atoi(strings.TrimSuffix(fields[2], "]"))
			if err != nil {
				return nil, fmt.Errorf("bad block id in %q", d.cur)
			}
			b, ok := blocks[id]
			if !ok {
				return nil, fmt.Errorf("code for unknown block %d", id)
			}
			bc, err := d.decodeBlockCode(b)
			if err != nil {
				return nil, err
			}
			ex.Blocks[id] = bc
		case len(fields) == 4 && fields[0] == "[code" && fields[1] == "edge":
			from, err1 := strconv.Atoi(fields[2])
			to, err2 := strconv.Atoi(strings.TrimSuffix(fields[3], "]"))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad edge ids in %q", d.cur)
			}
			fb, tb := blocks[from], blocks[to]
			if fb == nil || tb == nil {
				return nil, fmt.Errorf("code for unknown edge %d->%d", from, to)
			}
			ec, err := d.decodeEdgeCode(fb, tb)
			if err != nil {
				return nil, err
			}
			ex.Edges[[2]int{from, to}] = ec
		default:
			return nil, fmt.Errorf("unexpected section header %q", d.cur)
		}
	}
}

// decodeChip consumes arch-config lines (and an optional [faults] section)
// until the [graph] header.
func (d *decoder) decodeChip() (*arch.Chip, []arch.Point, error) {
	var sb strings.Builder
	var faults []arch.Point
	inFaults := false
	for d.next() {
		switch {
		case d.cur == "[graph]":
			chip, err := arch.ParseConfig(strings.NewReader(sb.String()))
			return chip, faults, err
		case d.cur == "[faults]":
			inFaults = true
		case inFaults:
			var x, y int
			if _, err := fmt.Sscanf(d.cur, "fault %d %d", &x, &y); err != nil {
				return nil, nil, fmt.Errorf("bad fault line %q", d.cur)
			}
			faults = append(faults, arch.Point{X: x, Y: y})
		default:
			sb.WriteString(d.cur)
			sb.WriteByte('\n')
		}
	}
	return nil, nil, fmt.Errorf("missing [graph] section")
}

// decodeGraph consumes graph lines until the first [code ...] header.
func (d *decoder) decodeGraph() (*cfg.Graph, error) {
	g := cfg.New() // creates entry (id 0) and exit (id 1)
	blocks := map[int]*cfg.Block{0: g.Entry, 1: g.Exit}
	for d.next() {
		if strings.HasPrefix(d.cur, "[code") {
			return g, nil
		}
		fields, err := splitQuoted(d.cur)
		if err != nil || len(fields) == 0 {
			return nil, fmt.Errorf("bad graph line %q: %v", d.cur, err)
		}
		switch fields[0] {
		case "block":
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
			label := fields[2]
			switch id {
			case 0:
				g.Entry.Label = label
			case 1:
				g.Exit.Label = label
			default:
				b := g.NewBlock(label)
				if b.ID != id {
					return nil, fmt.Errorf("block ids not dense: got %d want %d", b.ID, id)
				}
				blocks[id] = b
			}
		case "phi":
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
			b := blocks[id]
			if b == nil {
				return nil, fmt.Errorf("phi for unknown block %d", id)
			}
			dst, err := decFluid(fields[2])
			if err != nil {
				return nil, err
			}
			phi := cfg.Phi{Dst: dst, Srcs: map[int]ir.FluidID{}}
			for _, kv := range fields[3:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return nil, fmt.Errorf("bad phi source %q", kv)
				}
				pred, err := strconv.Atoi(kv[:eq])
				if err != nil {
					return nil, err
				}
				src, err := decFluid(kv[eq+1:])
				if err != nil {
					return nil, err
				}
				phi.Srcs[pred] = src
			}
			b.Phis = append(b.Phis, phi)
		case "instr":
			if err := decodeInstr(fields, blocks); err != nil {
				return nil, err
			}
		case "branch":
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
			b := blocks[id]
			if b == nil {
				return nil, fmt.Errorf("branch for unknown block %d", id)
			}
			expr, err := ir.ParseExpr(fields[2])
			if err != nil {
				return nil, err
			}
			b.Branch = expr
		case "edge":
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad edge %q", d.cur)
			}
			if blocks[from] == nil || blocks[to] == nil {
				return nil, fmt.Errorf("edge between unknown blocks %d->%d", from, to)
			}
			g.AddEdge(blocks[from], blocks[to])
		default:
			return nil, fmt.Errorf("unknown graph directive %q", fields[0])
		}
	}
	return nil, fmt.Errorf("missing code sections")
}

var kindByName = map[string]ir.OpKind{
	"dispense": ir.Dispense, "output": ir.Output, "mix": ir.Mix,
	"split": ir.Split, "heat": ir.Heat, "sense": ir.Sense,
	"store": ir.Store, "compute": ir.Compute,
}

func decodeInstr(fields []string, blocks map[int]*cfg.Block) error {
	if len(fields) < 4 {
		return fmt.Errorf("short instr line")
	}
	blockID, err := strconv.Atoi(fields[1])
	if err != nil {
		return err
	}
	b := blocks[blockID]
	if b == nil {
		return fmt.Errorf("instr for unknown block %d", blockID)
	}
	id, err := strconv.Atoi(fields[2])
	if err != nil {
		return err
	}
	kind, ok := kindByName[fields[3]]
	if !ok {
		return fmt.Errorf("unknown op kind %q", fields[3])
	}
	in := &ir.Instr{ID: id, Kind: kind}
	for _, kv := range fields[4:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("bad instr field %q", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "args":
			if in.Args, err = decFluidList(val); err != nil {
				return err
			}
		case "results":
			if in.Results, err = decFluidList(val); err != nil {
				return err
			}
		case "fluidtype":
			in.FluidType = val
		case "volume":
			if in.Volume, err = strconv.ParseFloat(val, 64); err != nil {
				return err
			}
		case "duration":
			ns, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return err
			}
			in.Duration = time.Duration(ns)
		case "temp":
			if in.Temp, err = strconv.ParseFloat(val, 64); err != nil {
				return err
			}
		case "sensorvar":
			in.SensorVar = val
		case "port":
			in.Port = val
		case "drylhs":
			in.DryLHS = val
		case "dryexpr":
			if in.DryExpr, err = ir.ParseExpr(val); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown instr field %q", key)
		}
	}
	if err := in.Validate(); err != nil {
		return err
	}
	b.Instrs = append(b.Instrs, in)
	return nil
}

func (d *decoder) decodeBlockCode(b *cfg.Block) (*BlockCode, error) {
	bc := &BlockCode{
		Block: b,
		Seq:   &Sequence{Tracks: map[ir.FluidID]*Track{}},
		Entry: map[ir.FluidID]arch.Point{},
		Exit:  map[ir.FluidID]arch.Point{},
	}
	if err := d.decodeSeqBody(bc.Seq, bc, nil); err != nil {
		return nil, err
	}
	rebuildFrames(bc.Seq)
	return bc, nil
}

func (d *decoder) decodeEdgeCode(from, to *cfg.Block) (*EdgeCode, error) {
	ec := &EdgeCode{
		From: from,
		To:   to,
		Seq:  &Sequence{Tracks: map[ir.FluidID]*Track{}},
	}
	if err := d.decodeSeqBody(ec.Seq, nil, ec); err != nil {
		return nil, err
	}
	rebuildFrames(ec.Seq)
	return ec, nil
}

// decodeSeqBody consumes lines until the next section header, which is
// left in d.cur for the caller.
func (d *decoder) decodeSeqBody(s *Sequence, bc *BlockCode, ec *EdgeCode) error {
	for d.next() {
		if strings.HasPrefix(d.cur, "[") {
			s.sortEvents()
			return nil
		}
		fields, err := splitQuoted(d.cur)
		if err != nil || len(fields) == 0 {
			return fmt.Errorf("bad code line %q: %v", d.cur, err)
		}
		switch fields[0] {
		case "cycles":
			if len(s.Tracks) > 0 {
				return fmt.Errorf("cycles line after the tracks it bounds")
			}
			if s.NumCycles, err = strconv.Atoi(fields[1]); err != nil {
				return err
			}
			if s.NumCycles < 0 {
				return fmt.Errorf("negative cycle count %d", s.NumCycles)
			}
		case "entry", "exit":
			if bc == nil {
				return fmt.Errorf("%s line outside block code", fields[0])
			}
			f, err := decFluid(fields[1])
			if err != nil {
				return err
			}
			x, err1 := strconv.Atoi(fields[2])
			y, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad %s point", fields[0])
			}
			if fields[0] == "entry" {
				bc.Entry[f] = arch.Point{X: x, Y: y}
			} else {
				bc.Exit[f] = arch.Point{X: x, Y: y}
			}
		case "copy":
			if ec == nil {
				return fmt.Errorf("copy line outside edge code")
			}
			dst, err1 := decFluid(fields[1])
			src, err2 := decFluid(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad copy line")
			}
			ec.Copies = append(ec.Copies, cfg.Copy{Dst: dst, Src: src})
		case "track":
			f, err := decFluid(fields[1])
			if err != nil {
				return err
			}
			start, err := strconv.Atoi(fields[2])
			if err != nil {
				return err
			}
			// A track lies within the cycles declared before it, except
			// the one-cell track pinning a droplet born at the sequence's
			// final boundary, which starts at NumCycles.
			room := s.NumCycles - start
			if start == s.NumCycles {
				room = 1
			}
			if start < 0 || room < 0 {
				return fmt.Errorf("track %s starts at cycle %d, outside the sequence's %d cycles", f, start, s.NumCycles)
			}
			tr := &Track{Start: start}
			for _, cell := range fields[3:] {
				rep := 1
				if x := strings.IndexByte(cell, 'x'); x >= 0 {
					if rep, err = strconv.Atoi(cell[x+1:]); err != nil {
						return err
					}
					if rep < 1 {
						return fmt.Errorf("track %s: bad run length %d", f, rep)
					}
					cell = cell[:x]
				}
				p, err := decPoint(cell)
				if err != nil {
					return err
				}
				if rep > room-len(tr.Cells) {
					return fmt.Errorf("track %s runs past the sequence's %d cycles", f, s.NumCycles)
				}
				tr.Cells = slices.Grow(tr.Cells, rep)
				for i := 0; i < rep; i++ {
					tr.Cells = append(tr.Cells, p)
				}
			}
			s.Tracks[f] = tr
		case "event":
			ev, err := decodeEvent(fields)
			if err != nil {
				return err
			}
			s.Events = append(s.Events, ev)
		default:
			return fmt.Errorf("unknown code directive %q", fields[0])
		}
	}
	return fmt.Errorf("unexpected end of file in code section")
}

var eventKindByName = map[string]EventKind{
	"dispense": EvDispense, "output": EvOutput, "split": EvSplit,
	"merge": EvMerge, "rename": EvRename, "sense": EvSense,
}

func decodeEvent(fields []string) (Event, error) {
	var ev Event
	if len(fields) < 3 {
		return ev, fmt.Errorf("short event line")
	}
	cycle, err := strconv.Atoi(fields[1])
	if err != nil {
		return ev, err
	}
	ev.Cycle = cycle
	kind, ok := eventKindByName[fields[2]]
	if !ok {
		return ev, fmt.Errorf("unknown event kind %q", fields[2])
	}
	ev.Kind = kind
	for _, kv := range fields[3:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return ev, fmt.Errorf("bad event field %q", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "instr":
			if ev.InstrID, err = strconv.Atoi(val); err != nil {
				return ev, err
			}
		case "in":
			if ev.Inputs, err = decFluidList(val); err != nil {
				return ev, err
			}
		case "out":
			if ev.Results, err = decFluidList(val); err != nil {
				return ev, err
			}
		case "cells":
			if val == "-" {
				break
			}
			for _, c := range strings.Split(val, ";") {
				p, err := decPoint(c)
				if err != nil {
					return ev, err
				}
				ev.Cells = append(ev.Cells, p)
			}
		case "port":
			ev.Port = val
		case "fluidtype":
			ev.Fluid = val
		case "volume":
			if ev.Volume, err = strconv.ParseFloat(val, 64); err != nil {
				return ev, err
			}
		case "sensorvar":
			ev.SensorVar = val
		case "device":
			ev.Device = val
		default:
			return ev, fmt.Errorf("unknown event field %q", key)
		}
	}
	return ev, nil
}

// rebuildFrames reconstructs the frame stream as the per-cycle union of
// track positions, exactly inverting the generator's emitFrames. A frame is
// built only at a cycle where some track starts, ends or moves; the cycles
// up to the next such cycle share it, as the generator's holds do.
func rebuildFrames(s *Sequence) {
	_, changes := trackChanges(s)
	s.Frames = make([]Frame, s.NumCycles)
	var frame Frame
	ci := 0
	for t := 0; t < s.NumCycles; t++ {
		for ci < len(changes) && changes[ci] < t {
			ci++
		}
		if t == 0 || ci < len(changes) && changes[ci] == t {
			frame = nil
			for _, tr := range s.Tracks {
				if t >= tr.Start && t < tr.End() {
					frame = append(frame, tr.Cells[t-tr.Start])
				}
			}
			sortFrame(frame)
		}
		s.Frames[t] = frame
	}
}

func decPoint(s string) (arch.Point, error) {
	comma := strings.IndexByte(s, ',')
	if comma < 0 {
		return arch.Point{}, fmt.Errorf("bad point %q", s)
	}
	x, err1 := strconv.Atoi(s[:comma])
	y, err2 := strconv.Atoi(s[comma+1:])
	if err1 != nil || err2 != nil {
		return arch.Point{}, fmt.Errorf("bad point %q", s)
	}
	return arch.Point{X: x, Y: y}, nil
}

// decFluid parses `name:ver` (names are identifier-shaped, no colons).
func decFluid(s string) (ir.FluidID, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 1 {
		return ir.FluidID{}, fmt.Errorf("bad fluid %q: missing version", s)
	}
	ver, err := strconv.Atoi(s[colon+1:])
	if err != nil {
		return ir.FluidID{}, fmt.Errorf("bad fluid %q: %v", s, err)
	}
	return ir.FluidID{Name: s[:colon], Ver: ver}, nil
}

func decFluidList(s string) ([]ir.FluidID, error) {
	if s == "-" {
		return nil, nil
	}
	var out []ir.FluidID
	for _, part := range strings.Split(s, ",") {
		f, err := decFluid(part)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// splitQuoted splits a line into space-separated fields where quoted
// strings (possibly embedded after key= prefixes) may contain spaces.
// Quoted segments are unquoted in the result.
func splitQuoted(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		var field strings.Builder
		for i < len(line) && line[i] != ' ' {
			if line[i] == '"' {
				q, err := strconv.QuotedPrefix(line[i:])
				if err != nil {
					return nil, fmt.Errorf("bad quoting at column %d", start)
				}
				unq, err := strconv.Unquote(q)
				if err != nil {
					return nil, err
				}
				field.WriteString(unq)
				i += len(q)
				continue
			}
			field.WriteByte(line[i])
			i++
		}
		out = append(out, field.String())
	}
	return out, nil
}
