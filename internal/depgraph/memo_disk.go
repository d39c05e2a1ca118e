package depgraph

// Disk format of the block memo's entries, which its store.Cache writes
// through to an internal/store directory and reads back after an
// in-memory miss. Fingerprints embed chip, options, and biocoder.Version,
// so a disk entry can never be translated onto a block it wasn't
// synthesized for — a compiler upgrade or option change simply misses.
// The gob wire format is guarded by its own tag (memoWireTag): the store's
// SHA-256 check catches bit rot before gob ever sees it, and an entry that
// passes it but does not decode (an older tag, say) is quarantined.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"biocoder/internal/arch"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/place"
)

// memoWireTag versions the gob wire format of persisted memo entries.
// Bump on any change to the wire structs below.
const memoWireTag = "bfmemo2"

// Wire mirrors of the unexported memo structs, exported for encoding/gob.
type memoWire struct {
	Tag     string
	PhiDsts []ir.FluidID
	Sigs    []instrSigWire
	LiveOut []ir.FluidID
	Items   []itemRecWire
	Length  int
	Seq     *seqWire
	Entry   map[ir.FluidID]arch.Point
	Exit    map[ir.FluidID]arch.Point
}

type instrSigWire struct {
	ID      int
	Hash    string
	Args    []ir.FluidID
	Results []ir.FluidID
}

type itemRecWire struct {
	InstrIdx   int
	Fluid      ir.FluidID
	Start, End int
	Asn        place.Assignment
}

// seqWire flattens codegen.Sequence: gob handles the nested types, but an
// explicit mirror keeps the wire format decoupled from codegen's struct
// evolution (a codegen field rename must not silently change the format).
type seqWire struct {
	NumCycles int
	Runs      []codegen.Run
	Events    []codegen.Event
	Tracks    map[ir.FluidID]*codegen.Track
}

func encodeMemoEntry(e *memoEntry) ([]byte, error) {
	w := &memoWire{
		Tag:     memoWireTag,
		PhiDsts: e.phiDsts,
		LiveOut: e.liveOut,
		Length:  e.length,
		Entry:   e.entry,
		Exit:    e.exit,
	}
	for _, sig := range e.sigs {
		w.Sigs = append(w.Sigs, instrSigWire{ID: sig.id, Hash: sig.hash, Args: sig.args, Results: sig.results})
	}
	for _, it := range e.items {
		w.Items = append(w.Items, itemRecWire{InstrIdx: it.instrIdx, Fluid: it.fluid, Start: it.start, End: it.end, Asn: it.asn})
	}
	if e.seq != nil {
		w.Seq = &seqWire{NumCycles: e.seq.NumCycles, Runs: e.seq.Runs, Events: e.seq.Events, Tracks: e.seq.Tracks}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeMemoEntry(blob []byte) (*memoEntry, error) {
	var w memoWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		return nil, err
	}
	if w.Tag != memoWireTag {
		return nil, fmt.Errorf("memo wire tag %q, want %q", w.Tag, memoWireTag)
	}
	e := &memoEntry{
		phiDsts: w.PhiDsts,
		liveOut: w.LiveOut,
		length:  w.Length,
		entry:   w.Entry,
		exit:    w.Exit,
	}
	if e.entry == nil {
		e.entry = map[ir.FluidID]arch.Point{}
	}
	if e.exit == nil {
		e.exit = map[ir.FluidID]arch.Point{}
	}
	for _, sig := range w.Sigs {
		e.sigs = append(e.sigs, instrSig{id: sig.ID, hash: sig.Hash, args: sig.Args, results: sig.Results})
	}
	for _, it := range w.Items {
		if it.InstrIdx < -1 || it.InstrIdx >= len(w.Sigs) {
			return nil, fmt.Errorf("memo item names instruction %d of %d", it.InstrIdx, len(w.Sigs))
		}
		e.items = append(e.items, itemRec{instrIdx: it.InstrIdx, fluid: it.Fluid, start: it.Start, end: it.End, asn: it.Asn})
	}
	if w.Seq == nil {
		return nil, fmt.Errorf("memo entry without a sequence")
	}
	seq := &codegen.Sequence{NumCycles: w.Seq.NumCycles, Runs: w.Seq.Runs, Events: w.Seq.Events, Tracks: w.Seq.Tracks}
	if seq.Tracks == nil {
		seq.Tracks = map[ir.FluidID]*codegen.Track{}
	}
	if err := seq.Validate(); err != nil {
		return nil, fmt.Errorf("memo entry: %w", err)
	}
	for _, ev := range seq.Events {
		// gob carries any float; compiled volumes are finite.
		if math.IsNaN(ev.Volume) || math.IsInf(ev.Volume, 0) {
			return nil, fmt.Errorf("memo entry: event volume %g", ev.Volume)
		}
	}
	e.seq = seq
	return e, nil
}
