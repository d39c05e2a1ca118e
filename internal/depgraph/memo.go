package depgraph

import (
	"sort"
	"sync"
	"sync/atomic"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/place"
	"biocoder/internal/sched"
)

// Memo is the content-addressed per-block synthesis cache: schedule,
// placement and activation sequence of a block, keyed on its Fingerprint.
//
// Reuse across programs is subtle: the fingerprint is rename-invariant,
// but the stored artifacts carry concrete SSI versions and instruction
// IDs. A lookup therefore rebuilds the renaming σ between the stored
// block and the requesting block — positionally, pairing the i-th φ with
// the i-th φ and the i-th wet instruction with the i-th wet instruction
// after confirming their Weisfeiler-Lehman hashes match — and then proves
// the reuse sound before translating:
//
//   - σ is a bijection on fluid versions, consistent with every argument
//     position (the two blocks are the *same DAG*, not just hash-equal);
//   - σ preserves the canonical fluid order (ir.FluidID.Compare) — the
//     scheduler breaks ties by fluid order, so only order-preserving
//     renamings schedule identically;
//   - the instruction-ID order is preserved — the scheduler and codegen
//     break ties by ID order, and routing uses IDs only for group
//     equality;
//   - the live-out sets correspond under σ — storage insertion reads them.
//
// Any failed check is a conservative rejection (counted, treated as a
// miss). Under these guards every per-block synthesis stage is
// equivariant: applying σ to the stored artifacts yields byte-for-byte
// what re-synthesis would produce — the property the corpus digest test
// holds against the whole bundled corpus. Artifacts are deep-copied on
// store and translated into fresh copies on every hit, so callers
// (notably FoldNonCriticalEdges) may mutate what they receive.
type Memo struct {
	mu      sync.Mutex
	max     int
	entries map[string]*memoEntry
	order   []string  // FIFO eviction order
	persist Persister // optional disk layer (see memo_disk.go); nil = memory-only

	hits     atomic.Int64
	misses   atomic.Int64
	rejected atomic.Int64
	diskHits atomic.Int64
}

// DefaultMemoEntries bounds a NewMemo cache; at a few kilobytes per
// compiled block this keeps a long-lived daemon's memo in the tens of
// megabytes.
const DefaultMemoEntries = 4096

// NewMemo returns an empty memo with the default entry bound.
func NewMemo() *Memo { return NewMemoSize(DefaultMemoEntries) }

// NewMemoSize returns an empty memo evicting FIFO beyond max entries
// (max <= 0 selects the default).
func NewMemoSize(max int) *Memo {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	return &Memo{max: max, entries: map[string]*memoEntry{}}
}

// Stats is a point-in-time snapshot of memo effectiveness. Rejected
// counts lookups that found a fingerprint match but failed the soundness
// guards (they are also misses from the caller's perspective).
type Stats struct {
	Hits     int64
	Misses   int64
	Rejected int64
	Entries  int
	// DiskHits counts in-memory misses answered by the attached
	// Persister (they are also Hits when the translation guards pass).
	DiskHits int64
}

// Stats returns the cumulative counters.
func (m *Memo) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	n := len(m.entries)
	m.mu.Unlock()
	return Stats{
		Hits:     m.hits.Load(),
		Misses:   m.misses.Load(),
		Rejected: m.rejected.Load(),
		Entries:  n,
		DiskHits: m.diskHits.Load(),
	}
}

// memoEntry is one stored block synthesis. All fields are immutable after
// Store; lookups only read.
type memoEntry struct {
	phiDsts []ir.FluidID
	sigs    []instrSig // positional, wet instructions in list order
	liveOut []ir.FluidID
	items   []itemRec
	length  int
	seq     *codegen.Sequence // pristine deep copy, original names/IDs
	entry   map[ir.FluidID]arch.Point
	exit    map[ir.FluidID]arch.Point
}

type instrSig struct {
	id      int
	hash    string
	args    []ir.FluidID
	results []ir.FluidID
}

type itemRec struct {
	instrIdx   int // index into sigs; -1 for storage intervals
	fluid      ir.FluidID
	start, end int
	asn        place.Assignment
}

func wetInstrs(b *cfg.Block) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range b.Instrs {
		if in.Kind.IsWet() {
			out = append(out, in)
		}
	}
	return out
}

// Store records the synthesis artifacts of block b under fingerprint fp.
// liveOut must be the live-out set the block was synthesized against (the
// same one that went into the fingerprint). The artifacts are deep-copied,
// so later pipeline stages may mutate the originals freely. Nil-safe; an
// existing entry for fp is kept (the fingerprint pins the content, so first
// writer wins).
func (m *Memo) Store(fp string, b *cfg.Block, liveOut cfg.Set, bs *sched.BlockSchedule, bp *place.BlockPlacement, bc *codegen.BlockCode) {
	if m == nil {
		return
	}
	wet := wetInstrs(b)
	h := newBlockHasher(b)
	e := &memoEntry{length: bs.Length, liveOut: liveOut.Sorted()}
	for _, phi := range b.Phis {
		e.phiDsts = append(e.phiDsts, phi.Dst)
	}
	instrIdx := map[*ir.Instr]int{}
	for i, in := range wet {
		instrIdx[in] = i
		e.sigs = append(e.sigs, instrSig{
			id:      in.ID,
			hash:    h.instrHash(in),
			args:    append([]ir.FluidID(nil), in.Args...),
			results: append([]ir.FluidID(nil), in.Results...),
		})
	}
	for _, it := range bs.Items {
		rec := itemRec{instrIdx: -1, fluid: it.Fluid, start: it.Start, end: it.End, asn: bp.Assign[it]}
		if !it.IsStorage() {
			idx, ok := instrIdx[it.Instr]
			if !ok {
				return // foreign instruction: refuse to cache
			}
			rec.instrIdx = idx
		}
		e.items = append(e.items, rec)
	}
	e.seq = copySequence(bc.Seq)
	e.entry = copyPositions(bc.Entry)
	e.exit = copyPositions(bc.Exit)

	m.mu.Lock()
	if _, dup := m.entries[fp]; dup {
		m.mu.Unlock()
		return
	}
	for len(m.entries) >= m.max && len(m.order) > 0 {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	m.entries[fp] = e
	m.order = append(m.order, fp)
	persist := m.persist
	m.mu.Unlock()
	if persist != nil {
		// Write-through after releasing the lock: entries are immutable
		// once stored, so the encoder reads race-free.
		m.persistEntry(persist, fp, e)
	}
}

// Lookup returns the stored synthesis of a block fingerprint-equal to b,
// translated onto b's own versions and instructions, or ok=false (not
// cached, or the soundness guards rejected the pairing). liveOut must be
// b's live-out set — the same one that went into the fingerprint.
func (m *Memo) Lookup(fp string, b *cfg.Block, liveOut cfg.Set) (*sched.BlockSchedule, *place.BlockPlacement, *codegen.BlockCode, bool) {
	if m == nil {
		return nil, nil, nil, false
	}
	m.mu.Lock()
	e := m.entries[fp]
	persist := m.persist
	m.mu.Unlock()
	if e == nil && persist != nil {
		e = m.diskLookup(persist, fp)
	}
	if e == nil {
		m.misses.Add(1)
		return nil, nil, nil, false
	}
	bs, bp, bc, ok := e.translate(b, liveOut)
	if !ok {
		m.rejected.Add(1)
		m.misses.Add(1)
		return nil, nil, nil, false
	}
	m.hits.Add(1)
	return bs, bp, bc, true
}

// translate rebuilds the renaming σ from the stored block onto b, proves
// it sound, and applies it to the stored artifacts. Returns ok=false on
// any guard failure.
func (e *memoEntry) translate(b *cfg.Block, liveOut cfg.Set) (*sched.BlockSchedule, *place.BlockPlacement, *codegen.BlockCode, bool) {
	wet := wetInstrs(b)
	if len(wet) != len(e.sigs) || len(b.Phis) != len(e.phiDsts) || len(liveOut) != len(e.liveOut) {
		return nil, nil, nil, false
	}
	h := newBlockHasher(b)

	sigma := make(map[ir.FluidID]ir.FluidID, len(e.phiDsts)+2*len(e.sigs))
	inverse := make(map[ir.FluidID]ir.FluidID, len(sigma))
	addPair := func(old, new ir.FluidID) bool {
		if prev, ok := sigma[old]; ok {
			return prev == new
		}
		if prev, ok := inverse[new]; ok {
			return prev == old
		}
		sigma[old] = new
		inverse[new] = old
		return true
	}
	for i, phi := range b.Phis {
		if !addPair(e.phiDsts[i], phi.Dst) {
			return nil, nil, nil, false
		}
	}
	idMap := make(map[int]*ir.Instr, len(e.sigs))
	for i, sig := range e.sigs {
		nin := wet[i]
		if h.instrHash(nin) != sig.hash ||
			len(nin.Args) != len(sig.args) || len(nin.Results) != len(sig.results) {
			return nil, nil, nil, false
		}
		// Arguments must already be paired (φ destinations or earlier
		// results): the positional pairing is only sound if both blocks
		// wire the same producers to the same consumers.
		for j, a := range sig.args {
			if mapped, ok := sigma[a]; !ok || mapped != nin.Args[j] {
				return nil, nil, nil, false
			}
		}
		for j, r := range sig.results {
			if !addPair(r, nin.Results[j]) {
				return nil, nil, nil, false
			}
		}
		idMap[sig.id] = nin
	}
	// Live-out sets must correspond under σ.
	for _, f := range e.liveOut {
		nf, ok := sigma[f]
		if !ok || !liveOut[nf] {
			return nil, nil, nil, false
		}
	}
	// σ must preserve the canonical fluid order: the scheduler's item sort
	// and the router's request order break ties by (name, version).
	olds := make([]ir.FluidID, 0, len(sigma))
	for old := range sigma {
		olds = append(olds, old)
	}
	ir.SortFluids(olds)
	for i := 1; i < len(olds); i++ {
		if sigma[olds[i-1]].Compare(sigma[olds[i]]) >= 0 {
			return nil, nil, nil, false
		}
	}
	// Instruction-ID order must be preserved (scheduler tie-break).
	idx := make([]int, len(e.sigs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return e.sigs[idx[a]].id < e.sigs[idx[c]].id })
	for i := 1; i < len(idx); i++ {
		if wet[idx[i-1]].ID >= wet[idx[i]].ID {
			return nil, nil, nil, false
		}
	}

	// Guards hold: apply σ.
	apply := func(f ir.FluidID) (ir.FluidID, bool) {
		nf, ok := sigma[f]
		return nf, ok
	}
	items := make([]*sched.Item, len(e.items))
	assign := make(map[*sched.Item]place.Assignment, len(e.items))
	for i, rec := range e.items {
		it := &sched.Item{Start: rec.start, End: rec.end}
		if rec.instrIdx >= 0 {
			it.Instr = wet[rec.instrIdx]
		}
		if !rec.fluid.IsZero() {
			nf, ok := apply(rec.fluid)
			if !ok {
				return nil, nil, nil, false
			}
			it.Fluid = nf
		}
		items[i] = it
		assign[it] = rec.asn
	}
	seq, ok := translateSequence(e.seq, sigma, idMap)
	if !ok {
		return nil, nil, nil, false
	}
	entry, ok := translatePositions(e.entry, sigma)
	if !ok {
		return nil, nil, nil, false
	}
	exit, ok := translatePositions(e.exit, sigma)
	if !ok {
		return nil, nil, nil, false
	}
	bs := &sched.BlockSchedule{Block: b, Items: items, Length: e.length}
	bp := &place.BlockPlacement{Block: b, Sched: bs, Assign: assign}
	bc := &codegen.BlockCode{Block: b, Seq: seq, Entry: entry, Exit: exit}
	return bs, bp, bc, true
}

func copyPositions(m map[ir.FluidID]arch.Point) map[ir.FluidID]arch.Point {
	out := make(map[ir.FluidID]arch.Point, len(m))
	for f, p := range m {
		out[f] = p
	}
	return out
}

func translatePositions(m map[ir.FluidID]arch.Point, sigma map[ir.FluidID]ir.FluidID) (map[ir.FluidID]arch.Point, bool) {
	out := make(map[ir.FluidID]arch.Point, len(m))
	for f, p := range m {
		nf, ok := sigma[f]
		if !ok {
			return nil, false
		}
		out[nf] = p
	}
	return out, true
}

func copyCells(cs []arch.Point) []arch.Point {
	if cs == nil {
		return nil
	}
	return append([]arch.Point(nil), cs...)
}

// copyFrames deep-copies a frame stream, copying each run of repeated
// frames once and sharing the copy across the run as codegen does.
func copyFrames(fs []codegen.Frame) []codegen.Frame {
	out := make([]codegen.Frame, len(fs))
	for i, f := range fs {
		if i > 0 && codegen.SameFrame(fs[i-1], f) {
			out[i] = out[i-1]
		} else {
			out[i] = append(codegen.Frame(nil), f...)
		}
	}
	return out
}

// copySequence deep-copies a sequence without renaming (Store's pristine
// snapshot).
func copySequence(s *codegen.Sequence) *codegen.Sequence {
	if s == nil {
		return nil
	}
	out := &codegen.Sequence{NumCycles: s.NumCycles, Frames: copyFrames(s.Frames), Tracks: map[ir.FluidID]*codegen.Track{}}
	out.Events = make([]codegen.Event, len(s.Events))
	for i, ev := range s.Events {
		c := ev
		c.Inputs = append([]ir.FluidID(nil), ev.Inputs...)
		c.Results = append([]ir.FluidID(nil), ev.Results...)
		c.Cells = copyCells(ev.Cells)
		out.Events[i] = c
	}
	for f, tr := range s.Tracks {
		out.Tracks[f] = &codegen.Track{Start: tr.Start, Cells: copyCells(tr.Cells)}
	}
	return out
}

// translateSequence deep-copies a sequence, renaming fluids through σ and
// retargeting event instruction IDs through idMap.
func translateSequence(s *codegen.Sequence, sigma map[ir.FluidID]ir.FluidID, idMap map[int]*ir.Instr) (*codegen.Sequence, bool) {
	if s == nil {
		return nil, true
	}
	out := &codegen.Sequence{NumCycles: s.NumCycles, Frames: copyFrames(s.Frames), Tracks: map[ir.FluidID]*codegen.Track{}}
	mapAll := func(fs []ir.FluidID) ([]ir.FluidID, bool) {
		outs := make([]ir.FluidID, len(fs))
		for i, f := range fs {
			nf, ok := sigma[f]
			if !ok {
				return nil, false
			}
			outs[i] = nf
		}
		return outs, true
	}
	out.Events = make([]codegen.Event, len(s.Events))
	for i, ev := range s.Events {
		c := ev
		var ok bool
		if c.Inputs, ok = mapAll(ev.Inputs); !ok {
			return nil, false
		}
		if c.Results, ok = mapAll(ev.Results); !ok {
			return nil, false
		}
		c.Cells = copyCells(ev.Cells)
		nin, ok := idMap[ev.InstrID]
		if !ok {
			return nil, false
		}
		c.InstrID = nin.ID
		out.Events[i] = c
	}
	for f, tr := range s.Tracks {
		nf, ok := sigma[f]
		if !ok {
			return nil, false
		}
		out.Tracks[nf] = &codegen.Track{Start: tr.Start, Cells: copyCells(tr.Cells)}
	}
	return out, true
}
