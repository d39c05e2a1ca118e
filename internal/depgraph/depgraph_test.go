package depgraph

// White-box unit tests: fingerprint key discipline, rename/reorder
// invariance, hash sensitivity, and the memo's soundness guards.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"biocoder/internal/arch"
	"biocoder/internal/cfg"
	"biocoder/internal/codegen"
	"biocoder/internal/ir"
	"biocoder/internal/place"
	"biocoder/internal/sched"
)

func fid(name string, ver int) ir.FluidID { return ir.FluidID{Name: name, Ver: ver} }

func testKey(t *testing.T) Key {
	t.Helper()
	k, err := NewKey("test-version", "chip-text", "options-text")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// testBlock builds φ(s.2), φ(r.4); s.5 = mix(s.2, r.4); s.6 = sense(s.5);
// live-out {s.6}.
func testBlock() (*cfg.Block, cfg.Set) {
	mix := &ir.Instr{ID: 10, Kind: ir.Mix, Duration: 2 * time.Second,
		Args: []ir.FluidID{fid("s", 2), fid("r", 4)}, Results: []ir.FluidID{fid("s", 5)}}
	sense := &ir.Instr{ID: 11, Kind: ir.Sense, Duration: time.Second, SensorVar: "x",
		Args: []ir.FluidID{fid("s", 5)}, Results: []ir.FluidID{fid("s", 6)}}
	b := &cfg.Block{ID: 1, Label: "b1",
		Phis:   []cfg.Phi{{Dst: fid("s", 2)}, {Dst: fid("r", 4)}},
		Instrs: []*ir.Instr{mix, sense}}
	return b, cfg.Set{fid("s", 6): true}
}

// renameBlock returns a deep copy of b with every SSI version mapped
// through ver (applied to φ destinations, arguments, results, live-out)
// and instruction IDs shifted by idShift; reverse additionally reverses
// both lists.
func renameBlock(b *cfg.Block, liveOut cfg.Set, ver func(int) int, idShift int, reverse bool) (*cfg.Block, cfg.Set) {
	rel := func(f ir.FluidID) ir.FluidID { return ir.FluidID{Name: f.Name, Ver: ver(f.Ver)} }
	out := &cfg.Block{ID: b.ID, Label: b.Label}
	for _, phi := range b.Phis {
		out.Phis = append(out.Phis, cfg.Phi{Dst: rel(phi.Dst)})
	}
	for _, in := range b.Instrs {
		c := *in
		c.ID = in.ID + idShift
		c.Args = relabelAll(in.Args, rel)
		c.Results = relabelAll(in.Results, rel)
		out.Instrs = append(out.Instrs, &c)
	}
	if reverse {
		for i, j := 0, len(out.Phis)-1; i < j; i, j = i+1, j-1 {
			out.Phis[i], out.Phis[j] = out.Phis[j], out.Phis[i]
		}
		for i, j := 0, len(out.Instrs)-1; i < j; i, j = i+1, j-1 {
			out.Instrs[i], out.Instrs[j] = out.Instrs[j], out.Instrs[i]
		}
	}
	lo := cfg.Set{}
	for f := range liveOut {
		lo[rel(f)] = true
	}
	return out, lo
}

func TestNewKeyRequiresVersion(t *testing.T) {
	if _, err := NewKey("", "chip", "opt"); err == nil {
		t.Fatal("NewKey accepted an empty version")
	}
	if _, err := KeyFor("", arch.Default(), "opt"); err == nil {
		t.Fatal("KeyFor accepted an empty version")
	}
	b, lo := testBlock()
	if _, err := Fingerprint(Key{}, b, lo); err == nil {
		t.Fatal("Fingerprint accepted the zero Key")
	}
}

func TestFingerprintRenameReorderInvariant(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	// Any order-preserving version renaming plus any list reordering of
	// the same DAG must hash identically.
	for _, ver := range []func(int) int{
		func(v int) int { return v + 1000 },
		func(v int) int { return v * 7 },
	} {
		for _, reverse := range []bool{false, true} {
			rb, rlo := renameBlock(b, lo, ver, 1<<20, reverse)
			rfp, err := Fingerprint(k, rb, rlo)
			if err != nil {
				t.Fatal(err)
			}
			if rfp != fp {
				t.Errorf("fingerprint changed under renaming (reverse=%v)", reverse)
			}
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	// A changed operation parameter must move the hash.
	mut, mlo := renameBlock(b, lo, func(v int) int { return v }, 0, false)
	mut.Instrs[0].Duration = 3 * time.Second
	mfp, err := Fingerprint(k, mut, mlo)
	if err != nil {
		t.Fatal(err)
	}
	if mfp == fp {
		t.Error("fingerprint ignored an operation duration change")
	}
	// A changed live-out set must move the hash (storage insertion reads it).
	efp, err := Fingerprint(k, b, cfg.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if efp == fp {
		t.Error("fingerprint ignored the live-out set")
	}
	// A changed key component must move the hash.
	k2, err := NewKey("test-version", "chip-text", "other-options")
	if err != nil {
		t.Fatal(err)
	}
	ofp, err := Fingerprint(k2, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	if ofp == fp {
		t.Error("fingerprint ignored the options component of the key")
	}
	v2, err := NewKey("other-version", "chip-text", "options-text")
	if err != nil {
		t.Fatal(err)
	}
	vfp, err := Fingerprint(v2, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	if vfp == fp {
		t.Error("fingerprint ignored the compiler version")
	}
}

// fakeArtifacts builds minimal synthesis artifacts for b, enough to
// exercise Store/Lookup translation.
func fakeArtifacts(b *cfg.Block, liveOut cfg.Set) (*sched.BlockSchedule, *place.BlockPlacement, *codegen.BlockCode) {
	bs := &sched.BlockSchedule{Block: b, Length: 4}
	bp := &place.BlockPlacement{Block: b, Sched: bs, Assign: map[*sched.Item]place.Assignment{}}
	start := 0
	for _, in := range b.Instrs {
		it := &sched.Item{Instr: in, Start: start, End: start + 2}
		bs.Items = append(bs.Items, it)
		bp.Assign[it] = place.Assignment{Slot: start}
		start++
	}
	seq := &codegen.Sequence{NumCycles: 2, Tracks: map[ir.FluidID]*codegen.Track{}}
	seq.Runs = []codegen.Run{{Frame: codegen.Frame{{X: 1, Y: 1}}, Len: 1}, {Frame: codegen.Frame{{X: 1, Y: 2}}, Len: 1}}
	entry := map[ir.FluidID]arch.Point{}
	exit := map[ir.FluidID]arch.Point{}
	for _, phi := range b.Phis {
		entry[phi.Dst] = arch.Point{X: 1, Y: 1}
	}
	for f := range liveOut {
		exit[f] = arch.Point{X: 1, Y: 2}
		seq.Tracks[f] = &codegen.Track{Start: 0, Stays: []codegen.Stay{{Cell: arch.Point{X: 1, Y: 1}, Len: 1}, {Cell: arch.Point{X: 1, Y: 2}, Len: 1}}}
	}
	seq.Events = []codegen.Event{{Cycle: 0, Kind: codegen.EvMerge, InstrID: b.Instrs[0].ID,
		Inputs:  append([]ir.FluidID(nil), b.Instrs[0].Args...),
		Results: append([]ir.FluidID(nil), b.Instrs[0].Results...)}}
	return bs, bp, &codegen.BlockCode{Block: b, Seq: seq, Entry: entry, Exit: exit}
}

func TestMemoTranslatesRenamedBlock(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(nil)
	bs, bp, bc := fakeArtifacts(b, lo)
	m.Store(fp, b, lo, bs, bp, bc)

	rb, rlo := renameBlock(b, lo, func(v int) int { return v + 50 }, 100, false)
	rfp, err := Fingerprint(k, rb, rlo)
	if err != nil {
		t.Fatal(err)
	}
	if rfp != fp {
		t.Fatal("renamed block fingerprints differently; memo cannot be exercised")
	}
	nbs, nbp, nbc, ok := m.Lookup(rfp, rb, rlo)
	if !ok {
		t.Fatalf("lookup of an order-preserving renaming was rejected: %+v", m.Stats())
	}
	if nbs.Length != bs.Length || len(nbs.Items) != len(bs.Items) {
		t.Fatalf("translated schedule shape differs: %+v vs %+v", nbs, bs)
	}
	for i, it := range nbs.Items {
		if it.Instr != rb.Instrs[i] {
			t.Errorf("item %d does not reference the requesting block's instruction", i)
		}
		if nbp.Assign[it] != bp.Assign[bs.Items[i]] {
			t.Errorf("item %d lost its placement assignment", i)
		}
	}
	if nbc.Seq.Events[0].InstrID != rb.Instrs[0].ID {
		t.Errorf("event InstrID not retargeted: got %d want %d", nbc.Seq.Events[0].InstrID, rb.Instrs[0].ID)
	}
	for f := range rlo {
		if _, ok := nbc.Seq.Tracks[f]; !ok {
			t.Errorf("track for renamed live-out %s missing", f)
		}
		if _, ok := nbc.Exit[f]; !ok {
			t.Errorf("exit contract for renamed live-out %s missing", f)
		}
	}
	// Translation must hand out fresh copies: mutating the result must not
	// corrupt the stored entry.
	nbc.Seq.Runs[0].Frame[0] = arch.Point{X: 9, Y: 9}
	again, _, _, ok := m.Lookup(fp, b, lo)
	if !ok {
		t.Fatal("second lookup rejected")
	}
	_ = again
	_, _, bc2, _ := m.Lookup(fp, b, lo)
	if bc2.Seq.Runs[0].Frame[0] != (arch.Point{X: 1, Y: 1}) {
		t.Error("mutating a lookup result corrupted the stored entry")
	}
}

func TestMemoRejectsIDOrderViolation(t *testing.T) {
	k := testKey(t)
	b, lo := testBlock()
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(nil)
	bs, bp, bc := fakeArtifacts(b, lo)
	m.Store(fp, b, lo, bs, bp, bc)

	// Same DAG, same list order, but instruction IDs swapped: the scheduler
	// breaks ties by ID, so reuse would be unsound — the guard must reject.
	rb, rlo := renameBlock(b, lo, func(v int) int { return v }, 0, false)
	rb.Instrs[0].ID = 21
	rb.Instrs[1].ID = 20
	rfp, err := Fingerprint(k, rb, rlo)
	if err != nil {
		t.Fatal(err)
	}
	if rfp != fp {
		t.Fatal("ID swap moved the fingerprint; guard cannot be exercised")
	}
	if _, _, _, ok := m.Lookup(rfp, rb, rlo); ok {
		t.Fatal("memo accepted an ID-order-violating pairing")
	}
	if s := m.Stats(); s.Rejected != 1 {
		t.Errorf("rejection not counted: %+v", s)
	}
}

// The memo keeps the memoBound most recently used blocks: past the bound
// it drops the least recently used one, not the oldest.
func TestMemoEviction(t *testing.T) {
	m := NewMemo(nil)
	b, lo := testBlock()
	bs, bp, bc := fakeArtifacts(b, lo)
	k := testKey(t)
	fp, err := Fingerprint(k, b, lo)
	if err != nil {
		t.Fatal(err)
	}
	m.Store(fp, b, lo, bs, bp, bc) // the oldest entry
	for i := 1; i < memoBound; i++ {
		m.Store(fmt.Sprintf("fp-%d", i), b, lo, bs, bp, bc)
	}
	if _, _, _, ok := m.Lookup(fp, b, lo); !ok { // now the most recently used
		t.Fatal("entry under the bound not served")
	}
	m.Store("fp-new", b, lo, bs, bp, bc) // evicts fp-1
	if s := m.Stats(); s.Entries != memoBound {
		t.Fatalf("bound not enforced: %+v", s)
	}
	if _, _, _, ok := m.Lookup("fp-1", b, lo); ok {
		t.Error("least recently used entry still served")
	}
	for _, key := range []string{fp, "fp-2", "fp-new"} {
		if _, _, _, ok := m.Lookup(key, b, lo); !ok {
			t.Errorf("entry %s evicted out of LRU order", key)
		}
	}
}

func TestDOTRender(t *testing.T) {
	r := &Result{
		Summaries: []*Summary{{Block: 0, Label: "entry", Fingerprint: strings.Repeat("ab", 32)}},
		Deps:      []Dep{{From: 0, To: 0, Droplets: []ir.FluidID{fid("s", 1)}}},
	}
	dot := r.DOT("test")
	for _, want := range []string{"digraph", "entry", "b0 -> b0"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
