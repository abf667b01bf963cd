package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestCodeWatch pins the shared self-modification watch: a store marks
// exactly the members whose image span holds it, an image load marks the
// overlap with each member's span, and a member that leaves is neither
// marked nor counted in the store filter.
func TestCodeWatch(t *testing.T) {
	m := mem.New()
	bind := func(base isa.Word, n int) *FastTier {
		words := make([]isa.Word, n)
		m.LoadImage(base, words)
		tier := CompileFast(base, words).Bind(m)
		if tier == nil {
			t.Fatal("bind failed")
		}
		return tier
	}
	var w CodeWatch
	w.NoteStore(0x100) // empty watch: nothing to mark, no panic
	a, b := bind(0x100, 0x40), bind(0x200, 0x40)
	w.Join(a)
	w.Join(b)

	w.NoteStore(0x180) // between the spans: inside the filter, in no span
	w.NoteStore(0x300) // outside the filter
	if a.dirty || b.dirty {
		t.Fatal("a store outside every span marked a member")
	}
	w.NoteStore(0x210)
	if a.dirty || !b.dirty || b.dLo != 0x210 || b.dHi != 0x210 {
		t.Fatalf("store into b's span: a.dirty=%v b=[%#x,%#x] dirty=%v", a.dirty, b.dLo, b.dHi, b.dirty)
	}
	w.NoteLoad(0x0f0, 0x20) // overlaps a at [0x100, 0x110)
	if !a.dirty || a.dLo != 0x100 || a.dHi != 0x10f {
		t.Fatalf("load over a's head marked [%#x,%#x] dirty=%v, want [0x100,0x10f]", a.dLo, a.dHi, a.dirty)
	}
	if b.dLo != 0x210 || b.dHi != 0x210 {
		t.Fatalf("load outside b's span widened its range to [%#x,%#x]", b.dLo, b.dHi)
	}

	w.Leave(b)
	if len(w.tiers) != 1 || w.lo != 0x100 || w.span != 0x40 {
		t.Fatalf("after Leave: %d members, filter [%#x,+%#x)", len(w.tiers), w.lo, w.span)
	}
	w.NoteStore(0x230)
	if b.dHi != 0x210 {
		t.Fatal("a member that left was still marked")
	}
	w.Leave(a)
	if len(w.tiers) != 0 || w.span != 0 {
		t.Fatalf("empty watch keeps a filter [%#x,+%#x)", w.lo, w.span)
	}
}
