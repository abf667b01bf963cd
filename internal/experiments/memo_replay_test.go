package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

// computeToolchainDigest rebuilds every image toolchainDigest pins — each
// benchmark under each Table 1 scheme, unprofiled — and hashes name,
// scheme, base, words and instruction map of each.
func computeToolchainDigest(t testing.TB) string {
	benches, schemes := tinyc.Benchmarks(), reorg.Table1Schemes()
	k := &keyBuilder{h: sha256.New()}
	k.num("benchmarks", uint64(len(benches))).num("schemes", uint64(len(schemes)))
	for _, b := range benches {
		for _, s := range schemes {
			im, err := tinyc.Build(b.Source, s, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, s, err)
			}
			instr := make([]byte, len(im.IsInstr))
			for i, isIn := range im.IsInstr {
				instr[i] = byte(boolBit(isIn))
			}
			k.str("bench", b.Name).str("scheme", s.String())
			k.num("image-base", uint64(im.Base)).words("image", im.Words)
			k.str("is-instr", string(instr))
		}
	}
	return k.sum()
}

// TestToolchainDigestPinned recomputes toolchainDigest from the toolchain's
// output. Bench keys hash the digest instead of their image, so this test
// is what turns a compiler, reorganizer or benchmark change into new keys
// instead of stale replays.
func TestToolchainDigestPinned(t *testing.T) {
	if got := computeToolchainDigest(t); got != toolchainDigest {
		t.Fatalf("toolchain output changed: set toolchainDigest in memo.go to\n\t%q\n(was %q); every bench key and CI's memo cache rotate with it", got, toolchainDigest)
	}
	// The digest covers every scheme a valid spec can carry, so every
	// image a bench key can name.
	for slots := 0; slots <= 3; slots++ {
		for _, sq := range []string{spec.SquashNone, spec.SquashAlways, spec.SquashOptional, "other"} {
			ms := spec.Default()
			ms.Branch.Slots, ms.Branch.Squash = slots, sq
			if ms.Validate() != nil {
				continue
			}
			s, err := ms.Scheme()
			if err != nil || !slices.Contains(reorg.Table1Schemes(), s) {
				t.Fatalf("valid spec (slots %d, squash %s) names scheme %v outside the digest (err %v)", slots, sq, s, err)
			}
		}
	}
}

// counterCell is a memoized cell whose live run counts itself, accounts 5
// cycles and yields 7.
func counterCell(key string, runs *int, out *int) Cell {
	return Cell{
		ID: "counter",
		Fn: func(ctx context.Context) error {
			*runs++
			DefaultEngine().AddCyclesCtx(ctx, 5)
			DefaultEngine().AddAttrCtx(ctx, map[string]uint64{"execute": 5})
			*out = 7
			return nil
		},
		Memo: jsonMemo(func() (string, error) { return key, nil }, out),
	}
}

// TestMemoCorruptEntriesMiss damages a recorded entry on disk in each way
// the v2 format must catch and checks that a fresh store counts it as
// corrupt, the cell runs live, the bench document reports it, and the
// entry is rewritten whole.
func TestMemoCorruptEntriesMiss(t *testing.T) {
	defer Configure(0, 0, false)
	dir := t.TempDir()
	key := newKey("test").str("id", "corrupt").sum()
	pass := func() (*Engine, int, int) {
		s, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := Configure(1, 0, false)
		e.Store = s
		var runs, out int
		if err := e.Run(context.Background(), []Cell{counterCell(key, &runs, &out)}); err != nil {
			t.Fatal(err)
		}
		return e, runs, out
	}
	if _, runs, _ := pass(); runs != 1 {
		t.Fatalf("cold pass ran the cell %d times, want 1", runs)
	}
	path := filepath.Join(dir, key+".memo")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(good, '\n')
	if nl < 0 || string(good[nl+1:]) != "7" {
		t.Fatalf("recorded entry %q: want a header line then the payload 7", good)
	}
	at := func(field string) int {
		i := bytes.Index(good[:nl], []byte(field))
		if i < 0 {
			t.Fatalf("header %q has no %s", good[:nl], field)
		}
		return i + len(field)
	}
	flip := func(i int, x byte) []byte {
		b := bytes.Clone(good)
		b[i] ^= x
		return b
	}
	undecodable, err := encodeEntry(memoEntry{Key: key, Cycles: 5, Attr: map[string]uint64{"execute": 5}, Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"header byte flip in key", flip(at(`"key":"`), 1)},
		{"header byte flip in cycles", flip(at(`"cycles":`), 1)},
		{"header byte flip in attribution", flip(at(`"execute":`), 1)},
		{"header byte flip in checksum", flip(at(`"crc32c":`), 1)},
		{"payload byte flip", flip(len(good)-1, 1)},
		{"truncated payload", good[:len(good)-1]},
		{"truncated header", good[:nl/2]},
		{"bad header", append([]byte("not json\n"), good[nl+1:]...)},
		{"v1 entry", []byte(`{"schema":"mipsx-memo/v1","key":"` + key + `","cell_id":"counter","cycles":5,"attr":{"execute":5},"data":7}`)},
		{"valid entry its cell cannot decode", undecodable},
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.b, 0o644); err != nil {
			t.Fatal(err)
		}
		e, runs, out := pass()
		if runs != 1 || out != 7 {
			t.Errorf("%s: cell ran %d times with result %d, want one live run giving 7", c.name, runs, out)
		}
		if n := e.Store.Corrupt(); n != 1 {
			t.Errorf("%s: corrupt = %d, want 1", c.name, n)
		}
		if doc := NewBenchDoc(nil, nil, 0, 1, false, true, e); doc.MemoCorrupt != 1 {
			t.Errorf("%s: bench doc memo_corrupt = %d, want 1", c.name, doc.MemoCorrupt)
		}
		if b, _ := os.ReadFile(path); !bytes.Equal(b, good) {
			t.Errorf("%s: entry not rewritten: %q", c.name, b)
		}
		if e, runs, _ := pass(); runs != 0 || e.Store.Corrupt() != 0 || e.Cycles() != 5 {
			t.Errorf("%s: after the rewrite: %d live runs, %d corrupt, %d cycles; want a clean replay of 5", c.name, runs, e.Store.Corrupt(), e.Cycles())
		}
	}
}

// TestMemoAuditFlagsDrift checks the replay audit itself: an entry whose
// payload, cycles or attribution differs from what the live run produces
// fails the audited replay, and a faithful one passes.
func TestMemoAuditFlagsDrift(t *testing.T) {
	defer Configure(0, 0, false)
	key := newKey("test").str("id", "audit").sum()
	attr := map[string]uint64{"execute": 5}
	for _, c := range []struct {
		name  string
		entry memoEntry
		want  string
	}{
		{"faithful", memoEntry{Key: key, Cycles: 5, Attr: attr, Data: []byte("7")}, ""},
		{"payload", memoEntry{Key: key, Cycles: 5, Attr: attr, Data: []byte("8")}, "payload differs"},
		{"cycles", memoEntry{Key: key, Cycles: 6, Attr: attr, Data: []byte("7")}, "simulated 5 cycles"},
		{"attribution", memoEntry{Key: key, Cycles: 5, Attr: map[string]uint64{"nop": 5}, Data: []byte("7")}, "attribution"},
	} {
		s, err := NewMemoStore("")
		if err != nil {
			t.Fatal(err)
		}
		s.put(c.entry)
		e := Configure(1, 0, false)
		e.Store, e.audit = s, true
		var runs, out int
		err = e.Run(context.Background(), []Cell{counterCell(key, &runs, &out)})
		if e.MemoHits() != 1 || runs != 1 {
			t.Fatalf("%s: %d hits, %d audit runs; want the replay audited once", c.name, e.MemoHits(), runs)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: audit failed a faithful replay: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want an audit failure mentioning %q", c.name, err, c.want)
		}
	}
}

// suiteText renders tables for comparison.
func suiteText(tables []*Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestHotReplayBuildsNothing checks that a hot replay compiles nothing:
// after a cold E1+E4+E7 pass fills a store, a fresh engine over a fresh
// store replays all three with every lookup a hit, identical tables, and
// the build cache left empty.
func TestHotReplayBuildsNothing(t *testing.T) {
	defer Configure(0, 0, false)
	dir := t.TempDir()
	pass := func() (string, *Engine) {
		s, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := Configure(0, 0, false)
		e.Store = s
		var tables []*Table
		for _, f := range []func() (*Table, error){Table1BranchSchemes, BranchCacheVsStatic, VAXComparison} {
			tb, err := f()
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tb)
		}
		return suiteText(tables), e
	}
	cold, _ := pass()
	buildCache.Range(func(k, _ any) bool {
		buildCache.Delete(k)
		return true
	})
	hot, e := pass()
	if hot != cold {
		t.Fatalf("hot tables differ from cold:\n--- cold ---\n%s--- hot ---\n%s", cold, hot)
	}
	if e.MemoMisses() != 0 || e.MemoHits() == 0 {
		t.Fatalf("hot pass: %d hits, %d misses; want every lookup a hit", e.MemoHits(), e.MemoMisses())
	}
	n := 0
	buildCache.Range(func(k, _ any) bool {
		n++
		t.Errorf("hot replay built %v", k)
		return true
	})
	if n != 0 {
		t.Fatalf("hot replay built %d images", n)
	}
}

// TestMemoReplayAudit is the memo store's replay wall: it fills a store
// with E1–E11, then replays the suite in a fresh engine over a fresh store
// with every hit re-run live, requiring each live run to reproduce its
// entry byte for byte (payload, cycles, attribution) and the tables to
// match the cold pass.
func TestMemoReplayAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E1–E11 suite three times")
	}
	defer Configure(0, 0, false)
	dir := t.TempDir()
	pass := func(audit bool) (string, *Engine) {
		s, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := Configure(0, 0, false)
		e.Store, e.audit = s, audit
		tables, err := All()
		if err != nil {
			t.Fatal(err)
		}
		return suiteText(tables), e
	}
	cold, _ := pass(false)
	hot, e := pass(true)
	if hot != cold {
		t.Fatalf("audited replay tables differ from cold:\n--- cold ---\n%s--- hot ---\n%s", cold, hot)
	}
	if e.MemoMisses() != 0 || e.MemoHits() == 0 || e.Store.Corrupt() != 0 {
		t.Fatalf("audited replay: %d hits, %d misses, %d corrupt; want every lookup a clean hit",
			e.MemoHits(), e.MemoMisses(), e.Store.Corrupt())
	}
	t.Logf("audited %d replayed cells", e.MemoHits())
}

// realMemoEntries records a handful of real entries — an E1 benchmark run
// (JSON RunResult), an E2 trace artifact and Icache sweep (raw varint
// stream, JSON result) and an E4 branch capture (raw varint stream) —
// through a memory store, for the entry-format fuzz seeds.
func realMemoEntries(t testing.TB) []memoEntry {
	defer Configure(0, 0, false)
	s, err := NewMemoStore("")
	if err != nil {
		t.Fatal(err)
	}
	e := Configure(1, 0, false)
	e.Store = s
	b := table1Benchmarks()[0]
	ts := synthTrace(trace.PascalSynth(0), 4_000) // E2's generator, fewer references
	var rr RunResult
	var tr []isa.Word
	var fc fetchCost
	var br []trace.BranchEvent
	cells := []Cell{
		benchCell("E1/"+b.Name, b, reorg.Default(), false, spec.Default(), &rr),
		ts.cell("E2/trace", &tr),
		branchTraceCell("E4/trace/"+b.Name, b, reorg.Default(), spec.Default(), &br),
	}
	if err := e.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	ic := spec.Default().ICache
	if err := e.Run(context.Background(), []Cell{icacheCostCell("E2/icache", ts, ic, shared(&tr), &fc)}); err != nil {
		t.Fatal(err)
	}
	var out []memoEntry
	for _, en := range s.mem {
		out = append(out, en)
	}
	slices.SortFunc(out, func(a, b memoEntry) int { return strings.Compare(a.Key, b.Key) })
	if len(out) != 4 {
		t.Fatalf("recorded %d entries, want 4", len(out))
	}
	return out
}

// FuzzMemoEntry checks the v2 entry decoder against mutations of real
// entries: decoding never panics, and a mutated entry either fails —
// which the store counts as corrupt — or decodes to exactly the original
// key, cycles, attribution and payload.
func FuzzMemoEntry(f *testing.F) {
	originals := map[string]memoEntry{}
	for _, e := range realMemoEntries(f) {
		b, err := encodeEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		originals[e.Key] = e
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeEntry(b)
		if err != nil {
			s := &MemoStore{mem: map[string]memoEntry{}}
			if _, ok := s.decode(got.Key, b); ok || s.Corrupt() != 1 {
				t.Fatalf("store accepted an entry the decoder rejects (%v), or did not count it corrupt", err)
			}
			return
		}
		want, ok := originals[got.Key]
		if !ok {
			t.Fatalf("decoded an entry for key %q that no seed recorded", got.Key)
		}
		if got.Cycles != want.Cycles || !maps.Equal(got.Attr, want.Attr) || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("mutated entry decoded to different contents: cycles %d/%d, attr %v/%v, %d/%d payload bytes",
				got.Cycles, want.Cycles, got.Attr, want.Attr, len(got.Data), len(want.Data))
		}
	})
}
