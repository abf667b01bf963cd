package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/spec"
	"repro/internal/trace"
)

// countedMemoCell is a minimal memoizable cell for counter tests.
func countedMemoCell(runs *int, out *int) Cell {
	return Cell{
		ID: "counted",
		Fn: func(context.Context) error {
			*runs++
			*out = 7
			return nil
		},
		Memo: jsonMemo(func() (string, error) { return newKey("test").str("id", "counted").sum(), nil }, out),
	}
}

// TestBenchDocMemoFieldsAgreeWithoutStore is the regression test for the
// report-consistency bug: a store-less run used to leave MemoHitRate at zero
// regardless of the hit/miss counters, because the rate was read off the
// (absent) store instead of derived from the document's own fields.
func TestBenchDocMemoFieldsAgreeWithoutStore(t *testing.T) {
	var runs, out int
	e := &Engine{Workers: 1}
	if err := e.Run(context.Background(), []Cell{countedMemoCell(&runs, &out)}); err != nil {
		t.Fatal(err)
	}
	doc := NewBenchDoc(nil, nil, time.Second, 1, true, false, e)
	if doc.MemoMisses != 1 || doc.MemoHits != 0 {
		t.Fatalf("store-less run: hits/misses = %d/%d, want 0/1 (a memoizable cell ran live)",
			doc.MemoHits, doc.MemoMisses)
	}
	if doc.MemoHitRate != 0 {
		t.Fatalf("store-less hit rate = %v, want 0", doc.MemoHitRate)
	}

	// With a store: one miss (cold) + one hit (replay) → rate 0.5, derived
	// from the document's own counters.
	store, err := NewMemoStore("")
	if err != nil {
		t.Fatal(err)
	}
	runs = 0
	e2 := &Engine{Workers: 1, Store: store}
	for pass := 0; pass < 2; pass++ {
		if err := e2.Run(context.Background(), []Cell{countedMemoCell(&runs, &out)}); err != nil {
			t.Fatal(err)
		}
	}
	doc2 := NewBenchDoc(nil, nil, time.Second, 1, true, false, e2)
	if doc2.MemoHits != 1 || doc2.MemoMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", doc2.MemoHits, doc2.MemoMisses)
	}
	if doc2.MemoHitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", doc2.MemoHitRate)
	}
	if runs != 1 {
		t.Fatalf("cell body ran %d times, want 1", runs)
	}
}

// TestTraceArtifactColdThenHot checks the trace cell's store round trip: the
// hot pass replays the artifact (no synthesis) and the decoded stream is
// word-identical to the generated one.
func TestTraceArtifactColdThenHot(t *testing.T) {
	store, err := NewMemoStore("")
	if err != nil {
		t.Fatal(err)
	}
	ts := synthTrace(trace.LispSynth(0), 30_000)
	run := func() ([]isa.Word, *Engine) {
		e := &Engine{Workers: 1, Store: store}
		var tr []isa.Word
		if err := e.Run(context.Background(), []Cell{ts.cell("t", &tr)}); err != nil {
			t.Fatal(err)
		}
		return tr, e
	}
	cold, ce := run()
	if ce.MemoHits() != 0 || ce.MemoMisses() != 1 {
		t.Fatalf("cold pass hits/misses = %d/%d, want 0/1", ce.MemoHits(), ce.MemoMisses())
	}
	hot, he := run()
	if he.MemoHits() != 1 || he.MemoMisses() != 0 {
		t.Fatalf("hot pass hits/misses = %d/%d, want 1/0", he.MemoHits(), he.MemoMisses())
	}
	if len(hot) != len(cold) {
		t.Fatalf("replayed trace has %d refs, generated %d", len(hot), len(cold))
	}
	for i := range hot {
		if hot[i] != cold[i] {
			t.Fatalf("replayed trace diverges from generated at ref %d: %d vs %d", i, hot[i], cold[i])
		}
	}
}

// TestCompositeTraceReplaysWholeClosure checks the interleaved (E6/E10-style)
// trace: cold, the composite and both members run live and store as
// first-class artifacts; hot, the composite alone replays — the member cells
// are never consulted.
func TestCompositeTraceReplaysWholeClosure(t *testing.T) {
	defer Configure(0, 0, false)
	store, err := NewMemoStore("")
	if err != nil {
		t.Fatal(err)
	}
	ts := traceSpec{Members: []synthSpec{
		{Cfg: trace.PascalSynth(8 * 1024), Refs: 20_000},
		{Cfg: trace.LispSynth(8 * 1024), Refs: 20_000},
	}, Quantum: 1000}
	run := func() ([]isa.Word, *Engine) {
		// The composite fans its member cells out through the default engine.
		e := Configure(1, 0, false)
		e.Store = store
		var tr []isa.Word
		if err := e.Run(context.Background(), []Cell{ts.cell("mp", &tr)}); err != nil {
			t.Fatal(err)
		}
		return tr, e
	}
	cold, ce := run()
	if ce.MemoMisses() != 3 || ce.MemoHits() != 0 {
		t.Fatalf("cold pass hits/misses = %d/%d, want 0/3 (composite + 2 members)",
			ce.MemoHits(), ce.MemoMisses())
	}
	hot, he := run()
	if he.MemoHits() != 1 || he.MemoMisses() != 0 {
		t.Fatalf("hot pass hits/misses = %d/%d, want 1/0 (composite replay short-circuits members)",
			he.MemoHits(), he.MemoMisses())
	}
	if len(hot) != len(cold) {
		t.Fatalf("replayed composite has %d refs, generated %d", len(hot), len(cold))
	}
	for i := range hot {
		if hot[i] != cold[i] {
			t.Fatalf("replayed composite diverges at ref %d", i)
		}
	}
}

// TestTraceKeysCoverTheClosure extends the closure-coverage property to the
// trace-artifact and derived-sweep keys: every input that changes the data
// changes the key, and only those.
func TestTraceKeysCoverTheClosure(t *testing.T) {
	seen := map[string]string{}
	add := func(name, key string) {
		if prev, ok := seen[key]; ok {
			t.Fatalf("key collision: %s and %s hash identically", prev, name)
		}
		seen[key] = name
	}

	pas := trace.PascalSynth(0)
	base := synthSpec{Cfg: pas, Refs: 300_000}
	add("synth/base", base.key())

	// Every SynthConfig field and the reference count are in the closure.
	vary := []func(*synthSpec){
		func(s *synthSpec) { s.Refs = 300_001 },
		func(s *synthSpec) { s.Cfg.CodeWords++ },
		func(s *synthSpec) { s.Cfg.Funcs++ },
		func(s *synthSpec) { s.Cfg.AvgRun++ },
		func(s *synthSpec) { s.Cfg.AvgLoopIters++ },
		func(s *synthSpec) { s.Cfg.CallProb += 0.01 },
		func(s *synthSpec) { s.Cfg.HotFuncs++ },
		func(s *synthSpec) { s.Cfg.HotBias += 0.01 },
		func(s *synthSpec) { s.Cfg.MaxDepth++ },
		func(s *synthSpec) { s.Cfg.Seed++ },
	}
	for i, f := range vary {
		s := base
		f(&s)
		add(fmt.Sprintf("synth/vary[%d]", i), s.key())
	}

	// A one-member, zero-quantum traceSpec IS its member: same stream, same
	// key, so the artifact never stores twice.
	single := synthTrace(pas, 300_000)
	if single.key() != base.key() {
		t.Fatal("one-member traceSpec does not share its member's key")
	}

	// Composites: quantum, member set and member order are all identity.
	lis := synthSpec{Cfg: trace.LispSynth(0), Refs: 300_000}
	comp := traceSpec{Members: []synthSpec{base, lis}, Quantum: 10_000}
	add("interleave/base", comp.key())
	add("interleave/quantum", traceSpec{Members: comp.Members, Quantum: 20_000}.key())
	add("interleave/swapped", traceSpec{Members: []synthSpec{lis, base}, Quantum: 10_000}.key())
	add("interleave/one-member", traceSpec{Members: []synthSpec{base}, Quantum: 10_000}.key())

	// Derived sweeps: trace identity and every parameter reach the key.
	keyOf := func(c Cell) string {
		k, err := c.Memo.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	var fc fetchCost
	icfg := spec.Default().ICache
	add("icache/base", keyOf(icacheCostCell("x", single, icfg, shared(nil), &fc)))
	add("icache/other-trace", keyOf(icacheCostCell("x", comp, icfg, shared(nil), &fc)))
	add("icache/other-cfg", keyOf(icacheCostCell("x", single, icfg.WithFetch(1, icfg.MissPenalty), shared(nil), &fc)))

	var es ecacheSweep
	ecfg := spec.DefaultECache()
	add("ecache/base", keyOf(ecacheSweepCell("x", single, ecfg, false, shared(nil), &es)))
	add("ecache/writes", keyOf(ecacheSweepCell("x", single, ecfg, true, shared(nil), &es)))
	add("ecache/other-cfg", keyOf(ecacheSweepCell("x", single, ecfg.WithLineWords(2*ecfg.LineWords), false, shared(nil), &es)))

	// Branch artifacts and predictor rows.
	var evs []trace.BranchEvent
	add("branches/base", keyOf(synthBranchCell("x", 120_000, 400, 11, &evs)))
	add("branches/seed", keyOf(synthBranchCell("x", 120_000, 400, 12, &evs)))
	add("branches/sites", keyOf(synthBranchCell("x", 120_000, 401, 11, &evs)))

	s1 := branchStreamDigest([]trace.BranchEvent{{PC: 4, Taken: true}})
	s2 := branchStreamDigest([]trace.BranchEvent{{PC: 4, Taken: false}})
	if s1 == s2 {
		t.Fatal("branch-stream digest ignores outcomes")
	}
	var pe predEval
	add("bpred/static", keyOf(predictorCell("x", s1, "static", 0, &evs, &pe)))
	add("bpred/profile", keyOf(predictorCell("x", s1, "profile", 0, &evs, &pe)))
	add("bpred/cache-64", keyOf(predictorCell("x", s1, "cache", 64, &evs, &pe)))
	add("bpred/cache-256", keyOf(predictorCell("x", s1, "cache", 256, &evs, &pe)))
	add("bpred/other-stream", keyOf(predictorCell("x", s2, "static", 0, &evs, &pe)))
}
