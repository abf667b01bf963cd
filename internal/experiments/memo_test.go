package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// TestEngineRootCauseNotMaskedByCancellation is the regression test for the
// error-attribution bug: when a cell fails, the engine cancels the rest; a
// lower-index cell that was still running then returns context.Canceled. The
// reported error must be the failing cell's (the root cause), not the
// victim's cancellation — which used to win because victim errors arrive
// wrapped with the cell ID and the old sentinel-equality check did not see
// through the wrapping.
func TestEngineRootCauseNotMaskedByCancellation(t *testing.T) {
	e := &Engine{Workers: 2}
	cells := []Cell{
		// Slow low-index cell: blocks until the engine cancels it, then
		// reports that cancellation (wrapped with its ID by runCell).
		{ID: "victim", Fn: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}},
		// Fast high-index cell: the real failure.
		{ID: "culprit", Fn: func(ctx context.Context) error {
			return errors.New("boom")
		}},
	}
	err := e.Run(context.Background(), cells)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the culprit's boom", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v: victim's cancellation masked the root cause", err)
	}
}

// TestRunMachineFaultIsNotATimeout is the regression test for the fault
// handling bug: a machine whose PC runs off the end of its image must be
// reported as a fault immediately, not simulated to the 50M-cycle budget and
// then reported as a bogus "no halt" timeout.
func TestRunMachineFaultIsNotATimeout(t *testing.T) {
	// No halt: execution falls off the end of the image.
	const runaway = `
main:	add r1, r0, r0
	nop
`
	start := time.Now()
	_, err := runAsm(context.Background(), runaway, spec.Default())
	if err == nil {
		t.Fatal("runaway program reported success")
	}
	if !strings.Contains(err.Error(), "outside the loaded image") {
		t.Fatalf("err = %v, want a runaway-PC fault", err)
	}
	if strings.Contains(err.Error(), "no halt within") {
		t.Fatalf("err = %v: fault surfaced as the cycle-budget timeout", err)
	}
	// The fault fires within one chunk of the image end, not after the full
	// 50M-cycle budget (generous wall-clock bound; the real signal is above).
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("fault took %v, looks like the full budget was burned", d)
	}
}

// TestEngineSkippedCellsAreStamped is the regression test for the timing
// report bug: cells claimed after a cancellation never run, but their timing
// rows must still carry the cell's identity and a skipped marker instead of
// anonymous zero values.
func TestEngineSkippedCellsAreStamped(t *testing.T) {
	e := &Engine{Workers: 1, Record: true}
	cells := []Cell{
		{ID: "fail", Fn: func(context.Context) error { return errors.New("boom") }},
		{ID: "after-0", Fn: func(context.Context) error { return nil }},
		{ID: "after-1", Fn: func(context.Context) error { return nil }},
	}
	err := e.Run(context.Background(), cells)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	timings := e.Timings()
	if len(timings) != len(cells) {
		t.Fatalf("recorded %d timings, want %d", len(timings), len(cells))
	}
	skipped := 0
	for _, ct := range timings {
		if ct.ID == "" {
			t.Fatalf("anonymous timing row: %+v", ct)
		}
		if ct.Skipped {
			skipped++
			if !strings.HasPrefix(ct.Err, "skipped:") {
				t.Fatalf("skipped cell %s has err %q, want skipped: prefix", ct.ID, ct.Err)
			}
		}
	}
	// Workers=1 guarantees the two cells after the failure are claimed only
	// once the run is cancelled.
	if skipped != 2 {
		t.Fatalf("skipped = %d timing rows, want 2", skipped)
	}
}

// TestMemoColdThenHotDeterministic is the memoization acceptance test: the
// full suite rendered with a cold on-disk cache and again (fresh engine,
// fresh store, same directory) with the cache hot must produce byte-identical
// tables and identical simulated-cycle totals, with a nonzero hit count on
// the hot pass.
func TestMemoColdThenHotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	defer Configure(0, 0, false)
	dir := t.TempDir()

	render := func() (string, *Engine) {
		e := Configure(0, 0, false)
		store, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.Store = store
		tables, err := All()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.String())
			sb.WriteString("\n")
		}
		return sb.String(), e
	}

	cold, coldEng := render()
	hot, hotEng := render()
	if cold != hot {
		t.Fatalf("tables differ between cold and hot cache:\n--- cold ---\n%s\n--- hot ---\n%s", cold, hot)
	}
	if hotEng.MemoHits() == 0 {
		t.Fatal("hot pass recorded zero memo hits")
	}
	if coldEng.Cycles() != hotEng.Cycles() {
		t.Fatalf("total simulated cycles differ: cold %d, hot %d", coldEng.Cycles(), hotEng.Cycles())
	}
}

// TestMemoKeysCoverTheClosure checks that every input in a cell's closure
// changes its key: two cells may share a key only when their full input
// closures are identical.
func TestMemoKeysCoverTheClosure(t *testing.T) {
	b := tinyc.Benchmarks()[0]
	base := spec.Default()
	seen := map[string]string{}
	add := func(name, key string) {
		if prev, ok := seen[key]; ok {
			t.Fatalf("key collision: %s and %s hash identically", prev, name)
		}
		seen[key] = name
	}
	type benchArgs struct {
		kind   string
		bench  tinyc.Benchmark
		scheme reorg.Scheme
		ms     spec.MachineSpec
	}
	var benchKeys []benchArgs
	mustKey := func(name, kind string, bench tinyc.Benchmark, scheme reorg.Scheme, ms spec.MachineSpec) {
		add(name, benchKey(kind, bench, scheme, ms))
		benchKeys = append(benchKeys, benchArgs{kind, bench, scheme, ms})
	}
	mustKey("run/default", "run", b, reorg.Default(), base)
	mustKey("profiled/default", "run-profiled", b, reorg.Default(), base)
	mustKey("run/1-slot", "run", b, reorg.Scheme{Slots: 1, Squash: reorg.SquashOptional}, base)

	// Spec changes change the key (the digest covers every spec field; the
	// field-coverage guard in internal/spec proves the digest covers every
	// architectural core.Config field).
	nofpu := base
	nofpu.NoFPU = true
	mustKey("run/nofpu", "run", b, reorg.Default(), nofpu)
	smallIC := base
	smallIC.ICache.Sets = 8
	mustKey("run/icache-sets", "run", b, reorg.Default(), smallIC)
	fifo := base
	fifo.ECache.Repl = spec.ReplFIFO
	mustKey("run/ecache-fifo", "run", b, reorg.Default(), fifo)

	// Different benchmarks never share a key.
	mustKey("run/other-bench", "run", tinyc.Benchmarks()[1], reorg.Default(), base)
	mustKey("branch-trace/default", "branch-trace", b, reorg.Default(), base)

	// The toolchain digest stands in for the images: a toolchain whose
	// output differs gives every bench key a new identity.
	for _, a := range benchKeys {
		add("other-toolchain/"+a.kind, benchKeyWith(strings.Repeat("0", 64), a.kind, a.bench, a.scheme, a.ms))
	}

	// Non-bench kinds: the vax closure is (source, instruction bound).
	add("vax/a", newKey("vax").str("source", "x").num("max-instr", 100).sum())
	add("vax/b", newKey("vax").str("source", "y").num("max-instr", 100).sum())
	add("vax/c", newKey("vax").str("source", "x").num("max-instr", 200).sum())

	// Framing: adjacent fields must not alias under reslicing.
	add("frame/a", newKey("t").str("p", "ab").str("q", "c").sum())
	add("frame/b", newKey("t").str("p", "a").str("q", "bc").sum())
}

// TestMemoStoreDiskRoundTrip checks the on-disk format: a fresh store over
// the same directory replays an entry recorded by another store.
func TestMemoStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.put(memoEntry{Key: "k1", CellID: "c", Cycles: 42, Data: []byte(`{"v":1}`)})

	s2, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.get("k1")
	if !ok {
		t.Fatal("fresh store missed an entry recorded on disk")
	}
	if e.Cycles != 42 || string(e.Data) != `{"v":1}` {
		t.Fatalf("entry = %+v, want cycles 42 and recorded data", e)
	}
	if s2.Hits() != 1 || s2.Misses() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", s2.Hits(), s2.Misses())
	}
	if _, ok := s2.get("absent"); ok {
		t.Fatal("hit for a key never recorded")
	}
	if s2.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", s2.HitRate())
	}
}

// TestMemoStoreConcurrentPutSameKey races two stores over one directory
// (standing in for two processes) recording the same key while a reader
// polls it through fresh stores: every write goes through its own temp file,
// so once the entry exists no reader ever sees it torn, the entry that lands
// is whole, and no temp file is left behind.
func TestMemoStoreConcurrentPutSameKey(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*MemoStore, 2)
	for i := range stores {
		s, err := NewMemoStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	data := []byte(`{"v":"` + strings.Repeat("x", 256<<10) + `"}`)
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(s *MemoStore) {
			defer writers.Done()
			for i := 0; i < 16; i++ {
				s.put(memoEntry{Key: "k", Cycles: 42, Data: data})
			}
		}(stores[g%2])
	}
	done := make(chan struct{})
	torn := make(chan int)
	go func() {
		seen, n := false, 0
		for {
			select {
			case <-done:
				torn <- n
				return
			default:
			}
			r, err := NewMemoStore(dir)
			if err != nil {
				continue
			}
			_, ok := r.get("k")
			if seen && !ok {
				n++
			}
			seen = seen || ok
		}
	}()
	writers.Wait()
	close(done)
	if n := <-torn; n != 0 {
		t.Fatalf("reader missed a recorded entry %d times while writers raced", n)
	}
	for i, s := range stores {
		if n := s.WriteErrors(); n != 0 {
			t.Fatalf("store %d: %d write errors", i, n)
		}
	}

	s3, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s3.get("k")
	if !ok || e.Cycles != 42 || !bytes.Equal(e.Data, data) {
		t.Fatalf("third store: hit=%v cycles=%d, %d data bytes; want a hit with the recorded entry", ok, e.Cycles, len(e.Data))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestMemoWriteErrorsCounted blocks an entry's final name with a directory
// so the rename fails (even as root), and checks that the failure is
// counted, reported in the bench document, cleaned up, and read back by a
// fresh store as a miss rather than a wrong answer.
func TestMemoWriteErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(s.path("k"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.put(memoEntry{Key: "k", Data: []byte(`{"v":1}`)})
	if n := s.WriteErrors(); n != 1 {
		t.Fatalf("write errors = %d, want 1", n)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed write left temp files: %v", tmps)
	}

	fresh, err := NewMemoStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.get("k"); ok {
		t.Fatal("fresh store hit on a key whose write failed")
	}
	if fresh.Hits() != 0 || fresh.Misses() != 1 {
		t.Fatalf("fresh store hits/misses = %d/%d, want 0/1", fresh.Hits(), fresh.Misses())
	}

	// A cell whose Save fails is counted too, and the bench document
	// reports the total.
	defer Configure(0, 0, false)
	e := Configure(1, 0, false)
	e.Store = s
	cell := Cell{
		ID: "unsaveable",
		Fn: func(context.Context) error { return nil },
		Memo: &CellMemo{
			Key:  func() (string, error) { return "k2", nil },
			Save: func() ([]byte, error) { return nil, errors.New("no result") },
			Load: func([]byte) error { return nil },
		},
	}
	if err := e.Run(context.Background(), []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	if doc := NewBenchDoc(nil, nil, 0, 1, false, false, e); doc.MemoWriteErrors != 2 {
		t.Fatalf("bench doc memo_write_errors = %d, want 2", doc.MemoWriteErrors)
	}
}

// TestEngineReplaySkipsCellBody checks the engine-level contract directly:
// a memoized cell's Fn runs once; the second engine replays from the store
// without running Fn, and the replay restores both the result slot and the
// recorded cycle attribution.
func TestEngineReplaySkipsCellBody(t *testing.T) {
	store, err := NewMemoStore("")
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	cell := func(out *int) Cell {
		return Cell{
			ID: "memoized",
			Fn: func(ctx context.Context) error {
				runs.Add(1)
				DefaultEngine().AddCyclesCtx(ctx, 7)
				*out = 99
				return nil
			},
			Memo: &CellMemo{
				Key:  func() (string, error) { return newKey("test").str("id", "memoized").sum(), nil },
				Save: func() ([]byte, error) { return []byte("99"), nil },
				Load: func(data []byte) error { *out = 99; return nil },
			},
		}
	}
	defer Configure(0, 0, false)
	for pass := 0; pass < 2; pass++ {
		e := Configure(0, 0, false)
		e.Store = store
		var got int
		if err := e.Run(context.Background(), []Cell{cell(&got)}); err != nil {
			t.Fatal(err)
		}
		if got != 99 {
			t.Fatalf("pass %d: result = %d, want 99", pass, got)
		}
		if e.Cycles() != 7 {
			t.Fatalf("pass %d: cycles = %d, want 7 (replay must restore attribution)", pass, e.Cycles())
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("cell body ran %d times, want 1 (second pass must replay)", runs.Load())
	}
}
