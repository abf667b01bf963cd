package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineRunsEveryCell(t *testing.T) {
	e := &Engine{Workers: 4}
	var hits [100]atomic.Int32
	err := e.Map(context.Background(), "cell", len(hits), func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
	if e.Cells() != 100 {
		t.Fatalf("Cells() = %d, want 100", e.Cells())
	}
}

func TestEngineErrorIsFirstInSubmissionOrder(t *testing.T) {
	// Whatever the interleaving, the reported error is the failing cell with
	// the lowest index (cells after a failure may be skipped, but a
	// lower-index failure can never be masked by a higher-index one).
	for _, workers := range []int{1, 8} {
		e := &Engine{Workers: workers}
		err := e.Map(context.Background(), "c", 40, func(_ context.Context, i int) error {
			if i == 7 || i == 23 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom 7") {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{Workers: 2}
	var ran atomic.Int32
	err := e.Map(ctx, "c", 50, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
		} else {
			// Hold the other worker until the cancel lands, so it cannot
			// run the remaining cells first: every cell claimed after
			// this one is claimed after the cancel and must be skipped.
			<-ctx.Done()
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 50 {
		t.Fatal("cancellation did not skip any cells")
	}
}

func TestEngineTimeoutReachesCell(t *testing.T) {
	e := &Engine{Workers: 1, Timeout: time.Millisecond}
	err := e.Run(context.Background(), []Cell{{ID: "slow", Fn: func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestEnginePanicBecomesError(t *testing.T) {
	e := &Engine{Workers: 2}
	err := e.Run(context.Background(), []Cell{{ID: "bad", Fn: func(context.Context) error {
		panic("kaboom")
	}}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic text", err)
	}
}

func TestEngineNestedMapDoesNotDeadlock(t *testing.T) {
	// E1's shape: outer cells each fan out inner cells through the same
	// engine. A fixed shared pool would deadlock at Workers=1.
	e := &Engine{Workers: 1}
	var sum atomic.Int64
	err := e.Map(context.Background(), "outer", 3, func(ctx context.Context, i int) error {
		return e.Map(ctx, "inner", 4, func(_ context.Context, j int) error {
			sum.Add(int64(i*4 + j))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 66 {
		t.Fatalf("sum = %d, want 66", sum.Load())
	}
}

// TestEngineConcurrentSubmission drives one engine from several goroutines
// at once — the sharing pattern All() creates when experiments themselves
// are cells — and is the designated -race exercise for the engine.
func TestEngineConcurrentSubmission(t *testing.T) {
	e := &Engine{Workers: 8, Record: true}
	const gs, cellsPer = 4, 50
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := e.Map(context.Background(), fmt.Sprintf("g%d", g), cellsPer, func(_ context.Context, i int) error {
				total.Add(1)
				e.AddCycles(3)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if total.Load() != gs*cellsPer {
		t.Fatalf("ran %d cells, want %d", total.Load(), gs*cellsPer)
	}
	if e.Cells() != gs*cellsPer {
		t.Fatalf("Cells() = %d, want %d", e.Cells(), gs*cellsPer)
	}
	if e.Cycles() != 3*gs*cellsPer {
		t.Fatalf("Cycles() = %d, want %d", e.Cycles(), 3*gs*cellsPer)
	}
	if n := len(e.Timings()); n != gs*cellsPer {
		t.Fatalf("recorded %d timings, want %d", n, gs*cellsPer)
	}
}

// renderAll runs the full suite at the given parallelism on a fresh,
// store-less default engine and returns every table rendered to text, plus
// the engine for its cycle, attribution and fast-tier counters.
func renderAll(t *testing.T, workers int) (string, *Engine) {
	t.Helper()
	e := Configure(workers, 0, false)
	tables, err := All()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String(), e
}

// TestAllDeterministicAcrossParallelism is the acceptance check that
// -parallel 1 and -parallel 8 produce byte-identical tables for every
// experiment.
func TestAllDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	defer Configure(0, 0, false)
	serial, _ := renderAll(t, 1)
	parallel, _ := renderAll(t, 8)
	if serial != parallel {
		t.Fatalf("tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// suiteCycles is the recorded total_cycles_simulated of BENCH_baseline.json.
const suiteCycles = 31_720_802

// TestFastTierInvisibleAcrossSuite is the end-to-end differential wall for
// the compiled fast tier: E1–E11 run serially with no memo store, once on
// the cycle-accurate pipeline and once on the default fast tier. Both runs
// must render the golden tables of BENCH_baseline.json byte for byte,
// simulate exactly the recorded cycle total, and land every cycle on the
// same attribution cause. The tier-off run must retire nothing through the
// tier and the tier-on run something, so the comparison is never one tier
// against itself.
func TestFastTierInvisibleAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	b, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ParseBenchDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	var golden strings.Builder
	for _, r := range base.Experiments {
		golden.WriteString(r.Text)
		golden.WriteString("\n")
	}
	if base.TotalCyclesSimulated != suiteCycles {
		t.Fatalf("BENCH_baseline.json records %d cycles, want %d", base.TotalCyclesSimulated, suiteCycles)
	}

	defer Configure(0, 0, false)
	defer SetFastTier(true)
	run := func(fast bool) (string, *Engine) {
		SetFastTier(fast)
		text, e := renderAll(t, 1)
		if text != golden.String() {
			t.Errorf("fast=%v: tables differ from BENCH_baseline.json:\n--- baseline ---\n%s\n--- current ---\n%s",
				fast, golden.String(), text)
		}
		if e.Cycles() != suiteCycles {
			t.Errorf("fast=%v: simulated %d cycles, want %d", fast, e.Cycles(), suiteCycles)
		}
		return text, e
	}
	accText, acc := run(false)
	fastText, fast := run(true)
	if accText != fastText {
		t.Error("tables differ between the accurate pipeline and the fast tier")
	}
	if n := acc.FastSteps(); n != 0 {
		t.Errorf("reference run retired %d instructions through the fast tier", n)
	}
	if fast.FastSteps() == 0 {
		t.Error("fast tier never engaged — differential is vacuous")
	}
	if a, f := acc.Attribution(), fast.Attribution(); !reflect.DeepEqual(a, f) {
		t.Errorf("attribution differs between tiers:\naccurate %v\nfast     %v", a, f)
	}
}
