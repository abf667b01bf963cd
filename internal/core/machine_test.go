package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
)

func runSrc(t *testing.T, cfg Config, src string, limit uint64) *Machine {
	t.Helper()
	m := New(cfg, nil)
	if err := m.LoadSource(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(limit); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

const sumLoop = `
main:	addi r1, r0, 0       ; sum
	addi r2, r0, 0       ; i
	addi r3, r0, 100     ; limit
loop:	addi r2, r2, 1
	add  r1, r1, r2
	bne.sq r2, r3, loop
	nop
	nop
	putw r1
	halt
`

func TestSumLoopThroughFullHierarchy(t *testing.T) {
	m := runSrc(t, DefaultConfig(), sumLoop, 100000)
	if got := m.Output(); got != "5050\n" {
		t.Fatalf("output %q, want 5050", got)
	}
	st := m.Stats()
	if st.Pipeline.Branches != 100 {
		t.Fatalf("branches = %d", st.Pipeline.Branches)
	}
	// The loop fits the Icache: after the first pass, fetches hit.
	if st.Icache.MissRatio() > 0.1 {
		t.Fatalf("icache miss ratio %.3f too high for a tiny loop", st.Icache.MissRatio())
	}
	if st.CPI() < 1.0 {
		t.Fatalf("CPI %.3f below 1", st.CPI())
	}
}

func TestColdStartPaysIcacheAndEcacheMisses(t *testing.T) {
	m := runSrc(t, DefaultConfig(), `
	main:	addi r1, r0, 1
		addi r1, r1, 1
		addi r1, r1, 1
		halt
	`, 10000)
	st := m.Stats()
	if st.Icache.Misses == 0 {
		t.Fatal("cold start must miss in the Icache")
	}
	if st.Ecache.ReadMisses == 0 {
		t.Fatal("cold start must miss in the Ecache")
	}
	if st.Pipeline.IcacheStalls == 0 {
		t.Fatal("icache stalls not charged")
	}
}

func TestIcacheDisabledStillRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Icache.Disabled = true
	m := runSrc(t, cfg, sumLoop, 1000000)
	if got := m.Output(); got != "5050\n" {
		t.Fatalf("output %q", got)
	}
	st := m.Stats()
	if st.Icache.MissRatio() != 1.0 {
		t.Fatalf("disabled cache miss ratio %.3f", st.Icache.MissRatio())
	}
	// Every fetch goes off-chip: dramatically more cycles than cached.
	cached := runSrc(t, DefaultConfig(), sumLoop, 1000000)
	if st.Pipeline.Cycles <= 2*cached.Stats().Pipeline.Cycles {
		t.Fatalf("disabled-cache run (%d cycles) should be ≫ cached (%d)",
			st.Pipeline.Cycles, cached.Stats().Pipeline.Cycles)
	}
}

func TestInterruptControllerWiring(t *testing.T) {
	// Post a device interrupt; the handler reads the cause from the
	// controller (ldc from coprocessor 2) and prints it.
	src := `
	handler:
		ldc r20, c2, 0(r0)
		nop
		putw r20
		movs r20, pc0
		movs r21, pc1
		movs r22, pc2
		mots pc0, r20
		mots pc1, r21
		mots pc2, r22
		nop
		nop
		jpc
		jpc
		jpcrs
	main:	li  r10, 515
		mots psw, r10
		addi r1, r0, 0
		addi r2, r0, 50
	loop:	addi r1, r1, 1
		bne.sq r1, r2, loop
		nop
		nop
		putw r1
		halt
	`
	m := New(DefaultConfig(), nil)
	if err := m.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	var cycles uint64
	posted := false
	for !m.Console.Halted {
		if cycles > 100 && !posted {
			m.IntC.Post(42)
			posted = true
		}
		m.CPU.IntLine = m.IntC.Pending()
		cycles += uint64(m.CPU.Step())
		if cycles > 100000 {
			t.Fatal("no halt")
		}
	}
	out := m.Output()
	if !strings.Contains(out, "42\n") {
		t.Fatalf("handler did not read cause 42: %q", out)
	}
	if !strings.HasSuffix(out, "50\n") {
		t.Fatalf("loop result wrong: %q", out)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	m := runSrc(t, DefaultConfig(), sumLoop, 100000)
	st := m.Stats()
	if c := st.IfetchCost(); c < 1.0 || c > 2.0 {
		t.Fatalf("ifetch cost %.3f out of range", c)
	}
	if mips := st.SustainedMIPS(); mips <= 0 || mips > ClockMHz {
		t.Fatalf("sustained MIPS %.2f out of range", mips)
	}
	if bw := st.DemandBandwidthMW(); bw <= 0 || bw > 2*ClockMHz {
		t.Fatalf("demand bandwidth %.2f out of range", bw)
	}
	if st.PinBandwidthMW() >= st.DemandBandwidthMW() {
		t.Fatal("on-chip cache must reduce pin bandwidth below demand")
	}
}

func TestStateAccountingIcacheDominates(t *testing.T) {
	m := New(DefaultConfig(), nil)
	ic, dp := m.StateAccounting()
	if ic <= 2*dp {
		t.Fatalf("icache bits (%d) should dominate datapath bits (%d), as on the die", ic, dp)
	}
}

func TestLoadResetEntrySymbol(t *testing.T) {
	m := New(DefaultConfig(), nil)
	err := m.LoadSource(`
	data:	.word 7
	main:	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if m.CPU.PC() != m.Image.Symbols["main"] {
		t.Fatalf("entry pc %d", m.CPU.PC())
	}
	if m.Mem.Peek(m.Image.Symbols["data"]) != 7 {
		t.Fatal("data not loaded")
	}
}

func TestRunLimitError(t *testing.T) {
	// A lint-clean infinite loop, run on both tiers: the fast tier must stop
	// at the cycle limit too, and at the same cycle as the accurate pipeline.
	run := func(fast bool) (*Machine, uint64) {
		cfg := DefaultConfig()
		cfg.FastTier = fast
		m := New(cfg, nil)
		if err := m.LoadSource("main:\tb main\n\tnop\n\tnop\n"); err != nil {
			t.Fatal(err)
		}
		cycles, err := m.Run(1000)
		if err == nil {
			t.Fatalf("fast=%v: expected cycle-limit error for an infinite loop", fast)
		}
		// The limit condition is the resumable sentinel, not a fault: chunked
		// runners resume it, and it must never be confused with a machine
		// fault.
		if !errors.Is(err, ErrNotHalted) {
			t.Fatalf("fast=%v: limit error %v does not wrap ErrNotHalted", fast, err)
		}
		var fe *FaultError
		if errors.As(err, &fe) {
			t.Fatalf("fast=%v: limit error %v claims to be a machine fault", fast, err)
		}
		// Resumable: the loop keeps running in a second chunk and hits the
		// limit again rather than faulting.
		more, err := m.Run(1000)
		if !errors.Is(err, ErrNotHalted) {
			t.Fatalf("fast=%v: resumed run: %v, want ErrNotHalted again", fast, err)
		}
		if m.CPU.FastBudget != 0 {
			t.Errorf("fast=%v: FastBudget left set after a run", fast)
		}
		return m, cycles + more
	}
	acc, accCycles := run(false)
	fast, fastCycles := run(true)
	if acc.CPU.FastSteps != 0 {
		t.Errorf("reference run retired %d instructions through the fast tier", acc.CPU.FastSteps)
	}
	if fast.CPU.FastSteps == 0 {
		t.Error("fast tier never engaged on the loop")
	}
	if accCycles != fastCycles || acc.CPU.Stats != fast.CPU.Stats {
		t.Errorf("tiers stopped at different points: accurate %d cycles, fast %d cycles",
			accCycles, fastCycles)
	}
}

func TestRunFaultsOnRunawayPC(t *testing.T) {
	// A program that never halts: execution falls off the end of the image
	// into unloaded memory. That is a genuine fault and must be reported as
	// one immediately — not burn the whole cycle budget and come back as a
	// misleading "no halt within N cycles".
	m := New(DefaultConfig(), nil)
	if err := m.LoadSource("main:\tadd r1, r0, r0\n\tnop\n"); err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run(1_000_000)
	if err == nil {
		t.Fatal("expected a runaway fault")
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err %v is not a *FaultError", err)
	}
	if errors.Is(err, ErrNotHalted) {
		t.Fatalf("fault %v must not look like the resumable limit sentinel", err)
	}
	if cycles >= 1_000_000 {
		t.Fatalf("fault took %d cycles to surface: limit masked it", cycles)
	}
	if !strings.Contains(err.Error(), "outside the loaded image") {
		t.Fatalf("fault message %q does not name the runaway", err)
	}
}

func TestFPWorkloadLdfStf(t *testing.T) {
	// Sum an array of floats with the direct ldf path.
	m := runSrc(t, DefaultConfig(), `
	main:	la r1, arr
		addi r2, r0, 4       ; count
		cpw c1, 1284(r0)     ; FMov f0,f0? — actually clear via sub: skip
		stc r0, c1, 2816(r0) ; f0 := raw 0
	loop:	ldf f1, 0(r1)
		cpw c1, 1(r0)        ; FAdd f0 += f1
		addi r1, r1, 1
		addi r2, r2, -1
		bne.sq r2, r0, loop
		nop
		nop
		stf f0, 0(r1)        ; r1 now points one past arr = out
		ld  r3, 0(r1)
		nop
		putw r3
		halt
	arr:	.word 0x3F800000, 0x40000000, 0x40400000, 0x40800000 ; 1,2,3,4
	out:	.space 1
	`, 100000)
	if m.FPU.Float(0) != 10.0 {
		t.Fatalf("f0 = %v, want 10", m.FPU.Float(0))
	}
	if got := isa.Word(0x41200000); m.Mem.Peek(m.Image.Symbols["out"]) != got {
		t.Fatalf("stored %#x, want %#x (10.0f)", m.Mem.Peek(m.Image.Symbols["out"]), got)
	}
}
