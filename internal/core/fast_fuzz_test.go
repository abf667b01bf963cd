package core

// Differential fuzzing of the fast tier against the cycle-accurate
// pipeline: a byte string decodes into a random but always-terminating
// tinyc program (the same grammar idea as internal/lint's compile fuzz,
// kept compact here because that generator lives in lint's own test
// package), which is compiled for a fuzzer-chosen Table 1 scheme and run
// twice under a fuzzer-chosen machine shape. Any visible divergence —
// cycles, stats, registers, output, ledger — is a fast-tier bug. CI runs
// this for a smoke interval on every merge (see .github/workflows/ci.yml).

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// fuzzGen drains the payload one decision at a time; exhaustion yields
// zeros, which map to the grammar's simplest productions.
type fuzzGen struct {
	data []byte
	pos  int
}

func (g *fuzzGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

func fuzzExpr(g *fuzzGen, depth int) string {
	vars := []string{"x", "y", "g0"}
	if depth <= 0 || g.next()%3 == 0 {
		switch g.next() % 3 {
		case 0:
			return vars[g.next()%len(vars)]
		case 1:
			// Large constants make the arithmetic overflow-prone, keeping
			// the overflow seam hot under the sticky-overflow shape.
			return fmt.Sprint(1 << (g.next() % 28))
		default:
			return fmt.Sprintf("a[%d]", g.next()%8)
		}
	}
	l, r := fuzzExpr(g, depth-1), fuzzExpr(g, depth-1)
	switch g.next() % 4 {
	case 0:
		return "(" + l + " + " + r + ")"
	case 1:
		return "(" + l + " - " + r + ")"
	case 2:
		return "(" + l + " * " + r + ")"
	default:
		return fmt.Sprintf("(%s %% %d)", l, 1+g.next()%16)
	}
}

func fuzzStmts(g *fuzzGen, n, loopDepth int) string {
	targets := []string{"x", "y", "g0"}
	var b strings.Builder
	for s := 0; s < n; s++ {
		switch g.next() % 5 {
		case 0, 1:
			fmt.Fprintf(&b, "\t%s = %s;\n", targets[g.next()%len(targets)], fuzzExpr(g, 2))
		case 2:
			// The index is folded into [0, 8) — a negative remainder would
			// store below a[0], over the code, which can turn the program
			// into one that never halts and burns the whole cycle budget.
			fmt.Fprintf(&b, "\ta[((%s) %% 8 + 8) %% 8] = %s;\n", fuzzExpr(g, 1), fuzzExpr(g, 2))
		case 3:
			fmt.Fprintf(&b, "\tif (%s < %s) {\n%s\t}\n",
				fuzzExpr(g, 1), fuzzExpr(g, 1), fuzzStmts(g, 1, loopDepth))
		default:
			if loopDepth < 2 {
				ctr := fmt.Sprintf("i%d", loopDepth)
				fmt.Fprintf(&b, "\t%s = 0;\n\twhile (%s < %d) {\n%s\t%s = %s + 1;\n\t}\n",
					ctr, ctr, 1+g.next()%8, fuzzStmts(g, 1+g.next()%2, loopDepth+1), ctr, ctr)
			} else {
				fmt.Fprintf(&b, "\t%s = %s;\n", targets[g.next()%len(targets)], fuzzExpr(g, 1))
			}
		}
	}
	return b.String()
}

func fuzzProgram(data []byte) string {
	g := &fuzzGen{data: data}
	return fmt.Sprintf(`
var g0;
var a[8];
func main() {
	var x; var y; var i0; var i1;
	x = 1; y = 2; g0 = 3; i0 = 0; i1 = 0;
%s	print(x + y + g0);
}
`, fuzzStmts(g, 2+g.next()%5, 0))
}

// fuzzBudget is the cycle budget of each differential run.
const fuzzBudget = 20_000_000

// fuzzSeed is one seed-corpus entry: the generator payload plus the scheme
// and machine-shape selector bytes.
type fuzzSeed struct {
	data                []byte
	schemeByte, cfgByte byte
}

var fuzzSeeds = []fuzzSeed{
	{[]byte{}, 0, 0},
	{[]byte{4, 1, 2, 3, 4, 5, 6, 7, 8}, 1, 1},
	{[]byte{4, 4, 0, 4, 1, 4, 2, 9, 9, 9, 9, 9}, 2, 2}, // nested loops
	{[]byte{3, 3, 7, 7, 7, 3, 1, 1, 1, 1}, 3, 3},       // branches
	{[]byte{1, 1, 1, 2, 2, 2, 0, 0}, 4, 7},             // tiny icache + sticky
	// A negative array index: stored below a[0] by a generator that did
	// not fold the index, it rewrote code and never halted.
	{[]byte{0x52, 0x12, 0xfc, 0x49, 0xe8, 0x71, 0xa, 0x5f, 0x41, 0x47, 0xd0, 0xac,
		0x50, 0x39, 0x52, 0x67, 0x2c, 0x41, 0xe0, 0x9a, 0xc0, 0xce, 0x6f, 0x35, 0xbd,
		0x4e, 0x1b, 0x7f, 0xe9, 0x7d, 0xac, 0x3b, 0xc3, 0xa7, 0xa5, 0xcb, 0x9e, 0x2f,
		0x3d, 0x8d, 0x9d, 0x9f, 0x5c, 0xb8, 0x8f, 0x7d}, 63, 178},
}

// fuzzMachine builds the fuzz input's image and machine configuration (the
// scheme byte picks a Table 1 scheme, the config byte a machine shape).
func fuzzMachine(data []byte, schemeByte, cfgByte byte) (*asm.Image, Config, error) {
	schemes := reorg.Table1Schemes()
	scheme := schemes[int(schemeByte)%len(schemes)]
	im, err := tinyc.Build(fuzzProgram(data), scheme, nil)
	if err != nil {
		return nil, Config{}, err
	}
	cfg := DefaultConfig()
	cfg.Pipeline.BranchSlots = scheme.Slots
	if cfgByte&1 != 0 {
		// A thrash-prone icache keeps the miss-mid-block seam hot.
		cfg.Icache.Sets = 2
		cfg.Icache.Ways = 1
		cfg.Icache.BlockWords = 4
		cfg.Icache.MissPenalty = 6
	}
	if cfgByte&2 != 0 {
		cfg.Pipeline.StickyOverflow = true
	}
	return im, cfg, nil
}

// TestFuzzSeedsHaltWellInsideBudget: every seed-corpus program, and a
// deterministic sample of generated ones, must halt on the cycle-accurate
// pipeline in a small fraction of the differential's budget. A generated
// program that runs the whole budget makes both runs slow enough for the
// fuzz engine to report the input as hung, and its differential is
// skipped anyway; the generator must bound every construct instead.
func TestFuzzSeedsHaltWellInsideBudget(t *testing.T) {
	const bound = fuzzBudget / 20
	seeds := append([]fuzzSeed(nil), fuzzSeeds...)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 10+r.Intn(120))
		r.Read(data)
		seeds = append(seeds, fuzzSeed{data, byte(r.Intn(256)), byte(r.Intn(256))})
	}
	for i, s := range seeds {
		im, cfg, err := fuzzMachine(s.data, s.schemeByte, s.cfgByte)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		cfg.FastTier = false
		m := New(cfg, nil)
		m.Load(im)
		if n, err := m.Run(bound); err != nil {
			t.Errorf("seed %d did not halt within %d cycles (%d of the %d budget): %v\n%s",
				i, n, bound, fuzzBudget, err, fuzzProgram(s.data))
		}
	}
}

func FuzzFastVsAccurate(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.data, s.schemeByte, s.cfgByte)
	}
	f.Fuzz(func(t *testing.T, data []byte, schemeByte, cfgByte byte) {
		im, cfg, err := fuzzMachine(data, schemeByte, cfgByte)
		if err != nil {
			t.Skip() // generator bug, not a tier bug; the lint fuzz covers it
		}
		run := func(useFast bool) (*Machine, error) {
			c := cfg
			c.FastTier = useFast
			m := New(c, nil)
			m.Observe(obs.NewMachineSink())
			m.Load(im)
			_, err := m.Run(fuzzBudget)
			if verr := m.VerifyAttribution(); verr != nil {
				t.Fatalf("fast=%v: attribution broken: %v", useFast, verr)
			}
			return m, err
		}
		acc, errA := run(false)
		fast, errF := run(true)
		if (errA == nil) != (errF == nil) {
			t.Fatalf("halting diverged: accurate err=%v, fast err=%v", errA, errF)
		}
		if errA != nil {
			t.Skip() // both exhausted the cycle budget mid-flight
		}
		if acc.CPU.FastSteps != 0 {
			t.Fatalf("reference machine retired %d instructions through the fast tier", acc.CPU.FastSteps)
		}
		if fast.CPU.FastSteps == 0 {
			t.Fatal("fast tier never engaged — differential is vacuous")
		}
		diffMachines(t, acc, fast)
	})
}
