package experiments

// Observation-overhead measurement: how much wall-clock the obs substrate
// costs at each level, against the same machine with no sink attached. The
// disabled path is the one the acceptance bar guards (a nil sink must stay
// within noise of the pre-obs simulator); the ledger and tracer numbers
// document what turning observation on costs.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// ObsOverhead records the wall-clock cost of each observation level over
// the same benchmark workload. Timings are medians over interleaved rounds
// and percentages are relative to the unobserved baseline; small negatives
// are measurement noise.
type ObsOverhead struct {
	Benchmark  string `json:"benchmark"`
	Iterations int    `json:"iterations"`
	// Rounds is how many times every level was timed, interleaved.
	Rounds     int     `json:"rounds"`
	BaselineMS float64 `json:"baseline_ms"`
	LedgerMS   float64 `json:"ledger_ms"`
	// WindowedMS times the ledger with a windowed ledger attached (16K-cycle
	// windows streamed to io.Discard) — the configuration a live-observed
	// long run pays for.
	WindowedMS  float64 `json:"windowed_ms"`
	TracerMS    float64 `json:"tracer_ms"`
	LedgerPct   float64 `json:"ledger_overhead_pct"`
	WindowedPct float64 `json:"windowed_overhead_pct"`
	TracerPct   float64 `json:"tracer_overhead_pct"`
	// WindowedVsLedger is the median per-round ratio of windowed-ledger to
	// plain-ledger time: what windowing adds on top of the ledger.
	WindowedVsLedger float64 `json:"windowed_vs_ledger"`
	// DroppedEvents counts trace events the tracer level's bounded buffer
	// rejected — nonzero means the tracer timing covered truncated traces.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

func (o *ObsOverhead) String() string {
	return fmt.Sprintf("obs overhead over %s ×%d, median of %d interleaved rounds: baseline %.1fms, ledger %.1fms (%+.1f%%), windowed %.1fms (%+.1f%%, %.2fx ledger), tracer %.1fms (%+.1f%%)",
		o.Benchmark, o.Iterations, o.Rounds, o.BaselineMS, o.LedgerMS, o.LedgerPct, o.WindowedMS, o.WindowedPct,
		o.WindowedVsLedger, o.TracerMS, o.TracerPct)
}

// MeasureObsOverhead times iters complete runs of the bubblesort benchmark
// at each observation level: none, ledger, windowed ledger, ledger+tracer.
// Each of rounds rounds times every level once, in an order that rotates
// from round to round, so host noise (a neighbour's burst, a frequency
// change) lands on all levels alike rather than on whichever level was
// being timed when it struck. Each level reports its median time; each
// overhead is the median of the per-round overheads, every one a ratio of
// timings taken moments apart. Machines are run directly — not through the
// engine — so memoization and the runner's automatic sink cannot
// short-circuit the measurement. They run with the fast tier off, so every
// level times the same cycle-accurate interpreter (an attached tracer
// disengages the tier, which would otherwise skew the comparison).
func MeasureObsOverhead(iters, rounds int) (*ObsOverhead, error) {
	if iters <= 0 {
		iters = 20
	}
	if rounds <= 0 {
		rounds = 5
	}
	bench := tinyc.Benchmarks()[0] // bubblesort: branchy, memory-heavy
	im, err := buildCached(bench, reorg.Default())
	if err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	cfg.FastTier = false
	o := &ObsOverhead{Benchmark: bench.Name, Iterations: iters, Rounds: rounds}
	// Each iteration's tracer is drained for dropped events when the next
	// iteration attaches (and once more after the rounds, for the last one).
	var lastTr *obs.Tracer
	levels := []func(m *core.Machine){
		nil,
		func(m *core.Machine) { m.Observe(obs.NewMachineSink()) },
		func(m *core.Machine) {
			s := obs.NewMachineSink()
			win := obs.NewWindowedLedger(obs.MachineCauseNames, 16384)
			win.OnWindow(func(*obs.Window) error { return nil })
			s.Ledger.AttachWindows(win)
			m.Observe(s)
		},
		func(m *core.Machine) {
			if lastTr != nil {
				o.DroppedEvents += lastTr.Dropped()
			}
			s := obs.NewMachineSink()
			lastTr = &obs.Tracer{Instrs: true}
			s.Tracer = lastTr
			m.Observe(s)
		},
	}
	measure := func(attach func(m *core.Machine)) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			m := core.New(cfg, nil)
			if attach != nil {
				attach(m)
			}
			m.Load(im)
			if _, err := m.Run(runLimit); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / 1e6, nil
	}
	ms := make([][]float64, len(levels)) // ms[level][round]
	for r := 0; r < rounds; r++ {
		for k := range levels {
			lv := (r + k) % len(levels)
			t, err := measure(levels[lv])
			if err != nil {
				return nil, err
			}
			ms[lv] = append(ms[lv], t)
		}
	}
	o.DroppedEvents += lastTr.Dropped()
	pct := func(lv int) float64 {
		over := make([]float64, rounds)
		for r := range over {
			over[r] = 100 * (ms[lv][r] - ms[0][r]) / ms[0][r]
		}
		return median(over)
	}
	o.BaselineMS, o.LedgerMS, o.WindowedMS, o.TracerMS = median(ms[0]), median(ms[1]), median(ms[2]), median(ms[3])
	o.LedgerPct, o.WindowedPct, o.TracerPct = pct(1), pct(2), pct(3)
	ratio := make([]float64, rounds)
	for r := range ratio {
		ratio[r] = ms[2][r] / ms[1][r]
	}
	o.WindowedVsLedger = median(ratio)
	return o, nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
