package experiments

// Observation-overhead measurement: how much wall-clock the obs substrate
// costs at each level, against the same machine with no sink attached. The
// disabled path is the one the acceptance bar guards (a nil sink must stay
// within noise of the pre-obs simulator); the ledger and tracer numbers
// document what turning observation on costs.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/tinyc"
)

// ObsOverhead records the wall-clock cost of each observation level over
// the same benchmark workload. Percentages are relative to the unobserved
// baseline; small negatives are measurement noise.
type ObsOverhead struct {
	Benchmark  string  `json:"benchmark"`
	Iterations int     `json:"iterations"`
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
	// DroppedEvents counts trace events the tracer level's bounded buffer
	// rejected — nonzero means the tracer timing covered truncated traces.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

func (o *ObsOverhead) String() string {
	return fmt.Sprintf("obs overhead over %s ×%d: baseline %.1fms, ledger %.1fms (%+.1f%%), windowed %.1fms (%+.1f%%), tracer %.1fms (%+.1f%%)",
		o.Benchmark, o.Iterations, o.BaselineMS, o.LedgerMS, o.LedgerPct, o.WindowedMS, o.WindowedPct, o.TracerMS, o.TracerPct)
}

// MeasureObsOverhead times iters complete runs of the bubblesort benchmark
// at each observation level (none, ledger-only, ledger+tracer), best of
// three passes per level to damp scheduler noise. Machines are run directly
// — not through the engine — so memoization and the runner's automatic sink
// cannot short-circuit the measurement. They run with the fast tier off, so
// every level times the same cycle-accurate interpreter (an attached
// tracer disengages the tier, which would otherwise skew the comparison).
func MeasureObsOverhead(iters int) (*ObsOverhead, error) {
	if iters <= 0 {
		iters = 20
	}
	bench := tinyc.Benchmarks()[0] // bubblesort: branchy, memory-heavy
	im, err := buildCached(bench, reorg.Default())
	if err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	cfg.FastTier = false
	measure := func(attach func(m *core.Machine)) (float64, error) {
		best := 0.0
		for pass := 0; pass < 3; pass++ {
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
			if ms := float64(time.Since(start)) / 1e6; pass == 0 || ms < best {
				best = ms
			}
		}
		return best, nil
	}
	o := &ObsOverhead{Benchmark: bench.Name, Iterations: iters}
	if o.BaselineMS, err = measure(nil); err != nil {
		return nil, err
	}
	if o.LedgerMS, err = measure(func(m *core.Machine) { m.Observe(obs.NewMachineSink()) }); err != nil {
		return nil, err
	}
	if o.WindowedMS, err = measure(func(m *core.Machine) {
		s := obs.NewMachineSink()
		win := obs.NewWindowedLedger(obs.MachineCauseNames, 16384)
		win.OnWindow(func(*obs.Window) error { return nil })
		s.Ledger.AttachWindows(win)
		m.Observe(s)
	}); err != nil {
		return nil, err
	}
	// Each iteration's tracer is drained for dropped events when the next
	// iteration attaches (and once more after the loop, for the last one).
	var lastTr *obs.Tracer
	if o.TracerMS, err = measure(func(m *core.Machine) {
		if lastTr != nil {
			o.DroppedEvents += lastTr.Dropped()
		}
		s := obs.NewMachineSink()
		lastTr = &obs.Tracer{Instrs: true}
		s.Tracer = lastTr
		m.Observe(s)
	}); err != nil {
		return nil, err
	}
	o.DroppedEvents += lastTr.Dropped()
	if o.BaselineMS > 0 {
		o.LedgerPct = 100 * (o.LedgerMS - o.BaselineMS) / o.BaselineMS
		o.WindowedPct = 100 * (o.WindowedMS - o.BaselineMS) / o.BaselineMS
		o.TracerPct = 100 * (o.TracerMS - o.BaselineMS) / o.BaselineMS
	}
	return o, nil
}
