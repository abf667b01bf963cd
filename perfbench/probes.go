package main

// Layer probes: numbers that cannot be timed from outside a workload. Each
// probe times one layer's public functions on the workload's own inputs
// (its 15 benchmarks, in the workload's order): the toolchain over every
// benchmark × Table 1 scheme, Machine.Run with and without the fast tier
// and with ledger-only or windowed observation, icache.Fetch and
// icache.FetchDecoded over each benchmark's retired PCs, ecache.Read over
// its data reads, a streamed instruction trace, one scenario cell pair,
// trace synthesis, and a fixed calibration loop. Probes run only in traced
// runs, after the timed phase.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

// probeReps is how many times a probe repeats a timing; it keeps the median.
const probeReps = 3

// traceProbeBenches is how many benchmarks the trace probe streams on
// workloads other than trace-stream.
const traceProbeBenches = 3

// keep defeats dead-code elimination of probed calls.
var keep uint64

func timeNS(f func()) int64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Nanoseconds()
}

// medianNS runs f probeReps times and returns the median wall time.
func medianNS(f func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = float64(timeNS(f))
	}
	return quantile(xs, 0.5)
}

func (c *child) runProbes() {
	end := c.spans.begin("probes")
	defer end()
	m := c.res.Metrics
	benches := benchOrder(c.workload, c.seed)
	probe := func(name string, f func() error) {
		e := c.spans.begin("probe/" + name)
		err := f()
		e()
		if err != nil {
			c.res.checkErr("probe "+name, err)
		}
	}

	probe("toolchain", func() error { return probeToolchain(benches, m) })
	var ims []*asm.Image
	probe("build", func() (err error) {
		ims, err = buildImages(benches, c.spans)
		return err
	})
	if ims == nil {
		return
	}
	var mp machineProbe
	probe("machine", func() (err error) {
		mp, err = probeMachine(ims, m)
		return err
	})
	probe("caches", func() error { return probeCaches(ims, m, c.workload != wScenario) })

	if c.workload == wTrace {
		traced := c.traceRunNS
		events := m["obs.trace_events"]
		untraced := sum(mp.ledgerFast)
		m["obs.trace_ns_per_event"] = (traced - untraced) / events
		m["ratio.trace_vs_untraced"] = traced / untraced
	} else {
		probe("trace", func() error { return probeTrace(benches, ims, mp, m) })
	}
	if c.workload != wScenario {
		probe("scenario", func() error { return probeScenario(m) })
	}
	probe("synth", func() error {
		const refs = 300_000
		ns := medianNS(func() {
			tr := trace.NewSynthesizer(trace.PascalSynth(0)).Generate(refs)
			keep += uint64(len(tr))
		})
		m["trace.synth_ns_per_ref"] = ns / refs
		return nil
	})
	probe("calib", func() error {
		m["calib.ns"] = calibrate()
		return nil
	})
}

// probeToolchain times each toolchain stage per benchmark × Table 1 scheme
// and records the medians in µs.
func probeToolchain(benches []tinyc.Benchmark, m map[string]float64) error {
	var compile, assemble, check, cost, build []float64
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, b := range benches {
		for _, scheme := range reorg.Table1Schemes() {
			var comp *tinyc.Compiled
			var err error
			compile = append(compile, us(timeNS(func() { comp, err = tinyc.Compile(b.Source) })))
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			stmts := reorg.Reorganize(comp.Stmts, scheme, nil)
			var im *asm.Image
			assemble = append(assemble, us(timeNS(func() { im, err = asm.Assemble(stmts, 0) })))
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			cfg := lint.Config{Slots: scheme.Slots}
			check = append(check, us(timeNS(func() { keep += uint64(len(lint.CheckImage(im, cfg).Diags)) })))
			cost = append(cost, us(timeNS(func() { keep += uint64(len(lint.AnalyzeCost(im, cfg).Blocks)) })))
			build = append(build, us(timeNS(func() { im, err = tinyc.Build(b.Source, scheme, nil) })))
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
		}
	}
	m["tinyc.compile_us"] = quantile(compile, 0.5)
	m["asm.assemble_us"] = quantile(assemble, 0.5)
	m["lint.check_us"] = quantile(check, 0.5)
	m["lint.cost_us"] = quantile(cost, 0.5)
	m["tinyc.build_us"] = quantile(build, 0.5)
	return nil
}

// machineProbe holds per-benchmark median run walls (ns) by configuration.
type machineProbe struct {
	cycles     []float64
	ledgerFast []float64
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// probeConfig is the default spec with predecode on and the given tier.
func probeConfig(fast bool) core.Config {
	cfg := traceConfig()
	cfg.FastTier = fast
	return cfg
}

// runImage runs im once on a fresh machine; attach, when set, installs an
// observation sink before the image is loaded.
func runImage(im *asm.Image, fast bool, attach func(*core.Machine)) (*core.Machine, uint64, error) {
	m := core.New(probeConfig(fast), nil)
	if attach != nil {
		attach(m)
	}
	m.Load(im)
	n, err := runToHalt(m)
	return m, n, err
}

func ledgerOnly(m *core.Machine) { m.Observe(obs.NewMachineSink()) }

func windowed(m *core.Machine) {
	s := obs.NewMachineSink()
	win := obs.NewWindowedLedger(obs.MachineCauseNames, scenarioWindow)
	win.OnWindow(func(*obs.Window) error { return nil })
	s.Ledger.AttachWindows(win)
	m.Observe(s)
}

// probeMachine times Machine.Run per benchmark in five configurations —
// interpreter, fast tier, interpreter with a ledger, interpreter with a
// windowed ledger, fast tier with a ledger — and core.New+Load.
func probeMachine(ims []*asm.Image, m map[string]float64) (machineProbe, error) {
	var mp machineProbe
	var loads []float64
	for _, im := range ims {
		// First load of a fresh image: includes the fast tier's lint
		// clearance and compilation, as a suite cell's first load does.
		loads = append(loads, float64(timeNS(func() { core.New(probeConfig(true), nil).Load(im) }))/1e3)
	}
	m["core.load_us"] = quantile(loads, 0.5)

	type cfg struct {
		fast   bool
		attach func(*core.Machine)
	}
	configs := []cfg{{false, nil}, {true, nil}, {false, ledgerOnly}, {false, windowed}, {true, ledgerOnly}}
	walls := make([][]float64, len(configs))
	var fastSteps, fastRuns, retired uint64
	for _, im := range ims {
		var cycles uint64
		for ci, cf := range configs {
			var runErr error
			ns := medianNS(func() {
				mach, n, err := runImage(im, cf.fast, cf.attach)
				if err != nil {
					runErr = err
					return
				}
				if ci == 1 {
					fastSteps += mach.CPU.FastSteps
					fastRuns += mach.CPU.FastRuns
					retired += mach.CPU.Stats.Retired
				}
				if cycles == 0 {
					cycles = n
				} else if n != cycles {
					runErr = fmt.Errorf("cycle count %d differs from %d across configurations", n, cycles)
				}
				if cf.attach != nil {
					if err := mach.VerifyAttribution(); err != nil {
						runErr = err
					}
				}
			})
			if runErr != nil {
				return mp, runErr
			}
			walls[ci] = append(walls[ci], ns)
		}
		mp.cycles = append(mp.cycles, float64(cycles))
	}
	mp.ledgerFast = walls[4]
	cycles := sum(mp.cycles)
	interp, fast := sum(walls[0]), sum(walls[1])
	m["pipeline.interp_ns_per_cycle"] = interp / cycles
	m["pipeline.fast_ns_per_cycle"] = fast / cycles
	m["ratio.fast_vs_interp"] = fast / interp
	m["obs.ledger_ns_per_cycle"] = (sum(walls[2]) - interp) / cycles
	m["obs.window_ns_per_cycle"] = (sum(walls[3]) - interp) / cycles
	if retired > 0 {
		m["pipeline.fast_engagement"] = float64(fastSteps) / float64(retired)
	}
	if fastRuns > 0 {
		m["pipeline.fast_instrs_per_entry"] = float64(fastSteps) / float64(fastRuns)
	}
	return mp, nil
}

// dataRecorder records the addresses of a CPU's data reads.
type dataRecorder struct {
	pipeline.DataPort
	reads []isa.Word
}

func (d *dataRecorder) Read(a isa.Word) (isa.Word, int) {
	d.reads = append(d.reads, a)
	return d.DataPort.Read(a)
}

// probeCaches replays each benchmark's retired-PC stream through a fresh
// Icache (Fetch, then FetchDecoded) and its data-read stream through a fresh
// Ecache. withIcacheRatio is false on scenario-mp, whose Icache miss ratio
// comes from the shared hierarchy of its own cells.
func probeCaches(ims []*asm.Image, m map[string]float64, withIcacheRatio bool) error {
	var fetchNS, decNS, readNS float64
	var fetches, misses, reads, readMisses uint64
	for _, im := range ims {
		rec := &trace.Recorder{}
		var data *dataRecorder
		_, _, err := runImage(im, false, func(mach *core.Machine) {
			rec.Attach(mach.CPU)
			data = &dataRecorder{DataPort: mach.CPU.DMem}
			mach.CPU.DMem = data
		})
		if err != nil {
			return err
		}
		pcs := rec.Instrs
		fresh := func(predecode bool) *core.Machine {
			cfg := probeConfig(false)
			cfg.Icache.Predecode = predecode
			mach := core.New(cfg, nil)
			mach.Load(im)
			return mach
		}
		var last *core.Machine
		fetchNS += medianNS(func() {
			last = fresh(false)
			ic := last.ICache
			for _, a := range pcs {
				w, _ := ic.Fetch(a)
				keep += uint64(w)
			}
		})
		fetches += last.ICache.Stats.Fetches
		misses += last.ICache.Stats.Misses
		decNS += medianNS(func() {
			ic := fresh(true).ICache
			for _, a := range pcs {
				in, _ := ic.FetchDecoded(a)
				keep += uint64(in.Rd)
			}
		})
		readNS += medianNS(func() {
			last = fresh(false)
			ec := last.ECache
			for _, a := range data.reads {
				w, _ := ec.Read(a)
				keep += uint64(w)
			}
		})
		reads += last.ECache.Stats.Reads
		readMisses += last.ECache.Stats.ReadMisses
	}
	m["icache.fetch_ns"] = fetchNS / float64(fetches)
	m["icache.fetch_decoded_ns"] = decNS / float64(fetches)
	m["ratio.fetch_decoded_vs_fetch"] = decNS / fetchNS
	if withIcacheRatio {
		m["icache.miss_ratio"] = float64(misses) / float64(fetches)
	}
	m["ecache.read_ns"] = readNS / float64(reads)
	m["ecache.miss_ratio"] = float64(readMisses) / float64(reads)
	return nil
}

// probeTrace streams an instruction trace of the workload's first few
// benchmarks and compares it with the same runs untraced (ledger only, fast
// tier requested).
func probeTrace(benches []tinyc.Benchmark, ims []*asm.Image, mp machineProbe, m map[string]float64) error {
	var traced, untraced float64
	var events, bytes, dropped uint64
	for i := 0; i < traceProbeBenches; i++ {
		r, err := traceBench(benches[i], ims[i], &spanRec{})
		if err != nil {
			return fmt.Errorf("%s: %w", benches[i].Name, err)
		}
		traced += float64(r.runNS)
		untraced += mp.ledgerFast[i]
		events += uint64(r.events)
		bytes += uint64(r.bytes)
		dropped += r.dropped
	}
	m["obs.trace_events"] = float64(events)
	m["obs.trace_bytes"] = float64(bytes)
	m["obs.dropped_events"] = float64(dropped)
	m["obs.trace_ns_per_event"] = (traced - untraced) / float64(events)
	m["ratio.trace_vs_untraced"] = traced / untraced
	return nil
}

// probeScenario runs one default scenario pair at the short quantum under
// both policies, on a store-less engine.
func probeScenario(m map[string]float64) error {
	experiments.Configure(1, 0, false)
	w := experiments.DefaultScenarioWorkloads()[1]
	var switches, switchCycles uint64
	var cellMS []float64
	for _, p := range []string{spec.PolicyFlush, spec.PolicyPID} {
		var doc *experiments.ScenarioDoc
		var err error
		ns := timeNS(func() {
			doc, err = experiments.ScenarioSweepWindowed(context.Background(),
				[]experiments.ScenarioWorkload{w}, []int{experiments.DefaultScenarioQuanta[0]}, []string{p}, scenarioWindow)
		})
		if err != nil {
			return err
		}
		cellMS = append(cellMS, float64(ns)/1e6)
		r := doc.Cells[0].Result
		switches += r.Switches
		switchCycles += r.SwitchCycles
	}
	m["scenario.switches"] = float64(switches)
	m["scenario.switch_cycles"] = float64(switchCycles)
	m["scenario.cell_ms"] = quantile(cellMS, 0.5)
	return nil
}

// calibrate times a fixed integer loop (median of five) in ns; later runs
// divide probe numbers by it to factor out the runner's speed.
func calibrate() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = float64(timeNS(func() {
			x := uint64(88172645463325252)
			for j := 0; j < 1<<24; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			keep += x
		}))
	}
	return quantile(xs, 0.5)
}
