package main

// The child side: one run of one workload in a fresh process. A child sets
// up (store, engine, images), runs the timed phase, checks every output,
// and prints one childResult as JSON on standard output. With -traced it
// also records spans around each call into the program and runs the layer
// probes (probes.go) after the timed phase.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

const (
	wSuiteCold = "suite-cold"
	wSuiteHot  = "suite-hot"
	wScenario  = "scenario-mp"
	wTrace     = "trace-stream"
)

var workloadNames = []string{wSuiteCold, wSuiteHot, wScenario, wTrace}

// defaultSeed is the seed the golden mix cells in golden.json were recorded
// under. Seed 4242 is held out of tuning, for checking later claims.
const defaultSeed = 1

// scenarioWindow is the windowed-ledger size every scenario-mp cell carries.
const scenarioWindow = 4096

// mixName names the seed-ordered 15-benchmark scenario member set.
const mixName = "mix15"

// runChunk is the cycle budget per Machine.Run call in the traced runs.
const runChunk = 2_000_000

// runLimit bounds every single-machine run the benchmark makes.
const runLimit = 50_000_000

var suiteExps = []struct {
	id string
	fn func() (*experiments.Table, error)
}{
	{"E1", experiments.Table1BranchSchemes},
	{"E2", experiments.IcacheDesign},
	{"E3", experiments.BranchConditionStats},
	{"E4", experiments.BranchCacheVsStatic},
	{"E5", experiments.CoprocessorSchemes},
	{"E6", experiments.SustainedThroughput},
	{"E7", experiments.VAXComparison},
	{"E8", experiments.ExceptionHandling},
	{"E9", experiments.MemoryBandwidth},
	{"E10", experiments.EcacheAblations},
	{"E11", experiments.MultiprocessorScaling},
}

// childResult is what a child reports to the parent.
type childResult struct {
	// TimedStart is the wall clock (Unix ns) at which the timed phase began;
	// the parent subtracts its own spawn time to get setup_s.
	TimedStart int64 `json:"timed_start_unix_ns"`
	TimedNS    int64 `json:"timed_ns"`
	// Cycles is the simulated cycles the timed phase accounts (replayed
	// cycles on suite-hot).
	Cycles      uint64             `json:"cycles"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Attribution map[string]uint64  `json:"attribution,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Spans       []span             `json:"spans,omitempty"`
}

// check counts one operation, failed unless ok.
func (r *childResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// checkErr counts one operation that failed iff err is non-nil.
func (r *childResult) checkErr(what string, err error) {
	r.check(err == nil, "%s: %v", what, err)
}

type child struct {
	workload string
	seed     int64
	store    string
	gold     *goldens
	spans    *spanRec
	res      *childResult
	t0       time.Time
	mem0     runtime.MemStats
	// traceRunNS is the trace-stream pass's Machine.Run time, which the
	// trace probe compares with the same runs untraced.
	traceRunNS float64
}

func (c *child) startTimed() {
	runtime.ReadMemStats(&c.mem0)
	c.t0 = time.Now()
	c.res.TimedStart = c.t0.UnixNano()
}

// stopTimed ends the timed phase and records the Go runtime's share of it.
func (c *child) stopTimed() {
	c.res.TimedNS = time.Since(c.t0).Nanoseconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.res.Metrics["go.alloc_mb"] = float64(m.TotalAlloc-c.mem0.TotalAlloc) / (1 << 20)
	c.res.Metrics["go.gc_count"] = float64(m.NumGC - c.mem0.NumGC)
	c.res.Metrics["go.gc_pause_ms"] = float64(m.PauseTotalNs-c.mem0.PauseTotalNs) / 1e6
}

// benchOrder returns the 15 tinyc benchmarks in the workload's order: the
// seed permutes the scenario mix and the trace-stream run order; the suite
// workloads use the suite's own order.
func benchOrder(workload string, seed int64) []tinyc.Benchmark {
	bs := tinyc.Benchmarks()
	if workload != wScenario && workload != wTrace {
		return bs
	}
	out := make([]tinyc.Benchmark, len(bs))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(bs)) {
		out[i] = bs[j]
	}
	return out
}

// ---------------------------------------------------------------------------
// suite-cold and suite-hot

func (c *child) runSuite() {
	hot := c.workload == wSuiteHot
	end := c.spans.begin("setup")
	experiments.SetFastTier(true)
	eng := experiments.Configure(1, 0, true)
	st, err := experiments.NewMemoStore(c.store)
	end()
	if err != nil {
		c.res.checkErr("memo store", err)
		return
	}
	eng.Store = st

	c.startTimed()
	endPass := c.spans.begin("pass")
	var tables []*experiments.Table
	var perExp []time.Duration
	tableErr := map[string]error{}
	for _, e := range suiteExps {
		endE := c.spans.begin(e.id)
		t0 := time.Now()
		tb, err := e.fn()
		d := time.Since(t0)
		endE()
		c.res.Metrics["experiments."+e.id+"_ms"] = float64(d) / 1e6
		if err != nil {
			tableErr[e.id] = err
			continue
		}
		tables = append(tables, tb)
		perExp = append(perExp, d)
	}
	endPass()
	c.stopTimed()

	doc := experiments.NewBenchDoc(tables, perExp, time.Duration(c.res.TimedNS), 1, true, true, eng)
	c.res.Cycles = doc.TotalCyclesSimulated
	c.res.Attribution = doc.Attribution

	timings := eng.Timings()
	for _, t := range timings {
		c.res.check(t.Err == "", "cell %s: %s", t.ID, t.Err)
	}
	got := map[string]string{}
	for _, r := range doc.Experiments {
		got[r.ID] = r.Text
	}
	for _, want := range c.gold.bench.Experiments {
		if err := tableErr[want.ID]; err != nil {
			c.res.checkErr(want.ID, err)
			continue
		}
		text, ok := got[want.ID]
		c.res.check(ok && text == want.Text, "%s: table differs from the golden", want.ID)
	}
	c.res.check(doc.TotalCyclesSimulated == c.gold.bench.TotalCyclesSimulated,
		"total_cycles_simulated %d, golden %d", doc.TotalCyclesSimulated, c.gold.bench.TotalCyclesSimulated)
	c.res.check(doc.AttributionConserved, "attribution %d != simulated %d", doc.AttributedCycles, doc.TotalCyclesSimulated)
	if hot {
		c.res.check(eng.MemoMisses() == 0 && eng.MemoHitRate() == 1,
			"hot replay: memo hit ratio %v (%d misses)", eng.MemoHitRate(), eng.MemoMisses())
	}

	m := c.res.Metrics
	m["experiments.cells"] = float64(eng.Cells())
	walls := make([]float64, 0, len(timings))
	var replayNS float64
	var replays int
	for _, t := range timings {
		walls = append(walls, t.WallMS)
		if t.Memo {
			replayNS += t.WallMS * 1e6
			replays++
		}
	}
	m["experiments.cell_ms.p50"] = quantile(walls, 0.50)
	m["experiments.cell_ms.p95"] = quantile(walls, 0.95)
	m["memo.hits"] = float64(eng.MemoHits())
	m["memo.misses"] = float64(eng.MemoMisses())
	m["memo.hit_ratio"] = eng.MemoHitRate()
	if replays > 0 {
		m["memo.replay_us_per_cell"] = replayNS / float64(replays) / 1e3
	}
	entries, bytes := dirUsage(c.store)
	m["memo.entries"] = float64(entries)
	m["memo.store_bytes"] = float64(bytes)
}

// dirUsage counts the regular files under dir and their total size.
func dirUsage(dir string) (files int, bytes int64) {
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}

// ---------------------------------------------------------------------------
// scenario-mp

// scenarioCell is one grid point of the scenario-mp workload.
type scenarioCell struct {
	w      experiments.ScenarioWorkload
	q      int
	policy string
}

func (g scenarioCell) id() string { return fmt.Sprintf("%s/q%d/%s", g.w.Name, g.q, g.policy) }

func scenarioGrid(seed int64) []scenarioCell {
	mix := experiments.ScenarioWorkload{Name: mixName, Benches: benchOrder(wScenario, seed)}
	var cells []scenarioCell
	for _, w := range append(experiments.DefaultScenarioWorkloads(), mix) {
		for _, q := range experiments.DefaultScenarioQuanta {
			for _, p := range []string{spec.PolicyFlush, spec.PolicyPID} {
				cells = append(cells, scenarioCell{w, q, p})
			}
		}
	}
	return cells
}

func (c *child) runScenario() {
	end := c.spans.begin("setup")
	experiments.SetFastTier(true)
	experiments.Configure(1, 0, true)
	grid := scenarioGrid(c.seed)
	end()

	results := make([]*experiments.ScenarioCellResult, len(grid))
	errs := make([]error, len(grid))
	cellMS := make([]float64, len(grid))
	c.startTimed()
	endPass := c.spans.begin("pass")
	for i, g := range grid {
		endCell := c.spans.begin("cell/" + g.id())
		t0 := time.Now()
		doc, err := experiments.ScenarioSweepWindowed(context.Background(),
			[]experiments.ScenarioWorkload{g.w}, []int{g.q}, []string{g.policy}, scenarioWindow)
		cellMS[i] = float64(time.Since(t0)) / 1e6
		endCell()
		if errs[i] = err; err == nil {
			results[i] = &doc.Cells[0]
		}
	}
	endPass()
	c.stopTimed()

	var switches, switchCycles, misses, fetches uint64
	for i, g := range grid {
		if errs[i] != nil {
			c.res.checkErr(g.id(), errs[i])
			continue
		}
		r := &results[i].Result
		c.res.Cycles += r.Cycles
		switches += r.Switches
		switchCycles += r.SwitchCycles
		misses += r.IcacheMisses
		fetches += r.IcacheFetches
		c.res.checkErr(g.id(), c.gold.checkScenarioCell(results[i], c.seed))
	}
	m := c.res.Metrics
	m["scenario.switches"] = float64(switches)
	m["scenario.switch_cycles"] = float64(switchCycles)
	m["scenario.cell_ms"] = quantile(cellMS, 0.5)
	if fetches > 0 {
		m["icache.miss_ratio"] = float64(misses) / float64(fetches)
	}
}

// checkScenarioCell applies every check a scenario cell carries: windowed
// conservation, zero switch charges under pid, the SCENARIO_baseline cells
// for the two default pairs, and golden.json for the mix (the whole cell at
// the default seed, the order-independent per-member results at any seed).
// scenario.Run itself has already verified conservation and each member's
// Expect output.
func (g *goldens) checkScenarioCell(cell *experiments.ScenarioCellResult, seed int64) error {
	r := cell.Result
	if r.Windows == nil {
		return fmt.Errorf("no window time-series")
	}
	if err := r.Windows.Check(); err != nil {
		return err
	}
	if t := r.Windows.Total(); t != r.Cycles {
		return fmt.Errorf("windows hold %d cycles, cell %d", t, r.Cycles)
	}
	attr := r.Obs.Map()
	if cell.Policy == spec.PolicyPID && (attr["context-switch"] != 0 || attr["flush-refill"] != 0) {
		return fmt.Errorf("pid cell charged switch overhead (%d context-switch, %d flush-refill)",
			attr["context-switch"], attr["flush-refill"])
	}
	r.Windows = nil
	if cell.Workload != mixName {
		for i := range g.scenario.Cells {
			b := &g.scenario.Cells[i]
			if b.Workload == cell.Workload && b.Quantum == cell.Quantum && b.Policy == cell.Policy {
				if !reflect.DeepEqual(b.Members, cell.Members) {
					return fmt.Errorf("members %v, golden %v", cell.Members, b.Members)
				}
				return sameJSON(r, b.Result)
			}
		}
		return fmt.Errorf("no golden cell")
	}
	for _, p := range r.Programs {
		want, ok := g.own.MixMembers[p.Name]
		if !ok || want.Instructions != p.Instructions || want.Output != p.Output {
			return fmt.Errorf("member %s: %d instructions, output %q; golden %+v",
				p.Name, p.Instructions, p.Output, want)
		}
	}
	if seed != g.own.DefaultSeed {
		return nil
	}
	for _, want := range g.own.Mix {
		if want.Quantum == cell.Quantum && want.Policy == cell.Policy {
			got := mixCell{Quantum: cell.Quantum, Policy: cell.Policy, Cycles: r.Cycles,
				Switches: r.Switches, Attribution: attr}
			return sameJSON(got, want)
		}
	}
	return fmt.Errorf("no golden mix cell")
}

// sameJSON compares two values by their JSON encodings.
func sameJSON(got, want any) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(a) == string(b) {
		return nil
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	from := max(i-60, 0)
	return fmt.Errorf("differs from the golden at byte %d: got …%s…, want …%s…",
		i, a[from:min(i+20, len(a))], b[from:min(i+20, len(b))])
}

// ---------------------------------------------------------------------------
// trace-stream

// traceConfig is the machine every trace-stream run uses: the default spec
// with the experiment runners' simulator knobs (predecode on, fast tier
// requested; attaching a tracer turns the tier off).
func traceConfig() core.Config {
	cfg, err := spec.Default().Build()
	if err != nil {
		panic(err)
	}
	cfg.Icache.Predecode = true
	cfg.FastTier = true
	return cfg
}

// countingHash hashes and counts the bytes written to it, keeping none.
type countingHash struct {
	h hash.Hash
	n int64
}

func newCountingHash() *countingHash { return &countingHash{h: sha256.New()} }

func (w *countingHash) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *countingHash) digest() string { return hex.EncodeToString(w.h.Sum(nil)) }

// tracedRun is the outcome of one streamed, instruction-traced benchmark run.
type tracedRun struct {
	cycles  uint64
	events  int
	bytes   int64
	dropped uint64
	digest  string
	runNS   int64
}

// traceBench runs one image on a fresh machine with a ledger and a streaming
// instruction tracer, hashing the stream, and checks the run.
func traceBench(b tinyc.Benchmark, im *asm.Image, spans *spanRec) (tracedRun, error) {
	var out tracedRun
	end := spans.begin("load")
	m := core.New(traceConfig(), nil)
	sink := obs.NewMachineSink()
	tr := &obs.Tracer{Instrs: true}
	w := newCountingHash()
	if err := tr.StartStream(w, 0); err != nil {
		end()
		return out, err
	}
	sink.Tracer = tr
	m.Observe(sink)
	m.Load(im)
	end()

	end = spans.begin("run")
	t0 := time.Now()
	cycles, err := runToHalt(m)
	out.runNS = time.Since(t0).Nanoseconds()
	end()

	end = spans.begin("close")
	cerr := tr.CloseStream()
	end()
	out.cycles, out.events, out.bytes, out.dropped, out.digest = cycles, tr.Len(), w.n, tr.Dropped(), w.digest()
	switch {
	case err != nil:
		return out, err
	case cerr != nil:
		return out, fmt.Errorf("close stream: %w", cerr)
	case m.Output() != b.Expect():
		return out, fmt.Errorf("output %q, want %q", m.Output(), b.Expect())
	case out.dropped != 0:
		return out, fmt.Errorf("%d trace events dropped", out.dropped)
	}
	return out, m.VerifyAttribution()
}

// runToHalt runs m in chunks until it halts.
func runToHalt(m *core.Machine) (uint64, error) {
	var total uint64
	for total < runLimit {
		n, err := m.Run(runChunk)
		total += n
		if err == nil {
			return total, nil
		}
		if !errors.Is(err, core.ErrNotHalted) {
			return total, err
		}
	}
	return total, fmt.Errorf("no halt within %d cycles", runLimit)
}

// buildImages builds each benchmark under the default scheme.
func buildImages(benches []tinyc.Benchmark, spans *spanRec) ([]*asm.Image, error) {
	ims := make([]*asm.Image, len(benches))
	for i, b := range benches {
		end := spans.begin("build/" + b.Name)
		im, err := tinyc.Build(b.Source, reorg.Default(), nil)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		ims[i] = im
	}
	return ims, nil
}

func (c *child) runTrace() {
	end := c.spans.begin("setup")
	benches := benchOrder(wTrace, c.seed)
	ims, err := buildImages(benches, c.spans)
	end()
	if err != nil {
		c.res.checkErr("build", err)
		return
	}

	runs := make([]tracedRun, len(benches))
	errs := make([]error, len(benches))
	c.startTimed()
	endPass := c.spans.begin("pass")
	for i, b := range benches {
		endB := c.spans.begin("bench/" + b.Name)
		runs[i], errs[i] = traceBench(b, ims[i], c.spans)
		endB()
	}
	endPass()
	c.stopTimed()

	var events, bytes, dropped uint64
	var runNS int64
	for i, b := range benches {
		r := runs[i]
		c.res.Cycles += r.cycles
		events += uint64(r.events)
		bytes += uint64(r.bytes)
		dropped += r.dropped
		runNS += r.runNS
		err := errs[i]
		if want := c.gold.own.TraceDigests[b.Name]; err == nil && r.digest != want {
			err = fmt.Errorf("stream digest %s, golden %s", r.digest, want)
		}
		c.res.checkErr("trace "+b.Name, err)
	}
	m := c.res.Metrics
	m["obs.trace_events"] = float64(events)
	m["obs.trace_bytes"] = float64(bytes)
	m["obs.dropped_events"] = float64(dropped)
	c.traceRunNS = float64(runNS)
}

// ---------------------------------------------------------------------------

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
