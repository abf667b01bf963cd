package main

// The parent side: runs children one at a time for --seconds, aggregates
// their samples into medians, counts operations, and prints the result line.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hotReplays is how many fresh-process replays suite-hot makes per store it
// fills.
const hotReplays = 3

type parent struct {
	cfg      *config
	self     string
	deadline time.Time
	stores   int
	clock    *hostClock

	attempted, failed int
	failures          []string
}

// sample is one finished child.
type sample struct {
	res *childResult
	// setupNS is spawn to the start of the timed phase; wallNS spawn to exit.
	setupNS, wallNS int64
	rssMB           float64
	// burstNS is the host's speed over the child: the mean of the host
	// clock's measurements just before and just after it (hostspeed.go).
	burstNS float64
}

// atRef scales a host time the child measured to the reference host speed.
func (s *sample) atRef(ns int64) float64 { return float64(ns) * refBurstNS / s.burstNS }

// result is the line a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parentMain(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// runBenchmark runs the configured workload and returns its result. An
// error means no result: bad arguments, missing golden documents, or no run
// completing at all.
func runBenchmark(cfg *config) (*result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return nil, fmt.Errorf("need --workload %v, --seconds ≥ 1 and --trace 0|1", workloadNames)
	}
	// Fail before any run when the golden documents are missing or
	// unreadable: there is nothing to check outputs against.
	if _, err := loadGoldens(cfg.gold); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "stores"), 0o755); err != nil {
		return nil, err
	}
	p := &parent{cfg: cfg, self: self, clock: newHostClock(),
		deadline: time.Now().Add(time.Duration(cfg.seconds) * time.Second)}
	var metrics map[string]float64
	if cfg.trace == 1 {
		metrics, err = p.runTraced()
	} else {
		metrics, err = p.runTimed()
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	res := &result{Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			p.count(false, "metric %s was not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	for i, f := range p.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(p.failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}
	res.Attempted, res.Failed, res.Correct = p.attempted, p.failed, p.failed == 0
	return res, nil
}

func (p *parent) expired() bool { return !time.Now().Before(p.deadline) }

// count records one parent-side operation.
func (p *parent) count(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// newStore names a fresh memo store directory under -out.
func (p *parent) newStore() string {
	p.stores++
	return filepath.Join(p.cfg.out, "stores", fmt.Sprintf("%d-%d", os.Getpid(), p.stores))
}

// spawn runs one child to completion and folds its operations into the
// run's counts. A child that crashes or prints no result counts as one
// failed operation and returns nil.
func (p *parent) spawn(workload, store string, traced bool) *sample {
	c := p.cfg
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-bench-golden", c.gold.bench, "-scenario-golden", c.gold.scenario, "-golden", c.gold.own}
	if store != "" {
		args = append(args, "-store", store)
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(p.self, args...)
	cmd.Env = append(os.Environ(), roleEnv+"=child")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	before := p.clock.last
	spawn := time.Now()
	err := cmd.Run()
	wall := time.Since(spawn)
	after := p.clock.measure()
	if err != nil {
		p.count(false, "%s child: %v", workload, err)
		return nil
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		p.count(false, "%s child: bad result: %v", workload, err)
		return nil
	}
	p.attempted += res.Attempted
	p.failed += res.Failed
	for _, f := range res.Failures {
		p.failures = append(p.failures, workload+": "+f)
	}
	s := &sample{res: &res, setupNS: res.TimedStart - spawn.UnixNano(), wallNS: wall.Nanoseconds(),
		burstNS: (before + after) / 2}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s
}

// checkSameAttribution counts the suite-hot check that a replay accounts
// exactly the cold pass's attribution.
func (p *parent) checkSameAttribution(cold, hot *sample) {
	p.count(reflect.DeepEqual(cold.res.Attribution, hot.res.Attribution),
		"suite-hot attribution differs from the cold pass that filled its store")
}

// runTimed is a --trace 0 run: untraced children until the time is up.
func (p *parent) runTimed() (map[string]float64, error) {
	var nsPerCycle, rawNSPerCycle, burstMS, rss, setup []float64
	// timed reports whether s ran its timed phase; a child that failed
	// before it has already counted the failure.
	timed := func(s *sample) bool { return s != nil && s.res.Cycles > 0 }
	add := func(s *sample) {
		nsPerCycle = append(nsPerCycle, s.atRef(s.res.TimedNS)/float64(s.res.Cycles))
		rawNSPerCycle = append(rawNSPerCycle, float64(s.res.TimedNS)/float64(s.res.Cycles))
		burstMS = append(burstMS, s.burstNS/1e6)
		rss = append(rss, s.rssMB)
	}
	for tries := 0; tries == 0 || !p.expired(); tries++ {
		if p.cfg.workload == wSuiteHot {
			store := p.newStore()
			fill := p.spawn(wSuiteCold, store, false)
			for k := 0; timed(fill) && k < hotReplays; k++ {
				hot := p.spawn(wSuiteHot, store, false)
				if !timed(hot) {
					break
				}
				p.checkSameAttribution(fill, hot)
				add(hot)
				if k == 0 {
					setup = append(setup, (fill.atRef(fill.wallNS)+hot.atRef(hot.setupNS))/1e9)
				}
				if p.expired() {
					break
				}
			}
			os.RemoveAll(store)
			continue
		}
		store := ""
		if p.cfg.workload == wSuiteCold {
			store = p.newStore()
		}
		s := p.spawn(p.cfg.workload, store, false)
		if store != "" {
			os.RemoveAll(store)
		}
		if !timed(s) {
			continue
		}
		add(s)
		setup = append(setup, s.atRef(s.setupNS)/1e9)
	}
	if len(nsPerCycle) == 0 {
		return nil, fmt.Errorf("%s: no run completed", p.cfg.workload)
	}
	report := func(name string, xs []float64) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: median %.6g, quartiles %.6g–%.6g, n=%d\n",
			p.cfg.workload, name, quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	report("ns_per_cycle", nsPerCycle)
	report("unscaled ns_per_cycle", rawNSPerCycle)
	report("host burst_ms", burstMS)
	report("peak_rss_mb", rss)
	report("setup_s", setup)
	return map[string]float64{
		"ns_per_cycle": quantile(nsPerCycle, 0.5),
		"peak_rss_mb":  quantile(rss, 0.5),
		"setup_s":      quantile(setup, 0.5),
		"pass_ratio":   1 - float64(p.failed)/float64(max(p.attempted, 1)),
	}, nil
}

// layerDoc is the traced run's per-layer document.
type layerDoc struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// UntracedMS and TracedMS are the timed phases of the last iteration's
	// untraced and traced runs; OverheadMS is their difference, the cost of
	// recording spans (the traced run's probes come after its timed phase).
	UntracedMS float64 `json:"untraced_ms"`
	TracedMS   float64 `json:"traced_ms"`
	OverheadMS float64 `json:"overhead_ms"`
	// Metrics are the medians over Iterations traced iterations.
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// SelfMS sums the last traced run's span self times by span name.
	SelfMS map[string]float64 `json:"self_ms"`
	Spans  []span             `json:"spans"`
}

// runTraced is a --trace 1 run. Each iteration runs the suite cold and hot
// (fresh processes over one store: the engine and memo numbers, hot vs
// cold), the workload untraced, and the workload traced with the layer
// probes; it repeats until the time is up.
func (p *parent) runTraced() (map[string]float64, error) {
	w := p.cfg.workload
	samples := map[string][]float64{}
	var doc *layerDoc
	iterations := 0
	for tries := 0; tries == 0 || !p.expired(); tries++ {
		store := p.newStore()
		cold := p.spawn(wSuiteCold, store, false)
		var hot *sample
		if cold != nil {
			hot = p.spawn(wSuiteHot, store, false)
		}
		if hot != nil {
			p.checkSameAttribution(cold, hot)
		}
		untraced, tracedStore := cold, ""
		switch w {
		case wSuiteCold:
			tracedStore = p.newStore()
		case wSuiteHot:
			untraced, tracedStore = hot, store
		default:
			untraced = p.spawn(w, "", false)
		}
		var traced *sample
		if untraced != nil {
			traced = p.spawn(w, tracedStore, true)
		}
		os.RemoveAll(store)
		if tracedStore != "" {
			os.RemoveAll(tracedStore)
		}
		if cold == nil || hot == nil || traced == nil {
			continue
		}
		iterations++

		m := map[string]float64{}
		for k, v := range traced.res.Metrics {
			m[k] = v
		}
		engine := cold
		if w == wSuiteHot {
			engine = hot
		}
		for k, v := range engine.res.Metrics {
			if strings.HasPrefix(k, "experiments.") || strings.HasPrefix(k, "memo.") {
				m[k] = v
			}
		}
		m["ratio.hot_vs_cold"] = float64(hot.res.TimedNS) / float64(cold.res.TimedNS)
		overhead := float64(traced.res.TimedNS-untraced.res.TimedNS) / 1e6
		m["spans.overhead_ms"] = overhead
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
		doc = &layerDoc{
			Schema:     "perfbench-layers/v1",
			Workload:   w,
			Seed:       p.cfg.seed,
			UntracedMS: float64(untraced.res.TimedNS) / 1e6,
			TracedMS:   float64(traced.res.TimedNS) / 1e6,
			OverheadMS: overhead,
			SelfMS:     map[string]float64{},
			Spans:      traced.res.Spans,
		}
		for _, s := range traced.res.Spans {
			doc.SelfMS[s.Name] += float64(s.SelfNS) / 1e6
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("%s: no traced iteration completed", w)
	}
	metrics := map[string]float64{}
	for k, xs := range samples {
		metrics[k] = quantile(xs, 0.5)
	}
	doc.Iterations = iterations
	metrics["failed_ratio"] = float64(p.failed) / float64(max(p.attempted, 1))
	doc.Metrics = metrics
	path := filepath.Join(p.cfg.out, fmt.Sprintf("layers-%s-seed%d.json", w, p.cfg.seed))
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(doc.SelfMS))
	for n := range doc.SelfMS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return doc.SelfMS[names[i]] > doc.SelfMS[names[j]] })
	for i, n := range names {
		if i == 8 {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: self %-40s %10.1f ms\n", n, doc.SelfMS[n])
	}
	fmt.Fprintf(os.Stderr, "perfbench: layer document %s (span overhead %.1f ms on %.1f ms)\n",
		path, doc.OverheadMS, doc.UntracedMS)
	return metrics, nil
}
