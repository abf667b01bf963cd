// Command perfbench is the repository's benchmark: it runs one workload of
// the MIPS-X reproduction for a fixed time, checks every output against the
// golden documents, and prints its metrics by name and unit. See README.md
// for the workloads, the metrics and what each layer metric should move.
//
//	perfbench --workload suite-cold --seed 1 --seconds 25 --trace 0
//
// Every run of a workload executes in a fresh child process of this binary,
// one at a time, so the program's per-process caches start empty as they do
// for a user. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run also writes
// its layer document (spans with self times, tracing overhead) under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// roleEnv marks a process started by the parent as a child run.
const roleEnv = "PERFBENCH_ROLE"

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports: medians over its runs.
var endToEnd = []metricDef{
	{"ns_per_cycle", "ns"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"pass_ratio", "ratio"},
}

// perLayer are the metrics a --trace 1 run reports: medians over its
// traced iterations.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"experiments.cells", "count"},
		{"experiments.cell_ms.p50", "ms"},
		{"experiments.cell_ms.p95", "ms"},
	}
	for _, e := range suiteExps {
		ms = append(ms, metricDef{"experiments." + e.id + "_ms", "ms"})
	}
	return append(ms, []metricDef{
		{"memo.hits", "count"},
		{"memo.misses", "count"},
		{"memo.hit_ratio", "ratio"},
		{"memo.entries", "count"},
		{"memo.store_bytes", "bytes"},
		{"memo.replay_us_per_cell", "us"},
		{"tinyc.build_us", "us"},
		{"tinyc.compile_us", "us"},
		{"asm.assemble_us", "us"},
		{"lint.check_us", "us"},
		{"lint.cost_us", "us"},
		{"pipeline.interp_ns_per_cycle", "ns"},
		{"pipeline.fast_ns_per_cycle", "ns"},
		{"pipeline.fast_engagement", "ratio"},
		{"pipeline.fast_instrs_per_entry", "count"},
		{"core.load_us", "us"},
		{"icache.fetch_ns", "ns"},
		{"icache.fetch_decoded_ns", "ns"},
		{"icache.miss_ratio", "ratio"},
		{"ecache.read_ns", "ns"},
		{"ecache.miss_ratio", "ratio"},
		{"obs.ledger_ns_per_cycle", "ns"},
		{"obs.window_ns_per_cycle", "ns"},
		{"obs.trace_events", "count"},
		{"obs.trace_bytes", "bytes"},
		{"obs.trace_ns_per_event", "ns"},
		{"obs.dropped_events", "count"},
		{"scenario.switches", "count"},
		{"scenario.switch_cycles", "cycles"},
		{"scenario.cell_ms", "ms"},
		{"trace.synth_ns_per_ref", "ns"},
		{"go.alloc_mb", "MB"},
		{"go.gc_count", "count"},
		{"go.gc_pause_ms", "ms"},
		{"ratio.fast_vs_interp", "ratio"},
		{"ratio.hot_vs_cold", "ratio"},
		{"ratio.trace_vs_untraced", "ratio"},
		{"ratio.fetch_decoded_vs_fetch", "ratio"},
		{"calib.ns", "ns"},
		{"failed_ratio", "ratio"},
		{"spans.overhead_ms", "ms"},
	}...)
}()

// config is the command line shared by parent and child.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	gold     goldenPaths
	// child-only
	store  string
	traced bool
}

func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: suite-cold, suite-hot, scenario-mp or trace-stream")
	fs.Int64Var(&c.seed, "seed", defaultSeed, "workload seed (orders the scenario mix and the trace-stream runs)")
	fs.IntVar(&c.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&c.out, "out", ".bench_build/perfbench", "directory for memo stores and layer documents")
	fs.StringVar(&c.gold.bench, "bench-golden", "BENCH_baseline.json", "golden suite document")
	fs.StringVar(&c.gold.scenario, "scenario-golden", "SCENARIO_baseline.json", "golden scenario document")
	fs.StringVar(&c.gold.own, "golden", "perfbench/golden.json", "the benchmark's own golden document")
	fs.StringVar(&c.store, "store", "", "child: memo store directory")
	fs.BoolVar(&c.traced, "traced", false, "child: record spans and run the layer probes")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return c, nil
}

func main() {
	if os.Getenv(roleEnv) == "child" {
		os.Exit(childMain(os.Args[1:]))
	}
	if len(os.Args) == 2 && os.Args[1] == "-record-golden" {
		os.Exit(recordGoldenMain())
	}
	os.Exit(parentMain(os.Args[1:]))
}

// childMain runs one workload pass and prints its childResult.
func childMain(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 2
	}
	spans := newSpanRec(cfg.traced)
	gold, err := loadGoldens(cfg.gold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 2
	}
	c := &child{
		workload: cfg.workload,
		seed:     cfg.seed,
		store:    cfg.store,
		gold:     gold,
		spans:    spans,
		res:      &childResult{Metrics: map[string]float64{}},
	}
	end := spans.begin("workload/" + cfg.workload)
	switch cfg.workload {
	case wSuiteCold, wSuiteHot:
		c.runSuite()
	case wScenario:
		c.runScenario()
	case wTrace:
		c.runTrace()
	default:
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.traced {
		c.runProbes()
	}
	end()
	c.res.Spans = spans.finish()
	if err := json.NewEncoder(os.Stdout).Encode(c.res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

// recordGoldenMain prints a fresh golden.json for the current program.
func recordGoldenMain() int {
	g, err := recordGolden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: -record-golden: %v\n", err)
		return 1
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: -record-golden: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}
