// Command mipsx-explore sweeps the machine-spec design space and reports
// the Pareto frontier over (CPI, Icache area in bits, static code size) —
// Table 1 generalized from one axis to any spec field, with each point's
// cycle-attribution decomposition explaining its shape.
//
// A sweep is a base machine spec plus axes; each axis names a spec field by
// its JSON path ("icache.sets", "ecache.repl", "bus.latency", or the
// virtual "scheme") and the values to sweep. Points fan out through the
// same content-addressed experiment engine as mipsx-bench, so sweeps share
// cached simulations with the experiment tables and with earlier sweeps.
//
// Usage:
//
//	mipsx-explore                              # the Table 1 scheme axis
//	mipsx-explore -axis icache.sets=2,4,8 -axis icache.fetch_back=1,2,4
//	mipsx-explore -axis scheme=2/optional,1/none -benches fib,sieve
//	mipsx-explore -sweep sweep.json -json      # sweep definition from a file
//	mipsx-explore -cache .benchcache           # share mipsx-bench's cache
//	mipsx-explore -check EXPLORE_baseline.json # fail on any drift
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// prof serves the -cpuprofile and -memprofile flags.
var prof = obs.ProfileFlags(flag.CommandLine)

func main() {
	sweepPath := flag.String("sweep", "", "sweep definition JSON ({\"base\": <spec>, \"axes\": [...]})")
	basePath := flag.String("base", "", "machine-spec JSON for the sweep's base point (default: the machine as built)")
	var axes []spec.Axis
	flag.Func("axis", "swept axis as path=v1,v2,... (repeatable; e.g. icache.sets=2,4,8 or scheme=2/optional,1/none)",
		func(s string) error {
			ax, err := spec.ParseAxis(s)
			if err != nil {
				return err
			}
			axes = append(axes, ax)
			return nil
		})
	benchList := flag.String("benches", "", "comma-separated tinyc benchmark names (default: the Table 1 integer suite)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for sweep cells (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock budget (0 = none)")
	cacheDir := flag.String("cache", "", "directory backing the content-addressed result cache (empty = in-memory only)")
	progress := flag.Bool("progress", false, "print live progress to stderr")
	jsonOut := flag.Bool("json", false, "emit the mipsx-explore/v1 JSON document on stdout instead of tables")
	check := flag.String("check", "", "baseline JSON document; exit 1 if the sweep's document differs")
	flag.Parse()
	prof.Start()
	defer prof.Stop()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mipsx-explore [flags]")
		prof.Exit(2)
	}

	sw, err := loadSweep(*sweepPath, *basePath, axes)
	if err != nil {
		fail(err)
	}
	benches, err := pickBenches(*benchList)
	if err != nil {
		fail(err)
	}

	eng := experiments.Configure(*parallel, *timeout, false)
	store, err := experiments.NewMemoStore(*cacheDir)
	if err != nil {
		fail(err)
	}
	eng.Store = store
	if *progress {
		eng.Progress = os.Stderr
	}

	doc, err := experiments.Explore(context.Background(), sw, benches)
	if err != nil {
		fail(err)
	}
	eng.FlushProgress()
	fmt.Fprintf(os.Stderr, "mipsx-explore: %d points (%d on the frontier), memo hits %d of %d lookups\n",
		len(doc.Points), doc.FrontierSize, eng.MemoHits(), eng.MemoHits()+eng.MemoMisses())

	if *check != "" {
		want, err := os.ReadFile(*check)
		if err != nil {
			fail(err)
		}
		got, err := doc.Marshal()
		if err != nil {
			fail(err)
		}
		if string(want) != string(got) {
			fmt.Fprintf(os.Stderr, "mipsx-explore: document drifted from %s\n--- baseline ---\n%s--- current ---\n%s",
				*check, want, got)
			prof.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mipsx-explore: document matches %s\n", *check)
	}

	if *jsonOut {
		b, err := doc.Marshal()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}
	if *check == "" {
		fmt.Println(experiments.PointsTable(doc))
		fmt.Println(experiments.FrontierTable(doc))
	}
}

// loadSweep assembles the sweep from -sweep, -base and -axis (later sources
// layer over the file: -base replaces the file's base, -axis appends). With
// nothing given, the sweep is the Table 1 branch-scheme axis.
func loadSweep(sweepPath, basePath string, axes []spec.Axis) (spec.Sweep, error) {
	var sw spec.Sweep
	if sweepPath != "" {
		b, err := os.ReadFile(sweepPath)
		if err != nil {
			return sw, err
		}
		if sw, err = spec.ParseSweep(b); err != nil {
			return sw, err
		}
	}
	if basePath != "" {
		b, err := os.ReadFile(basePath)
		if err != nil {
			return sw, err
		}
		ms, err := spec.Parse(b)
		if err != nil {
			return sw, err
		}
		sw.Base = &ms
	}
	sw.Axes = append(sw.Axes, axes...)
	if len(sw.Axes) == 0 {
		// The default sweep is the paper's own: Table 1's six branch schemes.
		sw.Axes = []spec.Axis{spec.Table1Axis()}
	}
	return sw, nil
}

// pickBenches resolves a comma-separated benchmark list against the tinyc
// suite; empty means the Table 1 integer suite (Explore's default).
func pickBenches(list string) ([]tinyc.Benchmark, error) {
	if list == "" {
		return nil, nil
	}
	byName := make(map[string]tinyc.Benchmark)
	var names []string
	for _, b := range tinyc.Benchmarks() {
		byName[b.Name] = b
		names = append(names, b.Name)
	}
	var out []tinyc.Benchmark
	for _, name := range strings.Split(list, ",") {
		b, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, b)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mipsx-explore:", err)
	prof.Exit(1)
}
