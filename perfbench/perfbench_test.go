package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the children the parent spawns.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "child" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchConfig is a one-second run of workload over the repository's goldens.
func benchConfig(t *testing.T, workload string, trace int) *config {
	t.Helper()
	return &config{
		workload: workload,
		seed:     defaultSeed,
		seconds:  1,
		trace:    trace,
		out:      t.TempDir(),
		gold: goldenPaths{
			bench:    "../BENCH_baseline.json",
			scenario: "../SCENARIO_baseline.json",
			own:      "golden.json",
		},
	}
}

func run(t *testing.T, cfg *config) *result {
	t.Helper()
	res, err := runBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// corrupt writes a copy of path with the first occurrence of old replaced.
func corrupt(t *testing.T, path, old, new string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, old) {
		t.Fatalf("%s does not contain %q", path, old)
	}
	out := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.WriteFile(out, []byte(strings.Replace(s, old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// A corrupted golden must surface as failed operations, never as a pass.
func TestCorruptedGoldenFails(t *testing.T) {
	t.Run("scenario", func(t *testing.T) {
		cfg := benchConfig(t, wScenario, 1)
		cfg.gold.scenario = corrupt(t, cfg.gold.scenario, `"cycles": 86377`, `"cycles": 86378`)
		res := run(t, cfg)
		if res.Correct || res.Failed == 0 || res.Metrics["failed_ratio"].Value <= 0 {
			t.Fatalf("corrupted scenario golden: correct=%v failed=%d failed_ratio=%v",
				res.Correct, res.Failed, res.Metrics["failed_ratio"].Value)
		}
	})
	t.Run("suite", func(t *testing.T) {
		cfg := benchConfig(t, wSuiteCold, 0)
		cfg.gold.bench = corrupt(t, cfg.gold.bench, `Table 1)\n  paper`, `Table 1)\n  Paper`)
		res := run(t, cfg)
		if res.Correct || res.Failed == 0 || res.Metrics["pass_ratio"].Value >= 1 {
			t.Fatalf("corrupted suite golden: correct=%v failed=%d pass_ratio=%v",
				res.Correct, res.Failed, res.Metrics["pass_ratio"].Value)
		}
	})
}

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSelfCheck runs the benchmark briefly in both modes and checks that
// every metric BENCHMARK.json names is emitted with its unit, that names are
// well formed, and that the traced run's spans nest with non-negative self
// times.
func TestSelfCheck(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}

	check := func(res *result, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		t.Helper()
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("run not correct: attempted %d, failed %d", res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("malformed metric %q unit %q", m.Name, m.Unit)
			}
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: emitted %v with unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
			}
		}
	}

	cfg := benchConfig(t, wScenario, 0)
	check(run(t, cfg), bj.EndToEnd)

	cfg = benchConfig(t, wScenario, 1)
	check(run(t, cfg), bj.PerLayer)
	b, err = os.ReadFile(filepath.Join(cfg.out, "layers-scenario-mp-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc layerDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || doc.Spans[0].Parent != -1 {
		t.Fatalf("layer document has no root span")
	}
	lastEnd := map[int]int64{} // parent → end of its latest child
	for _, s := range doc.Spans {
		if s.SelfNS < 0 || s.EndNS < s.StartNS {
			t.Errorf("span %s: start %d end %d self %d", s.Name, s.StartNS, s.EndNS, s.SelfNS)
		}
		if s.Parent < 0 {
			continue
		}
		p := doc.Spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %s [%d,%d] outside parent %s [%d,%d]", s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
		if s.StartNS < lastEnd[s.Parent] {
			t.Errorf("span %s overlaps its previous sibling", s.Name)
		}
		lastEnd[s.Parent] = s.EndNS
	}
}

// TestEveryWorkloadPasses runs each workload once against the goldens.
func TestEveryWorkloadPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := run(t, benchConfig(t, w, 0))
			if !res.Correct || res.Metrics["ns_per_cycle"].Value <= 0 {
				t.Fatalf("%s: %+v", w, res)
			}
		})
	}
}

func TestSpanSelfTimes(t *testing.T) {
	r := newSpanRec(true)
	endA := r.begin("a")
	endB := r.begin("b")
	endB()
	endC := r.begin("c")
	endC()
	endA()
	spans := r.finish()
	a, b, c := spans[0], spans[1], spans[2]
	if b.Parent != 0 || c.Parent != 0 || a.Parent != -1 {
		t.Fatalf("parents: %+v", spans)
	}
	if want := (a.EndNS - a.StartNS) - (b.EndNS - b.StartNS) - (c.EndNS - c.StartNS); a.SelfNS != want {
		t.Fatalf("self %d, want %d", a.SelfNS, want)
	}
	off := newSpanRec(false)
	off.begin("x")()
	if len(off.finish()) != 0 {
		t.Fatalf("disabled recorder kept spans")
	}
}
