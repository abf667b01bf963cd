package scenario_test

// The scenario differential wall: contexts run on the compiled fast tier by
// default, sharing one self-modification watch per host, and that must be
// invisible. Every cell of the default E12 grid plus a 15-benchmark mix, at
// both quanta and both Icache policies, windowless and windowed, runs with
// the contexts' tier off (the cycle-accurate reference) and on; the two
// scenario.Result documents — programs, outputs, cycles, switches, the
// shared ledger and every window — must be byte-identical JSON. `make
// fast-gate` runs it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/reorg"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

func TestFastTierInvisibleAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario grid in -short mode")
	}
	workloads := append(experiments.DefaultScenarioWorkloads(),
		experiments.ScenarioWorkload{Name: "mix15", Benches: tinyc.Benchmarks()})
	scheme := reorg.Default()
	var fastSteps, instrs uint64
	for _, w := range workloads {
		var progs []scenario.Program
		for _, b := range w.Benches {
			progs = append(progs, scenario.Program{Name: b.Name, Source: b.Source, Expect: b.Expect()})
		}
		for _, q := range experiments.DefaultScenarioQuanta {
			for _, pol := range []string{spec.PolicyFlush, spec.PolicyPID} {
				for _, window := range []int{0, 4096} {
					scn := spec.DefaultScenario()
					scn.Quantum, scn.Policy, scn.Window = q, pol, window
					ms := spec.Default()
					ms.Scenario = &scn
					t.Run(fmt.Sprintf("%s/q%d/%s/w%d", w.Name, q, pol, window), func(t *testing.T) {
						doc := func(fastTier bool) ([]byte, *scenario.Result, uint64) {
							r, steps, err := scenario.RunTiered(progs, scheme, ms, scenario.RunOpts{}, fastTier)
							if err != nil {
								t.Fatalf("fast=%v: %v", fastTier, err)
							}
							b, err := json.Marshal(r)
							if err != nil {
								t.Fatal(err)
							}
							return b, r, steps
						}
						ref, _, refSteps := doc(false)
						got, r, steps := doc(true)
						if refSteps != 0 {
							t.Errorf("reference run retired %d instructions through the fast tier", refSteps)
						}
						if steps == 0 {
							t.Error("fast tier never engaged on any context — differential is vacuous")
						}
						if !bytes.Equal(ref, got) {
							t.Errorf("scenario result diverged with the fast tier on:\naccurate %s\nfast     %s", ref, got)
						}
						if window > 0 && r.Windows == nil {
							t.Error("windowed run carried no windows")
						}
						fastSteps += steps
						instrs += r.Instructions
					})
				}
			}
		}
	}
	if instrs > 0 {
		t.Logf("fast tier retired %d of %d scenario instructions (%.1f%%)",
			fastSteps, instrs, 100*float64(fastSteps)/float64(instrs))
	}
}
