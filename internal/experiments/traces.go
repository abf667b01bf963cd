package experiments

// Content-addressed trace artifacts and the memoized cells of the
// trace-driven experiments (E2, E4, E6, E10). A synthesized trace is a
// deterministic function of its SynthConfig and reference count — for
// composites, of the member configs and the interleave quantum — so a
// trace's identity is the framed hash of that closure, and the stream
// itself (delta/varint-encoded, see internal/trace/artifact.go) is stored
// under that key in the engine's MemoStore as the entry's raw payload.
// The sweeps downstream of a trace key on the trace's identity plus their
// cache/scheme parameters, so a hot run replays every trace-driven cell
// without synthesizing a single reference.

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/ecache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/trace"
)

// synthSpec is one synthesized trace's input closure: the generator config
// and the reference count.
type synthSpec struct {
	Cfg  trace.SynthConfig
	Refs int
}

func (sp synthSpec) key() string {
	return newKey("synth-trace").synth("synth", sp.Cfg, sp.Refs).sum()
}

// traceSpec is the input closure of a possibly-composite trace: one member
// and quantum 0 for a plain synthesized stream, several members for a
// multiprogrammed interleave (the Smith-survey methodology E6/E10 use).
type traceSpec struct {
	Members []synthSpec
	Quantum int
}

func synthTrace(cfg trace.SynthConfig, refs int) traceSpec {
	return traceSpec{Members: []synthSpec{{Cfg: cfg, Refs: refs}}}
}

func (ts traceSpec) composite() bool { return len(ts.Members) > 1 || ts.Quantum != 0 }

// key is the trace's content identity. A composite folds the quantum and
// every member's full closure; a single member's identity is its own, so
// the same stream reached directly or as a one-member "composite" never
// stores twice.
func (ts traceSpec) key() string {
	if !ts.composite() {
		return ts.Members[0].key()
	}
	k := newKey("interleave-trace")
	k.num("quantum", uint64(ts.Quantum))
	k.num("members", uint64(len(ts.Members)))
	for i, m := range ts.Members {
		k.synth(fmt.Sprintf("member[%d]", i), m.Cfg, m.Refs)
	}
	return k.sum()
}

// traceMemo is the CellMemo contract shared by every trace cell: the
// payload is the exact address stream in its varint delta encoding (the
// entry's checksum and length guard it, so the decode is the only check a
// replay needs).
func traceMemo(key string, out *[]isa.Word) *CellMemo {
	return &CellMemo{
		Key:  func() (string, error) { return key, nil },
		Save: func() ([]byte, error) { return trace.EncodeAddrs(*out), nil },
		Load: func(data []byte) error {
			tr, err := trace.DecodeAddrs(data)
			if err != nil {
				return err
			}
			*out = tr
			return nil
		},
	}
}

// cell builds the memoized cell that materializes the trace into *out. A
// composite fans out one nested memoized cell per member, so members are
// first-class artifacts shared with any experiment using them directly.
func (ts traceSpec) cell(id string, out *[]isa.Word) Cell {
	if !ts.composite() {
		sp := ts.Members[0]
		return Cell{
			ID: id,
			Fn: func(context.Context) error {
				*out = trace.NewSynthesizer(sp.Cfg).Generate(sp.Refs)
				return nil
			},
			Memo: traceMemo(sp.key(), out),
		}
	}
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			parts := make([][]isa.Word, len(ts.Members))
			cells := make([]Cell, len(ts.Members))
			for i := range ts.Members {
				cells[i] = synthTrace(ts.Members[i].Cfg, ts.Members[i].Refs).
					cell(fmt.Sprintf("%s/member[%d]", id, i), &parts[i])
			}
			if err := DefaultEngine().Run(ctx, cells); err != nil {
				return err
			}
			tr, err := trace.Interleave(parts, ts.Quantum)
			if err != nil {
				return err
			}
			*out = tr
			return nil
		},
		Memo: traceMemo(ts.key(), out),
	}
}

// materialize returns a lazy accessor that runs the trace cell on demand —
// for derived cells that own their trace exclusively, so a replay of the
// derived cell skips materialization entirely.
func (ts traceSpec) materialize(id string) func(ctx context.Context) ([]isa.Word, error) {
	return func(ctx context.Context) ([]isa.Word, error) {
		var tr []isa.Word
		if err := DefaultEngine().Run(ctx, []Cell{ts.cell(id, &tr)}); err != nil {
			return nil, err
		}
		return tr, nil
	}
}

// shared wraps an already-materialized trace (an earlier cell stage's
// output) as the accessor derived cells take.
func shared(tr *[]isa.Word) func(ctx context.Context) ([]isa.Word, error) {
	return func(context.Context) ([]isa.Word, error) { return *tr, nil }
}

// ---------------------------------------------------------------------------
// Derived sweeps: memoized cells keyed on (trace identity × parameters).

// fetchCost is the serializable result of an Icache sweep over a trace.
type fetchCost struct {
	Miss   float64 `json:"miss"`
	Cycles float64 `json:"cycles"`
}

// icacheCostCell sweeps a trace through an Icache organization (E2's
// design grid, E6's large-program fetch stalls — identical closures hash
// identically, so the two experiments share cells). The organization is an
// Icache sub-spec; its digest is the key's configuration material.
func icacheCostCell(id string, ts traceSpec, ic spec.ICacheSpec,
	src func(ctx context.Context) ([]isa.Word, error), out *fetchCost) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			tr, err := src(ctx)
			if err != nil {
				return err
			}
			out.Miss, out.Cycles = icacheCost(ic, tr)
			return nil
		},
		Memo: jsonMemo(func() (string, error) {
			k := newKey("icache-cost")
			k.str("trace", ts.key())
			k.str("icache-spec", ic.Digest())
			return k.sum(), nil
		}, out),
	}
}

// ecacheSweep is the serializable result of an Ecache sweep over a trace.
type ecacheSweep struct {
	MissRatio float64 `json:"miss_ratio"`
	// StallPerRef is the Ecache stall cycles per access (E6's per-reference
	// data-stall estimate).
	StallPerRef float64 `json:"stall_per_ref"`
	// BusPerKiloRef is bus words carried per 1000 references (E10's traffic
	// column).
	BusPerKiloRef float64 `json:"bus_per_kilo_ref"`
}

// ecacheSweepCell sweeps a trace through an Ecache organization (a
// sub-spec, digested into the key) over the default bus, optionally turning
// every fifth reference into a write (the 20% write mix of the write-policy
// ablations). The write mix's shape is generator semantics, covered by
// memoEpoch like the synthesizers'.
func ecacheSweepCell(id string, ts traceSpec, ec spec.ECacheSpec, writes bool,
	src func(ctx context.Context) ([]isa.Word, error), out *ecacheSweep) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			tr, err := src(ctx)
			if err != nil {
				return err
			}
			m := mem.New()
			bus := mem.DefaultBus()
			e := ecache.New(ec.BuildECache(), m, bus)
			for k, a := range tr {
				if writes && k%5 == 0 {
					e.Write(a, 1)
				} else {
					e.Read(a)
				}
			}
			out.MissRatio = e.Stats.MissRatio()
			out.StallPerRef = float64(e.Stats.StallCycles) / float64(e.Stats.Accesses())
			out.BusPerKiloRef = 1000 * float64(bus.WordsCarried) / float64(len(tr))
			return nil
		},
		Memo: jsonMemo(func() (string, error) {
			bus := mem.DefaultBus()
			k := newKey("ecache-sweep")
			k.str("trace", ts.key())
			k.str("ecache-spec", ec.Digest())
			k.str("bus", fmt.Sprintf("%d/%d", bus.Latency, bus.PerWord))
			k.num("writes", boolBit(writes))
			return k.sum(), nil
		}, out),
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Branch-stream artifacts and predictor evaluation (E4).

// branchMemo is the CellMemo contract of a branch-stream cell: the payload
// is the stream's varint encoding (trace.EncodeBranches).
func branchMemo(key func() (string, error), out *[]trace.BranchEvent) *CellMemo {
	return &CellMemo{
		Key:  key,
		Save: func() ([]byte, error) { return trace.EncodeBranches(*out), nil },
		Load: func(data []byte) error {
			evs, err := trace.DecodeBranches(data)
			if err != nil {
				return err
			}
			*out = evs
			return nil
		},
	}
}

// synthBranchCell materializes the synthetic large-program branch stream as
// a content-addressed artifact keyed on its generator parameters.
func synthBranchCell(id string, n, sites int, seed int64, out *[]trace.BranchEvent) Cell {
	return Cell{
		ID: id,
		Fn: func(context.Context) error {
			*out = syntheticBranchStream(n, sites, seed)
			return nil
		},
		Memo: branchMemo(func() (string, error) {
			k := newKey("synth-branches")
			k.num("refs", uint64(n))
			k.num("sites", uint64(sites))
			k.num("seed", uint64(seed))
			return k.sum(), nil
		}, out),
	}
}

// branchStreamDigest is a branch stream's content identity. E4's suite
// stream is concatenated from per-benchmark capture cells, so its closure
// is the union of theirs; hashing the stream content itself is both simpler
// and exactly as sound.
func branchStreamDigest(events []trace.BranchEvent) string {
	k := newKey("branch-stream")
	k.num("count", uint64(len(events)))
	enc := trace.EncodeBranches(events)
	k.str("events", string(enc))
	return k.sum()
}

// predEval is the serializable outcome of one predictor over one stream.
type predEval struct {
	Acc float64 `json:"acc"`
	// Hit is the branch-cache hit rate; meaningful only for cache rows.
	Hit float64 `json:"hit,omitempty"`
}

// predictor rows: kind is "static", "profile" or "cache" (entries used for
// "cache" only).
func predictorCell(id, streamDigest, kind string, entries int,
	events *[]trace.BranchEvent, out *predEval) Cell {
	return Cell{
		ID: id,
		Fn: func(context.Context) error {
			switch kind {
			case "static":
				out.Acc = bpred.Accuracy(bpred.Static{}, *events)
			case "profile":
				out.Acc = bpred.Accuracy(bpred.NewStaticProfile(*events), *events)
			case "cache":
				bc := bpred.NewBranchCache(entries)
				out.Acc = bpred.Accuracy(bc, *events)
				out.Hit = bc.HitRate()
			default:
				return fmt.Errorf("unknown predictor kind %q", kind)
			}
			return nil
		},
		Memo: jsonMemo(func() (string, error) {
			k := newKey("bpred")
			k.str("stream", streamDigest)
			k.str("predictor", kind)
			k.num("entries", uint64(entries))
			return k.sum(), nil
		}, out),
	}
}
