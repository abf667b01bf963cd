package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// e11ClusterLimit bounds each cluster run.
const e11ClusterLimit = 1_000_000_000

// runCluster advances a cluster to completion in runChunk slices so
// cancellation is observed (Cluster.Run checks nodes against an absolute
// per-node cycle limit, so it is resumable with a growing limit). Every
// node gets a ledger-only sink, so the shared-bus arbitration waits show up
// as the bus-wait cause in the aggregated attribution; conservation is
// verified per node on success.
func runCluster(ctx context.Context, c *multi.Cluster, maxCycles uint64) error {
	c.Observe()
	account := func() {
		e := DefaultEngine()
		var sum uint64
		attr := make(map[string]uint64)
		for _, n := range c.Nodes {
			sum += n.CPU.Stats.Cycles
			for k, v := range n.Obs.Ledger.Map() {
				attr[k] += v
			}
		}
		e.AddCyclesCtx(ctx, sum)
		e.AddAttrCtx(ctx, attr)
	}
	for limit := uint64(runChunk); ; limit += runChunk {
		if err := ctx.Err(); err != nil {
			account()
			return err
		}
		if limit > maxCycles {
			limit = maxCycles
		}
		err := c.Run(limit)
		if err == nil {
			account()
			return c.VerifyAttribution()
		}
		if limit >= maxCycles {
			account()
			return err
		}
	}
}

// clusterCell builds a memoizable cell that runs n copies of src on an
// n-node shared-bus cluster and deposits the cluster summary in *out.
func clusterCell(id, src string, n int, out *multi.Stats) Cell {
	return Cell{
		ID: id,
		Fn: func(ctx context.Context) error {
			srcs := make([]string, n)
			for j := range srcs {
				srcs[j] = src
			}
			c := multi.New(n, buildConfig(spec.Default()))
			if err := c.LoadPrograms(srcs, reorg.Default()); err != nil {
				return err
			}
			if err := runCluster(ctx, c, e11ClusterLimit); err != nil {
				return err
			}
			*out = c.Stats()
			return nil
		},
		Memo: jsonMemo(func() (string, error) {
			// The per-node images are a function of source and scheme under
			// the pinned toolchain, like a bench key's.
			k := newKey("cluster")
			k.str("source", src)
			k.str("scheme", reorg.Default().String())
			k.str("toolchain", toolchainDigest)
			k.num("nodes", uint64(n))
			k.num("limit", e11ClusterLimit)
			k.str("spec", spec.Default().Digest())
			return k.sum(), nil
		}, out),
	}
}

// MultiprocessorScaling is E11, an extension beyond the paper's own
// evaluation: the shared-memory multiprocessor the processor was designed
// for ("use 6-10 of these processors as the nodes in a shared memory
// multiprocessor. The resulting machine would be about two orders of
// magnitude more powerful than a VAX 11/780"). Every node runs the same
// benchmark; the shared bus arbitrates all off-chip traffic. The on-chip
// Icache is what keeps per-node pin bandwidth low enough for the bus to
// carry 10 nodes.
func MultiprocessorScaling() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Shared-memory multiprocessor scaling (extension; the project's system goal)",
		Paper:  "6–10 nodes ≈ two orders of magnitude over a VAX 11/780",
		Header: []string{"nodes", "aggregate MIPS", "bus wait/node (cycles)", "vs VAX 11/780"},
	}
	bench := tinyc.Benchmarks()[3] // sieve: branchy, array-heavy, fits the window 10×
	sizes := []int{1, 2, 4, 6, 8, 10}

	// Each cluster size is a cell (a whole cluster shares state internally
	// but nothing across cells), plus a cell for the VAX reference rate on
	// the same program. All are memoizable: the cluster's closure is the
	// program source, the reorg scheme, the node count, the per-node config
	// and the cycle limit (multi.Stats is pure exported scalars).
	var vaxRes VAXResult
	stats := make([]multi.Stats, len(sizes))
	cells := make([]Cell, 0, len(sizes)+1)
	cells = append(cells, vaxCell("E11/vax", bench.Source, 200_000_000, &vaxRes))
	for i, n := range sizes {
		cells = append(cells, clusterCell(fmt.Sprintf("E11/nodes=%d", n), bench.Source, n, &stats[i]))
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	vaxSeconds := float64(vaxRes.Stats.Cycles) / (5.0 * 1e6) // 5 MHz clock
	for i, n := range sizes {
		s := stats[i]
		// n programs finished in makespan cycles; the VAX does them one
		// after another.
		mxSeconds := float64(s.MakespanCycles) / (core.ClockMHz * 1e6)
		speedup := float64(n) * vaxSeconds / mxSeconds
		t.AddRow(fmt.Sprint(n), s.AggregateMIPS,
			fmt.Sprintf("%.0f", float64(s.BusWaitCycles)/float64(n)),
			fmt.Sprintf("%.0fx", speedup))
	}
	t.Notes = append(t.Notes,
		"every node runs its own copy of the sieve benchmark; the bus carries all Icache refills and data traffic",
		"this experiment extends the paper, whose evaluation stopped at the uniprocessor")
	return t, nil
}
