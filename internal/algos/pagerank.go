package algos

import (
	"fmt"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// DefaultDamping is the conventional PageRank damping factor.
const DefaultDamping = 0.85

// fixedPointScale converts rank mass to integers, both for the dangling
// sum-allreduce and for the per-vertex contribution accumulator. Integer
// addition is associative, so fixed-point folds are independent of both
// batch arrival order and handler shard assignment — the property that
// makes ranks bitwise deterministic across runs and worker widths.
const fixedPointScale = float64(int64(1) << 40)

// prNode runs push-based PageRank: each iteration, every vertex pushes
// rank/degree to its neighbours (a pure data shuffle — the paper's point),
// dangling mass is folded in via an allreduce, and ranks are recomputed in
// EndRound.
type prNode struct {
	ctx        *NodeCtx
	damping    float64
	iterations int
	iter       int
	rank       []float64
	// acc accumulates received contributions in fixed point (see
	// fixedPointScale): quantized once at the sender, summed as integers.
	acc []int64
	// dangling lists the degree-0 locals once, so the per-iteration
	// dangling-mass scan is O(dangling), not O(n).
	dangling []int64
	n        int64 // global vertex count
}

// PageRankResult is the merged output.
type PageRankResult struct {
	Rank []float64
	Info *RunInfo
	// Iterations actually run.
	Iterations int
}

// PageRank runs `iterations` synchronous iterations on the simulated
// machine with the given damping (0 selects DefaultDamping).
func PageRank(cfg core.Config, g *graph.CSR, iterations int, damping float64) (*PageRankResult, error) {
	return pagerankRun(cfg, g, iterations, damping, nil)
}

func pagerankRun(cfg core.Config, g *graph.CSR, iterations int, damping float64, from *ckpt.Checkpoint) (*PageRankResult, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("algos: PageRank needs a positive iteration count, got %d", iterations)
	}
	if damping == 0 {
		damping = DefaultDamping
	}
	if damping < 0 || damping >= 1 {
		return nil, fmt.Errorf("algos: damping %v out of [0, 1)", damping)
	}
	opts := RunOptions{
		Kernel: "pagerank", Root: graph.NoVertex, Resume: from,
		Args: fmt.Sprintf("iterations=%d damping=%v", iterations, damping),
	}
	nodes, info, err := Run(cfg, g, opts, func(ctx *NodeCtx) (*prNode, error) {
		nLocal := ctx.Sub.NumVertices()
		pn := &prNode{
			ctx:        ctx,
			damping:    damping,
			iterations: iterations,
			rank:       make([]float64, nLocal),
			acc:        make([]int64, nLocal),
			n:          g.N,
		}
		for i := range pn.rank {
			pn.rank[i] = 1 / float64(g.N)
		}
		for local := int64(0); local < nLocal; local++ {
			if ctx.Sub.Degree(local) == 0 {
				pn.dangling = append(pn.dangling, local)
			}
		}
		return pn, nil
	})
	if err != nil {
		return nil, err
	}

	return &PageRankResult{
		Rank:       gather(nodes[0].ctx.Part, nodes, func(p *prNode) []float64 { return p.rank }),
		Info:       info,
		Iterations: iterations,
	}, nil
}

func (p *prNode) Active() int64 {
	if p.iter < p.iterations {
		return 1
	}
	return 0
}

// contribution quantizes one vertex's per-edge push to fixed point. The
// quantization happens at the sender, so the wire carries the integer and
// every receiver folds the exact same value.
func (p *prNode) contribution(local int64, deg int64) graph.Vertex {
	return graph.Vertex(p.rank[local] / float64(deg) * fixedPointScale)
}

// Generate pushes every vertex's contribution along its edges, fanning the
// ascending-local scan over the node's workers (see comm.Fanout).
func (p *prNode) Generate(round int, out *comm.Lane) error {
	return comm.Fanout(out, p.ctx.Sub.NumVertices(), p.ctx.Workers, p, func(p *prNode, out *comm.Lane, lo, hi int64) error {
		for local := lo; local < hi; local++ {
			deg := p.ctx.Sub.Degree(local)
			if deg == 0 {
				continue // dangling mass handled in EndRound
			}
			contrib := p.contribution(local, deg)
			for _, u := range p.ctx.Sub.Neighbors(local) {
				if err := out.Send(p.ctx.Part.Owner(u), comm.Pair{u, contrib}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Handle adds the fixed-point contributions; integer adds are
// order-independent however batches arrive and split across shards.
func (p *prNode) Handle(_ int, pairs []comm.Pair) {
	for _, pr := range pairs {
		p.acc[pr[0]] += int64(pr[1])
	}
}

// pairFold declares PageRank's exact fold: Handle adds the fixed-point
// contributions as integers, so their sum leaves the state they would.
func (p *prNode) pairFold() fold { return foldSum }

func (p *prNode) EndRound(round int) error {
	// Dangling mass: collect the rank of degree-0 vertices machine-wide
	// (fixed-point through the integer allreduce). The local sum folds
	// through the canonical chunk structure so its rounding is identical
	// at every worker width.
	danglingLocal := chunkedSum(int64(len(p.dangling)), p.ctx.Workers, func(i int64) float64 {
		return p.rank[p.dangling[i]]
	})
	total := p.ctx.Net.AllreduceSum(int64(danglingLocal * fixedPointScale))
	dangling := float64(total) / fixedPointScale

	base := (1 - p.damping) / float64(p.n)
	share := p.damping * dangling / float64(p.n)
	comm.ForEachShard(int64(len(p.rank)), p.ctx.Workers, func(_ int, lo, hi int64) {
		for local := lo; local < hi; local++ {
			p.rank[local] = base + p.damping*(float64(p.acc[local])/fixedPointScale) + share
			p.acc[local] = 0
		}
	})
	p.iter++
	return nil
}

// State is the iteration and the ranks. The contribution accumulator is
// zero at every round boundary (EndRound drains it) but is carried for
// robustness; dangling and n are rebuilt by the constructor.
func (p *prNode) State() ckpt.State {
	return ckpt.State{ckpt.Scalar("iter", &p.iter), ckpt.Floats("rank_bits", p.rank), ckpt.Slice("acc", p.acc)}
}

// ReferencePageRank is the sequential oracle running the identical update,
// including the sender-side fixed-point contribution quantization, so
// oracle comparisons use tight tolerances. (The distributed version
// quantizes its dangling sum per node before the allreduce, which the
// oracle cannot reproduce — the one remaining sub-1e-11 divergence.)
func ReferencePageRank(g *graph.CSR, iterations int, damping float64) []float64 {
	if damping == 0 {
		damping = DefaultDamping
	}
	rank := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1 / float64(g.N)
	}
	acc := make([]int64, g.N)
	for it := 0; it < iterations; it++ {
		var dangling float64
		for v := graph.Vertex(0); int64(v) < g.N; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				dangling += rank[v]
				continue
			}
			contrib := int64(rank[v] / float64(deg) * fixedPointScale)
			for _, u := range g.Neighbors(v) {
				acc[u] += contrib
			}
		}
		// Match the fixed-point rounding of the distributed version.
		dangling = float64(int64(dangling*fixedPointScale)) / fixedPointScale
		base := (1 - damping) / float64(g.N)
		share := damping * dangling / float64(g.N)
		for v := range rank {
			rank[v] = base + damping*(float64(acc[v])/fixedPointScale) + share
			acc[v] = 0
		}
	}
	return rank
}
