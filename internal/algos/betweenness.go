package algos

import (
	"fmt"
	"math"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// Distributed betweenness centrality (Brandes) — one more irregular
// algorithm whose "key operation is shuffling dynamically generated data"
// (Section 8). Per sampled source the algorithm runs a level-synchronous
// forward sweep counting shortest paths (sigma), then a backward sweep
// accumulating dependencies (delta), level by level:
//
//	forward round L:   u in frontier sends (v, sigma[u]) to v's owner
//	backward round L:  w at depth L sends (u, (1+delta[w])/sigma[w]) to
//	                   every neighbour; receivers at depth L-1 fold
//	                   delta[u] += sigma[u] * payload
//
// The backward filter needs no sender identity: rounds are synchronized to
// one depth at a time, so a receiver accepts exactly when its own depth is
// one less than the round's.
//
// Determinism: the frontier is a bitmap, not an insertion-ordered list, so
// the forward send order is the ascending local scan regardless of batch
// arrival order. Sigma values are integer-valued floats (path counts), so
// their adds are exact and order-independent below 2^53; delta folds in
// fixed point (deltaFix), since its payloads are true fractions whose
// float sums would round differently per arrival order. Together these
// make results and modelled traffic bitwise deterministic across runs and
// worker widths.
type bcNode struct {
	ctx     *NodeCtx
	sources []graph.Vertex
	srcIdx  int

	// Per-source sweep state (local vertices).
	dist  []int64
	sigma []float64
	// deltaFix is the dependency accumulator in fixed point
	// (fixedPointScale); integer adds keep it arrival-order independent.
	deltaFix []int64

	// frontier marks the current forward level; count is its population,
	// found the per-shard discoveries Handle adds to it.
	frontier *graph.Bitmap
	count    int64
	found    tally
	depth    int64 // current forward level / backward depth
	maxDepth int64
	backward bool

	// bc accumulates the centrality of local vertices across sources.
	bc []float64

	done bool
}

// BCResult is the merged output.
type BCResult struct {
	// Centrality per vertex (unnormalized, summed over the sampled
	// sources; divide by the sample count for per-source averages).
	Centrality []float64
	Sources    []graph.Vertex
	Info       *RunInfo
}

// Betweenness computes (approximate) betweenness centrality from the given
// sample sources on the simulated machine.
func Betweenness(cfg core.Config, g *graph.CSR, sources []graph.Vertex) (*BCResult, error) {
	return betweennessRun(cfg, g, sources, nil)
}

func betweennessRun(cfg core.Config, g *graph.CSR, sources []graph.Vertex, from *ckpt.Checkpoint) (*BCResult, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("algos: betweenness needs at least one source")
	}
	opts := RunOptions{Kernel: "betweenness", Root: sources[0], Args: fmt.Sprintf("sources=%v", sources), Resume: from, roots: sources}
	nodes, info, err := Run(cfg, g, opts, func(ctx *NodeCtx) (*bcNode, error) {
		n := ctx.Sub.NumVertices()
		bn := &bcNode{
			ctx:      ctx,
			sources:  sources,
			dist:     make([]int64, n),
			sigma:    make([]float64, n),
			deltaFix: make([]int64, n),
			frontier: graph.NewBitmap(n),
			found:    make(tally, ctx.Workers),
			bc:       make([]float64, n),
		}
		bn.startSource()
		return bn, nil
	})
	if err != nil {
		return nil, err
	}
	return &BCResult{
		Centrality: gather(nodes[0].ctx.Part, nodes, func(b *bcNode) []float64 { return b.bc }),
		Sources:    sources,
		Info:       info,
	}, nil
}

// delta converts a local's fixed-point dependency back to float.
func (b *bcNode) delta(local int64) float64 {
	return float64(b.deltaFix[local]) / fixedPointScale
}

// startSource resets per-source state for sources[srcIdx].
func (b *bcNode) startSource() {
	comm.ForEachShard(int64(len(b.dist)), b.ctx.Workers, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			b.dist[i] = -1
			b.sigma[i] = 0
			b.deltaFix[i] = 0
		}
	})
	b.frontier.Reset()
	b.count = 0
	b.depth = 0
	b.maxDepth = 0
	b.backward = false
	if local, ok := b.ctx.Own(b.sources[b.srcIdx]); ok {
		b.dist[local] = 0
		b.sigma[local] = 1
		b.frontier.Set(local)
		b.count = 1
	}
}

func (b *bcNode) Active() int64 {
	if b.done {
		return 0
	}
	return 1
}

// Generate runs one level of either sweep, fanning the ascending scan over
// the node's workers (see comm.Fanout).
func (b *bcNode) Generate(round int, out *comm.Lane) error {
	if !b.backward {
		// Forward: expand the depth-b.depth frontier.
		err := comm.Fanout(out, int64(len(b.frontier.Words())), b.ctx.Workers, b, func(b *bcNode, out *comm.Lane, lo, hi int64) error {
			return scanBits(b.frontier.Words(), lo, hi, func(local int64) error {
				return b.broadcast(out, local, b.sigma[local])
			})
		})
		b.frontier.Reset()
		b.count = 0
		return err
	}
	// Backward: vertices at the current depth broadcast their dependency
	// coefficient to every neighbour; depth-(d-1) receivers filter.
	return comm.Fanout(out, b.ctx.Sub.NumVertices(), b.ctx.Workers, b, func(b *bcNode, out *comm.Lane, lo, hi int64) error {
		for local := lo; local < hi; local++ {
			if b.dist[local] != b.depth || b.sigma[local] == 0 {
				continue
			}
			if err := b.broadcast(out, local, (1+b.delta(local))/b.sigma[local]); err != nil {
				return err
			}
		}
		return nil
	})
}

// broadcast sends payload to every neighbour of local.
func (b *bcNode) broadcast(out *comm.Lane, local int64, payload float64) error {
	bits := graph.Vertex(math.Float64bits(payload))
	for _, v := range b.ctx.Sub.Neighbors(local) {
		if err := out.Send(b.ctx.Part.Owner(v), comm.Pair{v, bits}); err != nil {
			return err
		}
	}
	return nil
}

// Handle folds one level of either sweep. Forward pairs carry sigma and
// discover depth+1 vertices, counted per shard; backward pairs carry a
// dependency coefficient that depth-(d-1) receivers fold in fixed point.
func (b *bcNode) Handle(shard int, pairs []comm.Pair) {
	if b.backward {
		for _, p := range pairs {
			local := int64(p[0])
			if b.dist[local] == b.depth-1 {
				coeff := math.Float64frombits(uint64(p[1]))
				b.deltaFix[local] += int64(b.sigma[local] * coeff * fixedPointScale)
			}
		}
		return
	}
	for _, p := range pairs {
		local, add := int64(p[0]), math.Float64frombits(uint64(p[1]))
		switch b.dist[local] {
		case -1:
			b.dist[local] = b.depth + 1
			b.sigma[local] = add
			b.frontier.Set(local)
			b.found[shard]++
		case b.depth + 1:
			b.sigma[local] += add
		}
	}
}

func (b *bcNode) EndRound(round int) error {
	if !b.backward {
		// Did the global frontier advance?
		b.count += b.found.drain()
		grew := b.ctx.Net.AllreduceSum(b.count)
		b.depth++
		if grew > 0 {
			return nil
		}
		// Forward sweep complete: the deepest populated level is depth-1.
		b.maxDepth = b.depth - 1
		b.backward = true
		b.depth = b.maxDepth
		if b.depth <= 0 {
			return b.finishSource()
		}
		return nil
	}
	b.depth--
	if b.depth <= 0 {
		return b.finishSource()
	}
	return nil
}

// finishSource folds delta into bc and advances to the next source (or
// finishes the run). Every node takes the same transition: the decision
// depends only on synchronized state.
func (b *bcNode) finishSource() error {
	if b.srcIdx == len(b.sources) { // a resumed node that was already done
		b.done = true
		return nil
	}
	s := b.sources[b.srcIdx]
	comm.ForEachShard(b.ctx.Sub.NumVertices(), b.ctx.Workers, func(_ int, lo, hi int64) {
		for local := lo; local < hi; local++ {
			if b.dist[local] >= 0 && b.ctx.Global(local) != s {
				b.bc[local] += b.delta(local)
			}
		}
	})
	b.srcIdx++
	if b.srcIdx >= len(b.sources) {
		b.done = true
		return nil
	}
	b.startSource()
	return nil
}

// State is the source index (len(sources) once done), the sweep state of
// the current source and the centralities so far. The source index, the
// depths, the sweep direction and done follow the allreduced frontier, so
// every node holds them alike; count is the node's own frontier. Sigma and
// the centralities travel as IEEE-754 bit patterns so the restored floats
// are exact; the dependency accumulator is already fixed-point.
func (b *bcNode) State() ckpt.State {
	return ckpt.State{
		ckpt.Enum("src_idx", &b.srcIdx, len(b.sources)+1).Replicated(),
		ckpt.Slice("dist", b.dist),
		ckpt.Floats("sigma_bits", b.sigma),
		ckpt.Slice("delta_fix", b.deltaFix),
		ckpt.Words("frontier", b.frontier),
		ckpt.Scalar("count", &b.count),
		ckpt.Scalar("depth", &b.depth).Replicated(),
		ckpt.Scalar("max_depth", &b.maxDepth).Replicated(),
		ckpt.Scalar("backward", &b.backward).Replicated(),
		ckpt.Floats("bc_bits", b.bc),
		ckpt.Scalar("done", &b.done).Replicated(),
	}
}

// ReferenceBetweenness is the sequential Brandes oracle over the same
// sources (unnormalized, matching Betweenness up to the distributed
// version's fixed-point dependency quantization).
func ReferenceBetweenness(g *graph.CSR, sources []graph.Vertex) []float64 {
	bc := make([]float64, g.N)
	dist := make([]int64, g.N)
	sigma := make([]float64, g.N)
	delta := make([]float64, g.N)
	var order []graph.Vertex
	for _, s := range sources {
		for i := range dist {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
		}
		order = order[:0]
		dist[s] = 0
		sigma[s] = 1
		queue := []graph.Vertex{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range g.Neighbors(w) {
				if dist[u] == dist[w]-1 {
					delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
				}
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}
