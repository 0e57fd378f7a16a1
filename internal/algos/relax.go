package algos

import (
	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/graph"
)

// relaxNode is one node's min-relaxation round, the (min, +) step that WCC
// and Bellman-Ford SSSP share: every active vertex sends its value plus the
// edge weight along each out-edge, and a receiver keeps the minimum and
// activates every vertex it improves. With nil weights (every weight zero)
// it is WCC's min-label propagation; with the graph's weights it is
// frontier-driven Bellman-Ford. The min-fold is order-independent, which
// keeps the result identical however batches arrive and split across shards.
type relaxNode[V ~int64] struct {
	ctx     *NodeCtx
	weights []int64 // aligned with ctx.Sub.Col; nil means every weight is zero
	val     []V
	active  *graph.Bitmap
	pending int64
	// activated counts, per shard, the vertices Handle activated this round.
	activated tally
}

func newRelaxNode[V ~int64](ctx *NodeCtx, weights []int64) *relaxNode[V] {
	n := ctx.Sub.NumVertices()
	return &relaxNode[V]{
		ctx:       ctx,
		weights:   weights,
		val:       make([]V, n),
		active:    graph.NewBitmap(n),
		activated: make(tally, ctx.Workers),
	}
}

// relaxed gathers the nodes' values into one array indexed by global vertex.
func relaxed[V ~int64](nodes []*relaxNode[V]) []V {
	return gather(nodes[0].ctx.Part, nodes, func(r *relaxNode[V]) []V { return r.val })
}

func (r *relaxNode[V]) Active() int64 { return r.pending }

// Generate relaxes the out-edges of the frontier, fanning the bitmap scan
// over the node's workers in word-aligned shards (see comm.Fanout).
func (r *relaxNode[V]) Generate(round int, out *comm.Lane) error {
	err := comm.Fanout(out, int64(len(r.active.Words())), r.ctx.Workers, r, func(r *relaxNode[V], out *comm.Lane, lo, hi int64) error {
		sub, weights := r.ctx.Sub, r.weights
		return scanBits(r.active.Words(), lo, hi, func(local int64) error {
			v, first := graph.Vertex(r.val[local]), sub.RowPtr[local]
			for i, u := range sub.Neighbors(local) {
				d := v
				if weights != nil {
					d += graph.Vertex(weights[first+int64(i)])
				}
				if err := out.Send(r.ctx.Part.Owner(u), comm.Pair{u, d}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	r.active.Reset()
	return err
}

// Handle keeps the minimum value per vertex and activates every vertex it
// improves.
func (r *relaxNode[V]) Handle(shard int, pairs []comm.Pair) {
	for _, p := range pairs {
		local, v := int64(p[0]), V(p[1])
		if v < r.val[local] {
			r.val[local] = v
			if !r.active.Get(local) {
				r.active.Set(local)
				r.activated[shard]++
			}
		}
	}
}

// pairFold declares the exact fold: Handle keeps the minimum value, so the
// smallest of a vertex's values leaves the state all of them would.
func (r *relaxNode[V]) pairFold() fold { return foldMin }

func (r *relaxNode[V]) EndRound(round int) error {
	r.pending = r.activated.drain()
	return nil
}

// State is the values and the frontier entering the next round.
func (r *relaxNode[V]) State() ckpt.State {
	return ckpt.State{ckpt.Slice("value", r.val), ckpt.Words("active", r.active), ckpt.Scalar("pending", &r.pending)}
}
