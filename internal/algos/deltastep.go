package algos

import (
	"fmt"

	"swbfs/internal/ckpt"
	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

// Delta-stepping SSSP (Meyer & Sanders) on the simulated machine: vertices
// are processed in buckets of tentative-distance width delta; within a
// bucket, light edges (weight <= delta) are relaxed iteratively (they can
// re-insert into the same bucket), then heavy edges once. Compared with
// the frontier Bellman-Ford in sssp.go it trades more rounds for far fewer
// wasted relaxations on weighted graphs — the classic work/step tradeoff,
// exposed here as an ablation on the same transports and timing model.

type deltaPhase int

const (
	phaseLight deltaPhase = iota
	phaseHeavy
)

type deltaNode struct {
	ctx     *NodeCtx
	weights []int64
	delta   int64

	dist []int64

	curBucket int64
	phase     deltaPhase
	done      bool

	lightReq *graph.Bitmap // current-bucket vertices to light-relax
	heavySet *graph.Bitmap // bucket members awaiting the heavy pass

	relaxed int64 // total edge relaxations performed (work measure)
}

// DeltaSSSPResult extends the SSSP output with work accounting.
type DeltaSSSPResult struct {
	Dist []int64
	Info *RunInfo
	// Relaxations counts the edge relaxations actually performed —
	// compare with the Bellman-Ford implementation's re-relaxation storm.
	Relaxations int64
	// Buckets is the number of distance buckets processed.
	Buckets int64
}

// DeltaSSSP computes single-source shortest paths with bucket width delta
// (0 picks maxWeight, degenerating to near-Dijkstra bucketing).
func DeltaSSSP(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, delta int64) (*DeltaSSSPResult, error) {
	return deltaRun(cfg, wg, root, delta, nil)
}

func deltaRun(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, delta int64, from *ckpt.Checkpoint) (*DeltaSSSPResult, error) {
	if delta < 0 {
		return nil, fmt.Errorf("algos: negative delta %d", delta)
	}
	if delta == 0 && wg.Weights != nil { // without weights, Run refuses the kernel
		delta = 1
		for _, w := range wg.Weights.W {
			delta = max(delta, w)
		}
	}
	opts := RunOptions{
		Kernel: "delta-sssp", Root: root, Args: fmt.Sprintf("delta=%d", delta), Weights: wg.Weights, Resume: from,
		weighted: true, roots: []graph.Vertex{root},
	}
	nodes, info, err := Run(cfg, wg.CSR, opts, func(ctx *NodeCtx) (*deltaNode, error) {
		n := ctx.Sub.NumVertices()
		dn := &deltaNode{
			ctx:      ctx,
			weights:  extractLocalWeights(wg, ctx),
			delta:    delta,
			dist:     make([]int64, n),
			lightReq: graph.NewBitmap(n),
			heavySet: graph.NewBitmap(n),
		}
		for i := range dn.dist {
			dn.dist[i] = InfDistance
		}
		if local, ok := ctx.Own(root); ok {
			dn.dist[local] = 0
			dn.lightReq.Set(local)
			dn.heavySet.Set(local)
		}
		return dn, nil
	})
	if err != nil {
		return nil, err
	}

	res := &DeltaSSSPResult{
		Dist: gather(nodes[0].ctx.Part, nodes, func(d *deltaNode) []int64 { return d.dist }),
		Info: info,
	}
	for _, dn := range nodes {
		res.Relaxations += dn.relaxed
	}
	if len(nodes) > 0 {
		res.Buckets = nodes[0].curBucket + 1
	}
	return res, nil
}

func (d *deltaNode) bucketOf(dist int64) int64 {
	if dist >= InfDistance {
		return -1
	}
	return dist / d.delta
}

func (d *deltaNode) Active() int64 {
	if d.done {
		return 0
	}
	return 1
}

// Generate relaxes the phase's request set — light edges of the light
// requests, heavy edges of the heavy set — scanning its bitmap in ascending
// local order. The kernel contract (docs/ALGORITHMS.md) requires a
// deterministic send order: on the relay transport, batch envelopes pack
// messages bound for different destinations together, so even
// per-destination-stable orders are not enough.
func (d *deltaNode) Generate(round int, out *comm.Lane) error {
	set, light := d.lightReq, true
	if d.phase == phaseHeavy {
		set, light = d.heavySet, false
	}
	err := scanBits(set.Words(), 0, int64(len(set.Words())), func(local int64) error {
		// Only relax if the vertex still belongs to the bucket (it may
		// have improved into an earlier, already-closed one — then its
		// edges were or will be handled there).
		dv := d.dist[local]
		if d.bucketOf(dv) != d.curBucket {
			return nil
		}
		for i := d.ctx.Sub.RowPtr[local]; i < d.ctx.Sub.RowPtr[local+1]; i++ {
			w := d.weights[i]
			if (w <= d.delta) != light {
				continue
			}
			d.relaxed++
			u := d.ctx.Sub.Col[i]
			if err := out.Send(d.ctx.Part.Owner(u), comm.Pair{u, graph.Vertex(dv + w)}); err != nil {
				return err
			}
		}
		return nil
	})
	set.Reset()
	return err
}

// Handle keeps the minimum tentative distance per vertex and requests
// both passes for every improvement that lands in the current bucket.
// Improvements into future buckets are found by the bucket scan when that
// bucket opens.
func (d *deltaNode) Handle(_ int, pairs []comm.Pair) {
	for _, p := range pairs {
		local, nd := int64(p[0]), int64(p[1])
		if nd >= d.dist[local] {
			continue
		}
		d.dist[local] = nd
		if d.bucketOf(nd) == d.curBucket {
			d.lightReq.Set(local)
			d.heavySet.Set(local)
		}
	}
}

func (d *deltaNode) EndRound(round int) error {
	switch d.phase {
	case phaseLight:
		// More light work in this bucket anywhere?
		pending := d.ctx.Net.AllreduceSum(d.lightReq.Count())
		if pending == 0 {
			d.phase = phaseHeavy
		}
	case phaseHeavy:
		// Advance to the smallest non-empty bucket beyond the current one.
		localNext := d.nextBucket()
		// Global min via negated max; -1 (none) maps to MinInt sentinel.
		contrib := int64(-1 << 62)
		if localNext >= 0 {
			contrib = -localNext
		}
		next := -d.ctx.Net.AllreduceMax(contrib)
		if next >= 1<<62 {
			d.done = true
			return nil
		}
		d.curBucket = next
		d.phase = phaseLight
		d.fillBucket()
	}
	return nil
}

// State is the distances, the open bucket and its phase, the request
// sets as ascending local lists (the order Generate scans them in) and the
// relaxation count.
func (d *deltaNode) State() ckpt.State {
	return ckpt.State{
		ckpt.Slice("dist", d.dist),
		ckpt.Scalar("cur_bucket", &d.curBucket),
		ckpt.Enum("phase", &d.phase, phaseHeavy+1),
		ckpt.Scalar("done", &d.done),
		ckpt.Set("light_req", d.lightReq),
		ckpt.Set("heavy_set", d.heavySet),
		ckpt.Scalar("relaxed", &d.relaxed),
	}
}

// nextBucket scans all local vertices for the smallest bucket beyond the
// current one, fanning the scan across ctx.Workers. The min-fold is
// order-independent, so the result is identical for every width.
func (d *deltaNode) nextBucket() int64 {
	n := d.ctx.Sub.NumVertices()
	mins := make([]int64, d.ctx.Workers)
	comm.ForEachShard(n, d.ctx.Workers, func(shard int, lo, hi int64) {
		min := int64(-1)
		for local := lo; local < hi; local++ {
			b := d.bucketOf(d.dist[local])
			if b > d.curBucket && (min == -1 || b < min) {
				min = b
			}
		}
		mins[shard] = min
	})
	next := int64(-1)
	for _, m := range mins {
		if m >= 0 && (next == -1 || m < next) {
			next = m
		}
	}
	return next
}

// fillBucket seeds the light/heavy request sets with the members of the
// freshly opened bucket, fanning the scan across ctx.Workers over
// word-aligned shards so no two workers share a bitmap word.
func (d *deltaNode) fillBucket() {
	n := d.ctx.Sub.NumVertices()
	comm.ForEachShard(int64(len(d.lightReq.Words())), d.ctx.Workers, func(_ int, lo, hi int64) {
		for local := lo * 64; local < min(hi*64, n); local++ {
			if d.bucketOf(d.dist[local]) == d.curBucket {
				d.lightReq.Set(local)
				d.heavySet.Set(local)
			}
		}
	})
}
