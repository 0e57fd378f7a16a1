package algos

import (
	"encoding/json"
	"fmt"
	"sort"

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

	lightReq map[int64]struct{} // current-bucket vertices to light-relax
	heavySet map[int64]struct{} // bucket members awaiting the heavy pass

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

// ResumeDeltaSSSP continues a checkpointed delta-stepping run over the
// same graph, root and delta; see RunOptions.Resume for the contract.
func ResumeDeltaSSSP(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, delta int64, from *ckpt.Checkpoint) (*DeltaSSSPResult, error) {
	if from == nil {
		return nil, fmt.Errorf("algos: nil checkpoint")
	}
	return deltaRun(cfg, wg, root, delta, from)
}

func deltaRun(cfg core.Config, wg *graph.WeightedCSR, root graph.Vertex, delta int64, from *ckpt.Checkpoint) (*DeltaSSSPResult, error) {
	if root < 0 || int64(root) >= wg.N {
		return nil, fmt.Errorf("algos: SSSP root %d out of range", root)
	}
	if delta < 0 {
		return nil, fmt.Errorf("algos: negative delta %d", delta)
	}
	if delta == 0 {
		for _, w := range wg.Weights.W {
			if w > delta {
				delta = w
			}
		}
		if delta == 0 {
			delta = 1
		}
	}
	nodes := make([]*deltaNode, cfg.Nodes)
	info, err := Run(cfg, wg.CSR, RunOptions{Kernel: "delta-sssp", Root: root, Resume: from}, func(ctx *NodeCtx) (RoundAlgo, error) {
		n := ctx.Sub.NumVertices()
		dn := &deltaNode{
			ctx:      ctx,
			weights:  extractLocalWeights(wg, ctx),
			delta:    delta,
			dist:     make([]int64, n),
			lightReq: make(map[int64]struct{}),
			heavySet: make(map[int64]struct{}),
		}
		for i := range dn.dist {
			dn.dist[i] = InfDistance
		}
		if ctx.Part.Owner(root) == ctx.ID {
			local := ctx.Part.Local(root)
			dn.dist[local] = 0
			dn.lightReq[local] = struct{}{}
			dn.heavySet[local] = struct{}{}
		}
		nodes[ctx.ID] = dn
		return dn, nil
	})
	if err != nil {
		return nil, err
	}

	res := &DeltaSSSPResult{Dist: make([]int64, wg.N), Info: info}
	part := graph.NewRoundRobin(wg.N, cfg.Nodes)
	for v := graph.Vertex(0); int64(v) < wg.N; v++ {
		res.Dist[v] = nodes[part.Owner(v)].dist[part.Local(v)]
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

func (d *deltaNode) Generate(round int, out *comm.Lane) error {
	relax := func(local int64, light bool) error {
		dv := d.dist[local]
		lo, hi := d.ctx.Sub.RowPtr[local], d.ctx.Sub.RowPtr[local+1]
		for i := lo; i < hi; i++ {
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
	}
	switch d.phase {
	case phaseLight:
		req := d.lightReq
		d.lightReq = make(map[int64]struct{})
		for _, local := range sortedLocals(req) {
			// Only relax if the vertex still belongs to the bucket (it
			// may have improved into an earlier, already-closed one —
			// then its edges were or will be handled there).
			if d.bucketOf(d.dist[local]) == d.curBucket {
				if err := relax(local, true); err != nil {
					return err
				}
			}
		}
	case phaseHeavy:
		set := d.heavySet
		d.heavySet = make(map[int64]struct{})
		for _, local := range sortedLocals(set) {
			if d.bucketOf(d.dist[local]) == d.curBucket {
				if err := relax(local, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sortedLocals flattens a request set into ascending vertex order. The
// kernel contract (docs/ALGORITHMS.md) requires a deterministic send order:
// on the relay transport, batch envelopes pack messages bound for different
// destinations together, so even per-destination-stable orders are not
// enough — map iteration order would leak into the modelled byte counts.
func sortedLocals(set map[int64]struct{}) []int64 {
	out := make([]int64, 0, len(set))
	for local := range set {
		out = append(out, local)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *deltaNode) Handle(round int, pairs []comm.Pair) error {
	for _, p := range pairs {
		u, nd := p[0], int64(p[1])
		local := d.ctx.Part.Local(u)
		if nd >= d.dist[local] {
			continue
		}
		d.dist[local] = nd
		if d.bucketOf(nd) == d.curBucket {
			d.lightReq[local] = struct{}{}
			d.heavySet[local] = struct{}{}
		}
		// Improvements into future buckets are found by the bucket scan
		// when that bucket opens.
	}
	return nil
}

func (d *deltaNode) EndRound(round int) error {
	switch d.phase {
	case phaseLight:
		// More light work in this bucket anywhere?
		pending := d.ctx.Net.AllreduceSum(int64(len(d.lightReq)))
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

// deltaCkpt is the Checkpointer payload. The request sets serialize as
// sorted local lists (the canonical order Generate consumes them in).
type deltaCkpt struct {
	Dist      []int64 `json:"dist"`
	CurBucket int64   `json:"cur_bucket"`
	Phase     int     `json:"phase"`
	Done      bool    `json:"done"`
	LightReq  []int64 `json:"light_req"`
	HeavySet  []int64 `json:"heavy_set"`
	Relaxed   int64   `json:"relaxed"`
}

func (d *deltaNode) CheckpointState() (any, error) {
	return &deltaCkpt{
		Dist:      append([]int64(nil), d.dist...),
		CurBucket: d.curBucket,
		Phase:     int(d.phase),
		Done:      d.done,
		LightReq:  sortedLocals(d.lightReq),
		HeavySet:  sortedLocals(d.heavySet),
		Relaxed:   d.relaxed,
	}, nil
}

func (d *deltaNode) RestoreState(data []byte) error {
	var c deltaCkpt
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("delta-sssp state: %w", err)
	}
	if len(c.Dist) != len(d.dist) {
		return fmt.Errorf("delta-sssp state: %d distances, partition gives %d", len(c.Dist), len(d.dist))
	}
	copy(d.dist, c.Dist)
	d.curBucket = c.CurBucket
	d.phase = deltaPhase(c.Phase)
	d.done = c.Done
	d.lightReq = make(map[int64]struct{}, len(c.LightReq))
	for _, local := range c.LightReq {
		d.lightReq[local] = struct{}{}
	}
	d.heavySet = make(map[int64]struct{}, len(c.HeavySet))
	for _, local := range c.HeavySet {
		d.heavySet[local] = struct{}{}
	}
	d.relaxed = c.Relaxed
	return nil
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
// freshly opened bucket. Workers collect members over contiguous vertex
// shards; the node goroutine folds them into the maps (set contents are
// order-independent, so any fold order gives identical state).
func (d *deltaNode) fillBucket() {
	n := d.ctx.Sub.NumVertices()
	members := make([][]int64, d.ctx.Workers)
	comm.ForEachShard(n, d.ctx.Workers, func(shard int, lo, hi int64) {
		for local := lo; local < hi; local++ {
			if d.bucketOf(d.dist[local]) == d.curBucket {
				members[shard] = append(members[shard], local)
			}
		}
	})
	for _, shard := range members {
		for _, local := range shard {
			d.lightReq[local] = struct{}{}
			d.heavySet[local] = struct{}{}
		}
	}
}
