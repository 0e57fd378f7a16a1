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

// kcoreNode runs distributed k-core peeling: vertices with effective degree
// below k are removed in rounds; each removal sends one decrement per
// incident edge (dynamically generated shuffle data, again). The fixpoint
// is the k-core: the maximal subgraph where every vertex keeps degree >= k.
type kcoreNode struct {
	ctx     *NodeCtx
	k       int64
	alive   []bool
	effdeg  []int64
	dec     []int64
	touched []int64 // locals with dec > 0 this round (unique, unsorted)
	removal []int64 // local indices scheduled for removal this round

	// Reusable handler fan-out scratch (capacity kept across rounds).
	buckets      [][]localPair
	touchedShard [][]int64
}

// KCoreResult is the merged output.
type KCoreResult struct {
	// InCore[v] reports membership in the k-core.
	InCore []bool
	Info   *RunInfo
	// CoreSize counts members.
	CoreSize int64
}

// KCore computes the k-core of g on the simulated machine.
func KCore(cfg core.Config, g *graph.CSR, k int64) (*KCoreResult, error) {
	return kcoreRun(cfg, g, k, nil)
}

// ResumeKCore continues a checkpointed k-core run over the same graph with
// the identical k; see RunOptions.Resume for the contract.
func ResumeKCore(cfg core.Config, g *graph.CSR, k int64, from *ckpt.Checkpoint) (*KCoreResult, error) {
	if from == nil {
		return nil, fmt.Errorf("algos: nil checkpoint")
	}
	return kcoreRun(cfg, g, k, from)
}

func kcoreRun(cfg core.Config, g *graph.CSR, k int64, from *ckpt.Checkpoint) (*KCoreResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("algos: k must be >= 1, got %d", k)
	}
	nodes := make([]*kcoreNode, cfg.Nodes)
	info, err := Run(cfg, g, RunOptions{Kernel: "kcore", Root: graph.NoVertex, Resume: from}, func(ctx *NodeCtx) (RoundAlgo, error) {
		n := ctx.Sub.NumVertices()
		kn := &kcoreNode{
			ctx:    ctx,
			k:      k,
			alive:  make([]bool, n),
			effdeg: make([]int64, n),
			dec:    make([]int64, n),
		}
		for local := int64(0); local < n; local++ {
			kn.alive[local] = true
			kn.effdeg[local] = ctx.Sub.Degree(local)
			if kn.effdeg[local] < k {
				kn.removal = append(kn.removal, local)
			}
		}
		nodes[ctx.ID] = kn
		return kn, nil
	})
	if err != nil {
		return nil, err
	}

	res := &KCoreResult{InCore: make([]bool, g.N), Info: info}
	part := graph.NewRoundRobin(g.N, cfg.Nodes)
	workers := nodes[0].ctx.Workers
	sizes := make([]int64, workers)
	comm.ForEachShard(g.N, workers, func(shard int, lo, hi int64) {
		for v := lo; v < hi; v++ {
			vv := graph.Vertex(v)
			in := nodes[part.Owner(vv)].alive[part.Local(vv)]
			res.InCore[v] = in
			if in {
				sizes[shard]++
			}
		}
	})
	for _, s := range sizes {
		res.CoreSize += s
	}
	return res, nil
}

func (kn *kcoreNode) Active() int64 { return int64(len(kn.removal)) }

// Generate removes the scheduled vertices and sends one decrement per
// incident edge, fanning the removal list over the node's workers in
// contiguous index shards (entries are unique, so the alive writes are
// disjoint; see comm.Fanout).
func (kn *kcoreNode) Generate(round int, out *comm.Lane) error {
	err := comm.Fanout(out, int64(len(kn.removal)), kn.ctx.Workers, kn, func(kn *kcoreNode, out *comm.Lane, lo, hi int64) error {
		for _, local := range kn.removal[lo:hi] {
			kn.alive[local] = false
			for _, u := range kn.ctx.Sub.Neighbors(local) {
				if err := out.Send(kn.ctx.Part.Owner(u), comm.Pair{u, 1}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	kn.removal = kn.removal[:0]
	return err
}

func (kn *kcoreNode) Handle(round int, pairs []comm.Pair) error {
	if k := kn.ctx.Workers; k > 1 && len(pairs) >= handleFanoutMin {
		kn.handleParallel(k, pairs)
		return nil
	}
	kn.handleSerial(pairs)
	return nil
}

func (kn *kcoreNode) handleSerial(pairs []comm.Pair) {
	for _, p := range pairs {
		local := kn.ctx.Part.Local(p[0])
		if kn.dec[local] == 0 {
			kn.touched = append(kn.touched, local)
		}
		kn.dec[local]++
	}
}

// handleParallel buckets the batch by destination vertex shard in one
// serial pass and applies the buckets concurrently; per-shard touched
// lists merge unordered (EndRound sorts).
func (kn *kcoreNode) handleParallel(k int, pairs []comm.Pair) {
	per, k := vertexShardWidth(int64(len(kn.dec)), k)
	if k <= 1 {
		kn.handleSerial(pairs)
		return
	}
	kn.buckets = takeShards(kn.buckets, k)
	buckets := kn.buckets
	for _, p := range pairs {
		l := kn.ctx.Part.Local(p[0])
		buckets[l/per] = append(buckets[l/per], localPair{l, p[1]})
	}
	kn.touchedShard = takeShards(kn.touchedShard, k)
	touched := kn.touchedShard
	applyBuckets(buckets, func(shard int, bucket []localPair) {
		for _, lp := range bucket {
			if kn.dec[lp.local] == 0 {
				touched[shard] = append(touched[shard], lp.local)
			}
			kn.dec[lp.local]++
		}
	})
	for _, t := range touched {
		kn.touched = append(kn.touched, t...)
	}
}

func (kn *kcoreNode) EndRound(round int) error {
	// Fold only the locals that actually received decrements — O(messages),
	// not O(n) per round. The touch order is batch-arrival order
	// (nondeterministic), so sort before folding: removals then append in
	// ascending local order, exactly as the old full-array scan did, which
	// keeps the next round's send order — and so the modelled traffic —
	// deterministic.
	sort.Slice(kn.touched, func(i, j int) bool { return kn.touched[i] < kn.touched[j] })
	for _, local := range kn.touched {
		if kn.alive[local] {
			before := kn.effdeg[local]
			kn.effdeg[local] -= kn.dec[local]
			// Schedule exactly on the downward crossing; vertices already
			// queued (below k but still alive) must not be queued twice.
			if before >= kn.k && kn.effdeg[local] < kn.k {
				kn.removal = append(kn.removal, local)
			}
		}
		kn.dec[local] = 0
	}
	kn.touched = kn.touched[:0]
	return nil
}

// kcoreCkpt is the Checkpointer payload: survival flags, effective
// degrees, and the removals scheduled for the next round. dec/touched are
// empty at every boundary (EndRound drains them).
type kcoreCkpt struct {
	Alive   []bool  `json:"alive"`
	Effdeg  []int64 `json:"effdeg"`
	Removal []int64 `json:"removal"`
}

func (kn *kcoreNode) CheckpointState() (any, error) {
	return &kcoreCkpt{
		Alive:   append([]bool(nil), kn.alive...),
		Effdeg:  append([]int64(nil), kn.effdeg...),
		Removal: append([]int64(nil), kn.removal...),
	}, nil
}

func (kn *kcoreNode) RestoreState(data []byte) error {
	var c kcoreCkpt
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("kcore state: %w", err)
	}
	if len(c.Alive) != len(kn.alive) || len(c.Effdeg) != len(kn.effdeg) {
		return fmt.Errorf("kcore state: %d/%d entries, partition gives %d",
			len(c.Alive), len(c.Effdeg), len(kn.alive))
	}
	copy(kn.alive, c.Alive)
	copy(kn.effdeg, c.Effdeg)
	kn.removal = append(kn.removal[:0], c.Removal...)
	return nil
}

// ReferenceKCore is the sequential peeling oracle.
func ReferenceKCore(g *graph.CSR, k int64) []bool {
	alive := make([]bool, g.N)
	deg := make([]int64, g.N)
	queue := make([]graph.Vertex, 0)
	for v := graph.Vertex(0); int64(v) < g.N; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
		if deg[v] < k {
			queue = append(queue, v)
			alive[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if !alive[u] {
				continue
			}
			deg[u]--
			if deg[u] < k {
				alive[u] = false
				queue = append(queue, u)
			}
		}
	}
	return alive
}
