package algos

import (
	"encoding/json"
	"fmt"

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
	crossed *graph.Bitmap // locals whose effdeg fell below k this round
	removal []int64       // local indices scheduled for removal this round
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

func kcoreRun(cfg core.Config, g *graph.CSR, k int64, from *ckpt.Checkpoint) (*KCoreResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("algos: k must be >= 1, got %d", k)
	}
	opts := RunOptions{Kernel: "kcore", Root: graph.NoVertex, Args: fmt.Sprintf("k=%d", k), Resume: from}
	nodes, info, err := Run(cfg, g, opts, func(ctx *NodeCtx) (*kcoreNode, error) {
		n := ctx.Sub.NumVertices()
		kn := &kcoreNode{
			ctx:     ctx,
			k:       k,
			alive:   make([]bool, n),
			effdeg:  make([]int64, n),
			crossed: graph.NewBitmap(n),
		}
		for local := int64(0); local < n; local++ {
			kn.alive[local] = true
			kn.effdeg[local] = ctx.Sub.Degree(local)
			if kn.effdeg[local] < k {
				kn.removal = append(kn.removal, local)
			}
		}
		return kn, nil
	})
	if err != nil {
		return nil, err
	}

	res := &KCoreResult{
		InCore: gather(nodes[0].ctx.Part, nodes, func(kn *kcoreNode) []bool { return kn.alive }),
		Info:   info,
	}
	for _, in := range res.InCore {
		if in {
			res.CoreSize++
		}
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

// Handle applies one decrement per pair to the live destinations and
// marks each that crosses below k. Decrements arrive one at a time, so a
// vertex crosses (effdeg k -> k-1) at most once however its decrements are
// split across batches and shards; vertices already below k never cross
// again, so none is scheduled twice.
func (kn *kcoreNode) Handle(_ int, pairs []comm.Pair) {
	for _, p := range pairs {
		local := int64(p[0])
		if kn.alive[local] {
			kn.effdeg[local]--
			if kn.effdeg[local] == kn.k-1 {
				kn.crossed.Set(local)
			}
		}
	}
}

// EndRound schedules the round's crossings for removal in ascending local
// order, which keeps the next round's send order — and so the modelled
// traffic — deterministic.
func (kn *kcoreNode) EndRound(round int) error {
	kn.crossed.ForEach(func(local int64) { kn.removal = append(kn.removal, local) })
	kn.crossed.Reset()
	return nil
}

// kcoreCkpt is the checkpoint payload: survival flags, effective
// degrees, and the removals scheduled for the next round. crossed is empty
// at every boundary (EndRound drains it).
type kcoreCkpt struct {
	Alive   []bool  `json:"alive"`
	Effdeg  []int64 `json:"effdeg"`
	Removal []int64 `json:"removal"`
}

func (kn *kcoreNode) CheckpointState() any {
	return &kcoreCkpt{
		Alive:   append([]bool(nil), kn.alive...),
		Effdeg:  append([]int64(nil), kn.effdeg...),
		Removal: append([]int64(nil), kn.removal...),
	}
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
