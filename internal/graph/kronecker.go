package graph

import (
	"fmt"
	"math/rand"
	"sync"
)

// Graph500 Kronecker generator parameters (the "suggested graph parameter"
// set used throughout the paper's evaluation).
const (
	// KroneckerA..KroneckerC are the R-MAT quadrant probabilities from the
	// Graph500 specification; the fourth is the remainder, D = 0.05.
	KroneckerA = 0.57
	KroneckerB = 0.19
	KroneckerC = 0.19

	// DefaultEdgeFactor is the Graph500 ratio of generated (undirected)
	// edges to vertices; the paper fixes it to 16.
	DefaultEdgeFactor = 16
)

// KroneckerConfig describes a Graph500-style Kronecker graph instance.
type KroneckerConfig struct {
	// Scale is log2 of the vertex count: N = 1 << Scale.
	Scale int
	// EdgeFactor is the number of generated edges per vertex
	// (DefaultEdgeFactor if zero).
	EdgeFactor int
	// Seed seeds the deterministic pseudo-random stream. Two generators
	// with the same config produce identical edge lists.
	Seed int64
	// A, B, C are the R-MAT quadrant probabilities (D is the remainder).
	// Zero values select the Graph500 defaults.
	A, B, C float64
	// Shards splits edge generation across that many goroutines, each with
	// its own seed stream over a contiguous edge range. 0 or 1 keeps the
	// historical serial stream. Note the shard count is part of the graph
	// identity: (Seed, Shards=4) generates a different — equally valid —
	// edge list than (Seed, Shards=1), so benchmark comparisons must hold
	// Shards fixed.
	Shards int
}

func (c KroneckerConfig) withDefaults() KroneckerConfig {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = DefaultEdgeFactor
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = KroneckerA, KroneckerB, KroneckerC
	}
	return c
}

// NumVertices returns 1 << Scale.
func (c KroneckerConfig) NumVertices() int64 { return int64(1) << uint(c.Scale) }

// NumEdges returns EdgeFactor << Scale, the number of generated (directed,
// pre-symmetrization) edges.
func (c KroneckerConfig) NumEdges() int64 {
	cc := c.withDefaults()
	return int64(cc.EdgeFactor) << uint(cc.Scale)
}

// Validate rejects configurations the generator cannot honour.
func (c KroneckerConfig) Validate() error {
	cc := c.withDefaults()
	if c.Scale < 1 || c.Scale > 40 {
		return fmt.Errorf("graph: Kronecker scale %d out of range [1, 40]", c.Scale)
	}
	if cc.EdgeFactor < 1 {
		return fmt.Errorf("graph: edge factor %d must be positive", cc.EdgeFactor)
	}
	if cc.A <= 0 || cc.B < 0 || cc.C < 0 || cc.A+cc.B+cc.C >= 1 {
		return fmt.Errorf("graph: invalid R-MAT probabilities A=%v B=%v C=%v", cc.A, cc.B, cc.C)
	}
	return nil
}

// GenerateKronecker produces the raw edge list of a Kronecker graph per the
// Graph500 specification: Scale recursive quadrant choices per edge followed
// by a pseudo-random relabelling of vertices, so that vertex IDs carry no
// positional information (the power-law "hubs" land on arbitrary IDs).
//
// The returned list is the raw generator output: it may contain self loops
// and duplicate edges, which BuildCSR removes, mirroring steps (1) and (3)
// of the benchmark.
func GenerateKronecker(cfg KroneckerConfig) ([]Edge, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	m := cfg.NumEdges()
	edges := make([]Edge, m)

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if int64(shards) > m {
		shards = int(m)
	}
	if shards == 1 {
		fillKronecker(edges, cfg, rand.NewSource(cfg.Seed))
	} else {
		// Each shard owns a contiguous edge range and a seed derived by
		// mixing the shard index into the base seed, so shard streams are
		// independent and the output depends only on (Seed, Shards) — not
		// on scheduling.
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			lo := m * int64(s) / int64(shards)
			hi := m * int64(s+1) / int64(shards)
			wg.Add(1)
			go func(span []Edge, seed int64) {
				defer wg.Done()
				fillKronecker(span, cfg, rand.NewSource(seed))
			}(edges[lo:hi], splitmix64(cfg.Seed, int64(s)))
		}
		wg.Wait()
	}

	perm := vertexPermutation(cfg.NumVertices(), cfg.Seed)
	for i := range edges {
		edges[i].From = perm[edges[i].From]
		edges[i].To = perm[edges[i].To]
	}
	return edges, nil
}

// fillKronecker generates R-MAT edges into the span from one random
// stream.
func fillKronecker(span []Edge, cfg KroneckerConfig, src rand.Source) {
	rng := rand.New(src)
	ab := cfg.A + cfg.B
	cNorm := cfg.C / (1 - ab)
	for i := range span {
		var u, v int64
		for bit := 0; bit < cfg.Scale; bit++ {
			// Choose the quadrant for this bit level. Following the
			// Graph500 reference, the row bit and column bit are drawn
			// from the marginal and conditional distributions of the
			// 2x2 initiator matrix.
			iBit := rng.Float64() > ab
			var jBit bool
			if iBit {
				jBit = rng.Float64() > cNorm
			} else {
				jBit = rng.Float64() > cfg.A/ab
			}
			if iBit {
				u |= 1 << uint(bit)
			}
			if jBit {
				v |= 1 << uint(bit)
			}
		}
		span[i] = Edge{From: Vertex(u), To: Vertex(v)}
	}
}

// splitmix64 derives a shard seed from the base seed, using the SplitMix64
// finalizer so adjacent shard indices land in unrelated stream states.
func splitmix64(seed, shard int64) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// vertexPermutation returns a deterministic pseudo-random permutation of
// [0, n), used to scramble Kronecker vertex labels.
func vertexPermutation(n, seed int64) []Vertex {
	rng := rand.New(rand.NewSource(seed ^ 0x5bf0_3635))
	perm := make([]Vertex, n)
	for i := range perm {
		perm[i] = Vertex(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// GenerateUniform produces m directed edges drawn uniformly at random over
// [0, n) x [0, n). It is the non-power-law control workload used by ablation
// benchmarks (the paper's techniques target power-law graphs specifically).
func GenerateUniform(n, m, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			From: Vertex(rng.Int63n(n)),
			To:   Vertex(rng.Int63n(n)),
		}
	}
	return edges
}
