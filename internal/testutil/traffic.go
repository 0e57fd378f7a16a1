package testutil

import "swbfs/internal/graph"

// RoundPairs is an independent count of a combined round's traffic. In a
// round where every vertex sends along each of its edges — a PageRank
// iteration, or WCC's round 0 — a node that folds its pairs per
// destination vertex before sending ships one pair per distinct
// (sending node, destination vertex). RoundPairs counts those serially from
// g and the round-robin partition over nodes (vertex v on node v mod
// nodes) alone, and returns them per receiving node.
func RoundPairs(g *graph.CSR, nodes int) []int64 {
	recv := make([]int64, nodes)
	seen := make([]bool, g.N)
	for s := 0; s < nodes; s++ {
		clear(seen)
		for v := int64(s); v < g.N; v += int64(nodes) {
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				if !seen[u] {
					seen[u] = true
					recv[int64(u)%int64(nodes)]++
				}
			}
		}
	}
	return recv
}

// ForwardPairs is an independent count of a top-down BFS's folded forward
// traffic. It replays each node's FORWARD_GENERATOR stream serially — the
// node's frontier (the vertices level puts at that depth, as
// core.ReferenceBFS returns it) in ascending vertex order under the
// round-robin partition over nodes, each vertex's neighbours in CSR order,
// one pair per edge — and cuts it by the transport's quantum rule: per
// destination group of `members` consecutive nodes (1 on Direct, the relay
// group width M on Relay), a group seals its destinations' open batches
// when its pair count reaches quantum, and every residual seals when the
// channel closes. A sealed batch folds to one pair per destination vertex,
// so it delivers its distinct vertices. ForwardPairs returns, per level and
// per receiving node, the pairs delivered — hub prefetch off, every level
// top-down.
func ForwardPairs(g *graph.CSR, level []int64, nodes, members, quantum int) [][]int64 {
	depth := int64(-1)
	for _, l := range level {
		depth = max(depth, l)
	}
	recv := make([][]int64, depth+1)
	// joined[v] is the id of the open batch v last joined; batch ids start
	// at 1, so no vertex has joined any.
	joined := make([]int64, g.N)
	open := make([]int64, nodes)     // each destination's open batch id
	distinct := make([]int64, nodes) // distinct vertices in that batch
	pending := make([]int, nodes/members)
	id := int64(0)
	for l := range recv {
		recv[l] = make([]int64, nodes)
		seal := func(grp int) {
			for dst := grp * members; dst < (grp+1)*members; dst++ {
				recv[l][dst] += distinct[dst]
				distinct[dst] = 0
				id++
				open[dst] = id
			}
			pending[grp] = 0
		}
		for s := 0; s < nodes; s++ {
			for grp := range pending {
				seal(grp) // empty: every batch opens afresh
			}
			for u := int64(s); u < g.N; u += int64(nodes) {
				if level[u] != int64(l) {
					continue
				}
				for _, v := range g.Neighbors(graph.Vertex(u)) {
					dst := int(int64(v) % int64(nodes))
					if joined[v] != open[dst] {
						joined[v] = open[dst]
						distinct[dst]++
					}
					grp := dst / members
					if pending[grp]++; pending[grp] == quantum {
						seal(grp)
					}
				}
			}
			for grp, n := range pending {
				if n > 0 {
					seal(grp)
				}
			}
		}
	}
	return recv
}

// DirectMessages is an independent count of a top-down BFS's network
// messages on the Direct transport. It replays the same generator streams
// as ForwardPairs and counts, per level and per sending node, what the
// node sends each peer (loopback excluded) when it has generated n pairs
// for it: n/quantum full batches, plus the End — carried by the residual
// batch when n is not a multiple of quantum, bare otherwise. That is
// n/quantum + 1 messages per peer whatever n is, so a node sends at least
// nodes-1 messages in every level — hub prefetch off, every level top-down.
func DirectMessages(g *graph.CSR, level []int64, nodes, quantum int) [][]int64 {
	depth := int64(-1)
	for _, l := range level {
		depth = max(depth, l)
	}
	sent := make([][]int64, depth+1)
	toPeer := make([]int64, nodes)
	for l := range sent {
		sent[l] = make([]int64, nodes)
		for s := 0; s < nodes; s++ {
			clear(toPeer)
			for u := int64(s); u < g.N; u += int64(nodes) {
				if level[u] == int64(l) {
					for _, v := range g.Neighbors(graph.Vertex(u)) {
						toPeer[int64(v)%int64(nodes)]++
					}
				}
			}
			for dst, n := range toPeer {
				if dst != s {
					sent[l][s] += n/int64(quantum) + 1
				}
			}
		}
	}
	return sent
}
