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
