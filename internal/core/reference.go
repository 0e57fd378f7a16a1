package core

import "swbfs/internal/graph"

// ReferenceBFS is the trivially correct single-threaded BFS used as the
// oracle in tests and by the Graph500 validator: it returns the parent map
// and the level (hop distance) of every vertex, with NoVertex / -1 for
// unreachable ones.
func ReferenceBFS(g *graph.CSR, root graph.Vertex) (parent []graph.Vertex, level []int64) {
	parent = make([]graph.Vertex, g.N)
	level = make([]int64, g.N)
	for i := range parent {
		parent[i] = graph.NoVertex
		level[i] = -1
	}
	if g.N == 0 || root < 0 || int64(root) >= g.N {
		return parent, level
	}
	parent[root] = root
	level[root] = 0
	queue := []graph.Vertex{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if parent[v] == graph.NoVertex {
				parent[v] = u
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return parent, level
}
