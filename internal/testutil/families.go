package testutil

import (
	"testing"

	"swbfs/internal/graph"
)

// Family is one graph shape the kernels and validators are checked on,
// with the root a rooted kernel starts from.
type Family struct {
	Name string
	G    *graph.CSR
	Root graph.Vertex
}

// Families builds the graph shapes; the star has starN vertices. Every
// shape but kronecker carries three trailing stragglers — an isolated
// vertex and a disjoint edge — so an unvisited component always exists.
// Skew packs heavy rows at the low vertex ids, as an unpermuted file graph
// does; uniform has no skew at all.
func Families(tb testing.TB, starN int64) []Family {
	tb.Helper()
	build := func(name string, n int64, root graph.Vertex, edges []graph.Edge) Family {
		edges = append(edges, graph.Edge{From: graph.Vertex(n + 1), To: graph.Vertex(n + 2)})
		g, err := graph.BuildCSR(n+3, edges)
		if err != nil {
			tb.Fatal(err)
		}
		return Family{Name: name, G: g, Root: root}
	}
	var fams []Family

	kron, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 11, Seed: 19})
	if err != nil {
		tb.Fatal(err)
	}
	_, hub := kron.MaxDegree()
	fams = append(fams, Family{Name: "kronecker", G: kron, Root: hub})

	var path []graph.Edge
	for v := graph.Vertex(0); v < 256; v++ {
		path = append(path, graph.Edge{From: v, To: v + 1})
	}
	fams = append(fams, build("path", 257, 0, path))

	var star []graph.Edge
	for v := graph.Vertex(1); int64(v) < starN; v++ {
		star = append(star, graph.Edge{From: 0, To: v})
	}
	fams = append(fams, build("star", starN, 7, star)) // rooted at a leaf: three levels

	const side = 24
	var grid []graph.Edge
	for r := graph.Vertex(0); r < side; r++ {
		for c := graph.Vertex(0); c < side; c++ {
			if c+1 < side {
				grid = append(grid, graph.Edge{From: r*side + c, To: r*side + c + 1})
			}
			if r+1 < side {
				grid = append(grid, graph.Edge{From: r*side + c, To: (r+1)*side + c})
			}
		}
	}
	fams = append(fams, build("grid", side*side, side*side/2, grid))

	const clique = 12
	cliques := []graph.Edge{{From: clique - 1, To: clique}} // the bridge
	for a := graph.Vertex(0); a < clique; a++ {
		for b := a + 1; b < clique; b++ {
			cliques = append(cliques, graph.Edge{From: a, To: b}, graph.Edge{From: clique + a, To: clique + b})
		}
	}
	fams = append(fams, build("two cliques and a bridge", 2*clique, 3, cliques))

	// A binary tree on every third vertex; the two between are isolated.
	var sparse []graph.Edge
	for i := graph.Vertex(1); i < 60; i++ {
		sparse = append(sparse, graph.Edge{From: 3 * ((i - 1) / 2), To: 3 * i})
	}
	fams = append(fams, build("isolated vertices", 180, 0, sparse))

	const skewN = 4096
	var skew []graph.Edge
	for u := graph.Vertex(0); u < skewN; u++ {
		for v := u + 1; v < min(skewN, u+1+skewN/(u+1)); v++ {
			skew = append(skew, graph.Edge{From: u, To: v})
		}
	}
	fams = append(fams, build("unpermuted skew", skewN, skewN-1, skew))

	// Uniform draws can loop a vertex onto itself, and leave some vertices
	// without an edge; the root is the hub.
	const uniformN = 1000
	uniform := build("uniform", uniformN, 0, graph.GenerateUniform(uniformN, 4*uniformN, 23))
	_, uniform.Root = uniform.G.MaxDegree()
	return append(fams, uniform)
}
