package graph500

import (
	"slices"
	"strings"
	"testing"

	"swbfs/internal/core"
	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// family is one graph shape with its reference BFS tree, shared by the
// differential sweep and FuzzValidate.
type family struct {
	name   string
	g      *graph.CSR
	root   graph.Vertex
	parent []graph.Vertex
	level  []int64
}

// validateFamilies builds the shapes the validators are compared on
// (testutil.Families) with their reference BFS trees. Between them the
// shapes pin what the chunked edge pass must get right: an N that is not a
// multiple of validateChunkEdges, a row longer than one chunk (the star's
// hub), several chunks (kronecker, star, skew), and heavy rows packed at
// the low vertex ids (skew).
func validateFamilies(tb testing.TB) []family {
	tb.Helper()
	var fams []family
	for _, f := range testutil.Families(tb, validateChunkEdges+7000) {
		parent, level := core.ReferenceBFS(f.G, f.Root)
		fams = append(fams, family{name: f.Name, g: f.G, root: f.Root, parent: parent, level: level})
	}
	return fams
}

// corruption rewrites parent[s] alone; ok is false when the shape offers no
// such rewrite at s (no child to close a cycle with, no same-level vertex).
type corruption struct {
	name  string
	apply func(f family, s graph.Vertex) (to graph.Vertex, ok bool)
}

// pick returns the first vertex, neighbours of s before all others, that
// satisfies want.
func pick(f family, s graph.Vertex, want func(w graph.Vertex) bool) (graph.Vertex, bool) {
	for _, w := range f.g.Neighbors(s) {
		if want(w) {
			return w, true
		}
	}
	for w := graph.Vertex(0); int64(w) < f.g.N; w++ {
		if w != s && want(w) {
			return w, true
		}
	}
	return 0, false
}

var corruptions = []corruption{
	{"NoVertex", func(f family, s graph.Vertex) (graph.Vertex, bool) { return graph.NoVertex, true }},
	{"self", func(f family, s graph.Vertex) (graph.Vertex, bool) { return s, true }},
	{"sibling", func(f family, s graph.Vertex) (graph.Vertex, bool) {
		return pick(f, s, func(w graph.Vertex) bool { return f.level[s] >= 0 && f.level[w] == f.level[s] })
	}},
	{"non-neighbour at the right level", func(f family, s graph.Vertex) (graph.Vertex, bool) {
		return pick(f, s, func(w graph.Vertex) bool {
			return f.level[s] > 0 && f.level[w] == f.level[s]-1 && !f.g.HasEdge(w, s)
		})
	}},
	{"out of range", func(f family, s graph.Vertex) (graph.Vertex, bool) { return graph.Vertex(f.g.N) + s, true }},
	{"cycle", func(f family, s graph.Vertex) (graph.Vertex, bool) {
		return pick(f, s, func(w graph.Vertex) bool { return f.parent[w] == s })
	}},
	{"wrong-component parent", func(f family, s graph.Vertex) (graph.Vertex, bool) {
		return pick(f, s, func(w graph.Vertex) bool { return (f.level[w] < 0) != (f.level[s] < 0) })
	}},
	// Not a corruption: the control that keeps the accept path in the sweep.
	{"alternate parent (valid)", func(f family, s graph.Vertex) (graph.Vertex, bool) {
		return pick(f, s, func(w graph.Vertex) bool {
			return f.level[s] > 0 && w != f.parent[s] && f.level[w] == f.level[s]-1 && f.g.HasEdge(w, s)
		})
	}},
}

// ruleOf maps a validator's rejection onto the rule of Validate's godoc it
// enforces. Rule 4 holds by construction in both validators — levels are
// defined as level(parent)+1 — so a map whose so-defined levels are not BFS
// distances surfaces as an edge spanning more than one level; that is what
// is counted under 4, and the component-closure half of rule 5 under 5.
func ruleOf(err error) int {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "parent[root="):
		return 1
	case strings.Contains(msg, "unvisited parent"), strings.Contains(msg, "out-of-range parent"), strings.Contains(msg, "(cycle)"):
		return 2
	case strings.Contains(msg, "tree edge"):
		return 3
	case strings.Contains(msg, "spans levels"):
		return 4
	case strings.Contains(msg, "spans visited/unvisited"):
		return 5
	}
	return 0
}

// TestValidateDifferentialSweep holds ValidateParallel to the serial oracle
// on every shape x sampled slot x single-slot rewrite x worker count: equal
// verdict, equal levels on accept, and on reject an error that does not
// depend on the worker count. It fails if the sweep left any rule
// unexercised in either validator, or never reached the accept path.
func TestValidateDifferentialSweep(t *testing.T) {
	var seqHits, parHits [6]int
	accepted := 0
	for _, f := range validateFamilies(t) {
		n := graph.Vertex(f.g.N)
		slots := []graph.Vertex{f.root, f.g.Neighbors(f.root)[0], n - 3, n - 2, n - 1}
		for s := graph.Vertex(0); s < n; s += max(1, n/24) {
			slots = append(slots, s)
		}
		for _, s := range slots {
			for _, c := range corruptions {
				to, ok := c.apply(f, s)
				if !ok {
					continue
				}
				parent := slices.Clone(f.parent)
				parent[s] = to
				seqLevel, seqErr := Validate(f.g, f.root, parent)
				if seqErr != nil {
					if ruleOf(seqErr) == 0 {
						t.Fatalf("%s slot %d %s: unclassified rejection %v", f.name, s, c.name, seqErr)
					}
					seqHits[ruleOf(seqErr)]++
				} else {
					accepted++
				}
				var first error
				for _, workers := range []int{1, 2, 3, 7} {
					parLevel, parErr := ValidateParallel(f.g, f.root, parent, workers)
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("%s slot %d %s workers=%d: Validate says %v, ValidateParallel says %v",
							f.name, s, c.name, workers, seqErr, parErr)
					}
					if parErr == nil {
						if !slices.Equal(parLevel, seqLevel) {
							t.Fatalf("%s slot %d %s workers=%d: levels differ from Validate's", f.name, s, c.name, workers)
						}
						continue
					}
					if workers == 1 {
						first = parErr
						if ruleOf(parErr) == 0 {
							t.Fatalf("%s slot %d %s: unclassified rejection %v", f.name, s, c.name, parErr)
						}
						parHits[ruleOf(parErr)]++
					} else if parErr.Error() != first.Error() {
						t.Fatalf("%s slot %d %s: workers=1 reports %q, workers=%d reports %q",
							f.name, s, c.name, first, workers, parErr)
					}
				}
			}
		}
	}
	for rule := 1; rule <= 5; rule++ {
		if seqHits[rule] == 0 || parHits[rule] == 0 {
			t.Errorf("rule %d never rejected anything: Validate %d, ValidateParallel %d rejections",
				rule, seqHits[rule], parHits[rule])
		}
	}
	if accepted == 0 {
		t.Error("no rewrite was accepted: the level comparison never ran")
	}
	t.Logf("rejections by rule 1..5: Validate %v, ValidateParallel %v; accepted %d", seqHits[1:], parHits[1:], accepted)
}

// TestValidateParallelScansContinuedRows: every stored edge is checked, also
// the part of a row that runs on into later chunks. On a symmetric graph a
// rule-5 violation shows from both endpoints, so the continuation is pinned
// on a hand-built one-directional star — hub row only — where the hub's row
// is the sole witness of an unvisited leaf.
func TestValidateParallelScansContinuedRows(t *testing.T) {
	const n = 2*validateChunkEdges + 100
	g := &graph.CSR{N: n, RowPtr: make([]int64, n+1), Col: make([]graph.Vertex, n-1)}
	for v := 1; v < n; v++ {
		g.Col[v-1] = graph.Vertex(v)
		g.RowPtr[v] = n - 1
	}
	g.RowPtr[n] = n - 1
	parent, _ := core.ReferenceBFS(g, 0)
	if _, err := ValidateParallel(g, 0, parent, 2); err != nil {
		t.Fatalf("one-directional star rejected: %v", err)
	}
	for _, leaf := range []graph.Vertex{5, validateChunkEdges + 5, n - 1} { // one per chunk
		bad := slices.Clone(parent)
		bad[leaf] = graph.NoVertex
		_, seqErr := Validate(g, 0, bad)
		_, parErr := ValidateParallel(g, 0, bad, 2)
		if seqErr == nil || parErr == nil || ruleOf(parErr) != 5 {
			t.Fatalf("unvisited leaf %d: Validate says %v, ValidateParallel says %v, want rule-5 rejections", leaf, seqErr, parErr)
		}
	}
}
