package main

import (
	"sort"
	"testing"
	"time"

	"swbfs/internal/comm"
	"swbfs/internal/core"
	"swbfs/internal/graph"
)

func TestSelfTimeOverlappingAndMissingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNs: 0, EndNs: 100},
		// Two children overlapping on [30, 40]: covered once.
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60},
		// A child running past its parent is clipped to it.
		{ID: 3, Parent: 0, Name: "c", StartNs: 90, EndNs: 130},
		// A grandchild leaves a gap inside its own parent.
		{ID: 4, Parent: 1, Name: "a.inner", StartNs: 15, EndNs: 25},
		// A span whose children were never recorded keeps all its time.
		{ID: 5, Parent: -1, Name: "probe", StartNs: 200, EndNs: 260},
	}
	want := []int64{100 - (50 + 10), 30 - 10, 30, 40, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	total, parts := sharesUnder(spans, "op")
	if total != 40+20+30+40+10 {
		t.Errorf("shares under op add up to %d, want 140 (self times of op and everything below it)", total)
	}
	if parts[0].ns < parts[len(parts)-1].ns {
		t.Errorf("shares not sorted largest first: %v", parts)
	}
}

func TestLevelSpansStayInsideTheirRun(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	start, end := at(100), at(200)
	// An event stamped before the call began (a late receiver catching up),
	// two inside, and one received after the call had already returned.
	stamps := []time.Time{at(90), at(120), at(150), at(230)}
	ivs := levelSpans(start, end, stamps)
	if len(ivs) != len(stamps) {
		t.Fatalf("%d intervals for %d events", len(ivs), len(stamps))
	}
	var total time.Duration
	for i, iv := range ivs {
		if iv[0].Before(start) || iv[1].After(end) || iv[1].Before(iv[0]) {
			t.Errorf("level %d = [%v, %v] leaves the run [%v, %v]", i, iv[0], iv[1], start, end)
		}
		if i > 0 && iv[0].Before(ivs[i-1][1]) {
			t.Errorf("level %d starts before level %d ends", i, i-1)
		}
		total += iv[1].Sub(iv[0])
	}
	if total > end.Sub(start) {
		t.Errorf("levels add up to %v, more than the %v run that contains them", total, end.Sub(start))
	}
	if want := 100 * time.Millisecond; total != want {
		t.Errorf("levels cover %v, want the whole %v from the first event on", total, want)
	}

	// The run-done stamp closes the last level early; what follows belongs
	// to the caller.
	tr := newTracer("t")
	run := runEvents{done: at(180)}
	for _, s := range stamps[1:3] {
		run.levels = append(run.levels, stampedEvent{at: s})
	}
	ms := addLevelSpans(tr, -1, 0, "core", start, end, run)
	if len(ms) != 2 || ms[0] != 30 || ms[1] != 30 {
		t.Errorf("level durations %v, want [30 30] ms", ms)
	}
	if len(tr.spans) != 2 {
		t.Errorf("%d level spans recorded, want 2", len(tr.spans))
	}
}

// The batch builder must hand the probes exactly the traffic of the level it
// was cut from: every edge out of the level's frontier, to the owner of its
// far end, and among those exactly the cross-node edges of the reference BFS.
func TestLevelTrafficReproducesReferenceLevel(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 4
	part := graph.NewRoundRobin(g.N, nodes)
	_, hub := g.MaxDegree()
	_, level := core.ReferenceBFS(g, hub)

	for depth := int64(0); depth <= 2; depth++ {
		type edge struct {
			src, dst int
			p        comm.Pair
		}
		var want []edge
		for u := graph.Vertex(0); int64(u) < g.N; u++ {
			if level[u] != depth {
				continue
			}
			for _, v := range g.Neighbors(u) {
				if part.Owner(u) != part.Owner(v) {
					want = append(want, edge{part.Owner(u), part.Owner(v), comm.Pair{u, v}})
				}
			}
		}
		if depth > 0 && len(want) == 0 {
			t.Fatalf("level %d has no cross-node edge; the test graph is too small", depth)
		}

		var got []edge
		var frontierEdges int64
		for src, chunks := range levelTraffic(g, part, level, depth, 1<<30) {
			for _, c := range chunks {
				if len(c.pairs) > stageCapPairs {
					t.Fatalf("chunk of %d pairs exceeds the stage cap", len(c.pairs))
				}
				off := 0
				for _, r := range c.runs {
					for _, p := range c.pairs[off : off+r.N] {
						frontierEdges++
						if level[p[0]] != depth || part.Owner(p[0]) != src || part.Owner(p[1]) != r.Dst {
							t.Fatalf("pair %v staged on node %d for node %d does not belong there", p, src, r.Dst)
						}
						if src != r.Dst {
							got = append(got, edge{src, r.Dst, p})
						}
					}
					off += r.N
				}
				if off != len(c.pairs) {
					t.Fatalf("runs cover %d of %d pairs", off, len(c.pairs))
				}
			}
		}
		less := func(es []edge) func(i, j int) bool {
			return func(i, j int) bool {
				if es[i].p[0] != es[j].p[0] {
					return es[i].p[0] < es[j].p[0]
				}
				return es[i].p[1] < es[j].p[1]
			}
		}
		sort.Slice(want, less(want))
		sort.Slice(got, less(got))
		if len(got) != len(want) {
			t.Fatalf("level %d: %d cross-node pairs, reference has %d", depth, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("level %d: pair %d is %v, reference has %v", depth, i, got[i], want[i])
			}
		}
		var degreeSum int64
		for u := graph.Vertex(0); int64(u) < g.N; u++ {
			if level[u] == depth {
				degreeSum += g.Degree(u)
			}
		}
		if frontierEdges != degreeSum {
			t.Errorf("level %d: %d pairs staged, frontier has %d edges", depth, frontierEdges, degreeSum)
		}
	}
}
