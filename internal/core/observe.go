package core

import (
	"swbfs/internal/obs"
)

// observe folds one completed run into the configured Observer: the
// accumulated metrics of every subsystem, then the machine's run tail — a
// RunTrace whose books reconcile exactly with the run's reported totals,
// module spans and relay flows included, and the end of the run. Called from assemble, while the
// run's network is still alive and after every module goroutine has
// joined.
func (r *Runner) observe(res *Result) {
	if m := r.cfg.Obs.MetricsOf(); m != nil {
		r.foldMetrics(m, res)
	}
	r.m.Finish(func(rt *obs.RunTrace) {
		rt.Visited = res.Visited
		rt.TraversedEdges = res.TraversedEdges
		rt.BottomUpLevels = res.BottomUpLevels
		rt.GTEPS = res.GTEPS
	}, obs.LiveEvent{Visited: res.Visited, GTEPS: res.GTEPS})
}

// foldMetrics adds the run's totals to the metrics registry. The registry
// accumulates across runs (the Graph500 harness folds 64 of these).
func (r *Runner) foldMetrics(m *obs.Registry, res *Result) {
	m.Counter("bfs.runs").Inc()
	m.Counter("bfs.levels").Add(int64(len(res.Levels)))
	m.Counter("bfs.levels.bottomup").Add(int64(res.BottomUpLevels))
	m.Counter("bfs.levels.topdown").Add(int64(len(res.Levels) - res.BottomUpLevels))
	m.Counter("bfs.visited_vertices").Add(res.Visited)
	m.Counter("bfs.traversed_edges").Add(res.TraversedEdges)

	frontier := m.Histogram("bfs.level.frontier_vertices")
	relaxed := m.Histogram("bfs.level.edges_relaxed")
	wall := m.Histogram("bfs.level.wall_us")
	netBytes := m.Histogram("bfs.level.network_bytes")
	var switches int64
	for i, s := range res.Levels {
		frontier.Observe(s.FrontierVertices)
		relaxed.Observe(s.FrontierEdges)
		wall.Observe(int64(r.m.Model.LevelTime(s) * 1e6))
		netBytes.Observe(s.Net.NetworkBytes())
		if i > 0 && s.Direction != res.Levels[i-1].Direction {
			switches++
		}
	}
	m.Counter("bfs.direction_switches").Add(switches)
}
