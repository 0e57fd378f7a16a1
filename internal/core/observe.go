package core

import (
	"swbfs/internal/comm"
	"swbfs/internal/obs"
)

// observe folds one completed run into the configured Observer: a
// RunTrace whose spans reconcile exactly with the run's reported totals,
// and the accumulated metrics of every subsystem. Called from assemble,
// while the run's network is still alive and after every module goroutine
// has joined.
func (r *Runner) observe(res *Result) {
	o := r.cfg.Obs
	if o == nil {
		return
	}

	if t := o.TraceOf(); t != nil {
		rt := r.m.Trace()
		rt.Visited = res.Visited
		rt.TraversedEdges = res.TraversedEdges
		rt.BottomUpLevels = res.BottomUpLevels
		rt.GTEPS = res.GTEPS
		t.Record(rt)
	}
	if m := o.MetricsOf(); m != nil {
		r.foldMetrics(m, res)
	}
	if sr := o.SpansOf(); sr != nil {
		sr.EndRun(res.Time, r.buildSpans(res), r.stragglerFlags(res))
	}
	if pb := o.ProgressOf(); pb != nil {
		pb.Publish(obs.LiveEvent{
			Kind: obs.EventRunDone, Root: int64(res.Root),
			Visited: res.Visited, GTEPS: res.GTEPS,
		})
	}
}

// buildSpans lays the run's per-node module work out on the modelled
// timeline: each level's module spans start at the level's start and last
// bytes/bandwidth at the configured engine's module bandwidth. Modules run
// concurrently (one CPE cluster each, Figure 10), so spans on different
// tracks of the same level overlap by design; a single module's span never
// outlasts its level because the level time bounds the slowest node's
// makespan from above.
func (r *Runner) buildSpans(res *Result) []obs.ModuleSpan {
	bw := r.cfg.Engine.Bandwidth()
	var spans []obs.ModuleSpan
	levelStart := 0.0
	for li, s := range res.Levels {
		for _, ns := range r.nodes {
			if li >= len(ns.spanLog) {
				continue
			}
			mw := ns.spanLog[li]
			gen := obs.ModuleForwardGenerator
			if mw.dir == BottomUp {
				gen = obs.ModuleBackwardGenerator
			}
			names := [4]string{gen, obs.ModuleForwardHandler, obs.ModuleBackwardHandler, obs.ModuleRelay}
			workers := 0
			if ns.workers > 1 {
				workers = ns.workers // attribute pool width only when fanned out
			}
			for mi, b := range mw.bytes {
				if b == 0 {
					continue
				}
				spans = append(spans, obs.ModuleSpan{
					Node: ns.id, Module: names[mi], Level: mw.level,
					Start: levelStart, Dur: float64(b) / bw, Bytes: b,
					Workers: workers,
				})
			}
		}
		levelStart += r.m.Model.LevelTime(s)
	}
	return spans
}

// stragglerFlags stamps each detected straggler with its level's start on
// the modelled timeline, so the Chrome trace can pin the instant event to
// the flagged level.
func (r *Runner) stragglerFlags(res *Result) []obs.StragglerFlag {
	if len(r.stragglers) == 0 {
		return nil
	}
	starts := make([]float64, len(res.Levels))
	t := 0.0
	for i, s := range res.Levels {
		starts[i] = t
		t += r.m.Model.LevelTime(s)
	}
	out := make([]obs.StragglerFlag, len(r.stragglers))
	for i, sf := range r.stragglers {
		if sf.Level < len(starts) {
			sf.Start = starts[sf.Level]
		}
		out[i] = sf
	}
	return out
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

	// Module work, summed over all nodes and levels of the run.
	var gen, fwd, bwd, relay, invocations, smallBatches, relayed int64
	for _, ns := range r.nodes {
		gen += ns.runGenBytes
		fwd += ns.runFwdBytes
		bwd += ns.runBwdBytes
		relay += ns.runRelayBytes
		invocations += ns.runInvocations
		smallBatches += ns.runSmallBatches
		if rep, ok := ns.ep.(*comm.RelayEndpoint); ok {
			relayed += rep.TotalRelayedBytes()
		}
	}
	m.Counter("core.module.generator.bytes").Add(gen)
	m.Counter("core.module.handler.forward.bytes").Add(fwd)
	m.Counter("core.module.handler.backward.bytes").Add(bwd)
	m.Counter("core.module.relay.bytes").Add(relay)
	m.Counter("core.module.invocations").Add(invocations)
	m.Counter("core.module.small_batches_mpe").Add(smallBatches)
	m.Counter("comm.relay.pair_bytes").Add(relayed)
	m.Gauge("core.workers").Set(int64(r.cfg.Workers))
	if n := len(r.stragglers); n > 0 {
		m.Counter("core.stragglers").Add(int64(n))
	}

	// Network traffic and connection accounting (comm.* taxonomy).
	r.net.MetricsInto(m)
}
