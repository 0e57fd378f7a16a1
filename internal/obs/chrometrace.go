package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// moduleTrack maps a module name to its fixed thread id inside a node's
// process track: 0 generator, 1 forward handler, 2 backward handler,
// 3 relay.
func moduleTrack(module string) int {
	switch module {
	case ModuleForwardGenerator, ModuleBackwardGenerator:
		return 0
	case ModuleForwardHandler:
		return 1
	case ModuleBackwardHandler:
		return 2
	default:
		return 3
	}
}

// trackNames labels the per-node threads in track order.
var trackNames = [4]string{"generator", "forward handler", "backward handler", "relay"}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order is fixed by the struct, map args marshal with sorted keys —
// the output is byte-deterministic for a given input.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope ("t" thread)
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// machinePid is the process track carrying the per-run / per-level BFS
// timeline; node n's module tracks live on pid n+1.
const machinePid = 0

// WriteChromeTrace exports recorded runs as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto. Track layout:
//
//   - pid 0 ("machine"): one slice per run ("root N") nesting one slice
//     per level;
//   - pid n+1 ("node n"): four module threads (generator, forward handler,
//     backward handler, relay) carrying the run's ModuleSpans and
//     straggler flags, plus a flow arrow for every relay-transport hop so
//     cross-node causality is visible.
//
// Timestamps are microseconds of modelled machine time; runs are laid out
// one after another, each starting where the previous runs' TotalSeconds
// sum to.
func WriteChromeTrace(w io.Writer, traces []RunTrace) error {
	// The machine's level timeline goes first, then the node tracks.
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: machinePid, Args: map[string]any{"name": "machine"}}}
	var nodes []chromeEvent
	namedNodes := map[int]bool{}
	flowID := 0
	var offset float64
	for _, rt := range traces {
		runArgs := map[string]any{
			"visited":         rt.Visited,
			"traversed_edges": rt.TraversedEdges,
			"gteps":           rt.GTEPS,
		}
		// Per-format codec traffic rides on the run slice when a payload
		// codec ran; codec-free runs keep their exact legacy output.
		for _, ct := range rt.CodecTraffic {
			runArgs["codec_bytes."+ct.Format] = ct.Bytes
			runArgs["codec_messages."+ct.Format] = ct.Messages
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("root %d", rt.Root), Cat: "run", Ph: "X",
			Ts: offset * 1e6, Dur: rt.TotalSeconds * 1e6,
			Pid: machinePid, Tid: 0,
			Args: runArgs,
		})
		levelStart := offset
		for _, s := range rt.Levels {
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("L%d %s", s.Level, s.Direction), Cat: "level", Ph: "X",
				Ts: levelStart * 1e6, Dur: s.WallSeconds * 1e6,
				Pid: machinePid, Tid: 0,
				Args: map[string]any{
					"frontier_vertices": s.FrontierVertices,
					"edges_relaxed":     s.EdgesRelaxed,
					"network_bytes":     s.NetworkBytes,
					"rounds":            s.Rounds,
				},
			})
			levelStart += s.WallSeconds
		}

		// index locates a span for flow anchoring: flows bind to the
		// slice enclosing their timestamp on the given thread.
		type spanPos struct{ start, dur float64 }
		index := make(map[[3]int]spanPos) // (node, track, level)
		for _, sp := range rt.Spans {
			node, track := sp.Node, moduleTrack(sp.Module)
			if !namedNodes[node] {
				namedNodes[node] = true
				nodes = append(nodes, chromeEvent{
					Name: "process_name", Ph: "M", Pid: node + 1,
					Args: map[string]any{"name": fmt.Sprintf("node %d", node)},
				})
				for tid, tn := range trackNames {
					nodes = append(nodes, chromeEvent{
						Name: "thread_name", Ph: "M", Pid: node + 1, Tid: tid,
						Args: map[string]any{"name": tn},
					})
				}
			}
			index[[3]int{node, track, sp.Level}] = spanPos{offset + sp.Start, sp.Dur}
			args := map[string]any{"bytes": sp.Bytes}
			if sp.Workers > 0 {
				args["workers"] = sp.Workers
			}
			nodes = append(nodes, chromeEvent{
				Name: fmt.Sprintf("%s L%d", sp.Module, sp.Level), Cat: "module", Ph: "X",
				Ts: (offset + sp.Start) * 1e6, Dur: sp.Dur * 1e6,
				Pid: node + 1, Tid: track,
				Args: args,
			})
		}
		// Straggler flags become instant events on the node's generator
		// track at the flagged level's start.
		for _, sf := range rt.Stragglers {
			nodes = append(nodes, chromeEvent{
				Name: fmt.Sprintf("straggler L%d", sf.Level), Cat: "straggler",
				Ph: "i", S: "t",
				Ts:  (offset + sf.Start) * 1e6,
				Pid: sf.Node + 1, Tid: 0,
				Args: map[string]any{
					"host_seconds":      sf.HostSeconds,
					"mean_host_seconds": sf.MeanHostSeconds,
				},
			})
		}
		for _, fl := range rt.Flows {
			srcTrack, dstTrack := flowTracks(fl)
			src, okS := index[[3]int{fl.From, srcTrack, fl.Level}]
			dst, okD := index[[3]int{fl.To, dstTrack, fl.Level}]
			if !okS || !okD {
				continue // zero-byte module never produced a span to anchor on
			}
			flowID++
			name := fmt.Sprintf("relay stage %d %s", fl.Stage, fl.Channel)
			// Anchor a quarter into the source span and three quarters
			// into the destination span so arrows point forward.
			nodes = append(nodes, chromeEvent{
				Name: name, Cat: "flow", Ph: "s", ID: flowID,
				Ts:  (src.start + src.dur/4) * 1e6,
				Pid: fl.From + 1, Tid: srcTrack,
				Args: map[string]any{"bytes": fl.Bytes},
			})
			nodes = append(nodes, chromeEvent{
				Name: name, Cat: "flow", Ph: "f", BP: "e", ID: flowID,
				Ts:  (dst.start + 3*dst.dur/4) * 1e6,
				Pid: fl.To + 1, Tid: dstTrack,
			})
		}
		offset += rt.TotalSeconds
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: append(events, nodes...), DisplayTimeUnit: "ms"})
}

// flowTracks resolves the source and destination module tracks of a flow
// link: stage one leaves a generator for a relay; stage two leaves a relay
// for the channel's handler.
func flowTracks(fl FlowLink) (src, dst int) {
	if fl.Stage == FlowStageOne {
		return moduleTrack(ModuleForwardGenerator), moduleTrack(ModuleRelay)
	}
	if fl.Channel == "backward" {
		return moduleTrack(ModuleRelay), moduleTrack(ModuleBackwardHandler)
	}
	return moduleTrack(ModuleRelay), moduleTrack(ModuleForwardHandler)
}
