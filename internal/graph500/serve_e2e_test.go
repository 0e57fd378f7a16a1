package graph500

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"swbfs/internal/core"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
)

// TestServeLiveRun is the end-to-end telemetry check: start the -serve
// server, subscribe to /events, run a real (small) benchmark, and verify
// the live SSE progress, the Prometheus /metrics exposition, the /traces
// JSON (still reconciling), and /debug/pprof are all served correctly.
func TestServeLiveRun(t *testing.T) {
	observer := obs.New()
	observer.Progress = obs.NewProgressBroker()

	server, err := obs.Serve("127.0.0.1:0", observer)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer server.Close()

	// Subscribe before the run so the stream captures it live. The SSE
	// handler's 256-event buffer comfortably holds this run's events.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", server.URL()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /events = %d", resp.StatusCode)
	}

	const roots = 2
	report, err := Run(BenchConfig{
		Scale:      10,
		EdgeFactor: 16,
		Seed:       7,
		Roots:      roots,
		Machine: core.Config{
			Nodes:              4,
			SuperNodeSize:      2,
			Transport:          core.TransportRelay,
			Engine:             perf.EngineCPE,
			DirectionOptimized: true,
			HubPrefetch:        true,
			SmallMessageMPE:    true,
			Obs:                observer,
		},
	})
	if err != nil {
		t.Fatalf("benchmark: %v", err)
	}

	// Drain the SSE stream until both runs completed (the events were
	// buffered server-side while the benchmark ran).
	var starts, levels, dones int
	sc := bufio.NewScanner(resp.Body)
	var curEvent string
	for dones < roots && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			curEvent = line[7:]
		case strings.HasPrefix(line, "data: "):
			var ev obs.LiveEvent
			if err := json.Unmarshal([]byte(line[6:]), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			switch curEvent {
			case obs.EventRunStart:
				starts++
			case obs.EventLevel:
				levels++
				if ev.Direction == "" || ev.FrontierVertices <= 0 {
					t.Errorf("level event missing detail: %+v", ev)
				}
			case obs.EventRunDone:
				dones++
				if ev.Visited <= 0 || ev.GTEPS <= 0 {
					t.Errorf("run-done event missing results: %+v", ev)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	if starts != roots || dones != roots {
		t.Errorf("run events: %d starts, %d dones, want %d each", starts, dones, roots)
	}
	if levels < roots*2 {
		t.Errorf("only %d level events for %d runs", levels, roots)
	}

	// /metrics: Prometheus text with the run's counters.
	body := get(t, server.URL()+"/metrics")
	if !strings.Contains(body, "bfs_runs 2") {
		t.Errorf("/metrics missing bfs_runs sample:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE bfs_level_wall_us histogram") {
		t.Errorf("/metrics missing histogram family:\n%s", body)
	}

	// /traces: one reconciling RunTrace per root.
	var traces struct {
		Runs []obs.RunTrace `json:"runs"`
	}
	if err := json.Unmarshal([]byte(get(t, server.URL()+"/traces")), &traces); err != nil {
		t.Fatalf("/traces is not valid JSON: %v", err)
	}
	if len(traces.Runs) != roots {
		t.Fatalf("/traces has %d runs, want %d", len(traces.Runs), roots)
	}
	for _, run := range traces.Runs {
		if err := run.Reconcile(); err != nil {
			t.Errorf("served trace does not reconcile: %v", err)
		}
		if len(run.Spans) == 0 {
			t.Errorf("served trace for root %d carries no module spans", run.Root)
		}
	}

	// /debug/pprof is mounted.
	if !strings.Contains(get(t, server.URL()+"/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not served")
	}

	if report.GTEPSHarmonicMean() <= 0 {
		t.Errorf("benchmark reported no GTEPS")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(body)
}
