package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/perf"
	"swbfs/internal/testutil"
)

const flightGolden = "testdata/flight_golden.json"

// goldenFlight is what the file records of one serialized flight dump.
type goldenFlight struct {
	Events  int
	Dropped int64
	SHA256  string
}

func flightDigest(t *testing.T, d *obs.FlightDump) goldenFlight {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteFlightDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return goldenFlight{len(d.Events), d.Dropped, hex.EncodeToString(sum[:])}
}

func flightGoldenConfig(transport Transport, spec string, t *testing.T) Config {
	t.Helper()
	plan, err := chaos.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Nodes:              8,
		SuperNodeSize:      4,
		GroupM:             2,
		Transport:          transport,
		Engine:             perf.EngineMPE,
		DirectionOptimized: true,
		HubPrefetch:        true,
		SmallMessageMPE:    true,
		BatchBytes:         1 << 10,
		LevelTimeout:       20 * time.Second,
		Chaos:              &plan,
	}
}

// TestFlightDumpsMatchGolden pins the serialized flight dump — every stored
// event, its op ordinal and the canonical order — against a file generated
// while the op counters were a map keyed by (level, wire, channel, peer)
// strings: how a stream's counter is found is host-side only. Each case runs
// two roots on one Runner, so the second run's streams must restart at op 0
// on whatever the first run left behind.
func TestFlightDumpsMatchGolden(t *testing.T) {
	g := kron(t, 10, 42)
	roots := []graph.Vertex{pickBigComponentRoot(t, g), 17}
	cases := map[string]struct {
		transport Transport
		spec      string
	}{
		"direct-8": {TransportDirect,
			"dup@1:l0:data/forward:0,drop@3:l1:data/forward:0,sendfail@2:l1:data/forward:1,delay-relay@5:l1:2"},
		"relay-4x2": {TransportRelay,
			"dup@1:l0:relay-data/forward:0,drop@3:l1:relay-data/forward:0,sendfail@2:l1:data/forward:1,delay-relay@5:l1:2"},
		// The duplicated End comes from the level's slowest sender, so its
		// second copy is still queued when the level closes and is dropped
		// by the next level's first Recv: a level-0 event recorded after the
		// node's level-1 sends began.
		"direct-8-late-dup": {TransportDirect, "dup@1:l0:end/forward:0,delay-gen@1:l0:20"},
	}
	got := map[string]goldenFlight{}
	for name, c := range cases {
		r, err := NewRunner(flightGoldenConfig(c.transport, c.spec, t), g)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range roots {
			if _, err := r.Run(root); err != nil {
				t.Fatalf("%s: root %d: %v", name, root, err)
			}
		}
		got[name] = flightDigest(t, r.Flight().Dump())
	}

	// A run killed at level 2 and resumed from the abort checkpoint: the
	// restored rings hold levels 0-1 and the resumed run's streams restart
	// at op 0 on cleared counters.
	for name, transport := range map[string]Transport{"direct-8-resumed": TransportDirect, "relay-4x2-resumed": TransportRelay} {
		spec := "dup@1:l0:data/forward:0,kill@3:l2:end/forward:0"
		if transport == TransportRelay {
			spec = "dup@1:l0:relay-data/forward:0,kill@3:l2:relay-end/forward:0"
		}
		cfg := flightGoldenConfig(transport, spec, t)
		cfg.CheckpointEvery = 1
		r, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run(roots[0])
		var ae *AbortError
		if !errors.As(err, &ae) || ae.Checkpoint == nil || ae.Checkpoint.Level != 2 {
			t.Fatalf("%s: want an abort with the level-2 checkpoint, got %v", name, err)
		}
		rest := cfg.Chaos.Without(ae.Injections)
		cfg.Chaos = &rest
		resumed, err := NewRunner(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Resume(ae.Checkpoint); err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		got[name] = flightDigest(t, resumed.Flight().Dump())
	}
	for name, gf := range got {
		if gf.Dropped != 0 || gf.Events == 0 {
			t.Fatalf("%s: %d events, %d dropped: byte-identity needs a ring that recorded and never wrapped", name, gf.Events, gf.Dropped)
		}
	}

	testutil.Golden(t, flightGolden, *updateGolden, got)
}
