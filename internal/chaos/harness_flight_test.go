// Flight-recorder integration with the chaos harness: the black box must
// be byte-deterministic across repeated seeded runs (the property that
// makes `inspect a.flight.json b.flight.json` a usable bisection tool) on both transports.
package chaos_test

import (
	"bytes"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/core"
	"swbfs/internal/flight"
	"swbfs/internal/graph"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// flightDumpOnce runs one BFS on a fresh runner and drains its recorder.
func flightDumpOnce(t *testing.T, cfg core.Config, g *graph.CSR) (*obs.FlightDump, []chaos.Fault) {
	t.Helper()
	r, err := core.NewRunner(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(harnessRoot); err != nil {
		t.Fatalf("faulted run aborted: %v", err)
	}
	return r.Flight().Dump(), r.LastInjections()
}

// TestChaosFlightDeterministicDump: two fresh runners with the same seed,
// configuration and transient fault plan produce byte-identical flight
// dumps — on both transports. (Straggler detection stays off and the
// rings must not overflow; those are the documented caveats.)
func TestChaosFlightDeterministicDump(t *testing.T) {
	g := harnessGraph(t)
	specs := map[core.Transport]string{
		core.TransportDirect: "sendfail@1:l0:data/forward:0,drop@3:l1:data/forward:0,dup@1:l0:data/forward:0",
		core.TransportRelay:  "sendfail@1:l0:relay-data/forward:0,drop@3:l1:relay-data/forward:0,dup@1:l0:relay-data/forward:0",
	}
	for _, transport := range []core.Transport{core.TransportDirect, core.TransportRelay} {
		t.Run(transport.String(), func(t *testing.T) {
			plan, err := chaos.ParsePlan(specs[transport])
			if err != nil {
				t.Fatal(err)
			}
			cfg := harnessConfig(transport)
			cfg.Chaos = &plan

			leak := testutil.CheckGoroutines(t)
			d1, log1 := flightDumpOnce(t, cfg, g)
			d2, _ := flightDumpOnce(t, cfg, g)
			leak()

			if d1.Dropped != 0 || d2.Dropped != 0 {
				t.Fatalf("rings overflowed (%d, %d dropped): byte-identity is void, grow the capacity",
					d1.Dropped, d2.Dropped)
			}
			if len(log1) == 0 {
				t.Fatal("no fault fired: the plan never exercised the recorder")
			}
			if err := flight.Reconcile(d1, log1); err != nil {
				t.Fatal(err)
			}
			sends, faulted := 0, 0
			for _, ev := range d1.Events {
				if ev.Kind == obs.FlightSend {
					sends++
					if ev.Fault != "" {
						faulted++
					}
				}
			}
			if sends == 0 || faulted == 0 {
				t.Fatalf("dump records %d sends (%d faulted), want both > 0", sends, faulted)
			}

			var b1, b2 bytes.Buffer
			if err := obs.WriteFlightDump(&b1, d1); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteFlightDump(&b2, d2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatal("same seed and plan produced different flight dumps")
			}
		})
	}
}
