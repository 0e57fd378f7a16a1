package obs

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// seedFlight records a small deterministic event mix across two nodes.
func seedFlight() *FlightRecorder {
	fr := NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(17, "bfs", 2, "direct")
	fr.Send(1, 0, 0, 3, 0, 0, 0, NoEnd, "")
	fr.Send(0, 1, 0, 5, 1, 0, 0, NoEnd, "sendfail@0:l0:data/forward:0")
	fr.Recv(0, 1, 0, 3, 0, 0, NoEnd)
	fr.Recv(1, 0, 0, 5, 0, 0, NoEnd)
	fr.DupDrop(1, 0, 0, 5, 0, 0, NoEnd)
	fr.Inject(0, 0, "sendfail@0:l0:data/forward:0")
	fr.Control(FlightRoundClose, -1, 0, "dir=topdown frontier=1 edges=3")
	return fr
}

// TestFlightWrapAround hammers a tiny ring from concurrent writers while
// dumping concurrently — the -race coverage of the hot record path — and
// checks overflow is accounted, not silently absorbed.
func TestFlightWrapAround(t *testing.T) {
	const capacity = 8
	fr := NewFlightRecorder(capacity)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(1, "bfs", 2, "direct")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := w % 2
			for i := 0; i < 200; i++ {
				fr.Send(node, 1-node, 0, 1, 0, 0, 0, NoEnd, "")
				fr.Recv(node, 1-node, 0, 1, 0, 0, NoEnd)
			}
		}(w)
	}
	// Dumps race the writers: Dump must stay consistent mid-flight.
	for i := 0; i < 5; i++ {
		if d := fr.Dump(); d.Schema != FlightSchemaVersion {
			t.Fatalf("mid-flight dump schema = %d", d.Schema)
		}
	}
	wg.Wait()

	dropped := fr.TotalDropped()
	if dropped == 0 {
		t.Fatal("1600 events through capacity-8 rings dropped nothing")
	}
	d := fr.Dump()
	if d.Dropped != dropped {
		t.Fatalf("dump dropped %d, recorder reports %d", d.Dropped, dropped)
	}
	// Two node rings at capacity plus the machine ring's run-start.
	if want := 2*capacity + 1; len(d.Events) != want {
		t.Fatalf("dump has %d events, want %d", len(d.Events), want)
	}
}

// TestFlightDumpCanonical checks Dump is non-destructive and sorts into
// the canonical order with dense sequence numbers, so repeated dumps of
// the same recorder serialize identically.
func TestFlightDumpCanonical(t *testing.T) {
	fr := seedFlight()
	var a, b bytes.Buffer
	if err := WriteFlightDump(&a, fr.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlightDump(&b, fr.Dump()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two dumps of an idle recorder differ")
	}

	d := fr.Dump()
	if d.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", d.Dropped)
	}
	prevLevel := -1 << 30
	for i, ev := range d.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Level < prevLevel {
			t.Fatalf("levels out of order at seq %d: %d after %d", i, ev.Level, prevLevel)
		}
		prevLevel = ev.Level
	}
	// Recording after a dump keeps going: the black box is not drained.
	fr.Send(0, 1, 1, 1, 0, 0, 0, NoEnd, "")
	if got := len(fr.Dump().Events); got != len(d.Events)+1 {
		t.Fatalf("post-dump recording lost events: %d, want %d", got, len(d.Events)+1)
	}
}

func TestFlightJSONRoundTrip(t *testing.T) {
	d := seedFlight().Dump()
	d.Aborted = true
	d.Cause = "test cause"
	var buf bytes.Buffer
	if err := WriteFlightDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", d, back)
	}

	var bad bytes.Buffer
	if err := WriteFlightDump(&bad, &FlightDump{Schema: FlightSchemaVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightDump(&bad); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// TestFlightNilRecorder: every method on a nil recorder is a no-op — the
// always-on contract must cost nothing when nothing is attached.
func TestFlightNilRecorder(t *testing.T) {
	var fr *FlightRecorder
	fr.BeginRun(1, "bfs", 2, "direct")
	fr.Send(0, 1, 0, 1, 0, 0, 0, NoEnd, "")
	fr.Recv(1, 0, 0, 1, 0, 0, NoEnd)
	fr.DupDrop(1, 0, 0, 1, 0, 0, NoEnd)
	fr.Inject(0, 0, "kill@0:l0:data/forward:0")
	fr.Control(FlightAbort, -1, 0, "cause")
	if fr.TotalDropped() != 0 {
		t.Fatal("nil recorder dropped events")
	}
	d := fr.Dump()
	if d.Schema != FlightSchemaVersion || len(d.Events) != 0 || len(d.Runs) != 0 {
		t.Fatalf("nil recorder dump = %+v", d)
	}
}

// TestFlightServeEndpoint: /debug/flight serves the attached recorder's
// dump and 404s when no recorder is attached.
func TestFlightServeEndpoint(t *testing.T) {
	o := New()
	o.Flight = seedFlight()
	rr := httptest.NewRecorder()
	NewMux(o).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/flight = %d, want 200", rr.Code)
	}
	d, err := ReadFlightDump(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Runs) != 1 || d.Runs[0].Root != 17 {
		t.Fatalf("served dump runs = %+v", d.Runs)
	}

	bare := httptest.NewRecorder()
	NewMux(New()).ServeHTTP(bare, httptest.NewRequest("GET", "/debug/flight", nil))
	if bare.Code != 404 {
		t.Fatalf("detached /debug/flight = %d, want 404", bare.Code)
	}
}

// TestFlightLevelOrder drives the recorder against the invariant its dense
// op table rests on: a stream never records a level behind its last one.
// Other streams are free to lag (the late duplicate drop), a new run starts
// every stream over, and a violation is an error, not a restarted counter.
func TestFlightLevelOrder(t *testing.T) {
	fr := NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(1, "bfs", 2, "direct")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fr.Recv(0, 1, 2, 1, 1, 0, NoEnd))
	must(fr.Recv(0, 1, 3, 1, 1, 0, NoEnd))
	must(fr.Send(0, 1, 3, 1, 0, 0, 0, NoEnd, ""))
	must(fr.DupDrop(0, 1, 2, 1, 0, 0, NoEnd)) // another stream of node 0, one level behind
	before := len(fr.Dump().Events)
	if err := fr.Recv(0, 1, 2, 1, 1, 0, NoEnd); !errors.Is(err, ErrFlightLevelOrder) {
		t.Fatalf("level 2 after level 3 on one stream: %v, want ErrFlightLevelOrder", err)
	}
	if err := fr.Send(0, 1, 1, 1, 0, 0, 0, NoEnd, ""); !errors.Is(err, ErrFlightLevelOrder) {
		t.Fatalf("send of level 1 after level 3: %v, want ErrFlightLevelOrder", err)
	}
	if got := len(fr.Dump().Events); got != before {
		t.Fatalf("out-of-order events were recorded: %d events, had %d", got, before)
	}
	must(fr.Recv(0, 1, 3, 1, 1, 0, NoEnd))
	for _, ev := range fr.Dump().Events {
		if ev.Kind == FlightRecv && ev.Level == 3 && ev.Op > 1 {
			t.Fatalf("the refused event consumed an op: %+v", ev)
		}
	}
	fr.BeginRun(2, "bfs", 2, "direct")
	must(fr.Recv(0, 1, 0, 1, 1, 0, NoEnd))
	d := fr.Dump()
	if last := d.Events[len(d.Events)-1]; last.Run != 1 || last.Level != 0 || last.Op != 0 {
		t.Fatalf("first event of the second run = %+v, want run 1 level 0 op 0", last)
	}
}

// TestFlightUnregisteredCodes: an event whose wire, channel or peer lies
// outside the registered tables (a hostile batch) is still recorded, spelled
// like the transport's String methods, as op 0 of no stream.
func TestFlightUnregisteredCodes(t *testing.T) {
	fr := NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(1, "bfs", 2, "direct")
	for i := 0; i < 2; i++ {
		if err := fr.Recv(0, 1, 0, 0, 7, 9, NoEnd); err != nil {
			t.Fatal(err)
		}
		if err := fr.Recv(0, 1<<40, 0, 0, 1, 0, NoEnd); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range fr.Dump().Events {
		if ev.Kind != FlightRecv {
			continue
		}
		if ev.Op != 0 || (ev.Peer == 1 && (ev.Wire != "kind(7)" || ev.Channel != "channel(9)")) {
			t.Fatalf("unregistered event stored as %+v", ev)
		}
	}
}

// TestFlightCarriedEndTakesItsOp: a delivery that carries an End is one
// event, marked End and numbered on its own stream, and it takes the next
// op of the End's stream too, so the bare End after it is numbered as the
// chaos injector numbers it — on the send and the receive side alike.
func TestFlightCarriedEndTakesItsOp(t *testing.T) {
	fr := NewFlightRecorder(0)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward", "backward"})
	fr.BeginRun(1, "bfs", 3, "direct")
	for _, err := range []error{
		fr.Send(0, 1, 0, 4, 0, 0, 0, NoEnd, ""),
		fr.Send(0, 1, 0, 2, 0, 0, 0, 1, ""), // data op 1, end op 0
		fr.Send(0, 2, 0, 0, 0, 1, 0, NoEnd, ""),
		fr.Recv(1, 0, 0, 2, 0, 0, 1),
		fr.Recv(1, 0, 0, 0, 1, 0, NoEnd),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, ev := range fr.Dump().Events {
		if ev.Level == 0 && ev.Node >= 0 && (ev.Kind == FlightSend || ev.Kind == FlightRecv) {
			got = append(got, fmt.Sprintf("%s %d %s op %d end=%v", ev.Kind, ev.Node, ev.Wire, ev.Op, ev.End))
		}
	}
	want := []string{
		"send 0 data op 0 end=false", "send 0 data op 1 end=true", "send 0 end op 1 end=false",
		"recv 1 data op 0 end=true", "recv 1 end op 1 end=false",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events\n got %q\nwant %q", got, want)
	}
}

// TestFlightAllocateWholeFillsWithoutGrowing: once a ring of a recorder
// that allocates whole has recorded its first event, filling it to capacity
// allocates nothing.
func TestFlightAllocateWholeFillsWithoutGrowing(t *testing.T) {
	const nodes, capacity = 4, 64
	fr := NewFlightRecorder(capacity)
	fr.SetStreamNames([]string{"data", "end"}, []string{"forward"})
	fr.AllocateWhole()
	fr.BeginRun(0, "bfs", nodes, "direct")
	record := func(n int) {
		for i := 0; i < n; i++ {
			for node := 0; node < nodes; node++ {
				if err := fr.Send(node, 0, 0, 1, 0, 0, 0, NoEnd, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	record(1) // the rings and op tables
	// AllocsPerRun runs once more than it counts: two halves, together
	// one short of capacity, so a ring that grew by appending would double.
	if allocs := testing.AllocsPerRun(1, func() { record(capacity/2 - 1) }); allocs != 0 {
		t.Fatalf("filling preallocated rings allocated %.0f times", allocs)
	}
	if d := fr.Dump(); d.Dropped != 0 || len(d.Events) != 1+nodes*(capacity-1) {
		t.Fatalf("%d events, %d dropped, want %d and 0", len(d.Events), d.Dropped, 1+nodes*(capacity-1))
	}
}
