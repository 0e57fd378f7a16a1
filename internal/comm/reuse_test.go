package comm

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"swbfs/internal/chaos"
	"swbfs/internal/obs"
	"swbfs/internal/testutil"
)

// TestInboxSwapBoundary: FIFO order holds across the point where Pop swaps
// the producers' queue in, and Len counts both sides of it.
func TestInboxSwapBoundary(t *testing.T) {
	in := NewInbox()
	for i := 0; i < 3; i++ {
		in.Push(Batch{Src: i})
	}
	if b, ok := in.Pop(); !ok || b.Src != 0 { // swaps: out holds 1, 2
		t.Fatalf("first pop = (%d, %v)", b.Src, ok)
	}
	in.Push(Batch{Src: 3}) // lands in the producers' queue
	in.Push(Batch{Src: 4})
	if in.Len() != 4 {
		t.Fatalf("Len = %d with 2 batches on each side, want 4", in.Len())
	}
	for want := 1; want <= 4; want++ {
		if b, ok := in.Pop(); !ok || b.Src != want {
			t.Fatalf("pop = (%d, %v), want %d", b.Src, ok, want)
		}
	}
	if in.Len() != 0 {
		t.Fatalf("Len = %d after draining", in.Len())
	}
}

// TestInboxCloseAfterSwapDrains: everything pushed before Close is popped —
// from the consumer's side and from the producers' — before Pop reports
// closure, and a push after Close is dropped.
func TestInboxCloseAfterSwapDrains(t *testing.T) {
	in := NewInbox()
	for i := 0; i < 3; i++ {
		in.Push(Batch{Src: i})
	}
	in.Pop()
	in.Push(Batch{Src: 3})
	in.Close()
	in.Push(Batch{Src: 99})
	for want := 1; want <= 3; want++ {
		if b, ok := in.Pop(); !ok || b.Src != want {
			t.Fatalf("pop after close = (%d, %v), want %d", b.Src, ok, want)
		}
	}
	if b, ok := in.Pop(); ok {
		t.Fatalf("closed and drained inbox popped %+v", b)
	}
}

// TestInboxAbortWakesParkedPop: a consumer parked on an empty inbox is
// woken by Network.Abort and sees closure.
func TestInboxAbortWakesParkedPop(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	net := mustNetwork(t, Config{Nodes: 2})
	in := net.inboxes[1]
	popped := make(chan bool)
	go func() {
		_, ok := in.Pop()
		popped <- ok
	}()
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		in.mu.Lock()
		parked = in.waiting
		in.mu.Unlock()
	}
	net.Abort()
	if ok := <-popped; ok {
		t.Fatal("Pop returned a batch from an aborted, empty inbox")
	}
}

// TestInboxProducersKeepOrder races four producers against the consumer
// (the -race coverage of the swap): each producer's batches arrive in the
// order it pushed them, none lost.
func TestInboxProducersKeepOrder(t *testing.T) {
	const producers, each = 4, 5000
	in := NewInbox()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				in.Push(Batch{Src: p, Level: i})
			}
		}(p)
	}
	next := make([]int, producers)
	for i := 0; i < producers*each; i++ {
		b, ok := in.Pop()
		if !ok || b.Level != next[b.Src] {
			t.Fatalf("pop %d = producer %d batch %d (ok=%v), want batch %d", i, b.Src, b.Level, ok, next[b.Src])
		}
		next[b.Src]++
	}
	wg.Wait()
}

// TestProtocolErrors pushes each hostile batch into a live endpoint's inbox:
// Recv reports a *ProtocolError naming the batch instead of panicking, and
// the flight record still shows the batch arriving. The network runs the
// adaptive codec on the backward channel only, so a payload that does not
// decode, decodes to the wrong pair count, or is encoded on the raw forward
// channel is hostile too, and so is a raw payload on the encoded backward
// channel inside a relay envelope. A relay forwards encoded segments
// undecoded, so it rejects only what needs no decode — an encoded segment
// on the raw channel, a raw one on the encoded channel, a pair count its
// bytes cannot carry — and a payload that does not decode, or to the wrong
// count, is caught at the destination, as the second segment of a
// stage-two batch.
func TestProtocolErrors(t *testing.T) {
	shape, err := NewGroupShape(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := AdaptiveCodec{}.EncodePayload(nil, ChanBackward, []Pair{{1, 2}, {3, 4}})
	corrupt := Batch{Kind: KindData, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3, Enc: []byte{0xF8}, EncN: 1}
	miscounted := Batch{Kind: KindData, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3, Enc: enc, EncN: 3}
	onRaw := Batch{Kind: KindData, Channel: ChanForward, Src: 2, Dst: 1, Level: 3, Enc: enc, EncN: 2}
	rawOnEncoded := Batch{Kind: KindData, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3, Pairs: []Pair{{1, 2}}}
	impossible := Batch{Kind: KindData, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3, Enc: enc, EncN: -1}
	envelope := func(in Batch) Batch {
		in.Src, in.Dst = 3, 0
		return Batch{Kind: KindRelayData, Channel: in.Channel, Src: 3, Dst: 1, Level: 3, Inner: []Batch{in}}
	}
	stageTwo := func(in Batch) Batch { // from relay 0: sources 0 and 2 sit in its column
		good := Batch{Kind: KindData, Channel: ChanBackward, Src: 0, Dst: 1, Level: 3, Enc: enc, EncN: 2}
		in.Src = 2
		return Batch{Kind: KindData, Channel: in.Channel, Src: 0, Dst: 1, Level: 3, Inner: []Batch{good, in}}
	}
	cases := []struct {
		name    string
		relay   bool
		hostile Batch
	}{
		{"other level, direct", false, Batch{Kind: KindData, Src: 2, Dst: 1, Level: 5}},
		{"other level, relay", true, Batch{Kind: KindData, Src: 0, Dst: 1, Level: 5}},
		{"end on a closed channel, direct", false, Batch{Kind: KindEnd, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3}},
		{"end on a closed channel, relay", true, Batch{Kind: KindEnd, Channel: ChanBackward, Src: 0, Dst: 1, Level: 3}},
		{"data on a closed channel, direct", false, Batch{Kind: KindData, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3, Pairs: []Pair{{1, 2}}}},
		{"data on a closed channel, relay", true, Batch{Kind: KindData, Channel: ChanBackward, Src: 0, Dst: 1, Level: 3, Pairs: []Pair{{1, 2}}}},
		{"end-carrying data on a closed channel, direct", false, Batch{Kind: KindData, Channel: ChanBackward, Src: 2, Dst: 1, Level: 3, Pairs: []Pair{{1, 2}}, End: true}},
		{"end-carrying data on a closed channel, relay", true, Batch{Kind: KindData, Channel: ChanBackward, Src: 0, Dst: 1, Level: 3, Pairs: []Pair{{1, 2}}, End: true}},
		{"end flag on an end marker, direct", false, Batch{Kind: KindEnd, Channel: ChanForward, Src: 2, Dst: 1, Level: 3, End: true}},
		{"end flag on an end marker, relay", true, Batch{Kind: KindEnd, Channel: ChanForward, Src: 0, Dst: 1, Level: 3, End: true}},
		{"end flag on a relay end", true, Batch{Kind: KindRelayEnd, Channel: ChanForward, Src: 3, Dst: 1, Level: 3, End: true}},
		{"envelope outside the relay's row", true, Batch{Kind: KindRelayData, Src: 3, Dst: 1, Level: 3,
			Inner: []Batch{{Kind: KindData, Src: 3, Dst: 2, Level: 3}}}},
		{"unknown kind, relay", true, Batch{Kind: Kind(7), Src: 3, Dst: 1, Level: 3}},
		{"relay kind on the direct transport", false, Batch{Kind: KindRelayEnd, Src: 3, Dst: 1, Level: 3}},
		{"unknown channel", false, Batch{Kind: KindEnd, Channel: Channel(9), Src: 3, Dst: 1, Level: 3}},
		{"corrupt payload, direct", false, corrupt},
		{"corrupt payload, relay", true, stageTwo(corrupt)},
		{"payload pair count, direct", false, miscounted},
		{"payload pair count, relay", true, stageTwo(miscounted)},
		{"impossible pair count, direct", false, impossible},
		{"impossible pair count, relay", true, envelope(impossible)},
		{"encoded payload on a raw channel, direct", false, onRaw},
		{"encoded payload on a raw channel, relay", true, envelope(onRaw)},
		{"segments on a raw channel, relay", true, stageTwo(onRaw)},
		{"raw payload on an encoded channel, relay", true, envelope(rawOnEncoded)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fr := obs.NewFlightRecorder(0)
			net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2, CodecBackward: AdaptiveCodec{}, Flight: fr})
			defer net.Close()
			fr.BeginRun(0, "test", 4, "direct")
			var ep Endpoint = NewDirectEndpoint(net, 1)
			if c.relay {
				if ep, err = NewRelayEndpoint(net, 1, shape); err != nil {
					t.Fatal(err)
				}
			}
			ep.StartLevel(3, ChanForward)
			net.inboxes[1].Push(c.hostile)
			ev := ep.Recv()
			var pe *ProtocolError
			if ev.Type != EvError || !errors.As(ev.Err, &pe) {
				t.Fatalf("Recv = %+v, want an EvError carrying a *ProtocolError", ev)
			}
			want := ProtocolError{Node: 1, Src: c.hostile.Src, Level: c.hostile.Level, Kind: c.hostile.Kind, Reason: pe.Reason}
			if *pe != want || pe.Reason == "" {
				t.Fatalf("ProtocolError = %+v, want %+v with a reason", *pe, want)
			}
			recorded := slices.ContainsFunc(fr.Dump().Events, func(e obs.FlightEvent) bool {
				return e.Kind == obs.FlightRecv && e.Node == 1 && e.Peer == c.hostile.Src &&
					e.Level == c.hostile.Level && e.Wire == c.hostile.Kind.String() && e.Channel == c.hostile.Channel.String()
			})
			if !recorded {
				t.Fatal("the flight dump does not show the hostile batch arriving")
			}
		})
	}
}

// TestRelayRefusesTrafficAfterItsColumn: once every source of a relay's
// column has finished a channel, an envelope — carrying an End or not — or
// a relay-end on it breaks the protocol: its pairs would never be
// forwarded, its End would be counted past the column.
func TestRelayRefusesTrafficAfterItsColumn(t *testing.T) {
	shape := GroupShape{N: 2, M: 2} // relay 1's column: sources 1 and 3
	late := []Batch{
		{Kind: KindRelayData, Channel: ChanForward, Src: 3, Dst: 1, Level: 3, End: true,
			Inner: []Batch{{Kind: KindData, Channel: ChanForward, Src: 3, Dst: 0, Level: 3, Pairs: []Pair{{1, 2}}}}},
		{Kind: KindRelayData, Channel: ChanForward, Src: 3, Dst: 1, Level: 3,
			Inner: []Batch{{Kind: KindData, Channel: ChanForward, Src: 3, Dst: 0, Level: 3, Pairs: []Pair{{1, 2}}}}},
		{Kind: KindRelayEnd, Channel: ChanForward, Src: 3, Dst: 1, Level: 3},
	}
	for _, hostile := range late {
		net := mustNetwork(t, Config{Nodes: shape.Nodes(), SuperNodeSize: shape.M})
		ep, err := NewRelayEndpoint(net, 1, shape)
		if err != nil {
			t.Fatal(err)
		}
		ep.StartLevel(3, ChanForward)
		for _, src := range []int{1, 3} {
			net.inboxes[1].Push(Batch{Kind: KindRelayEnd, Channel: ChanForward, Src: src, Dst: 1, Level: 3})
		}
		net.inboxes[1].Push(hostile)
		ev := ep.Recv()
		var pe *ProtocolError
		if ev.Type != EvError || !errors.As(ev.Err, &pe) || pe.Kind != hostile.Kind || pe.Src != 3 {
			t.Fatalf("late %s (end=%v): Recv = %+v, want node 1's ProtocolError naming it", hostile.Kind, hostile.End, ev)
		}
		net.Close()
	}
}

// TestProtocolErrorOnFlightLevelOrder: a receive stream that runs backwards
// in level — the invariant the dense op table rests on — surfaces from Recv
// as a ProtocolError, and from deliver on the send side.
func TestProtocolErrorOnFlightLevelOrder(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	net := mustNetwork(t, Config{Nodes: 2, Flight: fr})
	defer net.Close()
	fr.BeginRun(0, "test", 2, "direct")
	src, dst := NewDirectEndpoint(net, 0), NewDirectEndpoint(net, 1)
	send := func(level int) error {
		src.StartLevel(level, ChanForward)
		dst.StartLevel(level, ChanForward)
		return sendTo(src, ChanForward, 1, quantumPairs(net)...)
	}
	if err := send(4); err != nil {
		t.Fatal(err)
	}
	if ev := dst.Recv(); ev.Type != EvData {
		t.Fatalf("level-4 Recv = %+v", ev)
	}
	var pe *ProtocolError
	if err := send(2); !errors.As(err, &pe) || pe.Node != 0 {
		t.Fatalf("level-2 send after level 4 returned %v, want node 0's ProtocolError", err)
	}
	net.inboxes[1].Push(Batch{Kind: KindData, Src: 0, Dst: 1, Level: 2})
	if ev := dst.Recv(); ev.Type != EvError || !errors.As(ev.Err, &pe) || pe.Node != 1 {
		t.Fatalf("level-2 Recv after level 4 = %+v, want node 1's ProtocolError", ev)
	}
}

// reuseEndpoints builds one endpoint per node of either transport.
func reuseEndpoints(t *testing.T, net *Network, relay bool) []Endpoint {
	t.Helper()
	shape, err := NewGroupShape(net.Nodes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]Endpoint, net.Nodes())
	for node := range eps {
		eps[node] = NewDirectEndpoint(net, node)
		if relay {
			if eps[node], err = NewRelayEndpoint(net, node, shape); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eps
}

// TestReuseResetEqualsFresh is the run-reset ledger: after a run that
// dirties everything a run can — payload codec, retries, a duplicate,
// relayed bytes, collectives — Network.Reset and Endpoint.Reset must leave
// every field equal to a freshly built value's, except the fields listed
// here as machine-scoped (the sealed-batch, batch-fold and covered-peer
// scratch, the flow tallies that TallyFlows switches). A new field that is
// neither reset nor listed fails this test.
func TestReuseResetEqualsFresh(t *testing.T) {
	machineScoped := map[bool][]string{
		false: {"net", "route", "sealed", "folder", "covered"},          // DirectEndpoint
		true:  {"net", "route", "sealed", "folder", "covered", "flows"}, // RelayEndpoint
	}
	for _, relay := range []bool{false, true} {
		fr := obs.NewFlightRecorder(0)
		cfg := Config{Nodes: 4, SuperNodeSize: 2, BatchBytes: 128, Codec: AdaptiveCodec{}, Flight: fr}
		plan, err := chaos.ParsePlan("dup@1:l0:data/forward:0,sendfail@2:l0:data/forward:0,dup@1:l0:relay-data/forward:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = chaos.NewInjector(plan, nil)
		used := mustNetwork(t, cfg)
		eps := reuseEndpoints(t, used, relay)
		fr.BeginRun(0, "test", 4, "")
		if _, _, err := exchange(t, used, eps, 400, 7); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			ep.FoldBatches(ChanForward, FoldMin) // a level's fold, left declared
		}
		var wg sync.WaitGroup
		for node := 0; node < used.Nodes(); node++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				used.AllreduceMax(3)
				if _, err := used.AllgatherOr([]uint64{1}, true); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		used.Close()

		cfg.Chaos = nil
		fresh := mustNetwork(t, cfg)
		freshEps := reuseEndpoints(t, fresh, relay)
		dirty := testutil.StaleFields(fresh, used)
		for _, name := range []string{"Counters", "inboxes", "connected", "connCount", "nodeMsgs", "nodeBytes",
			"kindMsgs", "codecMsgs", "codecBytes", "chaos", "retries", "dupSeq", "coll"} {
			if !slices.Contains(dirty, name) {
				t.Errorf("relay=%v: the run left Network.%s clean: this test no longer covers its reset", relay, name)
			}
		}

		used.Reset(nil)
		if stale := testutil.StaleFields(fresh, used); len(stale) > 0 {
			t.Errorf("relay=%v: Network.Reset left %v unlike a fresh network's", relay, stale)
		}
		for node, ep := range eps {
			ep.Reset()
			if stale := testutil.StaleFields(freshEps[node], ep, machineScoped[relay]...); len(stale) > 0 {
				t.Errorf("relay=%v: node %d: Endpoint.Reset left %v unlike a fresh endpoint's", relay, node, stale)
			}
		}

		// And the recycled machine carries the same traffic a fresh one does.
		fr.BeginRun(1, "test", 4, "")
		if _, _, err := exchange(t, used, eps, 400, 8); err != nil {
			t.Fatal(err)
		}
		fr.BeginRun(2, "test", 4, "")
		if _, _, err := exchange(t, fresh, freshEps, 400, 8); err != nil {
			t.Fatal(err)
		}
		if a, b := used.CaptureState(), fresh.CaptureState(); !reflect.DeepEqual(a, b) {
			t.Errorf("relay=%v: second run on the reset network diverged from a fresh network:\n reset %+v\n fresh %+v", relay, a, b)
		}
		used.Close()
		fresh.Close()
	}
}
