package comm

import (
	"errors"
	"testing"

	"swbfs/internal/graph"
	"swbfs/internal/testutil"
)

// quantumPairs builds exactly one flush quantum of pairs, enough to force
// a delivery out of SendMany.
func quantumPairs(net *Network) []Pair {
	q := net.QuantumPairs()
	pairs := make([]Pair, q)
	for i := range pairs {
		pairs[i] = Pair{graph.Vertex(i), graph.Vertex(i + 1)}
	}
	return pairs
}

// TestAbortFailsSendsFast: once the network is poisoned, the very next
// delivery any module attempts fails with an ErrAborted-wrapped error —
// no module keeps scanning and shipping into closed inboxes for more than
// the batch it was building.
func TestAbortFailsSendsFast(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2, BatchBytes: 256})
	ep := NewDirectEndpoint(net, 0)
	ep.StartLevel(0, ChanForward)

	net.Abort()

	pairs := quantumPairs(net)
	err := ep.SendMany(ChanForward, []DstRun{{Dst: 1, N: len(pairs)}}, pairs)
	if err == nil {
		t.Fatal("full-quantum SendMany succeeded on a poisoned network")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("SendMany error %v does not wrap ErrAborted", err)
	}
	if err := ep.CloseChannel(ChanForward); err == nil {
		t.Fatal("CloseChannel succeeded on a poisoned network")
	} else if !errors.Is(err, ErrAborted) {
		t.Fatalf("CloseChannel error %v does not wrap ErrAborted", err)
	}
}

// TestAbortFailsRelaySendsFast is the relay-transport variant: both the
// stage-one envelope path and the end-marker path must refuse immediately.
func TestAbortFailsRelaySendsFast(t *testing.T) {
	shape, err := NewGroupShape(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2, BatchBytes: 256})
	ep, err := NewRelayEndpoint(net, 0, shape)
	if err != nil {
		t.Fatal(err)
	}
	ep.StartLevel(0, ChanForward)

	net.Abort()

	pairs := quantumPairs(net)
	if err := ep.SendMany(ChanForward, []DstRun{{Dst: 3, N: len(pairs)}}, pairs); err == nil {
		t.Fatal("relay SendMany succeeded on a poisoned network")
	} else if !errors.Is(err, ErrAborted) {
		t.Fatalf("relay SendMany error %v does not wrap ErrAborted", err)
	}
	if err := ep.CloseChannel(ChanForward); err == nil {
		t.Fatal("relay CloseChannel succeeded on a poisoned network")
	} else if !errors.Is(err, ErrAborted) {
		t.Fatalf("relay CloseChannel error %v does not wrap ErrAborted", err)
	}
}

// TestAbortUnblocksRecv: a receiver blocked in Recv wakes with an
// ErrAborted-wrapped EvError when the network is poisoned, and its
// goroutine exits.
func TestAbortUnblocksRecv(t *testing.T) {
	leak := testutil.CheckGoroutines(t)
	net := mustNetwork(t, Config{Nodes: 2, SuperNodeSize: 2})
	ep := NewDirectEndpoint(net, 1)
	ep.StartLevel(0, ChanForward)

	got := make(chan Event, 1)
	go func() { got <- ep.Recv() }()

	net.Abort()
	ev := <-got
	if ev.Type != EvError {
		t.Fatalf("Recv returned %v, want EvError", ev.Type)
	}
	if !errors.Is(ev.Err, ErrAborted) {
		t.Fatalf("Recv error %v does not wrap ErrAborted", ev.Err)
	}
	leak()
}

// TestCloseLeavesNoGoroutines: plain Close (the teardown path every Run
// takes) must not strand any transport goroutines.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	leak := testutil.CheckGoroutines(t)
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
	eps := make([]Endpoint, 4)
	for i := range eps {
		eps[i] = NewDirectEndpoint(net, i)
		eps[i].StartLevel(0, ChanForward)
	}
	if err := sendTo(eps[0], ChanForward, 1, Pair{1, 2}); err != nil {
		t.Fatal(err)
	}
	net.Close()
	leak()
}

// TestAllgatherLengthMismatchAborts: a rank that contributes a bitmap of the
// wrong length to the OR-allgather gets a *ProtocolError through
// AllgatherOr's error return (it used to panic the rank's goroutine), the
// network is aborted, and peers already waiting in the collective — or
// blocked in Recv — wake instead of hanging on the missing contribution.
func TestAllgatherLengthMismatchAborts(t *testing.T) {
	leak := testutil.CheckGoroutines(t)
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
	ep := NewDirectEndpoint(net, 3)
	ep.StartLevel(0, ChanForward)

	arrived := make(chan struct{}, 2)
	waiters := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			arrived <- struct{}{}
			words, err := net.AllgatherOr([]uint64{1, 2}, true)
			if err == nil && words != nil {
				err = errors.New("waiter got a result from a poisoned collective")
			}
			waiters <- err
		}()
	}
	<-arrived
	<-arrived
	recv := make(chan Event, 1)
	go func() { recv <- ep.Recv() }()

	// The hostile contribution may land before, between or after the two
	// honest ones; whichever call meets the other length reports it.
	_, err := net.AllgatherOr([]uint64{1, 2, 3}, true)
	var failures []error
	if err != nil {
		failures = append(failures, err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-waiters; werr != nil {
			failures = append(failures, werr)
		}
	}
	var pe *ProtocolError
	if len(failures) != 1 || !errors.As(failures[0], &pe) {
		t.Fatalf("mismatched allgather reported %v, want exactly one *ProtocolError", failures)
	}
	if pe.Reason == "" || pe.Error() != "comm: "+pe.Reason {
		t.Fatalf("ProtocolError %+v renders as %q", *pe, pe.Error())
	}
	if !net.Aborted() {
		t.Fatal("network not aborted after a mismatched allgather")
	}
	if ev := <-recv; ev.Type != EvError || !errors.Is(ev.Err, ErrAborted) {
		t.Fatalf("blocked Recv woke with %+v, want an ErrAborted EvError", ev)
	}
	if words, err := net.AllgatherOr([]uint64{1, 2}, true); words != nil || err != nil {
		t.Fatalf("allgather after the abort = (%v, %v), want the aborted zero result", words, err)
	}
	leak()
}
