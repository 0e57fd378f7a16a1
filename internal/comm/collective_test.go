package comm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"swbfs/internal/testutil"
)

// all runs fn once per node concurrently and waits for every call.
func all(nodes int, fn func(node int)) {
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func() { defer wg.Done(); fn(node) }()
	}
	wg.Wait()
}

// TestAllreduceSums: every node gets the element-wise sums, and the
// collective allocates nothing once its accumulators have grown.
func TestAllreduceSums(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
	got := make([][]int64, 4)
	all(4, func(node int) {
		got[node] = []int64{int64(node), 10 * int64(node), 100}
		net.AllreduceSums(got[node])
	})
	for node, v := range got {
		if v[0] != 6 || v[1] != 60 || v[2] != 400 {
			t.Fatalf("node %d sums = %v, want [6 60 400]", node, v)
		}
	}

	solo := mustNetwork(t, Config{Nodes: 1})
	v := []int64{1, 2, 3}
	if allocs := testing.AllocsPerRun(100, func() { solo.AllreduceSums(v) }); allocs != 0 {
		t.Fatalf("AllreduceSums allocates %.1f times per call", allocs)
	}
}

// TestSyncRecordsNothing: the host rendezvous joins every node and leaves
// the modelled counters untouched, between charged collectives too.
func TestSyncRecordsNothing(t *testing.T) {
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
	sums := make([]int64, 4)
	all(4, func(node int) {
		net.Sync()
		sums[node] = net.AllreduceSum(1)
		net.Sync()
	})
	for node, s := range sums {
		if s != 4 {
			t.Fatalf("node %d sum between syncs = %d, want 4", node, s)
		}
	}
	before := net.Counters.Snapshot()
	all(4, func(int) { net.Sync() })
	if d := net.Counters.Snapshot().Sub(before); d.CollectiveBytes != 0 || d.CollectiveOps != 0 {
		t.Fatalf("Sync recorded %d B / %d ops, want none", d.CollectiveBytes, d.CollectiveOps)
	}
}

// TestAbortWakesSync: nodes waiting in a Sync whose last peer never comes
// return when the network aborts.
func TestAbortWakesSync(t *testing.T) {
	leak := testutil.CheckGoroutines(t)
	net := mustNetwork(t, Config{Nodes: 4, SuperNodeSize: 2})
	done := make(chan struct{})
	go func() { all(3, func(int) { net.Sync() }); close(done) }()
	waitArrivals(t, net, 3)
	net.Abort()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sync waiters still blocked after Abort")
	}
	leak()
}

// waitArrivals blocks until n callers have joined the open generation.
func waitArrivals(t *testing.T, net *Network, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		net.coll.mu.Lock()
		count := net.coll.count
		net.coll.mu.Unlock()
		if count == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers arrived", count, n)
		}
	}
}

// TestCollectiveKindMismatchAborts: two nodes calling different collectives
// in the same generation — in either arrival order — abort the network
// with a *ProtocolError naming both kinds, and neither caller gets a
// value, nor does a later collective.
func TestCollectiveKindMismatchAborts(t *testing.T) {
	sum := func(net *Network) int64 { return net.AllreduceSum(5) }
	vec := func(net *Network) int64 { v := []int64{5, 5, 5}; net.AllreduceSums(v); return v[0] + v[1] + v[2] }
	maxOf := func(net *Network) int64 { return net.AllreduceMax(7) }
	syncOnly := func(net *Network) int64 { net.Sync(); return 0 }
	gather := func(net *Network) int64 {
		words, err := net.AllgatherOr([]uint64{9}, true)
		if len(words) > 0 || (err != nil && !strings.Contains(err.Error(), "mismatch")) {
			return 1
		}
		return 0
	}
	cases := []struct {
		name          string
		first, second func(*Network) int64
		kinds         [2]string
	}{
		{"sum-then-max", sum, maxOf, [2]string{"sum[1]", "max[1]"}},
		{"max-then-sum", maxOf, sum, [2]string{"max[1]", "sum[1]"}},
		{"sum3-then-sum1", vec, sum, [2]string{"sum[3]", "sum[1]"}},
		{"sync-then-sum", syncOnly, sum, [2]string{"sync", "sum[1]"}},
		{"allgather-then-sync", gather, syncOnly, [2]string{"allgather-or", "sync"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leak := testutil.CheckGoroutines(t)
			net := mustNetwork(t, Config{Nodes: 2})
			firstGot := make(chan int64, 1)
			go func() { firstGot <- tc.first(net) }()
			waitArrivals(t, net, 1)
			if got := tc.second(net); got != 0 {
				t.Fatalf("second caller got %d from a mismatched collective", got)
			}
			if got := <-firstGot; got != 0 {
				t.Fatalf("first caller got %d from a mismatched collective", got)
			}
			if !net.Aborted() {
				t.Fatal("network not aborted")
			}
			var pe *ProtocolError
			if err := net.Err(); !errors.As(err, &pe) {
				t.Fatalf("Err() = %v, want a *ProtocolError", err)
			}
			msg := pe.Error()
			if !strings.Contains(msg, tc.kinds[0]) || !strings.Contains(msg, tc.kinds[1]) {
				t.Fatalf("%q does not name %s and %s", msg, tc.kinds[0], tc.kinds[1])
			}
			if got := net.AllreduceSum(1); got != 0 {
				t.Fatalf("sum after the abort = %d", got)
			}
			leak()
		})
	}
}
