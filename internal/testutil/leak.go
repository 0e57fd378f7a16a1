// Package testutil holds shared test helpers: goroutine-leak detection
// for teardown-sensitive tests (runner aborts, network Close, obs server
// shutdown) and the committed-golden comparison.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// CheckGoroutines snapshots the goroutine count and returns a function to
// defer: it polls until the count returns to the baseline (runtime
// bookkeeping goroutines may briefly linger) and fails the test with a
// full stack dump if any survive the grace window. Use only in tests that
// do not run in parallel — a sibling test's goroutines would be
// indistinguishable from a leak.
func CheckGoroutines(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("goroutine leak: %d goroutines, baseline %d\n%s", n, base, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
