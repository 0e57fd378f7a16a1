//go:build race

package testutil

// RaceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts of pooled paths mean nothing.
const RaceEnabled = true
