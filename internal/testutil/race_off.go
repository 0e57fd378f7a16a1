//go:build !race

package testutil

// RaceEnabled reports that the race detector is off (see race_on.go).
const RaceEnabled = false
