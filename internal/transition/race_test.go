//go:build race

package transition_test

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
