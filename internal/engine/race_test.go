//go:build race

package engine

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
