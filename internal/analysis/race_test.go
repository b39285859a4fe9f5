//go:build race

package analysis

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
