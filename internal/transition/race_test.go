//go:build race

package transition

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
