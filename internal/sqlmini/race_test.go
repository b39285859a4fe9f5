//go:build race

package sqlmini

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
