//go:build race

package compile

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
