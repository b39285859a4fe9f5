//go:build race

package wal

// Allocation counts mean nothing under the race detector.
func init() { raceEnabled = true }
