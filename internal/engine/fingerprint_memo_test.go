package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"activerules/internal/storage"
)

// TestFingerprintMemoDifferential holds storage's memoized table digests
// to their from-scratch definitions (storage.FingerprintOracle: the
// fingerprint of a row-for-row rebuild, each table's digest against its
// sorted encodings, and Fingerprint ⇔ CanonicalFingerprint over every
// state of the run) across everything an engine does to a database. It
// rides the clone oracle's seeded scenario — scripts that fail and panic
// midway, considerations that succeed, fail and panic, cancelled and
// resumed assertions, rule and caller rollback, commit — and between its
// steps reads the oracle or deliberately does not (so digests go stale
// under one step and under several), and takes pairs of forks, with
// clean digests and with stale ones, of which one is stepped before the
// parent moves on and the other after. The storage-only histories
// (RestoreRows, nested savepoints) are in internal/storage's test of
// the same name; crashtest's checkRecovery reads the same oracle at
// every recovered state.
func TestFingerprintMemoDifferential(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("compiled=true/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 104729))
			var oracle storage.FingerprintOracle
			check := func(when string, db *storage.DB) {
				t.Helper()
				if err := oracle.Check(db); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			var held *Engine
			stepFork := func(when string, fork *Engine) {
				t.Helper()
				fork.Assert() // an error leaves it suspended; the oracle is the check
				check(when+", stepped", fork.DB())
				if err := fork.Rollback(); err != nil {
					t.Fatal(err)
				}
				check(when+", rolled back", fork.DB())
			}
			rollbackScenario(t, seed, func(n int, e *Engine) {
				when := fmt.Sprintf("before step %d", n)
				if held != nil {
					stepFork(when+": fork held across the parent's step", held)
					held = nil
				}
				op := rng.Intn(6)
				if op < 2 { // forks inherit clean digests
					check(when, e.DB())
				}
				if op%2 == 0 {
					a, b := e.Clone(), e.Clone()
					stepFork(when+": fork", a)
					held = b
				}
				if op == 5 {
					check(when, e.DB())
				}
			})
		})
	}
}
