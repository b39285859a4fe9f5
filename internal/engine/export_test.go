package engine

import (
	"activerules/internal/rules"
	"activerules/internal/storage"
)

// Reference is the reference rule processor (reference_test.go), for the
// differential tests of package engine_test.
type Reference = reference

// NewReference opens a reference rule processor over db, which it owns
// from then on.
var NewReference = newReference

// PendingTables renders the transition tables rule r would see on e now,
// in the reference's sorted rendering.
func PendingTables(e *Engine, r *rules.Rule) string {
	net, _ := e.pendingNet(r)
	var ins, del, oldU, newU [][]storage.Value
	if tn := net.Table(r.Table); tn != nil {
		ins, del = tn.Inserted, tn.Deleted
		for _, up := range tn.Updated {
			oldU, newU = append(oldU, up.Old), append(newU, up.New)
		}
	}
	return renderTransition(ins, del, oldU, newU)
}

// RebuildTriggerIndex recomputes the candidate bitset from scratch out of
// the database's history and the rule marks, discarding the
// incrementally maintained bits. The two are observably equivalent (the
// incremental bits are a superset that the triggered check filters
// identically); the metamorphic and memo tests drive both.
func (e *Engine) RebuildTriggerIndex() { e.cand.Rebuild(e.tabs, e.marks) }
