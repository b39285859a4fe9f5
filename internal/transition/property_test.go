package transition_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"activerules/internal/schema"
	"activerules/internal/storage"
)

// TestNetEffectReconstructsFinalState is the central [WF90] property:
// applying the net effect of a transition to the initial state yields
// exactly the final state, for arbitrary operation sequences. Inserted
// rows are added, deleted rows removed by value, and updated rows
// rewritten from their old to their new value.
func TestNetEffectReconstructsFinalState(t *testing.T) {
	sch := schema.MustParse("table t (a int, b int)")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDB(sch)
		// Pre-populate committed rows (not part of the transition).
		for i := 0; i < 3; i++ {
			db.MustInsert("t", storage.IntV(int64(i)), storage.IntV(rng.Int63n(5)))
		}
		initial := db.Clone()
		l := record(db)
		live := db.Table("t").IDs()
		for i := 0; i < int(n%24); i++ {
			switch rng.Intn(3) {
			case 0:
				live = append(live, doInsert(l, "t", storage.IntV(rng.Int63n(5)), storage.IntV(rng.Int63n(5))))
			case 1:
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				doDelete(l, "t", live[k])
				live = append(live[:k], live[k+1:]...)
			case 2:
				if len(live) == 0 {
					continue
				}
				doUpdate(l, "t", live[rng.Intn(len(live))], "b", storage.IntV(rng.Int63n(5)))
			}
		}
		net := compute(db, 0, "t")

		// Replay the net effect onto the initial state.
		replay := initial.Clone()
		if tn := net.Table("t"); tn != nil {
			deleteByValue := func(row []storage.Value) bool {
				found := false
				var target storage.TupleID
				replay.Table("t").Scan(func(tu *storage.Tuple) bool {
					if sameRow(tu.Vals, row) {
						target = tu.ID
						found = true
						return false
					}
					return true
				})
				if found {
					replay.DeleteRows("t", []storage.TupleID{target})
				}
				return found
			}
			for _, row := range tn.Deleted {
				if !deleteByValue(row) {
					return false // net claimed a deletion of a row not present initially
				}
			}
			for _, up := range tn.Updated {
				found := false
				var target storage.TupleID
				replay.Table("t").Scan(func(tu *storage.Tuple) bool {
					if sameRow(tu.Vals, up.Old) {
						target = tu.ID
						found = true
						return false
					}
					return true
				})
				if !found {
					return false
				}
				for i, v := range up.New {
					if err := replay.UpdateRows("t", []string{replay.Schema().Table("t").Column(i).Name}, []storage.TupleID{target}, []storage.Value{v}); err != nil {
						return false
					}
				}
			}
			for _, row := range tn.Inserted {
				if _, err := replay.Insert("t", row); err != nil {
					return false
				}
			}
		}
		return replay.Fingerprint() == db.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestNetOpsSubsetOfRawOps: the net effect's operation set never invents
// operations — every net op kind appeared as a raw op on that table
// (update columns may shrink, never grow).
func TestNetOpsSubsetOfRawOps(t *testing.T) {
	sch := schema.MustParse("table t (a int, b int)")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDB(sch)
		id0 := db.MustInsert("t", storage.IntV(0), storage.IntV(0))
		l := record(db)
		raw := schema.NewOpSet()
		live := []storage.TupleID{id0}
		for i := 0; i < int(n%16); i++ {
			switch rng.Intn(3) {
			case 0:
				live = append(live, doInsert(l, "t", storage.IntV(rng.Int63n(3)), storage.IntV(0)))
				raw.Add(schema.Insert("t"))
			case 1:
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				doDelete(l, "t", live[k])
				raw.Add(schema.Delete("t"))
				live = append(live[:k], live[k+1:]...)
			case 2:
				if len(live) == 0 {
					continue
				}
				doUpdate(l, "t", live[rng.Intn(len(live))], "a", storage.IntV(rng.Int63n(3)))
				raw.Add(schema.Update("t", "a"))
			}
		}
		for op := range netOps(compute(db, 0, "t"), "t") {
			// An insert+update composite yields (I,t): insert must have
			// been raw. A delete after update yields (D,t): delete raw.
			if !raw.Contains(op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestComputeTableMatchesFiltered: ComputeTable agrees with filtering
// the full net effect to one table.
func TestComputeTableMatchesFiltered(t *testing.T) {
	sch := schema.MustParse("table t (a int)\ntable u (a int)")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDB(sch)
		l := record(db)
		for i := 0; i < int(n%12); i++ {
			tbl := "t"
			if rng.Intn(2) == 0 {
				tbl = "u"
			}
			doInsert(l, tbl, storage.IntV(rng.Int63n(4)))
		}
		full := refCompute(l, 0, db)
		part := compute(db, 0, "t")
		return diffTableNets(part.Table("t"), full.tables["t"]) == "" &&
			part.Table("u") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
