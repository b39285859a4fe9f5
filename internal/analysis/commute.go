package analysis

import (
	"fmt"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// NoncommuteReason explains why a pair of rules may be noncommutative,
// citing the condition number of Lemma 6.1 (1–5; condition 6 is the
// symmetric closure, expressed here by From/To direction).
type NoncommuteReason struct {
	// Cond is the Lemma 6.1 condition number (1–5).
	Cond int
	// From and To are the rule names in the direction the condition
	// fired: e.g. for condition 1, From can trigger To.
	From, To string
	// Detail names the operation or column involved.
	Detail string
}

// String renders the reason for reports.
func (nr NoncommuteReason) String() string {
	var what string
	switch nr.Cond {
	case 1:
		what = "can trigger"
	case 2:
		what = "can untrigger"
	case 3:
		what = "writes what is read by"
	case 4:
		what = "inserts into a table deleted/updated by"
	case 5:
		what = "updates a column also updated by"
	case 7:
		what = "inserts tuples whose later deletion/update would be masked in the pending transition of"
	default:
		what = fmt.Sprintf("condition %d against", nr.Cond)
	}
	return fmt.Sprintf("(%d) %s %s %s [%s]", nr.Cond, nr.From, what, nr.To, nr.Detail)
}

// Commute analyzes whether two rules commute (Lemma 6.1). A rule always
// commutes with itself. For distinct rules, if any of conditions 1–5
// holds in either direction the rules MAY be noncommutative and the
// reasons are returned; otherwise they are guaranteed to commute. A
// user certification (Section 6.1) overrides the conservative verdict.
//
// The verdict is computed on the first call for a pair and read from the
// analyzer's verdict table ever after: two word loads, plus a side-map
// read for the reasons of a pair that may not commute.
func (a *Analyzer) Commute(ri, rj *rules.Rule) (bool, []NoncommuteReason) {
	if ri == rj {
		return true, nil
	}
	// The two directions are evaluated in canonical (definition) order,
	// not argument order: the verdict is stored under the unordered pair,
	// so a caller-order-dependent reason list would make reports depend
	// on which caller examined the pair first.
	lo, hi := ri, rj
	if lo.Index() > hi.Index() {
		lo, hi = hi, lo
	}
	t := a.table().cell(lo.Index(), hi.Index())
	switch t.load(lo.Index(), hi.Index()) {
	case pairCommutes:
		return true, nil
	case pairMayNot:
		return false, t.reasonsOf(lo.Index(), hi.Index())
	}
	st, reasons := a.commuteUncached(lo, hi)
	t.publish(lo.Index(), hi.Index(), st, reasons)
	return st != pairMayNot, reasons
}

// commuteUncached evaluates Lemma 6.1 for the pair lo, hi (in definition
// order). It runs at most once per pair and view: the first examination
// of a pair is observable (it records the pair's upgrade), so when it
// happens is part of the analyzer's output.
func (a *Analyzer) commuteUncached(lo, hi *rules.Rule) (pairState, []NoncommuteReason) {
	if a.computeHook != nil {
		a.computeHook(a, lo, hi)
	}
	if a.cert.Commutes(lo.Name, hi.Name) {
		return pairCommutes, nil
	}
	fl, fh := a.view.of(lo), a.view.of(hi)
	if !fl.writes.intersects(fh.touches) && !fh.writes.intersects(fl.touches) {
		return pairCommutes, nil // no table in common that either writes
	}
	reasons := a.noncommuteOneWay(lo, hi)
	reasons = append(reasons, a.noncommuteOneWay(hi, lo)...) // condition 6
	if len(reasons) == 0 {
		return pairCommutes, nil
	}
	if a.ref != nil {
		// Condition-aware refinement: discharge reasons the abstract
		// interpretation proves spurious. A fully discharged pair is
		// upgraded to "commutes" and the justifications recorded; a
		// partially discharged pair keeps only the surviving reasons.
		remaining, whys := a.dischargeReasons(lo, hi, reasons)
		if len(remaining) == 0 {
			a.ref.recordUpgrade(lo, hi, whys)
			return pairRefined, nil
		}
		reasons = remaining
	}
	return pairMayNot, reasons
}

// noncommuteOneWay evaluates conditions 1–5 of Lemma 6.1 with the given
// direction of ri and rj. The op and column sets are iterated in the
// view's sorted order so the reported Detail — and therefore every
// rendered report — is deterministic.
func (a *Analyzer) noncommuteOneWay(ri, rj *rules.Rule) []NoncommuteReason {
	var out []NoncommuteReason
	fi, fj := a.view.of(ri), a.view.of(rj)
	perfI := fi.performsSorted
	perfJ := fj.performsSorted

	// 1. rj ∈ Triggers(ri): ri can cause rj to become triggered.
	for _, op := range perfI {
		if rj.TriggeredBy().Contains(op) {
			out = append(out, NoncommuteReason{Cond: 1, From: ri.Name, To: rj.Name, Detail: op.String()})
			break
		}
	}

	// 2. rj ∈ Can-Untrigger(Performs(ri)).
	if a.set.CanBeUntriggeredBy(rj, ri) {
		out = append(out, NoncommuteReason{Cond: 2, From: ri.Name, To: rj.Name,
			Detail: "a deletion by " + ri.Name + " can undo " + rj.Name + "'s triggering changes"})
	}

	// 3. ri's operations can affect what rj reads.
	readsJ := fj.reads
	readsJSorted := fj.readsSorted
	for _, op := range perfI {
		hit := false
		var detail string
		switch op.Kind {
		case schema.OpUpdate:
			if readsJ.Contains(schema.ColRef(op.Table, op.Column)) {
				hit = true
				detail = op.String() + " vs read of " + op.Table + "." + op.Column
			}
		case schema.OpInsert, schema.OpDelete:
			for _, ref := range readsJSorted {
				if ref.Table == op.Table {
					hit = true
					detail = op.String() + " vs read of " + ref.String()
					break
				}
			}
		}
		if hit {
			out = append(out, NoncommuteReason{Cond: 3, From: ri.Name, To: rj.Name, Detail: detail})
			break
		}
	}

	// 4. ri's insertions can affect what rj updates or deletes. (In SQL
	// a table can be deleted from or updated without being read, which
	// is why this is distinct from condition 3 — footnote 3.)
	for _, op := range perfI {
		if op.Kind != schema.OpInsert {
			continue
		}
		hit := false
		var detail string
		for _, opJ := range perfJ {
			if opJ.Table == op.Table && (opJ.Kind == schema.OpDelete || opJ.Kind == schema.OpUpdate) {
				hit = true
				detail = op.String() + " vs " + opJ.String()
				break
			}
		}
		if hit {
			out = append(out, NoncommuteReason{Cond: 4, From: ri.Name, To: rj.Name, Detail: detail})
			break
		}
	}

	// 5. ri's updates can affect rj's updates of the same column.
	perfJSet := fj.performs
	for _, op := range perfI {
		if op.Kind != schema.OpUpdate {
			continue
		}
		if perfJSet.Contains(op) {
			out = append(out, NoncommuteReason{Cond: 5, From: ri.Name, To: rj.Name, Detail: op.String()})
			break
		}
	}

	if a.noCond7 {
		return out
	}

	// 7. Masking (our refinement; not in the paper's Lemma 6.1). If ri
	// inserts into rj's table and rj is triggered by deletions or
	// updates on that table, the relative order of rj's consideration
	// and ri's insert is visible later: a tuple inserted INSIDE rj's
	// pending transition composes with a subsequent delete to nothing
	// (net-effect rule 4) and with a subsequent update to an insertion
	// (rule 3), masking a (D,t) or (U,t.c) that would have triggered rj
	// had rj been considered after the insert. Exhaustive execution-graph
	// exploration exhibits genuine divergence without this condition; see
	// DESIGN.md ("Deviations").
	for _, op := range perfI {
		if op.Kind != schema.OpInsert {
			continue
		}
		hit := false
		var detail string
		for _, trig := range fj.triggeredBySorted {
			if trig.Table == op.Table && (trig.Kind == schema.OpDelete || trig.Kind == schema.OpUpdate) {
				hit = true
				detail = op.String() + " vs trigger " + trig.String()
				break
			}
		}
		if hit {
			out = append(out, NoncommuteReason{Cond: 7, From: ri.Name, To: rj.Name, Detail: detail})
			break
		}
	}
	return out
}

// CommutativityMatrix reports, for every unordered index pair i < j,
// whether the rules commute. Used by benchmarks and reports.
func (a *Analyzer) CommutativityMatrix() [][]bool {
	rs := a.set.Rules()
	n := len(rs)
	out := make([][]bool, n)
	for i := range rs {
		out[i] = make([]bool, n)
		out[i][i] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ok, _ := a.Commute(rs[i], rs[j])
			out[i][j] = ok
			out[j][i] = ok
		}
	}
	return out
}
