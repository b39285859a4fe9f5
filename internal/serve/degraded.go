package serve

import (
	"fmt"
	"sort"
	"strings"

	"activerules/internal/analysis"
	"activerules/internal/rules"
	"activerules/internal/schema"
)

// Degraded-mode guarantees (paper §7). When the breaker quarantines a
// rule, the served rule set shrinks from R to R' = R \ Q. What does the
// reduced system still guarantee? Definition 7.1 answers per table: the
// significant set Sig(T) is exactly the rules that can directly or
// indirectly affect T's final contents, so
//
//	Q ∩ Sig(T) = ∅  ⇒  quarantining Q cannot change T's final contents.
//
// Such tables are UNAFFECTED: the degraded server computes the same
// final contents for them as a healthy one (on executions where the
// quarantined rules would not have faulted). For the remaining tables
// we fall back to the §7 analysis of the reduced set itself: a
// PartialConfluence verdict over R' says whether the degraded system is
// at least still deterministic for that table, even though its contents
// may differ from the healthy system's.

// TableGuarantee is the degraded-mode verdict for one table.
type TableGuarantee struct {
	// Table is the table name.
	Table string
	// Unaffected reports that no quarantined rule is in the full rule
	// set's Sig(Table): by Definition 7.1, the quarantine cannot change
	// this table's final contents.
	Unaffected bool
	// SigQuarantined lists the quarantined rules that ARE significant
	// for the table (sorted; empty iff Unaffected).
	SigQuarantined []string
	// Confluent is the reduced rule set's partial-confluence verdict for
	// the table: does the degraded system remain deterministic here?
	Confluent bool
	// WasConfluent is the full rule set's baseline verdict, computed at
	// server start, so reports can distinguish "lost determinism to the
	// quarantine" from "was never guaranteed".
	WasConfluent bool
}

// DegradedReport describes the serving guarantees under the current
// quarantine set. Its String form is deterministic: equal quarantine
// and probing sets yield byte-identical reports.
type DegradedReport struct {
	// Tenant is the id of the tenant this server belongs to (empty for
	// a single-tenant server). Multi-tenant soak logs attribute every
	// report line through it.
	Tenant string
	// Quarantined lists rules with an open breaker (sorted).
	Quarantined []string
	// Probing lists half-open rules currently readmitted for a live
	// probe (sorted).
	Probing []string
	// Degraded reports whether any table's contents can be affected by
	// the quarantine (i.e. some table is not Unaffected).
	Degraded bool
	// Termination is the tiered termination status of the rule set
	// actually being served (the reduced set when rules are
	// quarantined). Removing a rule can flip a status either way: losing
	// a replenisher may make a cycle dischargeable, while losing a rule
	// whose certificate anchored an SCC may not — so the live status is
	// recomputed, never carried over.
	Termination analysis.TerminationStatus
	// WasTermination is the full rule set's baseline status, computed at
	// server start.
	WasTermination analysis.TerminationStatus
	// Tables holds one verdict per served table, sorted by name.
	Tables []TableGuarantee

	// served is the rule set the report describes: the engine's.
	served *rules.Set
}

// String renders the report deterministically, one line per table.
func (r *DegradedReport) String() string {
	var b strings.Builder
	if r.Tenant != "" {
		fmt.Fprintf(&b, "tenant: %s\n", r.Tenant)
	}
	fmt.Fprintf(&b, "quarantined: %s\n", nameList(r.Quarantined))
	fmt.Fprintf(&b, "probing: %s\n", nameList(r.Probing))
	if !r.Degraded {
		b.WriteString("mode: full service (no table affected by quarantine)\n")
	} else {
		b.WriteString("mode: DEGRADED\n")
	}
	fmt.Fprintf(&b, "termination: %s (was %s)\n", r.Termination, r.WasTermination)
	for _, t := range r.Tables {
		if t.Unaffected {
			fmt.Fprintf(&b, "table %s: unaffected (Sig ∩ quarantine = ∅); confluent=%v (was %v)\n",
				t.Table, t.Confluent, t.WasConfluent)
		} else {
			fmt.Fprintf(&b, "table %s: DEGRADED (significant rules quarantined: %s); reduced-set confluent=%v (was %v)\n",
				t.Table, nameList(t.SigQuarantined), t.Confluent, t.WasConfluent)
		}
	}
	return b.String()
}

// MarshalText is String: inside a JSON view the report is one string.
func (r *DegradedReport) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

func nameList(names []string) string {
	if len(names) == 0 {
		return "[]"
	}
	return "[" + strings.Join(names, " ") + "]"
}

// Baseline is the full-rule-set analysis a server's degraded-mode
// reporting starts from: the per-table §7 significant sets and partial-
// confluence verdicts plus the tiered termination status. Computing it
// runs the analyzer once; callers hosting many servers over identical
// rule sets (internal/tenant's shared analysis cache) compute it once
// and hand it to every server via Config.Baseline. A Baseline is
// immutable after construction and safe to share.
type Baseline struct {
	// Tables are the report tables, sorted.
	Tables []string
	// Sig maps each table to the names of its significant rules — the
	// rules that can directly or indirectly affect the table's final
	// contents (Definition 7.1).
	Sig map[string]map[string]bool
	// Conf maps each table to the full set's partial-confluence verdict.
	Conf map[string]bool
	// Term is the full set's tiered termination status.
	Term analysis.TerminationStatus
}

// resolveTables returns the report table list: the explicit selection,
// or every schema table, sorted either way.
func resolveTables(sch *schema.Schema, tables []string) []string {
	if len(tables) == 0 {
		for _, t := range sch.SortedTables() {
			tables = append(tables, t.Name)
		}
	} else {
		tables = append([]string(nil), tables...)
	}
	sort.Strings(tables)
	return tables
}

// BaselineOf computes a Baseline on the caller's analyzer, so the
// per-table verdicts share its pair-verdict table with whatever else the
// caller runs on it; term is the status of its Termination verdict,
// which every such caller has already computed. The tables are decided
// in one PartialConfluencePerTable pass, which gives each the verdict
// PartialConfluence would.
func BaselineOf(a *analysis.Analyzer, tables []string, term analysis.TerminationStatus) *Baseline {
	bl := &Baseline{
		Tables: resolveTables(a.Set().Schema(), tables),
		Sig:    map[string]map[string]bool{},
		Conf:   map[string]bool{},
		Term:   term,
	}
	sigs, of := a.PartialConfluencePerTable(bl.Tables)
	names := make([]map[string]bool, len(sigs)) // shared by the tables of one Sig
	for i, v := range sigs {
		names[i] = make(map[string]bool, len(v.Sig))
		for _, r := range v.Sig {
			names[i][r.Name] = true
		}
	}
	for i, t := range bl.Tables {
		bl.Sig[t] = names[of[i]]
		bl.Conf[t] = sigs[of[i]].Confluent
	}
	return bl
}

// fullSet builds and so validates the served definitions' set, and
// computes its baseline over that same set when bl is nil. A provided
// baseline MUST describe exactly (sch, defs, tables) — the tenant layer
// guarantees this by keying its cache on the canonical rule-set hash.
func fullSet(sch *schema.Schema, defs []rules.Definition, tables []string, bl *Baseline) (*rules.Set, *Baseline, error) {
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, nil, err
	}
	if bl == nil {
		a := analysis.New(set, nil)
		bl = BaselineOf(a, tables, a.Termination().Status)
	}
	return set, bl, nil
}

// newReport builds the degraded-mode report for the given quarantine
// and probing sets (both sorted by the caller) over served, the set the
// engine runs: the full set, or the full set without the quarantined
// rules. A probing rule is live, so only quarantined rules are absent.
func newReport(tenant string, bl *Baseline, served *rules.Set, quarantined, probing []string) *DegradedReport {
	rep := &DegradedReport{
		Tenant:         tenant,
		Quarantined:    append([]string(nil), quarantined...),
		Probing:        append([]string(nil), probing...),
		Termination:    bl.Term,
		WasTermination: bl.Term,
		served:         served,
	}
	var affected []string // the tables whose Sig holds a quarantined rule
	for _, t := range bl.Tables {
		// When Q ∩ Sig(t) = ∅ the removed rules are all non-significant
		// for t, so Sig_reduced(t) = Sig_full(t) and the confluence
		// verdict carries over unchanged — no need to re-analyze.
		g := TableGuarantee{
			Table:        t,
			Unaffected:   true,
			WasConfluent: bl.Conf[t],
			Confluent:    bl.Conf[t],
		}
		for _, n := range quarantined {
			if bl.Sig[t][n] {
				g.SigQuarantined = append(g.SigQuarantined, n)
			}
		}
		if len(g.SigQuarantined) > 0 {
			g.Unaffected = false
			rep.Degraded = true
			affected = append(affected, t)
		}
		rep.Tables = append(rep.Tables, g)
	}
	if len(quarantined) > 0 {
		reduced := analysis.New(served, nil)
		rep.Termination = reduced.Termination().Status
		if len(affected) > 0 {
			sigs, of := reduced.PartialConfluencePerTable(affected)
			for i := range rep.Tables {
				if g := &rep.Tables[i]; !g.Unaffected {
					g.Confluent, of = sigs[of[0]].Confluent, of[1:]
				}
			}
		}
	}
	return rep
}
