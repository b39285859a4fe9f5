package analysis

// rulelint: a diagnostics engine over the static analyses. Each detector
// emits Diagnostics with a stable RL0xx code, a severity, and the source
// span of the offending rule, so front ends (rulecheck -lint) can render
// them like compiler errors. The detectors reuse the condition-aware
// refinement of refine.go; Lint always builds the refinement summaries,
// whether or not the analyzer has SetRefinement enabled.
//
// Codes:
//
//	RL001 error    dead rule: condition statically unsatisfiable
//	RL002 warning  self-deactivating rule: a self-triggering edge whose
//	               written rows its own condition provably rejects
//	RL003 warning  shadowed priority: a precedes/follows clause already
//	               implied transitively by other priorities
//	RL004 info     dead-store column: updated by a rule but read by no
//	               rule and triggering no rule
//	RL005 info     infeasible cycle: a triggering cycle that refinement
//	               proves can never sustain itself
//	RL006 info     discharged cycle: a triggering cycle certified
//	               terminating by a tier-2 argument (ranking,
//	               delete-only, convergent-update)
//	RL007 warning  undischargeable cycle: no tier-2 certificate applies;
//	               the hint names the closest failing discharge rule

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// Severity classifies a lint diagnostic.
type Severity int

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String renders the severity in lowercase, as shown in reports.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one lint finding.
type Diagnostic struct {
	// Code is the stable RL0xx identifier.
	Code string `json:"code"`
	// Severity is the finding's severity class.
	Severity Severity `json:"severity"`
	// Rule names the rule the finding is anchored to.
	Rule string `json:"rule"`
	// Line and Col locate the rule's CREATE RULE keyword (1-based);
	// zero when the rule was built programmatically.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message states the finding.
	Message string `json:"message"`
	// Hint, when non-empty, suggests a fix.
	Hint string `json:"hint,omitempty"`
	// Notes carry supporting detail (e.g. per-edge justifications).
	Notes []string `json:"notes,omitempty"`
}

// LintResult is the sorted set of diagnostics for one rule set.
type LintResult struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Errors, Warnings, and Infos count diagnostics per severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// HasErrors reports whether any diagnostic has error severity.
func (lr *LintResult) HasErrors() bool { return lr.Errors > 0 }

// withRefinement returns a when refinement is on, and otherwise an
// analyzer derived from a with refinement summaries of its own.
func (a *Analyzer) withRefinement() *Analyzer {
	if a.ref != nil {
		return a
	}
	return a.derive(a.view, buildRefinement(a.set, a.graph()))
}

// Lint runs every detector and returns the diagnostics sorted by
// (Line, Col, Code, Rule). Refinement summaries are built on demand, so
// Lint works on analyzers with or without SetRefinement.
func (a *Analyzer) Lint() *LintResult {
	runs := a.withRefinement().lintRuns()
	n := 0
	for _, run := range runs {
		n += len(run)
		if !slices.IsSortedFunc(run, compareDiagnostics) {
			slices.SortStableFunc(run, compareDiagnostics)
		}
	}
	lr := &LintResult{}
	if n > 0 {
		lr.Diagnostics = make([]Diagnostic, 0, n)
	}
	lr.merge(runs[:])
	return lr
}

// lintRuns is every detector's findings, one run per detector, each in
// the order the detector emits it. a must have refinement summaries.
func (a *Analyzer) lintRuns() [6][]Diagnostic {
	refV := a.Termination() // the refined verdict RL005–RL007 read
	return [...][]Diagnostic{
		a.lintDeadRules(),
		a.lintSelfDeactivating(),
		a.lintShadowedPriorities(),
		a.lintDeadStores(),
		a.lintInfeasibleCycles(refV),
		a.lintCycleDischarges(refV),
	}
}

// compareDiagnostics is the listing order: (Line, Col, Code, Rule).
func compareDiagnostics(x, y Diagnostic) int {
	if c := cmp.Compare(x.Line, y.Line); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Col, y.Col); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Code, y.Code); c != 0 {
		return c
	}
	return cmp.Compare(x.Rule, y.Rule)
}

// merge adds the merge of the sorted runs. On equal keys the earlier run
// goes first, so the merge is what a stable sort of the runs'
// concatenation gives.
func (lr *LintResult) merge(runs [][]Diagnostic) {
	for {
		best, live := -1, 0
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			live++
			if best < 0 || compareDiagnostics(run[0], runs[best][0]) < 0 {
				best = i
			}
		}
		switch live {
		case 0:
			return
		case 1:
			lr.add(runs[best]...)
			return
		}
		lr.add(runs[best][0])
		runs[best] = runs[best][1:]
	}
}

func (lr *LintResult) add(ds ...Diagnostic) {
	for _, d := range ds {
		lr.Diagnostics = append(lr.Diagnostics, d)
		switch d.Severity {
		case SevError:
			lr.Errors++
		case SevWarning:
			lr.Warnings++
		default:
			lr.Infos++
		}
	}
}

func at(r *rules.Rule, d Diagnostic) Diagnostic {
	d.Rule = r.Name
	d.Line = r.Line
	d.Col = r.Col
	return d
}

// lintDeadRules emits RL001 for rules whose condition is statically
// unsatisfiable: they can never fire, which is almost always a typo.
func (a *Analyzer) lintDeadRules() []Diagnostic {
	var out []Diagnostic
	for i, r := range a.set.Rules() {
		if !a.ref.dead[i] {
			continue
		}
		out = append(out, at(r, Diagnostic{
			Code: "RL001", Severity: SevError,
			Message: fmt.Sprintf("rule %s can never fire: its condition is statically unsatisfiable", r.Name),
			Hint:    "remove the rule or repair its condition",
		}))
	}
	return out
}

// lintSelfDeactivating emits RL002 for self-triggering edges pruned by
// refinement: the rule's action re-triggers it, but only with rows its
// own condition rejects, so the self-loop is a latent no-op.
func (a *Analyzer) lintSelfDeactivating() []Diagnostic {
	var out []Diagnostic
	rs := a.set.Rules()
	for _, r := range rs {
		why, ok := a.ref.edgePruned(r, r)
		if !ok {
			continue
		}
		out = append(out, at(r, Diagnostic{
			Code: "RL002", Severity: SevWarning,
			Message: fmt.Sprintf("rule %s re-triggers itself, but its condition rejects every row its own action supplies", r.Name),
			Hint:    "if re-firing was intended, align the written values with the condition; otherwise narrow the trigger",
			Notes:   []string{why},
		}))
	}
	return out
}

// lintShadowedPriorities emits RL003 for precedes/follows clauses whose
// ordering is already implied transitively by the remaining priorities:
// the clause is dead weight and often signals a misunderstanding of the
// existing order. The witness is the lowest-index rule in hi's row of
// the closure that itself precedes lo. Declarers are visited in listing
// order, (Line, Col, Name), so the findings need no sort; each message
// is one allocation.
func (a *Analyzer) lintShadowedPriorities() []Diagnostic {
	rs := a.set.Rules()
	clauses := 0
	for _, r := range rs {
		clauses += len(r.Precedes) + len(r.Follows)
	}
	if clauses == 0 {
		return nil
	}
	out := make([]Diagnostic, 0, clauses)
	witness := func(hi, lo *rules.Rule) *rules.Rule {
		for w, word := range a.set.HigherRow(hi) {
			for ; word != 0; word &= word - 1 {
				if mid := rs[w<<6|bits.TrailingZeros64(word)]; a.set.Higher(mid, lo) {
					return mid
				}
			}
		}
		return nil
	}
	// emit reports declarer's clause ordering hi above lo, when redundant;
	// declarer is hi for a precedes clause and lo for a follows clause.
	emit := func(declarer, hi, lo *rules.Rule) {
		mid := witness(hi, lo)
		if mid == nil {
			return
		}
		clause := "precedes " + lo.Name
		if declarer == lo {
			clause = "follows " + hi.Name
		}
		var buf [64]byte
		quoted := strconv.AppendQuote(buf[:0], clause)
		out = append(out, at(declarer, Diagnostic{
			Code: "RL003", Severity: SevWarning,
			Message: string(quoted) + " on rule " + declarer.Name + " is redundant: " +
				hi.Name + " already precedes " + lo.Name + " via " + mid.Name,
			Hint: "remove the redundant clause",
		}))
	}
	declarers := slices.Clone(rs)
	slices.SortFunc(declarers, func(x, y *rules.Rule) int {
		if c := cmp.Compare(x.Line, y.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Col, y.Col); c != 0 {
			return c
		}
		return cmp.Compare(x.Name, y.Name)
	})
	for _, r := range declarers {
		for _, name := range r.Precedes {
			if other := a.set.Rule(name); other != nil {
				emit(r, r, other)
			}
		}
		for _, name := range r.Follows {
			if other := a.set.Rule(name); other != nil {
				emit(r, other, r)
			}
		}
	}
	return out
}

// lintDeadStores emits RL004 for columns a rule updates that no rule
// reads and that trigger no rule: within the rule system the write is a
// dead store. Info severity — the column may of course matter to queries
// outside the rule system. Reading t.c consumes the update (U, t.c) as
// much as being triggered by it does, so one op set holds both.
func (a *Analyzer) lintDeadStores() []Diagnostic {
	var out []Diagnostic
	rs := a.set.Rules()
	consumed := schema.NewOpSet()
	for _, r := range rs {
		f := a.view.of(r)
		for _, ref := range f.readsSorted {
			consumed.Add(schema.Update(ref.Table, ref.Column))
		}
		for _, op := range f.triggeredBySorted {
			consumed.Add(op)
		}
	}
	for _, r := range rs {
		for _, op := range a.view.of(r).performsSorted {
			if op.Kind != schema.OpUpdate || consumed.Contains(op) {
				continue
			}
			out = append(out, at(r, Diagnostic{
				Code: "RL004", Severity: SevInfo,
				Message: fmt.Sprintf("rule %s updates %s.%s, but no rule reads that column or is triggered by it (dead store within the rule system)",
					r.Name, op.Table, op.Column),
				Hint: "drop the assignment if the column only matters to rules",
			}))
		}
	}
	return out
}

// lintInfeasibleCycles emits RL005 for triggering cycles of the raw
// graph that refinement proves can never sustain themselves: the SCC is
// cyclic syntactically but acyclic after condition-aware pruning. The
// notes justify each pruned edge (and each discharged dead rule) inside
// the component. refV is the refined termination verdict of the set.
func (a *Analyzer) lintInfeasibleCycles(refV *TerminationVerdict) []Diagnostic {
	raw := a.derive(a.view, nil)
	rawV := raw.Termination()
	stillCyclic := map[string]bool{}
	for _, comp := range refV.CyclicSCCs {
		for _, r := range comp {
			stillCyclic[r.Name] = true
		}
	}
	var out []Diagnostic
	for _, comp := range rawV.CyclicSCCs {
		resolved := true
		for _, r := range comp {
			if stillCyclic[r.Name] {
				resolved = false
				break
			}
		}
		if !resolved {
			continue
		}
		inComp := map[string]bool{}
		anchor := comp[0]
		for _, r := range comp {
			inComp[r.Name] = true
			if r.Index() < anchor.Index() {
				anchor = r
			}
		}
		var notes []string
		for _, d := range refV.RefinementDischarged {
			if inComp[d.Rule] {
				notes = append(notes, fmt.Sprintf("rule %s discharged: %s", d.Rule, d.Why))
			}
		}
		for _, pe := range refV.PrunedEdges {
			if inComp[pe.From] && inComp[pe.To] {
				notes = append(notes, fmt.Sprintf("edge %s -> %s pruned: %s", pe.From, pe.To, pe.Why))
			}
		}
		names := rules.Names(comp)
		sort.Strings(names)
		out = append(out, at(anchor, Diagnostic{
			Code: "RL005", Severity: SevInfo,
			Message: fmt.Sprintf("triggering cycle through {%s} is infeasible: condition-aware pruning breaks it", strings.Join(names, ", ")),
			Hint:    "no action needed; run rulecheck -refine to apply the pruning to termination analysis",
			Notes:   notes,
		}))
	}
	return out
}

// lintCycleDischarges emits RL006 for cyclic components the tier-2
// termination analysis discharged (info: the cycle is real but provably
// terminating, with the certificate in the notes) and RL007 for cyclic
// components no discharge rule could certify (warning, with the closest
// failing attempt per certificate kind and a fix-it hint). v is the
// refined termination verdict of the set.
func (a *Analyzer) lintCycleDischarges(v *TerminationVerdict) []Diagnostic {
	anchorOf := func(names []string) *rules.Rule {
		var anchor *rules.Rule
		for _, n := range names {
			r := a.set.Rule(n)
			if r != nil && (anchor == nil || r.Index() < anchor.Index()) {
				anchor = r
			}
		}
		return anchor
	}
	stepDesc := func(step DischargeStep) string {
		s := step.Kind
		if step.Column != "" {
			s += " on " + step.Column
		}
		if step.Direction != "" {
			s += " (" + step.Direction + ")"
		}
		return s
	}
	var out []Diagnostic
	for _, sv := range v.SCCs {
		if sv.Discharged {
			descs := make([]string, len(sv.Certificate))
			notes := make([]string, len(sv.Certificate))
			for i, step := range sv.Certificate {
				descs[i] = stepDesc(step)
				notes[i] = fmt.Sprintf("rule %s: %s", step.Rule, step.Why)
			}
			out = append(out, at(anchorOf(sv.Members), Diagnostic{
				Code: "RL006", Severity: SevInfo,
				Message: fmt.Sprintf("triggering cycle through {%s} provably terminates: discharged by %s",
					strings.Join(sv.Members, ", "), strings.Join(descs, "; ")),
				Hint:  "no action needed; the certificate is re-checked on every analysis",
				Notes: notes,
			}))
			continue
		}
		notes := make([]string, len(sv.Failures))
		for i, f := range sv.Failures {
			notes[i] = fmt.Sprintf("%s (%s): %s", f.Kind, f.Rule, f.Why)
		}
		hint := "guard the cycle so a discharge rule applies (e.g. a strictly decreasing bounded counter), or certify a rule manually"
		if len(sv.Failures) > 0 {
			f := sv.Failures[0]
			hint = fmt.Sprintf("closest attempt was the %s certificate on rule %s — add a guard so it applies, or certify a rule manually", f.Kind, f.Rule)
		}
		out = append(out, at(anchorOf(sv.Residual), Diagnostic{
			Code: "RL007", Severity: SevWarning,
			Message: fmt.Sprintf("triggering cycle through {%s} cannot be discharged: no termination certificate applies",
				strings.Join(sv.Residual, ", ")),
			Hint:  hint,
			Notes: notes,
		}))
	}
	return out
}

// RenderLintText renders the result in compiler style:
//
//	file:line:col: severity CODE [rule]: message
//	    note: ...
//	    hint: ...
//
// followed by a summary line. file labels the source; use the rules
// path. Deterministic: diagnostics are pre-sorted and notes ordered.
// The text goes into one buffer sized for it beforehand: a densely
// ordered set has thousands of RL003 findings.
func RenderLintText(lr *LintResult, file string) string {
	if file == "" {
		file = "<rules>"
	}
	const (
		note = "    note: "
		hint = "    hint: "
		// the fixed text of a finding's first line, and of the summary
		lineFixed    = len(":" + ":" + ": " + " " + " [" + "]: " + "\n")
		summaryFixed = len(" findings ( errors,  warnings,  info)\n")
	)
	var digits [20]byte
	intLen := func(n int) int { return len(strconv.AppendInt(digits[:0], int64(n), 10)) }
	size := summaryFixed + 4*len(digits)
	for _, d := range lr.Diagnostics {
		size += lineFixed + len(file) + intLen(d.Line) + intLen(d.Col) + len(d.Severity.String()) +
			len(d.Code) + len(d.Rule) + len(d.Message)
		for _, n := range d.Notes {
			size += len(note) + len(n) + 1
		}
		if d.Hint != "" {
			size += len(hint) + len(d.Hint) + 1
		}
	}
	var b strings.Builder
	b.Grow(size)
	writeInt := func(n int) { b.Write(strconv.AppendInt(digits[:0], int64(n), 10)) }
	for _, d := range lr.Diagnostics {
		b.WriteString(file)
		b.WriteByte(':')
		writeInt(d.Line)
		b.WriteByte(':')
		writeInt(d.Col)
		b.WriteString(": ")
		b.WriteString(d.Severity.String())
		b.WriteByte(' ')
		b.WriteString(d.Code)
		b.WriteString(" [")
		b.WriteString(d.Rule)
		b.WriteString("]: ")
		b.WriteString(d.Message)
		b.WriteByte('\n')
		for _, n := range d.Notes {
			b.WriteString(note)
			b.WriteString(n)
			b.WriteByte('\n')
		}
		if d.Hint != "" {
			b.WriteString(hint)
			b.WriteString(d.Hint)
			b.WriteByte('\n')
		}
	}
	if len(lr.Diagnostics) == 0 {
		b.WriteString("no lint findings\n")
	} else {
		writeInt(len(lr.Diagnostics))
		b.WriteString(" findings (")
		writeInt(lr.Errors)
		b.WriteString(" errors, ")
		writeInt(lr.Warnings)
		b.WriteString(" warnings, ")
		writeInt(lr.Infos)
		b.WriteString(" info)\n")
	}
	return b.String()
}

// RenderLintJSON renders the result as indented JSON with a trailing
// newline. The field order is fixed by the struct definitions, so the
// output is byte-stable.
func RenderLintJSON(lr *LintResult, file string) ([]byte, error) {
	payload := struct {
		File string `json:"file"`
		*LintResult
	}{File: file, LintResult: lr}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
