package analysis

import (
	"fmt"
	"strings"

	"activerules/internal/rules"
)

// ReportTermination renders a termination verdict for the interactive
// environment (Section 5: notify the user of all cycles / strong
// components, here with the tier-2 per-component verdicts).
func ReportTermination(v *TerminationVerdict) string {
	var sb strings.Builder
	switch v.Status {
	case TermAcyclic:
		sb.WriteString("TERMINATION: guaranteed (triggering graph is acyclic")
		if len(v.UserDischarged) > 0 || len(v.RefinementDischarged) > 0 {
			sb.WriteString(" after discharges")
		}
		sb.WriteString(")\n")
	case TermCycleDischarged:
		sb.WriteString("TERMINATION: guaranteed (every cyclic component discharged)\n")
	default:
		sb.WriteString("TERMINATION: may not terminate\n")
	}
	if len(v.AutoDischarged) > 0 {
		sb.WriteString("  auto-discharged (tier-2 certificates): " +
			strings.Join(v.AutoDischarged, ", ") + "\n")
	}
	if len(v.UserDischarged) > 0 {
		sb.WriteString("  user-discharged: " + strings.Join(v.UserDischarged, ", ") + "\n")
	}
	if edges := v.DischargedEdges; len(edges) > 0 {
		parts := make([]string, len(edges))
		for i, e := range edges {
			parts[i] = e[0] + "->" + e[1]
		}
		sb.WriteString("  discharged edges: " + strings.Join(parts, ", ") + "\n")
	}
	if v.Refined {
		for _, d := range v.RefinementDischarged {
			sb.WriteString("  refinement-discharged: " + d.Rule + " — " + d.Why + "\n")
		}
		for _, pe := range v.PrunedEdges {
			sb.WriteString("  pruned edge: " + pe.From + " -> " + pe.To + " — " + pe.Why + "\n")
		}
	}
	for i := range v.SCCs {
		renderSCC(&sb, v, &v.SCCs[i], "  ")
	}
	return sb.String()
}

// renderSCC writes one cyclic component's tier-2 verdict, indented by
// pad; shared by ReportTermination and ExplainSCC.
func renderSCC(sb *strings.Builder, v *TerminationVerdict, sv *SCCVerdict, pad string) {
	status := "discharged"
	if !sv.Discharged {
		status = "NOT discharged"
	}
	fmt.Fprintf(sb, "%scyclic component %d [stratum %d] {%s}: %s\n",
		pad, sv.ID, sv.Stratum, strings.Join(sv.Members, ", "), status)
	if len(sv.Certificate) > 0 {
		sb.WriteString(pad + "  certificate:\n")
		for _, step := range sv.Certificate {
			fmt.Fprintf(sb, "%s    %s [%s]: %s\n", pad, step.Rule, step.Kind, step.Why)
		}
	}
	if sv.Discharged {
		return
	}
	fmt.Fprintf(sb, "%s  residual: {%s}\n", pad, strings.Join(sv.Residual, ", "))
	for _, cyc := range sccSampleCycles(v, sv) {
		names := rules.Names(cyc)
		sb.WriteString(pad + "  sample cycle: " + strings.Join(names, " -> ") + " -> " + names[0] + "\n")
	}
	for _, fail := range sv.Failures {
		fmt.Fprintf(sb, "%s  %s fails (%s): %s\n", pad, fail.Kind, fail.Rule, fail.Why)
	}
	sb.WriteString(pad + "  to guarantee termination, add a guard so one of the discharge rules\n")
	sb.WriteString(pad + "  applies, or verify for some rule r on every cycle that repeated\n")
	sb.WriteString(pad + "  consideration makes r's action a no-op, then discharge r.\n")
}

// sccSampleCycles returns the sample cycles whose residual component
// lies inside the given initial SCC.
func sccSampleCycles(v *TerminationVerdict, sv *SCCVerdict) [][]*rules.Rule {
	member := map[string]bool{}
	for _, m := range sv.Members {
		member[m] = true
	}
	var out [][]*rules.Rule
	for i, comp := range v.CyclicSCCs {
		if i < len(v.SampleCycles) && member[comp[0].Name] {
			out = append(out, v.SampleCycles[i])
		}
	}
	return out
}

// ExplainSCC renders the tier-2 verdict of the cyclic component with
// the given 1-based ID in detail, for `rulecheck -why-scc`. Returns an
// explanatory message when the ID does not exist.
func ExplainSCC(v *TerminationVerdict, id int) string {
	for i := range v.SCCs {
		if v.SCCs[i].ID != id {
			continue
		}
		var sb strings.Builder
		renderSCC(&sb, v, &v.SCCs[i], "")
		return sb.String()
	}
	if len(v.SCCs) == 0 {
		return fmt.Sprintf("no cyclic component %d: the analyzed triggering graph is acyclic\n", id)
	}
	return fmt.Sprintf("no cyclic component %d: IDs run 1..%d\n", id, len(v.SCCs))
}

// ReportConfluence renders a confluence verdict with the remediation
// guidance of Section 6.4.
func ReportConfluence(v *ConfluenceVerdict) string {
	var sb strings.Builder
	switch {
	case v.Guaranteed:
		sb.WriteString(fmt.Sprintf("CONFLUENCE: guaranteed (%d unordered pairs satisfy the Confluence Requirement)\n",
			v.PairsChecked))
	case v.RequirementHolds && !v.Termination.Guaranteed:
		sb.WriteString("CONFLUENCE: requirement holds, but termination is not guaranteed (Theorem 6.7 needs both)\n")
	default:
		sb.WriteString(fmt.Sprintf("CONFLUENCE: may not be confluent (%d of %d pair checks failed)\n",
			len(v.Violations), v.PairsChecked))
	}
	for i, viol := range v.Violations {
		sb.WriteString(fmt.Sprintf("  violation %d: %s\n", i+1, indent(viol.String(), "  ")))
		for _, s := range viol.Suggestions() {
			sb.WriteString("    -> " + s + "\n")
		}
	}
	for _, up := range v.Upgrades {
		sb.WriteString(fmt.Sprintf("  refined to commute: (%s, %s)\n", up.A, up.B))
		for _, why := range up.Why {
			sb.WriteString("    " + why + "\n")
		}
	}
	return sb.String()
}

// ReportPartialConfluence renders a partial-confluence verdict.
func ReportPartialConfluence(v *PartialConfluenceVerdict) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("PARTIAL CONFLUENCE w.r.t. {%s}:\n", strings.Join(v.Tables, ", ")))
	sb.WriteString(fmt.Sprintf("  Sig = {%s}\n", strings.Join(v.SigNames(), ", ")))
	if v.Guaranteed() {
		sb.WriteString("  guaranteed\n")
	} else if !v.Confluence.Termination.Guaranteed {
		sb.WriteString("  not guaranteed: Sig(T') is not guaranteed to terminate on its own\n")
	} else {
		sb.WriteString("  not guaranteed\n")
	}
	sb.WriteString(indent(ReportConfluence(v.Confluence), "  "))
	return sb.String()
}

// ReportObservable renders an observable-determinism verdict.
func ReportObservable(v *ObservableVerdict) string {
	var sb strings.Builder
	if v.Guaranteed() {
		sb.WriteString("OBSERVABLE DETERMINISM: guaranteed\n")
	} else {
		sb.WriteString("OBSERVABLE DETERMINISM: may not be deterministic\n")
	}
	sb.WriteString("  observable rules: {" + strings.Join(v.ObservableRules, ", ") + "}\n")
	sb.WriteString(fmt.Sprintf("  Sig(%s) = {%s}\n", v.ObsTable, strings.Join(v.Partial.SigNames(), ", ")))
	if !v.Termination.Guaranteed {
		sb.WriteString("  full rule set termination is not guaranteed (required by Theorem 8.1)\n")
	}
	for i, viol := range v.Violations() {
		sb.WriteString(fmt.Sprintf("  violation %d: %s\n", i+1, indent(viol.String(), "  ")))
		for _, s := range viol.Suggestions() {
			sb.WriteString("    -> " + s + "\n")
		}
	}
	return sb.String()
}

// ExplainPair renders the full commutativity story for one pair of
// rules: the Lemma 6.1 verdict with reasons, the Definition 6.5 R1/R2
// construction (when the pair is unordered), and the resulting
// obligations — the "why is this pair a problem?" answer for the
// interactive environment.
func ExplainPair(a *Analyzer, ri, rj *rules.Rule) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "PAIR (%s, %s):\n", ri.Name, rj.Name)
	switch {
	case a.Set().Higher(ri, rj):
		fmt.Fprintf(&sb, "  ordered: %s > %s — not subject to the Confluence Requirement\n", ri.Name, rj.Name)
	case a.Set().Higher(rj, ri):
		fmt.Fprintf(&sb, "  ordered: %s > %s — not subject to the Confluence Requirement\n", rj.Name, ri.Name)
	default:
		sb.WriteString("  unordered: subject to the Confluence Requirement (Definition 6.5)\n")
	}
	ok, reasons := a.Commute(ri, rj)
	if ok {
		sb.WriteString("  commutativity (Lemma 6.1): guaranteed to commute\n")
		if a.Refined() {
			for _, up := range a.Upgrades() {
				if (up.A == ri.Name && up.B == rj.Name) || (up.A == rj.Name && up.B == ri.Name) {
					sb.WriteString("    upgraded by condition-aware refinement:\n")
					for _, why := range up.Why {
						sb.WriteString("      " + why + "\n")
					}
				}
			}
		}
	} else {
		sb.WriteString("  commutativity (Lemma 6.1): may NOT commute\n")
		for _, r := range reasons {
			sb.WriteString("    " + r.String() + "\n")
		}
	}
	if a.Set().Unordered(ri, rj) {
		r1, r2 := a.BuildR1R2(ri, rj)
		fmt.Fprintf(&sb, "  R1 = {%s}\n", strings.Join(sortedNames(r1), ", "))
		fmt.Fprintf(&sb, "  R2 = {%s}\n", strings.Join(sortedNames(r2), ", "))
		if viol := a.checkPair(ri, rj); viol != nil {
			sb.WriteString("  requirement: VIOLATED — " + indent(viol.String(), "  ") + "\n")
			for _, s := range viol.Suggestions() {
				sb.WriteString("    -> " + s + "\n")
			}
		} else {
			sb.WriteString("  requirement: satisfied (every R1 x R2 pair commutes)\n")
		}
	}
	return sb.String()
}

// ReportRepairPlan renders an AutoRepair outcome.
func ReportRepairPlan(p *RepairPlan) string {
	var sb strings.Builder
	if p.Succeeded() {
		fmt.Fprintf(&sb, "AUTO-REPAIR: confluence guaranteed after %d round(s)\n", p.Rounds)
	} else if p.Final != nil && p.Final.RequirementHolds {
		fmt.Fprintf(&sb, "AUTO-REPAIR: requirement holds after %d round(s), but termination is not guaranteed\n", p.Rounds)
	} else {
		fmt.Fprintf(&sb, "AUTO-REPAIR: did not reach confluence (%d round(s))\n", p.Rounds)
	}
	if len(p.Orderings) == 0 {
		sb.WriteString("  no orderings needed\n")
	}
	for _, o := range p.Orderings {
		fmt.Fprintf(&sb, "  order %s %s\n", o[0], o[1])
	}
	return sb.String()
}

// ReportRestricted renders a restricted-user-operations verdict.
func ReportRestricted(v *RestrictedVerdict) string {
	var sb strings.Builder
	sb.WriteString("RESTRICTED ANALYSIS for user operations " + v.UserOps.String() + ":\n")
	sb.WriteString("  reachable rules: {" + strings.Join(v.ReachableNames(), ", ") + "}\n")
	sb.WriteString(indentAll(ReportTermination(v.Termination), "  "))
	sb.WriteString(indentAll(ReportConfluence(v.Confluence), "  "))
	sb.WriteString(indentAll(ReportObservable(v.Observable), "  "))
	return sb.String()
}

// ReportPartition renders the partition structure and per-partition
// confluence verdicts of the partitioned-analysis extension.
func ReportPartition(parts [][]*rules.Rule, per []*ConfluenceVerdict) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("PARTITIONS: %d independent group(s)\n", len(parts)))
	for i, part := range parts {
		sb.WriteString(fmt.Sprintf("  partition %d: {%s}", i+1, strings.Join(rules.Names(part), ", ")))
		if i < len(per) {
			if per[i].Guaranteed {
				sb.WriteString(" — confluent\n")
			} else {
				sb.WriteString(fmt.Sprintf(" — %d violation(s)\n", len(per[i].Violations)))
			}
		} else {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// indentAll pads every line including the first.
func indentAll(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}
