// Command rulecheck is the interactive rule-analysis environment of the
// paper (Sections 5, 6.4, 9): it loads a schema and a rule set, runs the
// termination, confluence, partial-confluence, and observable-determinism
// analyses, and prints verdicts with the rules responsible for any
// failure and the criteria that would repair it.
//
// Usage:
//
//	rulecheck -schema schema.sdl -rules rules.srl [flags]
//
// Flags:
//
//	-cert file      certification file (see below); repeatable via commas
//	-tables t1,t2   also analyze partial confluence w.r.t. these tables
//	-refine         enable condition-aware refinement: predicate
//	                abstraction prunes statically infeasible triggering
//	                edges and noncommutativity conflicts before the
//	                Section 5/6 analyses
//	-lint           run the rulelint diagnostics (RL0xx codes) instead of
//	                the property analyses; combine with -json for
//	                machine-readable output
//	-shard-plan     print the maximal analysis-proven shard plan (Section
//	                7: table groups with pairwise-disjoint Sig, plus the
//	                rules/edges blocking a finer partition) and exit;
//	                combine with -json for machine-readable output
//	-why-scc n      explain cyclic component n's tier-2 termination
//	                verdict (members, stratum, certificate or the failed
//	                discharge attempts) and exit
//	-quiet          print only the one-line verdict summary
//
// The certification file carries the facts a user has verified in the
// interactive process, one per line:
//
//	commute r1 r2     -- r1 and r2 actually commute (Section 6.1)
//	discharge r3      -- r3 cannot sustain a triggering cycle (Section 5)
//	noedge r1 r2      -- r1 never actually triggers r2 (edge discharge)
//	order r1 r2       -- add priority r1 > r2 (Section 6.4, Approach 2)
//	-- comments and blank lines are ignored
//
// Exit status:
//
//	0  every analyzed property is guaranteed (or -lint found no
//	   error-severity findings)
//	1  some analyzed property may not hold
//	2  usage or load errors
//	3  -lint found at least one error-severity finding
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"activerules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	// Last-resort containment: a hostile rule set must produce a
	// diagnostic and a sane exit code, never a crash.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "rulecheck: internal error: panic: %v\n", p)
			code = 2
		}
	}()
	fs := flag.NewFlagSet("rulecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaPath := fs.String("schema", "", "schema definition file (required)")
	rulesPath := fs.String("rules", "", "rule definition file (required)")
	certPath := fs.String("cert", "", "certification file(s), comma separated")
	tables := fs.String("tables", "", "analyze partial confluence w.r.t. these tables (comma separated)")
	partition := fs.Bool("partition", false, "show independent rule partitions (incremental analysis)")
	dot := fs.Bool("dot", false, "print the triggering graph in Graphviz DOT format and exit")
	user := fs.String("user", "", "restrict user operations, e.g. insert:t,update:t.c,delete:u")
	refine := fs.Bool("refine", false, "enable condition-aware refinement (predicate abstraction)")
	lint := fs.Bool("lint", false, "run the rulelint diagnostics instead of the property analyses")
	shardPlan := fs.Bool("shard-plan", false, "print the maximal analysis-proven shard plan and exit")
	quiet := fs.Bool("quiet", false, "print only the verdict summary")
	jsonOut := fs.Bool("json", false, "emit the verdicts as JSON")
	stats := fs.Bool("stats", false, "include rule-set statistics in the report")
	why := fs.String("why", "", "explain one pair, e.g. -why r1,r2")
	whySCC := fs.Int("why-scc", 0, "explain one cyclic component's termination verdict by its 1-based ID")
	autorepair := fs.Bool("autorepair", false, "print the orderings the automated 6.4 loop would add")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *schemaPath == "" || *rulesPath == "" {
		fmt.Fprintln(stderr, "rulecheck: -schema and -rules are required")
		fs.Usage()
		return 2
	}

	sys, err := activerules.LoadFiles(*schemaPath, *rulesPath)
	if err != nil {
		fmt.Fprintln(stderr, "rulecheck:", err)
		return 2
	}

	cert := activerules.NewCertification()
	if *certPath != "" {
		for _, p := range strings.Split(*certPath, ",") {
			orders, err := loadCertFile(strings.TrimSpace(p), cert)
			if err != nil {
				fmt.Fprintln(stderr, "rulecheck:", err)
				return 2
			}
			if len(orders) > 0 {
				sys, err = sys.WithOrdering(orders...)
				if err != nil {
					fmt.Fprintln(stderr, "rulecheck:", err)
					return 2
				}
			}
		}
	}

	sys.SetAnalysisRefinement(*refine)

	if *lint {
		lr := sys.Lint(cert)
		if *jsonOut {
			b, err := activerules.RenderLintJSON(lr, *rulesPath)
			if err != nil {
				fmt.Fprintln(stderr, "rulecheck:", err)
				return 2
			}
			stdout.Write(b)
		} else {
			fmt.Fprint(stdout, activerules.RenderLintText(lr, *rulesPath))
		}
		if lr.HasErrors() {
			return 3
		}
		return 0
	}

	if *shardPlan {
		plan := sys.ShardPlan()
		if *jsonOut {
			b, err := json.MarshalIndent(plan, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "rulecheck:", err)
				return 2
			}
			stdout.Write(b)
			fmt.Fprintln(stdout)
		} else {
			fmt.Fprint(stdout, plan.String())
		}
		return 0
	}

	if *dot {
		fmt.Fprint(stdout, sys.TriggeringGraphDOT(cert))
		return 0
	}

	if *why != "" {
		a, b, ok := strings.Cut(*why, ",")
		if !ok {
			fmt.Fprintln(stderr, "rulecheck: -why wants two rule names separated by a comma")
			return 2
		}
		out, err := sys.ExplainPair(cert, strings.TrimSpace(a), strings.TrimSpace(b))
		if err != nil {
			fmt.Fprintln(stderr, "rulecheck:", err)
			return 2
		}
		fmt.Fprint(stdout, out)
		return 0
	}

	if *whySCC != 0 {
		term := sys.Analyze(cert).Termination
		if *whySCC < 0 || *whySCC > len(term.SCCs) {
			fmt.Fprint(stderr, "rulecheck: "+activerules.ExplainSCC(term, *whySCC))
			return 2
		}
		fmt.Fprint(stdout, activerules.ExplainSCC(term, *whySCC))
		return 0
	}

	if *autorepair {
		fmt.Fprint(stdout, sys.AutoRepairReport(cert))
		return 0
	}

	if *user != "" {
		ops, err := parseUserOps(*user)
		if err != nil {
			fmt.Fprintln(stderr, "rulecheck:", err)
			return 2
		}
		v := sys.AnalyzeRestricted(cert, ops...)
		fmt.Fprint(stdout, activerules.RestrictedReport(v))
		if v.Termination.Guaranteed && v.Confluence.Guaranteed && v.Observable.Guaranteed() {
			return 0
		}
		return 1
	}

	rep := sys.Analyze(cert)
	if *tables != "" {
		sys.AnalyzeTables(rep, cert, strings.Split(*tables, ",")...)
	}

	if *jsonOut {
		if err := writeJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "rulecheck:", err)
			return 2
		}
		if rep.AllGuaranteed() {
			return 0
		}
		return 1
	}

	if !*quiet {
		if *stats {
			fmt.Fprint(stdout, sys.StatsReport(cert))
			fmt.Fprint(stdout, rep.PairTable)
		}
		fmt.Fprint(stdout, rep.String())
		if *partition {
			fmt.Fprint(stdout, sys.PartitionReport(cert))
		}
	}
	fmt.Fprintf(stdout, "summary: termination=%v confluence=%v observable-determinism=%v",
		rep.Termination.Guaranteed, rep.Confluence.Guaranteed, rep.Observable.Guaranteed())
	for key, v := range rep.Partial {
		fmt.Fprintf(stdout, " partial[%s]=%v", key, v.Guaranteed())
	}
	fmt.Fprintln(stdout)
	if rep.AllGuaranteed() {
		return 0
	}
	return 1
}

// jsonReport is the machine-readable verdict shape emitted by -json.
type jsonReport struct {
	Termination struct {
		Guaranteed           bool                     `json:"guaranteed"`
		Status               string                   `json:"status"`
		SCCs                 []activerules.SCCVerdict `json:"sccs,omitempty"`
		CyclicSCCs           [][]string               `json:"cyclic_sccs,omitempty"`
		AutoDischarged       []string                 `json:"auto_discharged,omitempty"`
		UserDischarged       []string                 `json:"user_discharged,omitempty"`
		Refined              bool                     `json:"refined,omitempty"`
		RefinementDischarged []string                 `json:"refinement_discharged,omitempty"`
		PrunedEdges          []jsonEdge               `json:"pruned_edges,omitempty"`
	} `json:"termination"`
	Confluence struct {
		Guaranteed   bool            `json:"guaranteed"`
		PairsChecked int             `json:"pairs_checked"`
		Violations   []jsonViolation `json:"violations,omitempty"`
		Upgrades     []jsonUpgrade   `json:"refined_commuting_pairs,omitempty"`
	} `json:"confluence"`
	Observable struct {
		Guaranteed      bool            `json:"guaranteed"`
		ObservableRules []string        `json:"observable_rules,omitempty"`
		Sig             []string        `json:"sig,omitempty"`
		Violations      []jsonViolation `json:"violations,omitempty"`
	} `json:"observable_determinism"`
	Partial map[string]bool `json:"partial_confluence,omitempty"`
	All     bool            `json:"all_guaranteed"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Why  string `json:"why"`
}

type jsonUpgrade struct {
	Pair [2]string `json:"pair"`
	Why  []string  `json:"why"`
}

type jsonViolation struct {
	Pair        [2]string `json:"pair"`
	Culprits    [2]string `json:"culprits"`
	Reasons     []string  `json:"reasons"`
	Suggestions []string  `json:"suggestions"`
}

func toJSONViolations(vs []activerules.Violation) []jsonViolation {
	out := make([]jsonViolation, len(vs))
	for i, v := range vs {
		jv := jsonViolation{
			Pair:        [2]string{v.PairI, v.PairJ},
			Culprits:    [2]string{v.CulpritA, v.CulpritB},
			Suggestions: v.Suggestions(),
		}
		for _, r := range v.Reasons {
			jv.Reasons = append(jv.Reasons, r.String())
		}
		out[i] = jv
	}
	return out
}

func writeJSON(w io.Writer, rep *activerules.Report) error {
	var jr jsonReport
	jr.Termination.Guaranteed = rep.Termination.Guaranteed
	jr.Termination.Status = rep.Termination.Status.String()
	jr.Termination.SCCs = rep.Termination.SCCs
	for _, comp := range rep.Termination.CyclicSCCs {
		var names []string
		for _, r := range comp {
			names = append(names, r.Name)
		}
		jr.Termination.CyclicSCCs = append(jr.Termination.CyclicSCCs, names)
	}
	jr.Termination.AutoDischarged = rep.Termination.AutoDischarged
	jr.Termination.UserDischarged = rep.Termination.UserDischarged
	jr.Termination.Refined = rep.Termination.Refined
	for _, d := range rep.Termination.RefinementDischarged {
		jr.Termination.RefinementDischarged = append(jr.Termination.RefinementDischarged, d.Rule)
	}
	for _, pe := range rep.Termination.PrunedEdges {
		jr.Termination.PrunedEdges = append(jr.Termination.PrunedEdges,
			jsonEdge{From: pe.From, To: pe.To, Why: pe.Why})
	}
	jr.Confluence.Guaranteed = rep.Confluence.Guaranteed
	jr.Confluence.PairsChecked = rep.Confluence.PairsChecked
	jr.Confluence.Violations = toJSONViolations(rep.Confluence.Violations)
	for _, up := range rep.Confluence.Upgrades {
		jr.Confluence.Upgrades = append(jr.Confluence.Upgrades,
			jsonUpgrade{Pair: [2]string{up.A, up.B}, Why: up.Why})
	}
	jr.Observable.Guaranteed = rep.Observable.Guaranteed()
	jr.Observable.ObservableRules = rep.Observable.ObservableRules
	jr.Observable.Sig = rep.Observable.Partial.SigNames()
	jr.Observable.Violations = toJSONViolations(rep.Observable.Violations())
	if len(rep.Partial) > 0 {
		jr.Partial = map[string]bool{}
		for k, v := range rep.Partial {
			jr.Partial[k] = v.Guaranteed()
		}
	}
	jr.All = rep.AllGuaranteed()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// parseUserOps parses the -user restriction syntax:
// "insert:t,delete:u,update:t.c".
func parseUserOps(s string) ([]activerules.Op, error) {
	var out []activerules.Op
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, target, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad user op %q (want kind:target)", part)
		}
		switch kind {
		case "insert":
			out = append(out, activerules.UserInsert(target))
		case "delete":
			out = append(out, activerules.UserDelete(target))
		case "update":
			table, col, ok := strings.Cut(target, ".")
			if !ok {
				return nil, fmt.Errorf("bad update target %q (want table.column)", target)
			}
			out = append(out, activerules.UserUpdate(table, col))
		default:
			return nil, fmt.Errorf("unknown user op kind %q", kind)
		}
	}
	return out, nil
}

// loadCertFile parses a certification file into cert, returning any
// requested orderings (which must be applied to the rule set itself).
func loadCertFile(path string, cert *activerules.Certification) ([][2]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var orders [][2]string
	for lineNo, line := range strings.Split(string(data), "\n") {
		if idx := strings.Index(line, "--"); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "commute":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%s:%d: commute wants two rule names", path, lineNo+1)
			}
			cert.CertifyCommutes(fields[1], fields[2])
		case "discharge":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%s:%d: discharge wants one rule name", path, lineNo+1)
			}
			cert.DischargeRule(fields[1])
		case "order":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%s:%d: order wants two rule names (higher lower)", path, lineNo+1)
			}
			orders = append(orders, [2]string{fields[1], fields[2]})
		case "noedge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%s:%d: noedge wants two rule names (from to)", path, lineNo+1)
			}
			cert.DischargeEdge(fields[1], fields[2])
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q", path, lineNo+1, fields[0])
		}
	}
	return orders, nil
}
