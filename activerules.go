// Package activerules is a static analyzer and execution engine for
// database production rules, reproducing Aiken, Widom & Hellerstein,
// "Behavior of Database Production Rules: Termination, Confluence, and
// Observable Determinism" (SIGMOD 1992).
//
// The package analyzes Starburst-style rule sets for four properties:
//
//   - Termination (Section 5): is rule processing guaranteed to
//     terminate after any transition in any database state?
//   - Confluence (Section 6): is the final database state independent of
//     the order in which unordered triggered rules are considered?
//   - Partial confluence (Section 7): confluence restricted to a set of
//     important tables.
//   - Observable determinism (Section 8): is the order and content of
//     observable actions (SELECT, ROLLBACK) order-independent?
//
// All analyses are conservative. When a property is not guaranteed, the
// verdict isolates the responsible rules and states criteria —
// commutativity certifications, priority orderings, cycle discharges —
// that, if satisfied by the user, guarantee the property (the
// interactive process of Sections 5 and 6.4).
//
// Alongside the analyzer, the package includes a complete substrate: an
// in-memory relational store, an SQL subset, a rule engine implementing
// the Section 2 processing semantics (net-effect transitions, transition
// tables, priorities, untriggering, rollback), and an execution-graph
// model checker that exhaustively explores all processing orders on
// small instances — the ground truth used to validate the analyzer.
//
// # Quick start
//
//	sys, err := activerules.Load(schemaText, rulesText)
//	rep := sys.Analyze(nil)
//	fmt.Print(rep)                     // all four verdicts
//
//	db := sys.NewDB()
//	eng := sys.NewEngine(db, activerules.EngineOptions{})
//	eng.ExecUser("insert into account values (1, 'ann', 100.0)")
//	res, err := eng.Assert()           // run rule processing
package activerules

import (
	"context"
	"fmt"
	"os"
	"strings"

	"activerules/internal/analysis"
	"activerules/internal/engine"
	"activerules/internal/execgraph"
	"activerules/internal/faultinject"
	"activerules/internal/ruledef"
	"activerules/internal/rules"
	"activerules/internal/schema"
	"activerules/internal/storage"
)

// Re-exported core types. The internal packages carry the
// implementation; these aliases are the public surface.
type (
	// Schema is an immutable database schema.
	Schema = schema.Schema
	// Op is one database modification operation: (I,t), (D,t), (U,t.c).
	Op = schema.Op
	// OpSet is a set of operations.
	OpSet = schema.OpSet

	// Definition is the authored form of a rule.
	Definition = rules.Definition
	// TriggerSpec is one triggering operation of a rule.
	TriggerSpec = rules.TriggerSpec
	// Rule is a compiled rule with its derived sets.
	Rule = rules.Rule
	// RuleSet is a compiled, validated rule set with its priorities.
	RuleSet = rules.Set

	// Analyzer runs the four static analyses.
	Analyzer = analysis.Analyzer
	// Certification records user-verified facts for the analyses.
	Certification = analysis.Certification
	// TerminationVerdict is the Section 5 result.
	TerminationVerdict = analysis.TerminationVerdict
	// TerminationStatus is the three-valued tiered termination outcome.
	TerminationStatus = analysis.TerminationStatus
	// SCCVerdict is the tier-2 verdict for one cyclic strong component.
	SCCVerdict = analysis.SCCVerdict
	// DischargeStep is one tier-2 discharge certificate.
	DischargeStep = analysis.DischargeStep
	// DischargeFailure explains why an SCC could not be discharged.
	DischargeFailure = analysis.DischargeFailure
	// ConfluenceVerdict is the Section 6 result.
	ConfluenceVerdict = analysis.ConfluenceVerdict
	// PartialConfluenceVerdict is the Section 7 result.
	PartialConfluenceVerdict = analysis.PartialConfluenceVerdict
	// ObservableVerdict is the Section 8 result.
	ObservableVerdict = analysis.ObservableVerdict
	// Violation is one failed Confluence Requirement check.
	Violation = analysis.Violation
	// PairTableStats counts the pairs an analysis examined (Lemma 6.1).
	PairTableStats = analysis.PairTableStats
	// NoncommuteReason cites a Lemma 6.1 condition.
	NoncommuteReason = analysis.NoncommuteReason
	// RestrictedVerdict is the restricted-user-operations result (the
	// Section 9 extension).
	RestrictedVerdict = analysis.RestrictedVerdict
	// TriggeringGraph is the Section 5 graph TG_R.
	TriggeringGraph = analysis.TriggeringGraph
	// RepairPlan is the outcome of the automated Section 6.4 loop.
	RepairPlan = analysis.RepairPlan
	// PrunedEdge is a triggering edge removed by condition-aware
	// refinement, with its justification.
	PrunedEdge = analysis.PrunedEdge
	// RefinementDischarge is a dead rule discharged by refinement.
	RefinementDischarge = analysis.RefinementDischarge
	// CommuteUpgrade is a pair upgraded to "commutes" by refinement.
	CommuteUpgrade = analysis.CommuteUpgrade
	// LintResult is the sorted diagnostics of the rulelint engine.
	LintResult = analysis.LintResult
	// Diagnostic is one lint finding with a stable RL0xx code.
	Diagnostic = analysis.Diagnostic
	// Severity classifies a lint diagnostic.
	Severity = analysis.Severity

	// DB is an in-memory database instance.
	DB = storage.DB
	// Value is a dynamically typed SQL value.
	Value = storage.Value
	// Tuple is a row with a stable identity.
	Tuple = storage.Tuple
	// TupleID is the stable identity of a tuple.
	TupleID = storage.TupleID

	// Engine executes rule processing (Section 2 semantics).
	Engine = engine.Engine
	// EngineOptions configure an Engine.
	EngineOptions = engine.Options
	// EngineResult summarizes one assertion point's rule processing.
	EngineResult = engine.Result
	// ObservableEvent is one environment-visible action.
	ObservableEvent = engine.ObservableEvent
	// TraceEvent is one step of rule processing (EngineOptions.Trace).
	TraceEvent = engine.TraceEvent
	// Strategy picks among simultaneously eligible rules.
	Strategy = engine.Strategy
	// Mutator receives the data modifications of each statement, one
	// call per statement; wrap it via EngineOptions.WrapMutator for
	// fault injection.
	Mutator = engine.Mutator

	// ExecError reports a failed rule consideration; the consideration
	// has been fully undone and processing is resumable.
	ExecError = engine.ExecError
	// PanicError is a recovered rule-processing panic.
	PanicError = engine.PanicError
	// LivelockError is a runtime nontermination witness: a repeated
	// execution-graph state with the repeating rule cycle.
	LivelockError = engine.LivelockError
	// CancelledError reports that AssertContext's context was done.
	CancelledError = engine.CancelledError

	// FaultInjector deterministically fails chosen storage mutations
	// (testing/chaos; see EngineOptions.WrapMutator).
	FaultInjector = faultinject.Injector
	// FaultConfig selects which mutations a FaultInjector fails.
	FaultConfig = faultinject.Config

	// ExploreOptions bound the execution-graph model checker.
	ExploreOptions = execgraph.Options
	// ExploreResult reports reachable final states, cycles, and streams.
	ExploreResult = execgraph.Result
)

// Value constructors, re-exported.
var (
	// Null is the SQL null value.
	Null = storage.Null

	// ErrMaxSteps is returned by Engine.Assert when rule processing
	// exceeds its step budget (possible nontermination). A
	// *LivelockError — the same verdict with a concrete witness —
	// satisfies errors.Is against it.
	ErrMaxSteps = engine.ErrMaxSteps

	// ErrInjectedFault is the sentinel wrapped by every fault a
	// FaultInjector injects.
	ErrInjectedFault = faultinject.ErrInjected
)

// Lint severities, re-exported.
const (
	SevInfo    = analysis.SevInfo
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

// Termination statuses, re-exported.
const (
	TermUnknown         = analysis.TermUnknown
	TermAcyclic         = analysis.TermAcyclic
	TermCycleDischarged = analysis.TermCycleDischarged
)

// ExplainSCC renders the tier-2 verdict for the cyclic component with
// the given 1-based ID, or an error message if no such component exists.
func ExplainSCC(v *TerminationVerdict, id int) string { return analysis.ExplainSCC(v, id) }

// RenderLintText renders lint diagnostics in compiler style; file labels
// the rules source.
func RenderLintText(lr *LintResult, file string) string { return analysis.RenderLintText(lr, file) }

// RenderLintJSON renders lint diagnostics as stable indented JSON.
func RenderLintJSON(lr *LintResult, file string) ([]byte, error) {
	return analysis.RenderLintJSON(lr, file)
}

// NewFaultInjector returns an armed deterministic fault injector; pass
// its Wrap method as EngineOptions.WrapMutator.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultinject.New(cfg) }

// IntV returns an integer value.
func IntV(i int64) Value { return storage.IntV(i) }

// FloatV returns a floating-point value.
func FloatV(f float64) Value { return storage.FloatV(f) }

// StringV returns a string value.
func StringV(s string) Value { return storage.StringV(s) }

// BoolV returns a boolean value.
func BoolV(b bool) Value { return storage.BoolV(b) }

// NewCertification returns an empty certification set.
func NewCertification() *Certification { return analysis.NewCertification() }

// FirstByName is the deterministic default strategy.
func FirstByName() Strategy { return engine.FirstByName{} }

// LastByName is the reverse deterministic strategy.
func LastByName() Strategy { return engine.LastByName{} }

// SeededStrategy picks uniformly at random, reproducibly for a seed.
func SeededStrategy(seed int64) Strategy { return engine.NewSeeded(seed) }

// ParseStrategy reads a strategy name: first | last | random:<seed>.
func ParseStrategy(s string) (Strategy, error) { return engine.ParseStrategy(s) }

// System bundles a schema with a compiled rule set — everything the
// analyses and the engine need.
type System struct {
	schema *Schema
	rules  *RuleSet
	defs   []Definition // authored definitions, kept for Without

	// analysisRefine enables condition-aware refinement on every
	// analyzer the system constructs.
	analysisRefine bool
}

// SetAnalysisRefinement enables (or disables) condition-aware refinement
// — predicate abstraction that prunes statically infeasible triggering
// edges and noncommutativity conflicts — on every analyzer this system
// constructs. Off by default: the refined verdicts are strictly no more
// conservative, but their reports carry extra sections.
func (s *System) SetAnalysisRefinement(on bool) { s.analysisRefine = on }

// Load parses a schema definition and a rule definition file and
// compiles them together.
func Load(schemaSrc, rulesSrc string) (*System, error) {
	sch, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, err
	}
	defs, err := ruledef.Parse(rulesSrc)
	if err != nil {
		return nil, err
	}
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, err
	}
	return &System{schema: sch, rules: set, defs: defs}, nil
}

// LoadFiles is Load reading from files.
func LoadFiles(schemaPath, rulesPath string) (*System, error) {
	sb, err := os.ReadFile(schemaPath)
	if err != nil {
		return nil, err
	}
	rb, err := os.ReadFile(rulesPath)
	if err != nil {
		return nil, err
	}
	return Load(string(sb), string(rb))
}

// FromDefinitions compiles programmatically constructed definitions.
func FromDefinitions(sch *Schema, defs []Definition) (*System, error) {
	set, err := rules.NewSet(sch, defs)
	if err != nil {
		return nil, err
	}
	return &System{schema: sch, rules: set, defs: defs}, nil
}

// MustLoad is Load, panicking on error. Intended for tests and examples.
func MustLoad(schemaSrc, rulesSrc string) *System {
	sys, err := Load(schemaSrc, rulesSrc)
	if err != nil {
		panic(err)
	}
	return sys
}

// ParseSchema parses a schema definition.
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src) }

// ParseDefinitions parses rule definitions without compiling them.
func ParseDefinitions(src string) ([]Definition, error) { return ruledef.Parse(src) }

// Schema returns the system's schema.
func (s *System) Schema() *Schema { return s.schema }

// Rules returns the compiled rule set.
func (s *System) Rules() *RuleSet { return s.rules }

// WithOrdering returns a new System with additional (higher, lower)
// priority pairs — Approach 2 of the interactive confluence process
// (Section 6.4).
func (s *System) WithOrdering(pairs ...[2]string) (*System, error) {
	ns, err := s.rules.WithOrdering(pairs...)
	if err != nil {
		return nil, err
	}
	return &System{schema: s.schema, rules: ns, defs: s.defs,
		analysisRefine: s.analysisRefine}, nil
}

// Without returns a new System with the named rules deactivated
// (Starburst's deactivate operation): the remaining definitions are
// recompiled with priority references to removed rules dropped. It
// supports "what if this rule were disabled" exploration in the
// interactive environment.
func (s *System) Without(names ...string) (*System, error) {
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		if s.rules.Rule(n) == nil {
			return nil, fmt.Errorf("activerules: Without: unknown rule %q", n)
		}
	}
	kept := rules.Without(s.defs, names...)
	if len(kept) == 0 {
		return nil, fmt.Errorf("activerules: Without: no rules remain")
	}
	ns, err := FromDefinitions(s.schema, kept)
	if err != nil {
		return nil, err
	}
	ns.analysisRefine = s.analysisRefine
	return ns, nil
}

// Analyzer returns an analyzer honoring the certifications (nil for
// none).
func (s *System) Analyzer(cert *Certification) *Analyzer {
	a := analysis.New(s.rules, cert)
	if s.analysisRefine {
		a.SetRefinement(true)
	}
	return a
}

// Lint runs the rulelint diagnostics engine (dead rules, self-
// deactivating updates, shadowed priorities, dead-store columns,
// infeasible cycles) with the given certifications (nil for none).
func (s *System) Lint(cert *Certification) *LintResult {
	return s.Analyzer(cert).Lint()
}

// NewDB returns an empty database over the system's schema.
func (s *System) NewDB() *DB { return storage.NewDB(s.schema) }

// NewEngine returns a rule-processing engine over db. A database serves
// one engine at a time: Close it before opening another over the same db.
func (s *System) NewEngine(db *DB, opts EngineOptions) *Engine {
	return engine.New(s.rules, db, opts)
}

// Explore exhaustively model-checks all rule-processing orders from the
// engine's current state (Section 4 execution graphs). The engine is not
// mutated.
func Explore(e *Engine, opts ExploreOptions) (*ExploreResult, error) {
	return execgraph.Explore(e, opts)
}

// ExploreContext is Explore with cancellation: the context is checked at
// every state visit, bounding the wall-clock time of large explorations.
func ExploreContext(ctx context.Context, e *Engine, opts ExploreOptions) (*ExploreResult, error) {
	return execgraph.ExploreContext(ctx, e, opts)
}

// Report bundles all four verdicts for one rule set.
type Report struct {
	Termination *TerminationVerdict
	Confluence  *ConfluenceVerdict
	Observable  *ObservableVerdict
	// Partial holds partial-confluence verdicts for the table sets
	// requested via AnalyzeTables, keyed by the joined table list.
	Partial map[string]*PartialConfluenceVerdict
	// PairTable counts the rule pairs the three verdicts above had to
	// examine for commutativity, out of all there are.
	PairTable PairTableStats
}

// Analyze runs termination, confluence, and observable-determinism
// analysis with the given certifications (nil for none).
func (s *System) Analyze(cert *Certification) *Report {
	a := s.Analyzer(cert)
	rep := &Report{
		Termination: a.Termination(),
		Confluence:  a.Confluence(),
		Observable:  a.ObservableDeterminism(),
		Partial:     map[string]*PartialConfluenceVerdict{},
	}
	rep.PairTable = a.PairTable()
	return rep
}

// AnalyzeTables extends a report with partial confluence w.r.t. tables.
func (s *System) AnalyzeTables(rep *Report, cert *Certification, tables ...string) *PartialConfluenceVerdict {
	v := s.Analyzer(cert).PartialConfluence(tables)
	rep.Partial[strings.Join(v.Tables, ",")] = v
	return v
}

// UserOp constructors for AnalyzeRestricted: the operations a restricted
// workload may perform.

// UserInsert is the user operation (I, table).
func UserInsert(table string) Op { return schema.Insert(table) }

// UserDelete is the user operation (D, table).
func UserDelete(table string) Op { return schema.Delete(table) }

// UserUpdate is the user operation (U, table.column).
func UserUpdate(table, column string) Op { return schema.Update(table, column) }

// AnalyzeRestricted analyzes the three properties under the assumption
// that user transactions only perform the given operations — the
// "Restricted user operations" extension of Section 9. Unreachable rules
// are excluded from every check.
func (s *System) AnalyzeRestricted(cert *Certification, ops ...Op) *RestrictedVerdict {
	return s.Analyzer(cert).AnalyzeRestricted(schema.NewOpSet(ops...))
}

// RestrictedReport renders a restricted verdict in the report format.
func RestrictedReport(v *RestrictedVerdict) string { return analysis.ReportRestricted(v) }

// PartitionReport partitions the rule set into independent groups (the
// Section 9 incremental-analysis extension), analyzes confluence per
// partition, and renders the result.
func (s *System) PartitionReport(cert *Certification) string {
	a := s.Analyzer(cert)
	parts := a.Partition()
	_, per := a.PartitionedConfluence()
	return analysis.ReportPartition(parts, per)
}

// TriggeringGraphDOT renders the triggering graph in Graphviz DOT
// format, with the rules of any surviving cycles highlighted.
func (s *System) TriggeringGraphDOT(cert *Certification) string {
	a := s.Analyzer(cert)
	v := a.Termination()
	return analysis.BuildTriggeringGraph(s.rules).DOT(v)
}

// StatsReport renders descriptive statistics of the rule set: triggering
// graph shape, priority coverage, commutativity profile, partitions.
func (s *System) StatsReport(cert *Certification) string {
	return analysis.ReportStats(s.Analyzer(cert).Stats())
}

// ExplainPair renders the commutativity and Confluence Requirement story
// for one pair of rules — the interactive environment's answer to "why
// is this pair flagged?".
func (s *System) ExplainPair(cert *Certification, a, b string) (string, error) {
	ra, rb := s.rules.Rule(a), s.rules.Rule(b)
	if ra == nil || rb == nil {
		return "", fmt.Errorf("activerules: ExplainPair: unknown rule (%q, %q)", a, b)
	}
	return analysis.ExplainPair(s.Analyzer(cert), ra, rb), nil
}

// AutoRepairReport runs the automated Section 6.4 loop and renders the
// resulting plan.
func (s *System) AutoRepairReport(cert *Certification) string {
	plan, err := s.Analyzer(cert).AutoRepair(0)
	if err != nil {
		return "AUTO-REPAIR: " + err.Error() + "\n"
	}
	return analysis.ReportRepairPlan(plan)
}

// String renders the full report in the interactive environment's
// format.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString(analysis.ReportTermination(r.Termination))
	sb.WriteString(analysis.ReportConfluence(r.Confluence))
	for _, key := range sortedKeys(r.Partial) {
		sb.WriteString(analysis.ReportPartialConfluence(r.Partial[key]))
	}
	sb.WriteString(analysis.ReportObservable(r.Observable))
	return sb.String()
}

// AllGuaranteed reports whether every analyzed property is guaranteed.
func (r *Report) AllGuaranteed() bool {
	ok := r.Termination.Guaranteed && r.Confluence.Guaranteed && r.Observable.Guaranteed()
	for _, v := range r.Partial {
		ok = ok && v.Guaranteed()
	}
	return ok
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// small n; insertion sort keeps imports minimal
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Version identifies the library release.
const Version = "1.0.0"
