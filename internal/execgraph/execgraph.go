// Package execgraph explores the execution graphs of Section 4
// exhaustively: from an initial state (a database plus an initial
// transition), it follows every possible choice among eligible rules,
// memoizing states (D, TR), and reports the set of reachable final
// states, branching, cycles (potential nontermination), and — optionally
// — the set of distinct observable action streams.
//
// The explorer provides exact ground truth on small instances for the
// conservative static analyses of Sections 5–8: a rule set the analyzer
// declares terminating must never produce a cycle or exhaust the bound;
// one declared confluent must reach exactly one final database state; one
// declared observably deterministic must produce exactly one observable
// stream.
package execgraph

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"

	"activerules/internal/engine"
	"activerules/internal/storage"
)

// Options bound the exploration.
type Options struct {
	// MaxStates bounds the number of distinct states explored; 0 means
	// 200000.
	MaxStates int
	// MaxDepth bounds the recursion (path length); 0 means 10000.
	MaxDepth int
	// TrackObservables augments state identity with the observable
	// history and records the distinct observable streams reaching final
	// states. Required for ObservablyDeterministic.
	TrackObservables bool
	// DisableMemo turns off cross-path state memoization (cycle
	// detection along the current path is kept): the brute-force oracle
	// the memo is tested against, and the ablation benchmarks' baseline.
	// Exploration is exponential without it.
	DisableMemo bool
}

// Result is the outcome of an exploration.
type Result struct {
	// StatesExplored counts distinct states visited.
	StatesExplored int
	// FinalDBs maps each distinct final database fingerprint to a
	// representative database (a clone, safe to inspect).
	FinalDBs map[[32]byte]*storage.DB
	// Streams maps each distinct observable stream (canonical rendering)
	// to its events, populated when TrackObservables is set.
	Streams map[string][]engine.ObservableEvent
	// Branching reports whether any state had more than one eligible
	// rule (the premise of Observation 6.2).
	Branching bool
	// CycleDetected reports a cycle in the execution graph: an infinite
	// path exists, so rule processing may not terminate.
	CycleDetected bool
	// BoundExceeded reports that MaxStates or MaxDepth was hit; the
	// exploration is then incomplete and verdicts are inconclusive.
	BoundExceeded bool
	// AnyRollback reports whether some path ended in a rollback.
	AnyRollback bool
	// MaxEligible is the largest eligible-set size seen at any state.
	MaxEligible int
	// Witnesses maps each final database fingerprint to the sequence of
	// rule considerations of the first path that reached it — the
	// counterexample material for the interactive environment: two
	// entries with different fingerprints are two concrete schedules
	// proving non-confluence.
	Witnesses map[[32]byte][]string
}

// Terminates reports whether every execution path is finite. It is only
// meaningful when the exploration completed (no bound exceeded).
func (r *Result) Terminates() bool { return !r.CycleDetected && !r.BoundExceeded }

// Confluent reports whether the exploration proves a unique final
// database state: it terminated, completed, and reached exactly one
// final fingerprint.
func (r *Result) Confluent() bool {
	return r.Terminates() && len(r.FinalDBs) == 1
}

// PartiallyConfluentOn reports whether all final states agree on the
// contents of the given tables (Section 7).
func (r *Result) PartiallyConfluentOn(tables []string) bool {
	if !r.Terminates() {
		return false
	}
	seen := make(map[[32]byte]bool)
	for _, db := range r.FinalDBs {
		seen[db.TableFingerprint(tables)] = true
	}
	return len(seen) == 1
}

// ObservablyDeterministic reports whether every path produced the same
// observable stream (Section 8). Requires TrackObservables.
func (r *Result) ObservablyDeterministic() bool {
	return r.Terminates() && len(r.Streams) <= 1
}

type explorer struct {
	opts Options
	ctx  context.Context
	res  *Result
	// done marks fully explored state keys; onstack marks keys on the
	// current DFS path (a revisit is a cycle).
	done    map[string]bool
	onstack map[string]bool
}

// Explore runs the exhaustive exploration from the engine's current
// state. The engine is cloned internally and never mutated. Typical use:
//
//	e := engine.New(set, db, engine.Options{})
//	e.ExecUser("insert into t values (1)")
//	res, err := execgraph.Explore(e, execgraph.Options{})
func Explore(e *engine.Engine, opts Options) (*Result, error) {
	return ExploreContext(context.Background(), e, opts)
}

// ExploreContext is Explore with cancellation: ctx is checked at every
// state visit, so callers can bound the wall-clock time of an
// exploration whose state space turns out to be huge. On cancellation it
// returns ctx's error (wrapped, so errors.Is works) and no result.
func ExploreContext(ctx context.Context, e *engine.Engine, opts Options) (*Result, error) {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 200000
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 10000
	}
	x := &explorer{
		opts: opts,
		ctx:  ctx,
		res: &Result{
			FinalDBs:  make(map[[32]byte]*storage.DB),
			Streams:   make(map[string][]engine.ObservableEvent),
			Witnesses: make(map[[32]byte][]string),
		},
		done:    make(map[string]bool),
		onstack: make(map[string]bool),
	}
	root := e.Clone()
	root.BeginAssert()
	if err := x.visit(root, nil, nil, 0); err != nil {
		return nil, err
	}
	return x.res, nil
}

// key derives the state identity, optionally folding in the observable
// history (needed so that paths with different pasts are both explored
// when streams matter).
func (x *explorer) key(e *engine.Engine, obs []engine.ObservableEvent) string {
	k := e.StateFingerprint()
	if !x.opts.TrackObservables || len(obs) == 0 {
		return k
	}
	h := sha256.Sum256([]byte(renderStream(obs)))
	return k + "#" + string(h[:])
}

// renderStream canonicalizes an observable stream for set membership.
func renderStream(obs []engine.ObservableEvent) string {
	out := ""
	for _, ev := range obs {
		out += ev.String() + "\n"
	}
	return out
}

func (x *explorer) visit(e *engine.Engine, obs []engine.ObservableEvent, path []string, depth int) error {
	if err := x.ctx.Err(); err != nil {
		return fmt.Errorf("execgraph: exploration cancelled: %w", err)
	}
	if depth > x.opts.MaxDepth {
		x.res.BoundExceeded = true
		return nil
	}
	k := x.key(e, obs)
	if x.onstack[k] {
		x.res.CycleDetected = true
		return nil
	}
	if !x.opts.DisableMemo && x.done[k] {
		return nil
	}
	if x.res.StatesExplored >= x.opts.MaxStates {
		x.res.BoundExceeded = true
		return nil
	}
	x.res.StatesExplored++
	x.onstack[k] = true
	defer func() {
		delete(x.onstack, k)
		if !x.opts.DisableMemo {
			x.done[k] = true
		}
	}()

	eligible := e.EligibleRules()
	if len(eligible) == 0 {
		x.recordFinal(e, obs, path)
		return nil
	}
	if len(eligible) > 1 {
		x.res.Branching = true
	}
	if len(eligible) > x.res.MaxEligible {
		x.res.MaxEligible = len(eligible)
	}
	for _, r := range eligible {
		fork := e.Clone()
		_, events, rolled, err := fork.Consider(r)
		if err != nil {
			return fmt.Errorf("execgraph: considering %q: %w", r.Name, err)
		}
		nextObs := obs
		if len(events) > 0 {
			nextObs = append(append([]engine.ObservableEvent{}, obs...), events...)
		}
		nextPath := append(append([]string{}, path...), r.Name)
		if rolled {
			// A rollback terminates rule processing immediately.
			x.res.AnyRollback = true
			x.recordFinal(fork, nextObs, nextPath)
			continue
		}
		if err := x.visit(fork, nextObs, nextPath, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (x *explorer) recordFinal(e *engine.Engine, obs []engine.ObservableEvent, path []string) {
	fp := e.DB().Fingerprint()
	if _, ok := x.res.FinalDBs[fp]; !ok {
		x.res.FinalDBs[fp] = e.DB().Clone()
		x.res.Witnesses[fp] = path
	}
	if x.opts.TrackObservables {
		s := renderStream(obs)
		if _, ok := x.res.Streams[s]; !ok {
			x.res.Streams[s] = append([]engine.ObservableEvent{}, obs...)
		}
	}
}

// FinalFingerprints returns the distinct final database fingerprints in a
// deterministic order, for stable test output.
func (r *Result) FinalFingerprints() [][32]byte {
	out := make([][32]byte, 0, len(r.FinalDBs))
	for fp := range r.FinalDBs {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i][:]) < string(out[j][:]) })
	return out
}

// StreamRenderings returns the distinct observable streams (canonical
// renderings) sorted, for stable test output.
func (r *Result) StreamRenderings() []string {
	out := make([]string, 0, len(r.Streams))
	for s := range r.Streams {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
