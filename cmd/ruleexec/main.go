// Command ruleexec runs a rule set against a database: it executes a
// user SQL script (building the initial transition of Section 2), runs
// rule processing at an assertion point, and prints the final database
// state and the observable action stream.
//
// Usage:
//
//	ruleexec -schema schema.sdl -rules rules.srl -script ops.sql [flags]
//
// Flags:
//
//	-seed file       SQL script executed BEFORE the engine starts (its
//	                 effects are committed state, not part of the
//	                 triggering transition)
//	-strategy s      first | last | random:<seed> — which eligible rule
//	                 to consider when several are unordered
//	-maxsteps n      rule-consideration budget (default 10000)
//	-timeout d       wall-clock bound for rule processing (e.g. 2s);
//	                 0 means none
//	-explore         instead of one run, exhaustively model-check every
//	                 execution order and report the distinct final
//	                 states and observable streams
//	-lint            run the rulelint preflight before executing; any
//	                 error-severity finding (e.g. a dead rule) aborts the
//	                 run with exit status 6
//	-wal dir         durable mode: open (and recover) a write-ahead log
//	                 in dir; every assertion point is a durable commit,
//	                 and a crashed run resumes from its last commit on
//	                 the next start
//	-snapshot-every n  with -wal, checkpoint (snapshot + log rotation)
//	                 after every n assertion points; 0 never checkpoints
//	-fsync policy    with -wal: commit (default) fsyncs every durable
//	                 point; never leaves fsync to the OS
//
// Exit status:
//
//	0  success
//	1  step budget exhausted without a witness (possible
//	   nontermination; the budget may just be too small), or the
//	   exploration found divergence
//	2  usage or load errors, or an internal error
//	3  livelock: rule processing revisited a state — a definitive
//	   runtime nontermination witness; the repeating rule cycle is
//	   printed
//	4  a rule's condition or action failed at runtime (the failed
//	   consideration was rolled back; the database is consistent)
//	5  the -timeout deadline expired
//	6  the -lint preflight found an error-severity finding
//	7  the -wal directory is unrecoverable: its snapshot is corrupt or
//	   does not match its log; committed history cannot be replayed
package main

import (
	"context"
	"errors"
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
			fmt.Fprintf(stderr, "ruleexec: internal error: panic: %v\n", p)
			code = 2
		}
	}()
	fs := flag.NewFlagSet("ruleexec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaPath := fs.String("schema", "", "schema definition file (required)")
	rulesPath := fs.String("rules", "", "rule definition file (required)")
	scriptPath := fs.String("script", "", "user operation script (required)")
	seedPath := fs.String("seed", "", "database seed script (committed before the transition)")
	strategy := fs.String("strategy", "first", "first | last | random:<seed>")
	maxSteps := fs.Int("maxsteps", 10000, "rule consideration budget")
	timeout := fs.Duration("timeout", 0, "wall-clock bound for rule processing (0 = none)")
	explore := fs.Bool("explore", false, "model-check all execution orders instead of one run")
	traceFlag := fs.Bool("trace", false, "print each rule-processing step")
	lint := fs.Bool("lint", false, "run the rulelint preflight; error findings abort with status 6")
	walDir := fs.String("wal", "", "durable mode: write-ahead log directory (recovered on start)")
	snapEvery := fs.Int("snapshot-every", 0, "with -wal, checkpoint after every n assertion points (0 = never)")
	fsync := fs.String("fsync", "commit", "with -wal: commit | never")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *schemaPath == "" || *rulesPath == "" || *scriptPath == "" {
		fmt.Fprintln(stderr, "ruleexec: -schema, -rules, and -script are required")
		fs.Usage()
		return 2
	}

	sys, err := activerules.LoadFiles(*schemaPath, *rulesPath)
	if err != nil {
		fmt.Fprintln(stderr, "ruleexec:", err)
		return 2
	}
	strat, err := activerules.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(stderr, "ruleexec:", err)
		return 2
	}

	if *lint {
		lr := sys.Lint(nil)
		if lr.HasErrors() {
			fmt.Fprint(stderr, activerules.RenderLintText(lr, *rulesPath))
			fmt.Fprintln(stderr, "ruleexec: lint preflight failed; fix the errors or drop -lint")
			return 6
		}
	}

	opts := activerules.EngineOptions{MaxSteps: *maxSteps, Strategy: strat}
	if *traceFlag {
		opts.Trace = func(ev activerules.TraceEvent) {
			fmt.Fprintln(stdout, "trace:", ev.String())
		}
	}
	var eng *activerules.Engine
	var ds *activerules.DurableSession
	if *walDir != "" {
		policy, err := activerules.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(stderr, "ruleexec:", err)
			return 2
		}
		ds, err = sys.OpenDurable(*walDir, activerules.DurableOptions{
			Engine: opts,
			WAL:    activerules.WALOptions{Sync: policy},
		})
		if err != nil {
			if errors.Is(err, activerules.ErrUnrecoverableLog) {
				fmt.Fprintln(stderr, "ruleexec: unrecoverable write-ahead log:", err)
				return 7
			}
			fmt.Fprintln(stderr, "ruleexec:", err)
			return 2
		}
		defer func() {
			if err := ds.Close(); err != nil && code == 0 {
				fmt.Fprintln(stderr, "ruleexec: wal close:", err)
				code = 2
			}
		}()
		eng = ds.Engine
		if info := ds.Recovery(); info.Fresh {
			fmt.Fprintf(stdout, "wal: fresh directory (gen=%d)\n", ds.Gen())
		} else {
			fmt.Fprintf(stdout, "wal: recovered gen=%d records=%d committed=%d mutations=%d aborted=%d discarded=%d truncated=%dB\n",
				info.Gen, info.RecordsScanned, info.TxCommitted, info.MutationsReplayed,
				info.Aborts, info.TailDiscarded, info.TruncatedBytes)
		}
		if *traceFlag {
			fmt.Fprintf(stdout, "trace: wal: gen=%d fsync=%s\n", ds.Gen(), policy)
		}
	} else {
		eng = sys.NewEngine(sys.NewDB(), opts)
	}

	if *seedPath != "" {
		seedSrc, err := os.ReadFile(*seedPath)
		if err != nil {
			fmt.Fprintln(stderr, "ruleexec:", err)
			return 2
		}
		if _, err := eng.ExecUser(string(seedSrc)); err != nil {
			fmt.Fprintln(stderr, "ruleexec: seed script:", err)
			return 2
		}
		// Seed effects are committed state, not a transition.
		if err := eng.Commit(); err != nil {
			fmt.Fprintln(stderr, "ruleexec: seed commit:", err)
			return 2
		}
	}

	script, err := os.ReadFile(*scriptPath)
	if err != nil {
		fmt.Fprintln(stderr, "ruleexec:", err)
		return 2
	}
	// A line consisting solely of "assert" (or "assert;") separates
	// transitions: each segment is executed and then rule-processed at
	// its own assertion point (Section 2's user-specified assertion
	// points). The final segment is always followed by an assertion.
	segments := splitAssertSegments(string(script))
	if len(segments) == 0 {
		fmt.Fprintln(stderr, "ruleexec: empty script")
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	for i, seg := range segments {
		if strings.TrimSpace(seg) != "" {
			if _, err := eng.ExecUser(seg); err != nil {
				fmt.Fprintf(stderr, "ruleexec: user script (segment %d): %v\n", i+1, err)
				return 2
			}
		}
		if *explore && i == len(segments)-1 {
			return runExplore(ctx, eng, stdout, stderr)
		}
		res, err := eng.AssertContext(ctx)
		if err != nil {
			return reportAssertError(err, res, stderr)
		}
		fmt.Fprintf(stdout, "assertion point %d: considered=%d fired=%d rolledback=%v\n",
			i+1, res.Considered, res.Fired, res.RolledBack)
		for _, ev := range res.Observables {
			fmt.Fprintln(stdout, "observable:", ev.String())
		}
		if ds != nil && *snapEvery > 0 && (i+1)%*snapEvery == 0 {
			if err := ds.Checkpoint(); err != nil {
				fmt.Fprintln(stderr, "ruleexec: checkpoint:", err)
				return 2
			}
			fmt.Fprintf(stdout, "wal: checkpoint gen=%d\n", ds.Gen())
		}
	}
	fmt.Fprintln(stdout, "final database:")
	fmt.Fprint(stdout, eng.DB().String())
	return 0
}

// reportAssertError maps a rule-processing failure to a diagnostic and
// an exit code. The LivelockError check must come before the
// ErrMaxSteps one: a livelock witness satisfies errors.Is(ErrMaxSteps)
// for compatibility, but carries strictly more information.
func reportAssertError(err error, res activerules.EngineResult, stderr io.Writer) int {
	var le *activerules.LivelockError
	if errors.As(err, &le) {
		fmt.Fprintf(stderr, "ruleexec: livelock: state revisited after %d rule considerations\n", le.Steps)
		fmt.Fprintf(stderr, "ruleexec: repeating cycle (period %d): %s\n",
			le.Period, strings.Join(le.Cycle, " -> "))
		return 3
	}
	if errors.Is(err, activerules.ErrMaxSteps) {
		fmt.Fprintf(stderr, "ruleexec: %v (considered %d rules)\n", err, res.Considered)
		return 1
	}
	var xe *activerules.ExecError
	if errors.As(err, &xe) {
		fmt.Fprintf(stderr, "ruleexec: %v\n", err)
		fmt.Fprintln(stderr, "ruleexec: the failed consideration was rolled back; the database is consistent")
		return 4
	}
	var ce *activerules.CancelledError
	if errors.As(err, &ce) {
		fmt.Fprintf(stderr, "ruleexec: rule processing interrupted: %v\n", err)
		return 5
	}
	fmt.Fprintln(stderr, "ruleexec:", err)
	return 2
}

// splitAssertSegments splits the script on lines that contain only the
// word "assert" (optionally with a trailing ';').
func splitAssertSegments(src string) []string {
	var segments []string
	var cur strings.Builder
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSuffix(strings.TrimSpace(line), ";")
		if strings.EqualFold(trimmed, "assert") {
			segments = append(segments, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteString(line)
		cur.WriteString("\n")
	}
	segments = append(segments, cur.String())
	return segments
}

func runExplore(ctx context.Context, eng *activerules.Engine, stdout, stderr io.Writer) int {
	res, err := activerules.ExploreContext(ctx, eng, activerules.ExploreOptions{TrackObservables: true})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "ruleexec: exploration interrupted: %v\n", err)
			return 5
		}
		fmt.Fprintln(stderr, "ruleexec:", err)
		return 2
	}
	fmt.Fprintf(stdout, "exploration: states=%d branching=%v terminates=%v\n",
		res.StatesExplored, res.Branching, res.Terminates())
	fmt.Fprintf(stdout, "final database states: %d\n", len(res.FinalDBs))
	fmt.Fprintf(stdout, "observable streams: %d\n", len(res.Streams))
	for i, fp := range res.FinalFingerprints() {
		fmt.Fprintf(stdout, "--- final state %d (schedule: %s) ---\n",
			i+1, strings.Join(res.Witnesses[fp], ", "))
		fmt.Fprint(stdout, res.FinalDBs[fp].String())
	}
	for i, s := range res.StreamRenderings() {
		fmt.Fprintf(stdout, "--- stream %d ---\n%s", i+1, s)
	}
	if !res.Terminates() || len(res.FinalDBs) > 1 || len(res.Streams) > 1 {
		return 1
	}
	return 0
}
