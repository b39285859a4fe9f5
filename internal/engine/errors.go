package engine

import (
	"fmt"
	"strings"
)

// The engine's failure taxonomy. Every error Assert/AssertContext can
// return is one of:
//
//   - *ExecError — a rule's condition or action failed (or panicked).
//     The failed consideration has been fully undone: database, its
//     history, and the rule's mark are back to their values just
//     before the rule was chosen, so processing can be resumed (the rule
//     will be re-considered) once the cause is addressed.
//   - *LivelockError — rule processing revisited an execution-graph
//     state under budget pressure: a definitive runtime witness of
//     nontermination (an infinite path exists, Section 4). Satisfies
//     errors.Is(err, ErrMaxSteps) since it subsumes budget exhaustion.
//   - ErrMaxSteps — the step budget ran out without a state recurrence:
//     possible nontermination, but the evidence is inconclusive (the
//     budget may simply be too small).
//   - *CancelledError — the AssertContext context was cancelled or its
//     deadline expired between considerations. Satisfies errors.Is for
//     the underlying context error.
//   - *DurabilityError — the configured Journal (Options.Journal, the
//     write-ahead log) failed at a transaction boundary. The in-memory
//     state is exactly what a nil-journal engine would have; only the
//     durability promise is broken, and it stays broken (the WAL's
//     errors are sticky) until the caller reopens the log.
//
// After any of these, the engine is in a well-defined state: every
// completed consideration is durable, the failed or unstarted work is
// absent, and a subsequent Assert/AssertContext resumes processing where
// it stopped (with a fresh budget) rather than re-seeing consumed
// transitions.

// Each error names its own stable wire code, so a front end (cmd/ruled,
// through serve.CodeOf) needs no table of this package's types. A
// livelock witness also satisfies errors.Is(ErrMaxSteps) but carries
// more, hence a code of its own; "durability" means the transaction did
// not commit.
func (e *ExecError) Code() string       { return "exec" }
func (e *LivelockError) Code() string   { return "livelock" }
func (budgetError) Code() string        { return "maxsteps" }
func (e *CancelledError) Code() string  { return "cancelled" }
func (e *DurabilityError) Code() string { return "durability" }

// ExecError reports a failure inside one rule consideration. The
// consideration has been rolled back: it is as if the rule had not been
// chosen.
type ExecError struct {
	// Rule is the rule whose consideration failed.
	Rule string
	// Statement is the action statement that failed, empty when the
	// failure was in the condition (or before any statement ran).
	Statement string
	// Cause is the underlying error; a recovered panic appears as a
	// *PanicError.
	Cause error
}

func (e *ExecError) Error() string {
	where := "condition"
	if e.Statement != "" {
		where = fmt.Sprintf("action statement %q", e.Statement)
	}
	return fmt.Sprintf("engine: rule %q %s: %v", e.Rule, where, e.Cause)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *ExecError) Unwrap() error { return e.Cause }

// PanicError is a panic recovered during rule processing, converted into
// an ordinary error so hostile rule sets cannot crash callers.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// LivelockError is a runtime nontermination witness: while under budget
// pressure the engine observed the same execution-graph state (database
// plus every rule's pending transition) twice. The considerations made
// between the two observations form a cycle that rule processing can
// repeat forever.
type LivelockError struct {
	// Cycle is the sequence of rules considered between the two
	// occurrences of the repeated state, in consideration order.
	Cycle []string
	// Period is len(Cycle): the number of steps after which the state
	// recurred.
	Period int
	// Steps is the total number of considerations performed when the
	// recurrence was detected.
	Steps int
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"engine: livelock detected after %d considerations: state recurs every %d steps through cycle [%s]",
		e.Steps, e.Period, strings.Join(e.Cycle, " -> "))
}

// Is makes a LivelockError satisfy errors.Is(err, ErrMaxSteps): it is a
// strictly stronger form of the budget-exhaustion verdict, so callers
// that only distinguish "ran out of budget" keep working.
func (e *LivelockError) Is(target error) bool { return target == ErrMaxSteps }

// CancelledError reports that rule processing stopped because the
// context passed to AssertContext was done. Processing stopped at a
// consideration boundary; the engine state is consistent and a
// subsequent Assert/AssertContext resumes it.
type CancelledError struct {
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("engine: rule processing cancelled: %v", e.Cause)
}

// Unwrap exposes the context error for errors.Is.
func (e *CancelledError) Unwrap() error { return e.Cause }

// DurabilityError reports that the configured Journal failed at a
// transaction boundary (commit, begin, or abort record). The in-memory
// engine state is unaffected — the transaction semantics already took
// effect — but the durable log can no longer honor them: callers should
// stop relying on the session's durability and recover from the WAL
// directory.
type DurabilityError struct {
	// Op is the boundary that failed: "commit", "begin", or "abort".
	Op string
	// Cause is the underlying journal error.
	Cause error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("engine: durability failure at %s: %v", e.Op, e.Cause)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *DurabilityError) Unwrap() error { return e.Cause }
