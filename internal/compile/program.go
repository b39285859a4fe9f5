package compile

import (
	"activerules/internal/rules"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// condFn decides a compiled condition with the interpreter's
// EvalPredicate semantics: only a definite true satisfies.
type condFn func(env *Env) (bool, error)

// compiledRule is one rule's compiled units.
type compiledRule struct {
	cond   condFn // nil when the rule has no condition
	action []stmtFn
	nSlots int
}

// Program holds the compiled conditions and actions of a rule set plus
// its discrimination network. It is immutable after Compile and shared
// by every engine (and engine clone) running the set.
type Program struct {
	rules   []compiledRule
	matcher *Matcher
}

// Compile compiles every rule of the set. Compile never fails: a unit
// (condition or action statement) the compiler declined would fail with
// the compiler's error when considered, like a declined user statement
// in UserCache, rather than run some other way. Resolution leaves none.
func Compile(set *rules.Set) *Program {
	rs := set.Rules()
	p := &Program{
		rules:   make([]compiledRule, len(rs)),
		matcher: NewMatcher(set),
	}
	for i, r := range rs {
		c := &compiler{sch: set.Schema()}
		cr := &p.rules[i]
		if r.Condition != nil {
			if ec, err := c.compileExpr(r.Condition); err == nil {
				fn := ec.fn
				cr.cond = func(env *Env) (bool, error) {
					v, err := fn(env)
					if err != nil {
						return false, err
					}
					return v.Kind == storage.KindBool && v.B, nil
				}
			} else {
				cr.cond = func(*Env) (bool, error) { return false, err }
			}
		}
		cr.action = make([]stmtFn, len(r.Action))
		for j, st := range r.Action {
			fn, err := c.compileStatement(st)
			if err != nil {
				fn = func(*Env) (sqlmini.StmtResult, error) { return sqlmini.StmtResult{}, err }
			}
			cr.action[j] = fn
		}
		cr.nSlots = c.nSlots
	}
	return p
}

// For returns the compiled program for a rule set, compiling on the
// first call: engines are created freely (per request, per explorer
// fork, per test), but a set's closures are compiled once. The program
// is memoized on the set itself, so it is collected with it.
func For(set *rules.Set) *Program {
	return set.Compiled(func() any { return Compile(set) }).(*Program)
}

// Matcher returns the set's discrimination network.
func (p *Program) Matcher() *Matcher { return p.matcher }

// EvalCondition evaluates rule i's condition; rules without a
// condition are trivially satisfied.
func (p *Program) EvalCondition(i int, env *Env) (bool, error) {
	cr := &p.rules[i]
	if cr.cond == nil {
		return true, nil
	}
	env.begin(cr.nSlots)
	return cr.cond(env)
}

// ExecStatement executes statement j of rule i's action.
func (p *Program) ExecStatement(i, j int, env *Env) (sqlmini.StmtResult, error) {
	cr := &p.rules[i]
	env.begin(cr.nSlots)
	return cr.action[j](env)
}
