package datalog

// Program checks and counters shared by both evaluation engines: the
// production interned engine (Run, interned.go) and the frozen naive
// oracle (RunNaive, naive.go). Before either evaluates anything, plan
// statically rejects
//
//   - unsafe rules: negated or wildcard heads, unbound head variables,
//     and negated atoms over variables no preceding positive atom binds
//     (range restriction);
//   - arity mismatches: every predicate has one arity across the
//     program's heads and bodies and the relations already stored;
//   - recursion through negation.
//
// It then groups the rules into strata (Ullman's algorithm over the
// predicate dependency graph), so non-recursive predicates finalize
// once and negation over predicates derived in lower strata is sound.
// Over a database storing the base predicates the rule analyzer
// (internal/datalog/analyze) assumes, these are exactly the analyzer's
// error-severity findings: a program it passes always runs, and one it
// rejects derives nothing. FuzzAnalyzeRules checks both directions.
//
// Every candidate fact an evaluation examines — an index bucket entry
// or a full-scan row — counts one JoinProbe, which is how the
// asymptotic win over the naive oracle is measured.

import "fmt"

// EvalStats counts the work an evaluation performed.
type EvalStats struct {
	// JoinProbes is the number of candidate facts examined while
	// joining body atoms (and checking negations) across Run, RunNaive
	// and Query calls on this database.
	JoinProbes int64
	// Derived is the number of new facts asserted by rule evaluation.
	Derived int64
	// Iterations counts fixpoint rounds across all strata.
	Iterations int64
	// Strata is the number of strata of the last Run program.
	Strata int
}

// Stats returns a snapshot of the database's evaluation counters.
func (db *Database) Stats() EvalStats { return db.stats }

// plan statically checks a program against the database and returns
// its strata in evaluation order. A program it rejects must not be
// evaluated at all, so no engine derives anything from it.
func (db *Database) plan(rules []Rule) ([][]Rule, error) {
	if err := checkRules(rules); err != nil {
		return nil, err
	}
	if err := db.checkArities(rules); err != nil {
		return nil, err
	}
	return stratify(rules)
}

// checkArities requires one arity per predicate: every head and body
// atom must agree with the predicate's stored relation, if it holds
// any facts, and with the predicate's first use in the program.
func (db *Database) checkArities(rules []Rule) error {
	type first struct {
		arity int
		where string
	}
	seen := map[string]first{}
	check := func(a Atom) error {
		f, ok := seen[a.Pred]
		if !ok {
			if rel := db.rels[a.Pred]; rel != nil && rel.rows > 0 {
				f = first{rel.arity, "its stored facts"}
			} else {
				f = first{len(a.Terms), a.String()}
			}
			seen[a.Pred] = f
		}
		if len(a.Terms) != f.arity {
			return fmt.Errorf("datalog: arity mismatch: %s has arity %d in %s but arity %d in %s",
				a.Pred, len(a.Terms), a, f.arity, f.where)
		}
		return nil
	}
	for _, r := range rules {
		if err := check(r.Head); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRules statically enforces rule safety, so unsafe rules fail
// loudly even when no facts would reach them at run time:
//
//   - heads carry no wildcards and no negation;
//   - every head variable is bound by a positive body atom;
//   - every variable under negation is bound by a preceding positive
//     body atom (range restriction — negation as failure is only safe
//     on ground atoms).
func checkRules(rules []Rule) error {
	for _, r := range rules {
		if r.Head.Negated {
			return fmt.Errorf("datalog: negated rule head in %s", r)
		}
		bound := map[string]bool{}
		for _, a := range r.Body {
			if a.Negated {
				if err := checkNegBound(a, bound); err != nil {
					return err
				}
				continue
			}
			for _, t := range a.Terms {
				if t.Var != "" {
					bound[t.Var] = true
				}
			}
		}
		for _, t := range r.Head.Terms {
			switch {
			case t.Wild:
				return fmt.Errorf("datalog: wildcard in rule head %s", r.Head)
			case t.Var != "" && !bound[t.Var]:
				return fmt.Errorf("datalog: unbound head variable %s in %s", t.Var, r.Head)
			}
		}
	}
	return nil
}

// checkNegBound rejects negated atoms with variables not bound by a
// preceding positive atom.
func checkNegBound(a Atom, bound map[string]bool) error {
	for _, t := range a.Terms {
		if t.Var != "" && !bound[t.Var] {
			return fmt.Errorf("datalog: unbound variable %s under negation in %s", t.Var, a)
		}
	}
	return nil
}

// stratify assigns every derived predicate a stratum such that a
// positive dependency never decreases the stratum and a negative
// dependency strictly increases it, then groups the rules by their
// head's stratum in ascending order. Programs where no such assignment
// exists (recursion through negation) are rejected.
func stratify(rules []Rule) ([][]Rule, error) {
	derived := map[string]bool{}
	for _, r := range rules {
		derived[r.Head.Pred] = true
	}
	stratum := map[string]int{}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			h := r.Head.Pred
			for _, a := range r.Body {
				if !derived[a.Pred] {
					continue // base predicates sit below every stratum
				}
				min := stratum[a.Pred]
				if a.Negated {
					min++
				}
				if stratum[h] < min {
					stratum[h] = min
					if stratum[h] > len(derived) {
						return nil, fmt.Errorf("datalog: unstratified negation of derived predicate %s in %s", a.Pred, r)
					}
					changed = true
				}
			}
		}
	}
	maxStratum := 0
	for _, s := range stratum {
		if s > maxStratum {
			maxStratum = s
		}
	}
	out := make([][]Rule, maxStratum+1)
	for _, r := range rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	// Drop empty strata (possible when stratum numbers are sparse).
	kept := out[:0]
	for _, s := range out {
		if len(s) > 0 {
			kept = append(kept, s)
		}
	}
	return kept, nil
}
