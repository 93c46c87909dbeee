package analyze_test

import (
	"testing"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

// FuzzAnalyzeRules drives the analyzer with arbitrary rule text and
// enforces its contracts over a fact base that populates every base
// predicate (node, edge, prop): it never panics; a program it passes
// as error-free is never rejected by the engine — neither as written
// nor after goal-directed optimization, and the optimized bindings
// match the unoptimized ones; and, conversely, a fully parsed program
// it rejects is rejected by Run and by the naive oracle, neither of
// which derives anything from it.
func FuzzAnalyzeRules(f *testing.F) {
	seeds := []string{
		"",
		"% only a comment\n",
		`anc(X, Y) :- edge(_, X, Y, _).` + "\n" + `anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).`,
		`safe(X) :- node(X, "a"), not bad(X).` + "\n" + `bad(X) :- prop(X, "k", "v").`,
		`not bad(X) :- node(X, "a").`,
		`win(X) :- move(X, Y), not win(Y).` + "\n" + `move(X, Y) :- edge(_, X, Y, _).`,
		`p(X) :- q(X, X, X).` + "\n" + `q(A) :- node(A, "a").`,
		`pair(X, Y) :- node(X, "a"), node(Y, "b").`,
		`p("\\") :- node(":-", "a,b").`,
		"broken(X :- node(X).",
		// Mixed arity: a base predicate at the wrong arity, and a
		// derived predicate at two arities.
		`lonely(X) :- node(X), not edge(_, X, _, _).`,
		`p(X) :- node(X, _).` + "\n" + `p(X, Y) :- edge(_, X, Y, _).` + "\n" + `q(X) :- p(X, X).`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	facts := []datalog.Fact{
		{Pred: "node", Args: []string{"n1", "a"}},
		{Pred: "node", Args: []string{"n2", "b"}},
		{Pred: "edge", Args: []string{"e1", "n1", "n2", "x"}},
		{Pred: "prop", Args: []string{"n1", "k", "v"}},
	}
	load := func() *datalog.Database {
		db := datalog.NewDatabase()
		for _, fa := range facts {
			db.Assert(fa)
		}
		return db
	}
	allPreds := func(db *datalog.Database) string {
		return dumpAll(db, db.Predicates())
	}
	baseFacts := allPreds(load())
	f.Fuzz(func(t *testing.T, src string) {
		// Bound the program so adversarial inputs cannot blow up the
		// fixpoint inside the fuzz budget; the analyzer itself must
		// survive anything.
		if len(src) > 2048 {
			return
		}
		prog, diags := analyze.Check(src, analyze.Options{})
		if len(prog.Rules) == 0 || len(prog.Rules) > 6 {
			return
		}
		for _, r := range prog.Rules {
			if len(r.Head.Terms) > 3 || len(r.Body) > 4 {
				return
			}
		}
		if analyze.HasErrors(diags) {
			for _, d := range diags {
				if d.Code == analyze.CodeParseError {
					return // unparsed lines are missing from prog.Rules
				}
			}
			for _, eng := range []struct {
				name string
				eval func(*datalog.Database, []datalog.Rule) error
			}{
				{"Run", (*datalog.Database).Run},
				{"RunNaive", (*datalog.Database).RunNaive},
			} {
				db := load()
				if err := eng.eval(db, prog.Rules); err == nil {
					t.Fatalf("%s accepted a program the analyzer rejects: %v\n%s", eng.name, diags, src)
				}
				if got := allPreds(db); got != baseFacts {
					t.Fatalf("%s derived facts from a rejected program:\n%s\nprogram:\n%s", eng.name, got, src)
				}
			}
			return
		}
		run := func(rules []datalog.Rule) *datalog.Database {
			db := load()
			if err := db.Run(rules); err != nil {
				t.Fatalf("engine rejected an analysis-clean program: %v\n%s", err, src)
			}
			return db
		}
		base := run(prog.Rules)
		// Optimize for the first rule's head predicate and compare.
		goal := prog.Rules[0].Head
		goal.Negated = false
		want := datalog.FormatBindings(goal, base.Query(goal))
		optimized, _ := analyze.Optimize(prog.Rules, goal)
		got := datalog.FormatBindings(goal, run(optimized).Query(goal))
		if got != want {
			t.Fatalf("optimized bindings differ for %s\ngot:\n%s\nwant:\n%s\nprogram:\n%s", goal, got, want, src)
		}
		// The goal-pruned program must also yield identical bindings on
		// the interned parallel engine and the naive oracle, both of
		// which stratify negation over derived predicates.
		for _, eng := range []struct {
			name string
			eval func(*datalog.Database, []datalog.Rule) error
		}{
			{"interned-par", func(db *datalog.Database, rs []datalog.Rule) error { return db.RunParallel(rs, 3) }},
			{"naive", (*datalog.Database).RunNaive},
		} {
			db := load()
			if err := eng.eval(db, optimized); err != nil {
				t.Fatalf("%s rejected an analysis-clean goal-pruned program: %v\n%s", eng.name, err, src)
			}
			if got := datalog.FormatBindings(goal, db.Query(goal)); got != want {
				t.Fatalf("%s bindings differ for %s\ngot:\n%s\nwant:\n%s\nprogram:\n%s", eng.name, goal, got, want, src)
			}
		}
	})
}
