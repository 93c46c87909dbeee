package datalog_test

import (
	"sort"
	"strings"
	"testing"

	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
)

// TestDifferentialMixedArityRejected pins the one-arity-per-predicate
// contract from every side: a program whose atoms disagree with each
// other or with a stored relation is an arity error from Run and from
// the naive oracle, an arity-mismatch diagnostic from the analyzer,
// and derives nothing.
func TestDifferentialMixedArityRejected(t *testing.T) {
	programs := []string{
		// p used at arity 1 against stored p/2.
		"q(X) :- p(X).\nr(X, Y) :- p(X, Y).",
		// Rules themselves derive p at two arities.
		"p(X) :- b(X).\np(X, X) :- b(X).\nq(Y) :- p(Y, Y).",
		// Mismatched predicate under negation.
		"q(X) :- b(X), not p(X).",
	}
	baseFacts := []datalog.Fact{
		{Pred: "p", Args: []string{"a", "b"}},
		{Pred: "b", Args: []string{"a"}},
		{Pred: "b", Args: []string{"c"}},
	}
	base := map[string]int{"p": 2, "b": 1}
	load := func() *datalog.Database {
		db := datalog.NewDatabase()
		for _, f := range baseFacts {
			db.Assert(f)
		}
		return db
	}
	want := transcript(load())
	engines := []struct {
		name string
		eval func(*datalog.Database, []datalog.Rule) error
	}{
		{"interned-seq", func(db *datalog.Database, rs []datalog.Rule) error { return db.RunParallel(rs, 1) }},
		{"interned-par", func(db *datalog.Database, rs []datalog.Rule) error { return db.RunParallel(rs, 3) }},
		{"naive", (*datalog.Database).RunNaive},
	}
	for i, text := range programs {
		rules, err := datalog.ParseRules(text)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, eng := range engines {
			db := load()
			err := eng.eval(db, rules)
			if err == nil || !strings.Contains(err.Error(), "arity mismatch") {
				t.Errorf("program %d: %s error = %v, want an arity mismatch", i, eng.name, err)
			}
			if got := transcript(db); got != want {
				t.Errorf("program %d: %s derived facts from a rejected program:\n%s", i, eng.name, got)
			}
			if d := db.Stats().Derived; d != 0 {
				t.Errorf("program %d: %s Derived = %d, want 0", i, eng.name, d)
			}
		}
		_, diags := analyze.Check(text, analyze.Options{Base: base})
		found := false
		for _, d := range diags {
			found = found || d.Code == analyze.CodeArityMismatch && d.Severity == analyze.Error
		}
		if !found {
			t.Errorf("program %d: analyzer reports no arity-mismatch error: %v", i, diags)
		}
	}
}

// transcript renders every fact of the database, sorted, one per line.
func transcript(db *datalog.Database) string {
	var lines []string
	for _, pred := range db.Predicates() {
		for _, f := range db.Facts(pred) {
			lines = append(lines, f.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
