package datalog

// RunNaive evaluates the rules with the original naive fixpoint
// strategy this package shipped with: every iteration re-joins every
// rule of a stratum against the entire fact set, with no delta
// relations and no indexes. It accepts exactly the programs Run
// accepts — the same static checks and strata — and runs that naive
// fixpoint one stratum at a time, so it is an independent oracle for
// stratified negation over derived predicates too.
//
// It is frozen deliberately: the differential tests prove the
// semi-naive engine (Run) derives identical fact sets, and
// BenchmarkDatalogAncestry measures the join-probe gap between the
// two. Do not use it outside tests and benchmarks.
func (db *Database) RunNaive(rules []Rule) error {
	strata, err := db.plan(rules)
	if err != nil {
		return err
	}
	for _, stratum := range strata {
		db.naiveFixpoint(stratum)
	}
	return nil
}

// naiveFixpoint evaluates one stratum's rules until an iteration
// derives nothing new. Negated atoms only name predicates finalized by
// lower strata (or base facts), and plan has proved every variable
// they mention bound and every head instantiable.
func (db *Database) naiveFixpoint(rules []Rule) {
	for {
		derived := false
		for _, r := range rules {
			bindings := []binding{{}}
			for _, atom := range r.Body {
				var next []binding
				if atom.Negated {
					for _, b := range bindings {
						matched := false
						for _, f := range db.stringFacts(atom.Pred) {
							db.stats.JoinProbes++
							if _, ok := unify(atom, f, b); ok {
								matched = true
								break
							}
						}
						if !matched {
							next = append(next, b)
						}
					}
				} else {
					facts := db.stringFacts(atom.Pred)
					db.stats.JoinProbes += int64(len(facts)) * int64(len(bindings))
					for _, b := range bindings {
						for _, f := range facts {
							if nb, ok := unify(atom, f, b); ok {
								next = append(next, nb)
							}
						}
					}
				}
				bindings = next
				if len(bindings) == 0 {
					break
				}
			}
			for _, b := range bindings {
				if db.Assert(substitute(r.Head, b)) {
					db.stats.Derived++
					derived = true
				}
			}
		}
		db.stats.Iterations++
		if !derived {
			return
		}
	}
}
