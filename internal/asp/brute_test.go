package asp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteMin enumerates every complete selection (one atom per group) and
// returns the minimum cost among those satisfying all at-most-one sets
// and implications, or -1 when unsatisfiable, together with how many
// selections satisfy them. Exponential — used only on tiny instances as
// an oracle for the solver.
func bruteMin(p *Problem) (best, models int) {
	n := p.NumGroups()
	selected := make([]AtomID, n)
	best = -1
	var rec func(g int)
	rec = func(g int) {
		if g == n {
			cost := 0
			chosen := map[AtomID]bool{}
			for _, a := range selected {
				chosen[a] = true
				cost += p.Atom(a).Weight
			}
			for k := int32(0); k < int32(len(p.setStart)-1); k++ {
				held := map[AtomID]bool{} // a set is a set: repeats count once
				for _, a := range p.set(k) {
					if chosen[a] {
						held[a] = true
					}
				}
				if len(held) > 1 {
					return
				}
			}
			for _, a := range selected {
				for _, imp := range p.implies[a] {
					if !chosen[imp] {
						return
					}
				}
			}
			models++
			if best < 0 || cost < best {
				best = cost
			}
			return
		}
		for _, a := range p.groups[g] {
			selected[g] = a
			rec(g + 1)
		}
	}
	rec(0)
	return best, models
}

// randomProblem builds a small random instance with groups, one
// injectivity set per shared target, a few further at-most-one sets of
// two to five atoms, and a few implications.
func randomProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	nGroups := 2 + rng.Intn(4)
	nTargets := 2 + rng.Intn(4)
	atomsByTarget := make([][]AtomID, nTargets)
	var all []AtomID
	for g := 0; g < nGroups; g++ {
		gi := p.AddGroup("g")
		nCands := 1 + rng.Intn(nTargets)
		perm := rng.Perm(nTargets)
		for c := 0; c < nCands; c++ {
			y := perm[c]
			a := p.AddAtom(gi, "x", "y", rng.Intn(4))
			atomsByTarget[y] = append(atomsByTarget[y], a)
			all = append(all, a)
		}
	}
	// Injectivity over shared targets.
	for _, atoms := range atomsByTarget {
		p.AddAtMostOne(atoms)
	}
	// A few random at-most-one sets; members may repeat or share a group.
	for i := 0; i < rng.Intn(3); i++ {
		set := make([]AtomID, 2+rng.Intn(4))
		for j := range set {
			set[j] = all[rng.Intn(len(all))]
		}
		p.AddAtMostOne(set)
	}
	// A few random implications between atoms of different groups.
	for i := 0; i < rng.Intn(3); i++ {
		a := all[rng.Intn(len(all))]
		b := all[rng.Intn(len(all))]
		if p.Atom(a).Group != p.Atom(b).Group {
			p.AddImplication(a, b)
		}
	}
	return p
}

// checkAgainstBrute compares SolveMin's cost, Solve's satisfiability
// and SolveAll's model count with exhaustive enumeration.
func checkAgainstBrute(t *testing.T, p *Problem) bool {
	t.Helper()
	want, models := bruteMin(p)
	sol, err := p.SolveMin()
	switch {
	case want < 0 && err == nil:
		t.Logf("SolveMin found cost %d but brute force is unsat", sol.Cost)
		return false
	case want >= 0 && err != nil:
		t.Logf("SolveMin unsat but brute force found cost %d", want)
		return false
	case want >= 0 && sol.Cost != want:
		t.Logf("SolveMin cost %d, brute force %d", sol.Cost, want)
		return false
	}
	if _, err := p.Solve(); (err == nil) != (want >= 0) {
		t.Logf("Solve err %v, brute force min %d", err, want)
		return false
	}
	if got := p.SolveAll(0, func(*Solution) bool { return true }); got != models {
		t.Logf("SolveAll visited %d models, brute force counts %d", got, models)
		return false
	}
	return true
}

// TestSolverMatchesBruteForce: on random tiny instances, the solver
// must agree with exhaustive enumeration on satisfiability, optimum and
// model count.
func TestSolverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		if !checkAgainstBrute(t, randomProblem(rand.New(rand.NewSource(seed)))) {
			t.Logf("seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSolveAgreesWithSolveMinOnSatisfiability: the non-optimizing entry
// point must find a model exactly when one exists.
func TestSolveAgreesWithSolveMinOnSatisfiability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		_, err1 := p.Solve()
		_, err2 := p.SolveMin()
		return (err1 == nil) == (err2 == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// problemFromFuzzBytes decodes a tiny problem: up to four groups of up
// to five weighted candidates over up to five targets, one at-most-one
// set per target, up to two further sets of two to five atoms and up to
// three implications. Exhausted input reads as zeros.
func problemFromFuzzBytes(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	p := NewProblem()
	nGroups := 1 + next()%4
	nTargets := 1 + next()%5
	byTarget := make([][]AtomID, nTargets)
	var all []AtomID
	for g := 0; g < nGroups; g++ {
		gi := p.AddGroup("g")
		for c := 1 + next()%nTargets; c > 0; c-- {
			y := next() % nTargets
			a := p.AddAtom(gi, "x", "y", next()%4)
			byTarget[y] = append(byTarget[y], a)
			all = append(all, a)
		}
	}
	for _, atoms := range byTarget {
		p.AddAtMostOne(atoms)
	}
	for i := next() % 3; i > 0; i-- {
		set := make([]AtomID, 2+next()%4)
		for j := range set {
			set[j] = all[next()%len(all)]
		}
		p.AddAtMostOne(set)
	}
	for i := next() % 4; i > 0; i-- {
		p.AddImplication(all[next()%len(all)], all[next()%len(all)])
	}
	return p
}

// FuzzSolveMin checks the solver against exhaustive enumeration on
// decoded tiny problems.
func FuzzSolveMin(f *testing.F) {
	f.Add([]byte{3, 3, 2, 0, 1, 1, 2, 2, 0, 3, 1, 1, 0, 2, 1, 4, 0, 1, 2, 3, 1, 0, 2})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkAgainstBrute(t, problemFromFuzzBytes(data)) {
			t.Fatalf("solver disagrees with brute force on %v", data)
		}
	})
}
