package asp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// buildAssignment makes a problem with two groups x1, x2 and candidates
// y1, y2 for each, plus the injectivity conflicts of a matching.
func buildAssignment(w11, w12, w21, w22 int) (*Problem, [4]AtomID) {
	p := NewProblem()
	g1 := p.AddGroup("x1")
	g2 := p.AddGroup("x2")
	a11 := p.AddAtom(g1, "x1", "y1", w11)
	a12 := p.AddAtom(g1, "x1", "y2", w12)
	a21 := p.AddAtom(g2, "x2", "y1", w21)
	a22 := p.AddAtom(g2, "x2", "y2", w22)
	p.AddConflict(a11, a21) // both map to y1
	p.AddConflict(a12, a22) // both map to y2
	return p, [4]AtomID{a11, a12, a21, a22}
}

func TestSolveFindsAModel(t *testing.T) {
	p, _ := buildAssignment(0, 0, 0, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	y1 := p.Atom(sol.Selected[0]).Y
	y2 := p.Atom(sol.Selected[1]).Y
	if y1 == y2 {
		t.Errorf("injectivity violated: both groups map to %s", y1)
	}
}

func TestSolveMinPicksCheapestMatching(t *testing.T) {
	// x1->y1 costs 5, x1->y2 costs 0; x2->y1 costs 0, x2->y2 costs 5.
	// The cheap diagonal (x1->y2, x2->y1) has total 0.
	p, atoms := buildAssignment(5, 0, 0, 5)
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Errorf("cost = %d, want 0", sol.Cost)
	}
	if sol.Selected[0] != atoms[1] || sol.Selected[1] != atoms[2] {
		t.Errorf("wrong atoms selected: %v", sol.Selected)
	}
}

func TestSolveMinForcedExpensiveChoice(t *testing.T) {
	// Only one matching exists after conflicts; its cost must be
	// reported faithfully.
	p := NewProblem()
	g1 := p.AddGroup("x1")
	a := p.AddAtom(g1, "x1", "y1", 7)
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 7 || sol.Selected[0] != a {
		t.Errorf("sol = %+v", sol)
	}
}

func TestUnsatEmptyGroup(t *testing.T) {
	p := NewProblem()
	p.AddGroup("x1") // no candidates
	if _, err := p.Solve(); !errors.Is(err, ErrUnsat) {
		t.Errorf("want ErrUnsat, got %v", err)
	}
}

func TestUnsatByConflicts(t *testing.T) {
	// Two groups, one shared candidate each: pigeonhole.
	p := NewProblem()
	g1 := p.AddGroup("x1")
	g2 := p.AddGroup("x2")
	a1 := p.AddAtom(g1, "x1", "y", 0)
	a2 := p.AddAtom(g2, "x2", "y", 0)
	p.AddConflict(a1, a2)
	if _, err := p.Solve(); !errors.Is(err, ErrUnsat) {
		t.Errorf("want ErrUnsat, got %v", err)
	}
}

func TestImplicationsPropagate(t *testing.T) {
	// Selecting e->f forces x->y; x->z conflicts with that.
	p := NewProblem()
	gx := p.AddGroup("x")
	ge := p.AddGroup("e")
	xy := p.AddAtom(gx, "x", "y", 1)
	xz := p.AddAtom(gx, "x", "z", 0)
	ef := p.AddAtom(ge, "e", "f", 0)
	p.AddImplication(ef, xy)
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[gx] != xy {
		t.Errorf("implication not enforced: got atom %d, want %d (xz=%d)", sol.Selected[gx], xy, xz)
	}
	if sol.Cost != 1 {
		t.Errorf("cost = %d, want 1 (the forced xy)", sol.Cost)
	}
}

func TestChainedImplications(t *testing.T) {
	p := NewProblem()
	ga := p.AddGroup("a")
	gb := p.AddGroup("b")
	gc := p.AddGroup("c")
	a1 := p.AddAtom(ga, "a", "1", 0)
	b1 := p.AddAtom(gb, "b", "1", 0)
	c1 := p.AddAtom(gc, "c", "1", 0)
	// Extra candidates so the groups are not forced trivially.
	p.AddAtom(gb, "b", "2", 0)
	p.AddAtom(gc, "c", "2", 0)
	p.AddImplication(a1, b1)
	p.AddImplication(b1, c1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[ga] == a1 {
		if sol.Selected[gb] != b1 || sol.Selected[gc] != c1 {
			t.Error("implication chain not propagated")
		}
	}
}

func TestConflictWithForcedAtomIsUnsat(t *testing.T) {
	// Group a has one candidate a1; a1 conflicts with the only
	// candidate of group b.
	p := NewProblem()
	ga := p.AddGroup("a")
	gb := p.AddGroup("b")
	a1 := p.AddAtom(ga, "a", "1", 0)
	b1 := p.AddAtom(gb, "b", "1", 0)
	p.AddConflict(a1, b1)
	if _, err := p.Solve(); !errors.Is(err, ErrUnsat) {
		t.Errorf("want ErrUnsat, got %v", err)
	}
}

func TestBranchAndBoundOptimality(t *testing.T) {
	// 3x3 assignment with a cost matrix whose greedy row-wise choice is
	// suboptimal; optimum is 1+2+1 = 4 on the anti-diagonal-ish pattern.
	cost := [3][3]int{
		{0, 9, 9}, // x0 wants y0
		{0, 9, 9}, // x1 also wants y0 -> conflict forces rethink
		{9, 0, 9},
	}
	p := NewProblem()
	var atoms [3][3]AtomID
	for i := 0; i < 3; i++ {
		gi := p.AddGroup("x")
		for j := 0; j < 3; j++ {
			atoms[i][j] = p.AddAtom(gi, "x", "y", cost[i][j])
		}
	}
	for j := 0; j < 3; j++ {
		for i1 := 0; i1 < 3; i1++ {
			for i2 := i1 + 1; i2 < 3; i2++ {
				p.AddConflict(atoms[i1][j], atoms[i2][j])
			}
		}
	}
	sol, err := p.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: one of x0/x1 takes y0 (0), x2 takes y1 (0), the loser of
	// x0/x1 takes y2 (9). Total 9.
	if sol.Cost != 9 {
		t.Errorf("cost = %d, want 9", sol.Cost)
	}
}

func TestRenderShowsProgram(t *testing.T) {
	p, _ := buildAssignment(1, 0, 0, 1)
	out := p.Render()
	for _, want := range []string{"{ h(x1,y1); h(x1,y2) } = 1", ":- h(x1,y1), h(x2,y1).", "#minimize"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSolveAllCountsModels(t *testing.T) {
	// Two groups, two targets, full bipartite with injectivity: exactly
	// the 2 permutation matchings.
	p, _ := buildAssignment(0, 0, 0, 0)
	got := p.SolveAll(0, func(*Solution) bool { return true })
	if got != 2 {
		t.Errorf("models = %d, want 2", got)
	}
	// Limit respected.
	if got := p.SolveAll(1, func(*Solution) bool { return true }); got != 1 {
		t.Errorf("limited models = %d, want 1", got)
	}
	// Callback stop respected.
	calls := 0
	p.SolveAll(0, func(*Solution) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("callback stop: %d calls", calls)
	}
	// Unsatisfiable: zero models.
	q := NewProblem()
	g1 := q.AddGroup("x1")
	g2 := q.AddGroup("x2")
	a1 := q.AddAtom(g1, "x1", "y", 0)
	a2 := q.AddAtom(g2, "x2", "y", 0)
	q.AddConflict(a1, a2)
	if got := q.SolveAll(0, func(*Solution) bool { return true }); got != 0 {
		t.Errorf("unsat models = %d", got)
	}
}

func TestDeterministicSolutions(t *testing.T) {
	p1, _ := buildAssignment(1, 2, 2, 1)
	p2, _ := buildAssignment(1, 2, 2, 1)
	s1, err := p1.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.SolveMin()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cost != s2.Cost || s1.Selected[0] != s2.Selected[0] || s1.Selected[1] != s2.Selected[1] {
		t.Error("solver is not deterministic")
	}
}

// TestIncrementalStateMatchesRecount drives random choose/undo walks on
// random problems and checks after every step that the incremental
// search state equals a recount from the alive flags: each group's
// alive count, the wiped-group count, and every minimum weight not
// marked stale. A drift here would change the search tree without
// changing any answer.
func TestIncrementalStateMatchesRecount(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		s := newState(p, true)
		for step := 0; step < 40; step++ {
			var open []AtomID
			for a, at := range p.atoms {
				if s.alive[a] && s.chosen[at.Group] < 0 {
					open = append(open, AtomID(a))
				}
			}
			if len(s.trailMark) > 0 && (len(open) == 0 || rng.Intn(3) == 0) {
				s.undo()
			} else if len(open) > 0 {
				s.choose(open[rng.Intn(len(open))])
			}
			if rng.Intn(2) == 0 {
				s.lowerBound() // refresh the open groups' stale minima
			}
			for gi, g := range p.groups {
				n, minW := 0, maxInt
				for _, a := range g {
					if s.alive[a] {
						n++
						minW = min(minW, p.atoms[a].Weight)
					}
				}
				if int(s.nAlive[gi]) != n {
					t.Fatalf("seed %d step %d: group %d alive count %d, recount %d", seed, step, gi, s.nAlive[gi], n)
				}
				if !s.minStale[gi] && s.minW[gi] != minW {
					t.Fatalf("seed %d step %d: group %d minimum %d, recount %d", seed, step, gi, s.minW[gi], minW)
				}
			}
			wiped := 0
			for _, n := range s.nAlive {
				if n == 0 {
					wiped++
				}
			}
			if s.wiped != wiped {
				t.Fatalf("seed %d step %d: wiped %d, recount %d", seed, step, s.wiped, wiped)
			}
		}
	}
}
