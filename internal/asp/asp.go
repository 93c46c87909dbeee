// Package asp implements the answer-set-programming fragment ProvMark
// needs to solve its two graph-matching listings (Listing 3, graph
// similarity; Listing 4, approximate subgraph isomorphism with a
// #minimize objective). The paper uses the clingo solver; this package
// is a self-contained replacement covering the same program class:
//
//   - cardinality-1 choice rules  {h(X,Y) : ...} = 1 :- item(X)
//     become selection groups: exactly one atom per group is true;
//   - the injectivity rules :- X<>Y, h(X,Z), h(Y,Z) become at-most-one
//     sets, one per element Z, so the ground program grows with the
//     number of candidate atoms rather than with the number of pairs
//     of them (a conflict between two atoms is the two-atom set);
//   - constraints of the form :- h(E1,E2), not h(X,Y) (edge endpoint
//     preservation) become implications h(E1,E2) -> h(X,Y);
//   - #minimize { PC,X,K : cost(X,K,PC) } becomes per-atom integer
//     weights whose selected sum is minimized.
//
// Label-preservation constraints are handled at grounding time: atoms
// whose labels disagree are simply never generated, exactly as a
// grounder would delete rules with unsatisfiable bodies.
//
// The solver is a depth-first search with unit propagation over groups
// (minimum-remaining-values ordering) and branch-and-bound pruning on
// the weight objective. It is deterministic: given the same problem it
// explores candidates in construction order. The search state is
// incremental, so a search node costs time in proportion to the atoms
// it touches rather than to the whole problem: removing or restoring
// an atom updates its group's alive count and a count of wiped-out
// groups, which make variable selection and the fail-fast check
// O(groups) and O(1). Under SolveMin each group also keeps the minimum
// weight among its alive atoms; removing that atom only marks the
// minimum stale, and the bound recomputes stale minima when it next
// needs them.
package asp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// AtomID indexes an atom within a Problem.
type AtomID int

// Atom is one ground instance h(X, Y) of the matching relation, carrying
// an optional weight contributed to the objective when selected.
type Atom struct {
	X, Y   string // element of G1, element of G2 (for rendering)
	Group  int    // selection group this atom belongs to
	Weight int    // objective contribution when selected
}

// Problem is a ground matching program.
type Problem struct {
	atoms     []Atom
	groups    [][]AtomID // exactly one atom per group must hold
	implies   [][]AtomID // implies[a] = atoms forced when a holds
	groupName []string

	// At-most-one sets, flat: set k holds setAtoms[setStart[k]:setStart[k+1]].
	setAtoms []AtomID
	setStart []int32
	// Set membership as per-atom linked lists: memberHead[a] is a's
	// first entry (-1 for none); entry e names set memberSet[e] and
	// links to memberNext[e].
	memberHead []int32
	memberSet  []int32
	memberNext []int32
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{setStart: []int32{0}}
}

// AddGroup creates a selection group (one X that must be matched) and
// returns its index. name is used only for rendering.
func (p *Problem) AddGroup(name string) int {
	p.groups = append(p.groups, nil)
	p.groupName = append(p.groupName, name)
	return len(p.groups) - 1
}

// AddAtom adds a candidate atom to a group and returns its id.
func (p *Problem) AddAtom(group int, x, y string, weight int) AtomID {
	id := AtomID(len(p.atoms))
	p.atoms = append(p.atoms, Atom{X: x, Y: y, Group: group, Weight: weight})
	p.groups[group] = append(p.groups[group], id)
	p.implies = append(p.implies, nil)
	p.memberHead = append(p.memberHead, -1)
	return id
}

// AddAtMostOne forbids any two of atoms from holding together. A set of
// fewer than two atoms constrains nothing and is not stored.
func (p *Problem) AddAtMostOne(atoms []AtomID) {
	if len(atoms) < 2 {
		return
	}
	set := int32(len(p.setStart) - 1)
	p.setAtoms = append(p.setAtoms, atoms...)
	p.setStart = append(p.setStart, int32(len(p.setAtoms)))
	for _, a := range atoms {
		p.memberSet = append(p.memberSet, set)
		p.memberNext = append(p.memberNext, p.memberHead[a])
		p.memberHead[a] = int32(len(p.memberSet) - 1)
	}
}

// AddConflict forbids a and b from holding together: the two-atom
// at-most-one set.
func (p *Problem) AddConflict(a, b AtomID) {
	p.AddAtMostOne([]AtomID{a, b})
}

// AddImplication records that selecting a forces selecting b.
func (p *Problem) AddImplication(a, b AtomID) {
	p.implies[a] = append(p.implies[a], b)
}

// Atom returns the atom with the given id.
func (p *Problem) Atom(id AtomID) Atom { return p.atoms[id] }

// NumAtoms reports how many ground atoms the problem has.
func (p *Problem) NumAtoms() int { return len(p.atoms) }

// NumGroups reports how many selection groups the problem has.
func (p *Problem) NumGroups() int { return len(p.groups) }

// set returns the members of at-most-one set k.
func (p *Problem) set(k int32) []AtomID {
	return p.setAtoms[p.setStart[k]:p.setStart[k+1]]
}

// ErrUnsat is returned when no model exists.
var ErrUnsat = errors.New("asp: unsatisfiable")

// solveInvocations counts Solve/SolveMin searches process-wide; see
// SolveInvocations.
var solveInvocations atomic.Uint64

// SolveInvocations reports the process-wide number of Solve/SolveMin
// searches started since process start. Benchmarks and instrumented
// tests diff this counter to measure how many solver calls a
// classification strategy avoids.
func SolveInvocations() uint64 { return solveInvocations.Load() }

// Solution maps each group index to the selected atom.
type Solution struct {
	Selected []AtomID // indexed by group
	Cost     int
}

// Solve finds any model (ignoring weights). It is equivalent to
// SolveMin with an immediate-accept bound, but skips bound bookkeeping.
func (p *Problem) Solve() (*Solution, error) {
	return p.solve(false)
}

// SolveMin finds a model of minimum total weight.
func (p *Problem) SolveMin() (*Solution, error) {
	return p.solve(true)
}

// SolveAll enumerates models, invoking fn for each (with weights
// reported but not optimized). Enumeration stops when fn returns false
// or after limit models (limit <= 0 means unbounded). It returns the
// number of models visited.
func (p *Problem) SolveAll(limit int, fn func(*Solution) bool) int {
	s := newState(p, false)
	if s.wiped > 0 {
		return 0
	}
	count := 0
	stopped := false
	var enumerate func()
	enumerate = func() {
		gi := s.pickGroup()
		if gi < 0 {
			count++
			sol := &Solution{Selected: append([]AtomID(nil), s.chosen...), Cost: s.cost}
			if !fn(sol) || (limit > 0 && count >= limit) {
				stopped = true
			}
			return
		}
		start := s.pushCandidates(gi)
		for i := start; i < len(s.cands) && !stopped; i++ {
			if a := s.cands[i]; s.alive[a] {
				if s.choose(a) {
					enumerate()
				}
				s.undo()
			}
		}
		s.cands = s.cands[:start]
	}
	enumerate()
	return count
}

const maxInt = int(^uint(0) >> 1)

// state carries the mutable search data. Removals and selections are
// trailed for backtracking; the per-group counts and minima are kept
// in step with every removal and restoration.
type state struct {
	p         *Problem
	alive     []bool   // per atom
	chosen    []AtomID // per group, -1 if open
	nAlive    []int32  // per group: alive atoms (a chosen atom stays alive)
	wiped     int      // groups with no alive atom
	cost      int
	trail     []AtomID // atoms killed, for undo
	trailMark []int
	cands     []AtomID // stack of the candidate lists of open search nodes
	best      *Solution
	bestCost  int
	optimize  bool
	// Under optimize only: minW[g] is the minimum weight among g's
	// alive atoms unless minStale[g] is set.
	minW     []int
	minStale []bool
}

func newState(p *Problem, optimize bool) *state {
	s := &state{
		p:        p,
		alive:    make([]bool, len(p.atoms)),
		chosen:   make([]AtomID, len(p.groups)),
		nAlive:   make([]int32, len(p.groups)),
		optimize: optimize,
		bestCost: maxInt,
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	for gi, g := range p.groups {
		s.chosen[gi] = -1
		s.nAlive[gi] = int32(len(g))
		if len(g) == 0 {
			s.wiped++
		}
	}
	if optimize {
		s.minW = make([]int, len(p.groups))
		s.minStale = make([]bool, len(p.groups))
		for gi := range p.groups {
			s.minStale[gi] = true
		}
	}
	return s
}

func (p *Problem) solve(optimize bool) (*Solution, error) {
	solveInvocations.Add(1)
	s := newState(p, optimize)
	for gi, g := range p.groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("%w: group %s has no candidates", ErrUnsat, p.groupName[gi])
		}
	}
	s.search()
	if s.best == nil {
		return nil, ErrUnsat
	}
	return s.best, nil
}

// lowerBound sums, over open groups, the minimum weight among alive
// candidates. This is an admissible bound for branch-and-bound.
func (s *state) lowerBound() int {
	lb := s.cost
	for gi, g := range s.p.groups {
		if s.chosen[gi] >= 0 {
			continue
		}
		if s.minStale[gi] {
			minW := maxInt
			for _, a := range g {
				if s.alive[a] && s.p.atoms[a].Weight < minW {
					minW = s.p.atoms[a].Weight
				}
			}
			s.minW[gi], s.minStale[gi] = minW, false
		}
		lb += s.minW[gi]
	}
	return lb
}

// pickGroup returns the open group with the fewest alive candidates
// (minimum remaining values), or -1 if all groups are decided.
func (s *state) pickGroup() int {
	best, bestN := -1, maxInt
	for gi := range s.nAlive {
		if s.chosen[gi] >= 0 {
			continue
		}
		if n := int(s.nAlive[gi]); n < bestN {
			best, bestN = gi, n
			if n <= 1 {
				break
			}
		}
	}
	return best
}

// pushCandidates copies group gi's alive atoms onto the candidate
// stack (selections mutate alive) and returns where they start. The
// caller truncates the stack back to that index when done.
func (s *state) pushCandidates(gi int) int {
	start := len(s.cands)
	for _, a := range s.p.groups[gi] {
		if s.alive[a] {
			s.cands = append(s.cands, a)
		}
	}
	return start
}

func (s *state) search() {
	if s.optimize && s.best != nil && s.lowerBound() >= s.bestCost {
		return
	}
	gi := s.pickGroup()
	if gi < 0 {
		sol := &Solution{Selected: append([]AtomID(nil), s.chosen...), Cost: s.cost}
		s.best = sol
		s.bestCost = s.cost
		return
	}
	start := s.pushCandidates(gi)
	if s.optimize {
		slices.SortStableFunc(s.cands[start:], func(a, b AtomID) int {
			return s.p.atoms[a].Weight - s.p.atoms[b].Weight
		})
	}
	for i := start; i < len(s.cands); i++ {
		a := s.cands[i]
		if !s.alive[a] {
			continue
		}
		if s.choose(a) {
			s.search()
			if !s.optimize && s.best != nil {
				s.undo()
				break
			}
		}
		s.undo()
	}
	s.cands = s.cands[:start]
}

// choose selects atom a and propagates: kill the atoms sharing an
// at-most-one set with it, kill the group's other candidates, and force
// implications (recursively). It returns false if propagation wipes out
// some group or contradicts an earlier choice; the caller must still
// undo.
func (s *state) choose(a AtomID) bool {
	s.trailMark = append(s.trailMark, len(s.trail))
	return s.propagate(a)
}

func (s *state) propagate(a AtomID) bool {
	at := s.p.atoms[a]
	if s.chosen[at.Group] == a {
		return true // already selected via an earlier implication
	}
	if s.chosen[at.Group] >= 0 || !s.alive[a] {
		return false
	}
	s.chosen[at.Group] = a
	s.cost += at.Weight
	s.trail = append(s.trail, -a-1000000) // selection marker, see undo
	for _, other := range s.p.groups[at.Group] {
		if other != a && s.alive[other] {
			s.kill(other)
		}
	}
	for e := s.p.memberHead[a]; e >= 0; e = s.p.memberNext[e] {
		for _, c := range s.p.set(s.p.memberSet[e]) {
			if c == a || !s.alive[c] {
				continue // a chosen atom stays alive, so a dead one is not chosen
			}
			if s.chosen[s.p.atoms[c].Group] == c {
				return false // conflict with an earlier selection
			}
			s.kill(c)
		}
	}
	for _, imp := range s.p.implies[a] {
		ia := s.p.atoms[imp]
		if s.chosen[ia.Group] == imp {
			continue
		}
		if !s.alive[imp] || s.chosen[ia.Group] >= 0 {
			return false
		}
		if !s.propagate(imp) {
			return false
		}
	}
	return s.wiped == 0 // fail fast if any open group lost all candidates
}

func (s *state) kill(a AtomID) {
	s.alive[a] = false
	s.trail = append(s.trail, a)
	at := &s.p.atoms[a]
	if s.nAlive[at.Group]--; s.nAlive[at.Group] == 0 {
		s.wiped++
	}
	if s.optimize && at.Weight == s.minW[at.Group] {
		s.minStale[at.Group] = true
	}
}

func (s *state) revive(a AtomID) {
	s.alive[a] = true
	at := &s.p.atoms[a]
	if s.nAlive[at.Group] == 0 {
		s.wiped--
	}
	s.nAlive[at.Group]++
	if s.optimize && !s.minStale[at.Group] && at.Weight < s.minW[at.Group] {
		s.minW[at.Group] = at.Weight
	}
}

func (s *state) undo() {
	mark := s.trailMark[len(s.trailMark)-1]
	s.trailMark = s.trailMark[:len(s.trailMark)-1]
	for len(s.trail) > mark {
		x := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if x <= -1000000 {
			a := AtomID(-(x + 1000000))
			at := s.p.atoms[a]
			s.chosen[at.Group] = -1
			s.cost -= at.Weight
		} else {
			s.revive(x)
		}
	}
}

// Render prints the ground program in a clingo-like concrete syntax,
// useful for debugging and for comparing against the paper's listings.
func (p *Problem) Render() string {
	var b strings.Builder
	for gi, g := range p.groups {
		names := make([]string, 0, len(g))
		for _, a := range g {
			names = append(names, fmt.Sprintf("h(%s,%s)", p.atoms[a].X, p.atoms[a].Y))
		}
		fmt.Fprintf(&b, "{ %s } = 1. %% group %s\n", strings.Join(names, "; "), p.groupName[gi])
	}
	for k := int32(0); k < int32(len(p.setStart)-1); k++ {
		names := make([]string, 0, 2)
		for _, a := range p.set(k) {
			names = append(names, fmt.Sprintf("h(%s,%s)", p.atoms[a].X, p.atoms[a].Y))
		}
		if len(names) == 2 {
			fmt.Fprintf(&b, ":- %s, %s.\n", names[0], names[1])
		} else {
			fmt.Fprintf(&b, ":- 2 { %s }.\n", strings.Join(names, "; "))
		}
	}
	for a, imps := range p.implies {
		for _, i := range imps {
			fmt.Fprintf(&b, ":- h(%s,%s), not h(%s,%s).\n",
				p.atoms[a].X, p.atoms[a].Y, p.atoms[i].X, p.atoms[i].Y)
		}
	}
	var costs []string
	for _, a := range p.atoms {
		if a.Weight > 0 {
			costs = append(costs, fmt.Sprintf("%d,%s,%s : h(%s,%s)", a.Weight, a.X, a.Y, a.X, a.Y))
		}
	}
	if len(costs) > 0 {
		fmt.Fprintf(&b, "#minimize { %s }.\n", strings.Join(costs, "; "))
	}
	return b.String()
}
