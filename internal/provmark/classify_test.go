package provmark_test

// Differential test harness for the similarity classification engine:
// a randomized corpus of seeded permutations and label/edge mutations,
// asserting that every decision path — the production match.Similar,
// the pure-ASP oracle match.SimilarASP, the colour-guided matcher
// match.SimilarDirect without the fingerprint filter, and fingerprint
// bucketing through the classifier — reaches the same verdict on every
// pair, including pairs WL refinement cannot tell apart. Plus the
// instrumented acceptance tests: trial graphs fingerprint at most once
// per pipeline run, and the engine spends at least 3x fewer ASP solver
// invocations than the seed linear scan on a 32-trial corpus.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/match"
	"provmark/internal/provmark"
)

var (
	corpusNodeLabels = []string{"process", "file", "socket"}
	corpusEdgeLabels = []string{"read", "write", "fork"}
)

// randomBase builds a connected pseudo-random graph: a labelled chain
// plus extra random edges.
func randomBase(t *testing.T, rng *rand.Rand) *graph.Graph {
	t.Helper()
	g := graph.New()
	n := 3 + rng.Intn(6)
	ids := make([]graph.ElemID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode(corpusNodeLabels[rng.Intn(len(corpusNodeLabels))],
			graph.Properties{"pos": strconv.Itoa(i)}))
	}
	for i := 1; i < n; i++ {
		mustEdge(t, g, ids[i-1], ids[i], corpusEdgeLabels[rng.Intn(len(corpusEdgeLabels))])
	}
	for extra := rng.Intn(n); extra > 0; extra-- {
		mustEdge(t, g, ids[rng.Intn(n)], ids[rng.Intn(n)], corpusEdgeLabels[rng.Intn(len(corpusEdgeLabels))])
	}
	return g
}

func mustEdge(t *testing.T, g *graph.Graph, src, tgt graph.ElemID, label string) {
	t.Helper()
	if _, err := g.AddEdge(src, tgt, label, nil); err != nil {
		t.Fatal(err)
	}
}

// permutedCopy is an isomorphic copy: fresh identifiers, permuted
// insertion order, properties preserved.
func permutedCopy(t testing.TB, g *graph.Graph, rng *rand.Rand, prefix string) *graph.Graph {
	t.Helper()
	out := graph.New()
	nodes := g.Nodes()
	rename := make(map[graph.ElemID]graph.ElemID, len(nodes))
	for i, pi := range rng.Perm(len(nodes)) {
		n := nodes[pi]
		id := graph.ElemID(fmt.Sprintf("%s_n%d", prefix, i))
		rename[n.ID] = id
		if err := out.InsertNode(id, n.Label, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	for i, pi := range rng.Perm(len(edges)) {
		e := edges[pi]
		id := graph.ElemID(fmt.Sprintf("%s_e%d", prefix, i))
		if err := out.InsertEdge(id, rename[e.Src], rename[e.Tgt], e.Label, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// labelMutatedCopy relabels one node to a label outside the corpus
// alphabet. The label multiset changes, so the pair can never be
// similar — every engine must say no.
func labelMutatedCopy(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	out := graph.New()
	nodes := g.Nodes()
	k := rng.Intn(len(nodes))
	for i, n := range nodes {
		label := n.Label
		if i == k {
			label = "mutant"
		}
		if err := out.InsertNode(n.ID, label, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		if err := out.InsertEdge(e.ID, e.Src, e.Tgt, e.Label, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rewiredCopy re-targets one edge at random. The result may or may not
// stay isomorphic (symmetries can absorb the rewire), so callers assert
// only that all engines agree on the verdict.
func rewiredCopy(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	out := graph.New()
	nodes := g.Nodes()
	for _, n := range nodes {
		if err := out.InsertNode(n.ID, n.Label, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	k := rng.Intn(len(edges))
	for i, e := range edges {
		tgt := e.Tgt
		if i == k {
			tgt = nodes[rng.Intn(len(nodes))].ID
		}
		if err := out.InsertEdge(e.ID, e.Src, tgt, e.Label, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// engineVerdicts runs one pair through all four decision paths.
func engineVerdicts(t *testing.T, a, b *graph.Graph) map[string]bool {
	t.Helper()
	verdicts := make(map[string]bool, 4)

	m, ok := match.Similar(a, b)
	if ok && !match.VerifyMapping(a, b, m) {
		t.Fatalf("Similar returned an invalid witness mapping")
	}
	verdicts["similar"] = ok

	m, ok = match.SimilarASP(a, b)
	if ok && !match.VerifyMapping(a, b, m) {
		t.Fatalf("SimilarASP returned an invalid witness mapping")
	}
	verdicts["asp"] = ok

	m, ok = match.SimilarDirect(a, b)
	if ok && !match.VerifyMapping(a, b, m) {
		t.Fatalf("SimilarDirect returned an invalid witness mapping")
	}
	verdicts["direct"] = ok

	classes := provmark.SimilarityClasses([]*graph.Graph{a, b})
	verdicts["bucketing"] = len(classes) == 1

	return verdicts
}

func assertVerdicts(t *testing.T, a, b *graph.Graph, want bool, kind string) {
	t.Helper()
	for engine, got := range engineVerdicts(t, a, b) {
		if got != want {
			t.Errorf("%s pair: engine %s said %v, want %v\nG1:\n%s\nG2:\n%s",
				kind, engine, got, want, a, b)
		}
	}
}

func assertVerdictsAgree(t *testing.T, a, b *graph.Graph, kind string) {
	t.Helper()
	verdicts := engineVerdicts(t, a, b)
	ref, refEngine := verdicts["asp"], "asp"
	for engine, got := range verdicts {
		if got != ref {
			t.Errorf("%s pair: engine %s said %v but %s said %v\nG1:\n%s\nG2:\n%s",
				kind, engine, got, refEngine, ref, a, b)
		}
	}
}

// TestDifferentialSimilarityEngines is the randomized differential
// harness: 70 seeded base graphs x 3 pair kinds = 210 pairs, each
// decided by all four paths.
func TestDifferentialSimilarityEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := 0
	for i := 0; i < 70; i++ {
		base := randomBase(t, rng)
		perm := permutedCopy(t, base, rng, fmt.Sprintf("perm%d", i))
		assertVerdicts(t, base, perm, true, "permuted")
		pairs++

		mut := labelMutatedCopy(t, base, rng)
		assertVerdicts(t, base, mut, false, "label-mutated")
		pairs++

		rew := rewiredCopy(t, base, rng)
		assertVerdictsAgree(t, base, rew, "rewired")
		pairs++
	}
	if pairs < 200 {
		t.Fatalf("differential corpus covered %d pairs, want >= 200", pairs)
	}
}

// fromArcs builds a graph of n uniformly labelled nodes and one
// uniformly labelled edge per arc.
func fromArcs(t *testing.T, n int, arcs ...[2]int) *graph.Graph {
	t.Helper()
	g := graph.New()
	ids := make([]graph.ElemID, n)
	for i := range ids {
		ids[i] = g.AddNode("node", nil)
	}
	for _, a := range arcs {
		mustEdge(t, g, ids[a[0]], ids[a[1]], "edge")
	}
	return g
}

// cycleArcs returns the arcs of a directed cycle through nodes
// first..first+n-1.
func cycleArcs(first, n int) [][2]int {
	arcs := make([][2]int, n)
	for i := range arcs {
		arcs[i] = [2]int{first + i, first + (i+1)%n}
	}
	return arcs
}

// bothWays adds the reverse of every arc: an undirected graph.
func bothWays(arcs [][2]int) [][2]int {
	out := append([][2]int(nil), arcs...)
	for _, a := range arcs {
		out = append(out, [2]int{a[1], a[0]})
	}
	return out
}

// twice repeats every arc: each becomes a pair of parallel edges.
func twice(arcs [][2]int) [][2]int { return append(append([][2]int(nil), arcs...), arcs...) }

func concat(parts ...[][2]int) [][2]int {
	var out [][2]int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// wlBlindPair is a non-isomorphic pair that 3-round WL refinement
// cannot tell apart: equal colour histograms and fingerprints, so only
// a complete matcher separates them.
type wlBlindPair struct {
	name   string
	g1, g2 *graph.Graph
}

func wlBlindPairs(t *testing.T) []wlBlindPair {
	t.Helper()
	return []wlBlindPair{
		{"C6 vs 2xC3",
			fromArcs(t, 6, bothWays(cycleArcs(0, 6))...),
			fromArcs(t, 6, bothWays(concat(cycleArcs(0, 3), cycleArcs(3, 3)))...)},
		{"directed C6 vs 2 directed C3",
			fromArcs(t, 6, cycleArcs(0, 6)...),
			fromArcs(t, 6, concat(cycleArcs(0, 3), cycleArcs(3, 3))...)},
		// The same arcs, a 4-cycle and two 2-cycles; they differ only in
		// which of them carry a parallel same-label edge.
		{"parallel-edge multiplicity",
			fromArcs(t, 8, concat(twice(cycleArcs(0, 4)), cycleArcs(4, 2), cycleArcs(6, 2))...),
			fromArcs(t, 8, concat(cycleArcs(0, 4), twice(cycleArcs(4, 2)), twice(cycleArcs(6, 2)))...)},
		{"self-loops vs 2-cycle",
			fromArcs(t, 2, [2]int{0, 0}, [2]int{1, 1}),
			fromArcs(t, 2, cycleArcs(0, 2)...)},
	}
}

// TestDifferentialWLBlindPairs: on pairs WL refinement cannot separate
// every decision path must still say "not similar", and on permuted
// copies of the same shapes every path must say "similar" with a valid
// witness.
func TestDifferentialWLBlindPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, p := range wlBlindPairs(t) {
		if p.g1.Fingerprint() != p.g2.Fingerprint() {
			t.Fatalf("%s: fingerprints differ; the pair is not WL-blind", p.name)
		}
		assertVerdicts(t, p.g1, p.g2, false, p.name)
		for i, g := range []*graph.Graph{p.g1, p.g2} {
			assertVerdicts(t, g, permutedCopy(t, g, rng, fmt.Sprintf("p%d", i)), true, p.name+" permuted")
		}
	}
}

// TestDifferentialCorpusClassification throws permuted families into
// one classification call: permuted copies must land in one class per
// family, label mutants in classes of their own.
func TestDifferentialCorpusClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trials []*graph.Graph
	wantClassOf := make(map[int]string) // trial index -> family key
	for fam := 0; fam < 6; fam++ {
		base := randomBase(t, rng)
		for c := 0; c < 3; c++ {
			wantClassOf[len(trials)] = fmt.Sprintf("fam%d", fam)
			trials = append(trials, permutedCopy(t, base, rng, fmt.Sprintf("f%dc%d", fam, c)))
		}
		wantClassOf[len(trials)] = fmt.Sprintf("fam%d-mutant", fam)
		trials = append(trials, labelMutatedCopy(t, base, rng))
	}
	classes := provmark.SimilarityClasses(trials)
	for _, class := range classes {
		for _, i := range class[1:] {
			if wantClassOf[i] != wantClassOf[class[0]] {
				t.Errorf("trial %d (%s) classified with trial %d (%s)",
					i, wantClassOf[i], class[0], wantClassOf[class[0]])
			}
		}
	}
	byFamily := make(map[string]int)
	for _, class := range classes {
		byFamily[wantClassOf[class[0]]]++
	}
	for fam, n := range byFamily {
		if n != 1 {
			t.Errorf("family %s split across %d classes", fam, n)
		}
	}
}

// classCorpus builds an asymmetric 32-trial corpus in exactly 4
// similarity classes: 4 distinct chain shapes x 8 permuted copies, with
// volatile property noise, shuffled.
func classCorpus(t testing.TB, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var trials []*graph.Graph
	for s := 0; s < 4; s++ {
		base := graph.New()
		var prev graph.ElemID
		for i := 0; i <= s+2; i++ {
			id := base.AddNode(fmt.Sprintf("s%dp%d", s, i), nil)
			if i > 0 {
				if _, err := base.AddEdge(prev, id, "next", nil); err != nil {
					t.Fatal(err)
				}
			}
			prev = id
		}
		for c := 0; c < 8; c++ {
			cp := permutedCopy(t, base, rng, fmt.Sprintf("s%dc%d", s, c))
			if err := cp.SetProp(cp.Nodes()[0].ID, "ts", strconv.Itoa(rng.Int())); err != nil {
				t.Fatal(err)
			}
			trials = append(trials, cp)
		}
	}
	rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
	return trials
}

// seedSimilarityClasses replicates the seed implementation's decision
// pattern: a linear scan over class representatives where every
// fingerprint-passing candidate pair goes to the ASP solver.
func seedSimilarityClasses(trials []*graph.Graph) [][]int {
	var classes [][]int
	for i, g := range trials {
		placed := false
		for ci, c := range classes {
			rep := trials[c[0]]
			if graph.ShapeFingerprint(rep) != graph.ShapeFingerprint(g) {
				continue
			}
			if _, ok := match.SimilarASP(rep, g); ok {
				classes[ci] = append(classes[ci], i)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{i})
		}
	}
	return classes
}

// TestClassifierSolverInvocationReduction is the acceptance criterion:
// on a 32-trial corpus with 4 similarity classes the engine must invoke
// the ASP solver at least 3x less often than the seed path.
func TestClassifierSolverInvocationReduction(t *testing.T) {
	trials := classCorpus(t, 11)

	engineStart := asp.SolveInvocations()
	engineClasses := provmark.SimilarityClasses(trials)
	engineSolves := asp.SolveInvocations() - engineStart

	seedStart := asp.SolveInvocations()
	seedClasses := seedSimilarityClasses(trials)
	seedSolves := asp.SolveInvocations() - seedStart

	if !reflect.DeepEqual(engineClasses, seedClasses) {
		t.Fatalf("engine and seed disagree:\nengine: %v\nseed:   %v", engineClasses, seedClasses)
	}
	if len(engineClasses) < 4 {
		t.Fatalf("corpus produced %d classes, want >= 4", len(engineClasses))
	}
	// The seed confirms every joining member through the solver (32
	// trials - 4 class openers = 28 solves); the asymmetric corpus lets
	// the engine confirm every pair through the colour-guided matcher.
	if seedSolves < 3*engineSolves || seedSolves == 0 {
		t.Errorf("engine used %d ASP solves vs seed %d; want >= 3x reduction",
			engineSolves, seedSolves)
	}
}

// TestTrialGraphsFingerprintedOncePerRun is the memoization acceptance
// criterion: a pipeline run fingerprints each trial graph at most once
// (8 trial graphs at WithTrials(4)), plus the two generalized graphs
// checked in the comparison stage.
func TestTrialGraphsFingerprintedOncePerRun(t *testing.T) {
	rec := fastRecorders()["spade"]
	prog, ok := benchprog.ByName("rename")
	if !ok {
		t.Fatal("unknown benchmark rename")
	}
	runner := provmark.New(rec, provmark.WithTrials(4))
	before := graph.FingerprintComputations()
	if _, err := runner.RunContext(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	delta := graph.FingerprintComputations() - before
	const maxComputes = 2*4 + 2 // bg+fg trial graphs, once each + generalized FG/BG
	if delta > maxComputes {
		t.Errorf("pipeline run computed %d fingerprints, want <= %d (each graph at most once)",
			delta, maxComputes)
	}
	if delta == 0 {
		t.Error("pipeline run computed no fingerprints; instrumentation broken?")
	}
}

// TestClassifierParallelMatchesSequential: classifying buckets over a
// worker pool must produce the identical deterministic partition.
func TestClassifierParallelMatchesSequential(t *testing.T) {
	trials := classCorpus(t, 29)
	seq := provmark.NewClassifier().Classes(trials, 1)
	par := provmark.NewClassifier().Classes(trials, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel classification diverged:\nseq: %v\npar: %v", seq, par)
	}
}

// TestClassifierVerdictCache: re-classifying the same graphs through
// one engine serves every pairwise verdict from cache.
func TestClassifierVerdictCache(t *testing.T) {
	trials := classCorpus(t, 31)
	c := provmark.NewClassifier()
	first := c.Classes(trials, 1)
	s1 := c.Stats()
	second := c.Classes(trials, 1)
	s2 := c.Stats()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-classification changed the partition")
	}
	if s1.Confirms == 0 {
		t.Fatal("first classification confirmed nothing; corpus degenerate?")
	}
	if s2.Confirms != s1.Confirms {
		t.Errorf("re-classification re-confirmed pairs: %d -> %d confirms", s1.Confirms, s2.Confirms)
	}
	if s2.CacheHits <= s1.CacheHits {
		t.Errorf("re-classification did not hit the verdict cache (hits %d -> %d)", s1.CacheHits, s2.CacheHits)
	}
}

// TestClassifierSymmetricNeedsNoSolver: on graphs whose WL refinement
// is not discrete (interchangeable star leaves) the colour-guided
// matcher confirms without the ASP solver, and agrees with the
// SimilarASP oracle on every pair.
func TestClassifierSymmetricNeedsNoSolver(t *testing.T) {
	star := func(out, in int) *graph.Graph {
		g := graph.New()
		hub := g.AddNode("hub", nil)
		for i := 0; i < out; i++ {
			leaf := g.AddNode("leaf", nil)
			mustEdge(t, g, hub, leaf, "spoke")
		}
		for i := 0; i < in; i++ {
			leaf := g.AddNode("leaf", nil)
			mustEdge(t, g, leaf, hub, "spoke")
		}
		return g
	}
	rng := rand.New(rand.NewSource(3))
	s1 := star(3, 1)
	s2 := permutedCopy(t, s1, rng, "s2")
	s3 := star(2, 2) // same counts and labels, different orientation
	stars := []*graph.Graph{s1, s2, s3}

	before := asp.SolveInvocations()
	classes := provmark.SimilarityClasses(stars)
	delta := asp.SolveInvocations() - before

	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2: %v", len(classes), classes)
	}
	if !reflect.DeepEqual(classes[0], []int{0, 1}) {
		t.Errorf("permuted stars not classified together: %v", classes)
	}
	if delta != 0 {
		t.Errorf("symmetric classification ran %d ASP solves, want 0", delta)
	}
	for i, a := range stars {
		for j, b := range stars {
			_, got := match.Similar(a, b)
			_, want := match.SimilarASP(a, b)
			if got != want {
				t.Errorf("stars %d/%d: Similar %v, SimilarASP %v", i, j, got, want)
			}
		}
	}
}
