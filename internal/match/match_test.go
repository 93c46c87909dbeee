package match

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"provmark/internal/graph"
)

// chain builds a labelled path graph a->b->c... with given labels.
func chain(t *testing.T, labels ...string) *graph.Graph {
	t.Helper()
	g := graph.New()
	var prev graph.ElemID
	for i, l := range labels {
		id := g.AddNode(l, nil)
		if i > 0 {
			if _, err := g.AddEdge(prev, id, "E", nil); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return g
}

func TestSimilarPositive(t *testing.T) {
	g := chain(t, "A", "B", "C")
	h := chain(t, "A", "B", "C")
	m, ok := Similar(g, h)
	if !ok {
		t.Fatal("identical chains not similar")
	}
	if !VerifyMapping(g, h, m) {
		t.Error("returned mapping is invalid")
	}
}

func TestSimilarIgnoresProperties(t *testing.T) {
	g := chain(t, "A", "B")
	h := chain(t, "A", "B")
	if err := g.SetProp(g.Nodes()[0].ID, "volatile", "123"); err != nil {
		t.Fatal(err)
	}
	if _, ok := Similar(g, h); !ok {
		t.Error("property difference broke similarity")
	}
}

func TestSimilarNegativeLabel(t *testing.T) {
	g := chain(t, "A", "B")
	h := chain(t, "A", "C")
	if _, ok := Similar(g, h); ok {
		t.Error("different labels reported similar")
	}
}

func TestSimilarNegativeStructure(t *testing.T) {
	// Same label multiset, different wiring: a->b,c  vs  a->b->c.
	g := graph.New()
	a := g.AddNode("N", nil)
	b := g.AddNode("N", nil)
	c := g.AddNode("N", nil)
	mustEdge(t, g, a, b)
	mustEdge(t, g, a, c)
	h := graph.New()
	ha := h.AddNode("N", nil)
	hb := h.AddNode("N", nil)
	hc := h.AddNode("N", nil)
	mustEdge(t, h, ha, hb)
	mustEdge(t, h, hb, hc)
	if _, ok := Similar(g, h); ok {
		t.Error("different shapes reported similar")
	}
}

func mustEdge(t *testing.T, g *graph.Graph, a, b graph.ElemID) graph.ElemID {
	t.Helper()
	id, err := g.AddEdge(a, b, "E", nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestGeneralizeDropsVolatileProps(t *testing.T) {
	g := chain(t, "A", "B")
	h := chain(t, "A", "B")
	ga := g.Nodes()[0].ID
	ha := h.Nodes()[0].ID
	if err := g.SetProp(ga, "stable", "same"); err != nil {
		t.Fatal(err)
	}
	if err := h.SetProp(ha, "stable", "same"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetProp(ga, "ts", "111"); err != nil {
		t.Fatal(err)
	}
	if err := h.SetProp(ha, "ts", "222"); err != nil {
		t.Fatal(err)
	}
	gen, m, err := GeneralizePair(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyMapping(g, h, m) {
		t.Error("generalization mapping invalid")
	}
	n := gen.Node(ga)
	if n.Props["stable"] != "same" {
		t.Error("stable property dropped")
	}
	if _, ok := n.Props["ts"]; ok {
		t.Error("volatile property survived generalization")
	}
}

func TestGeneralizePrefersLowPropCostMatching(t *testing.T) {
	// Two interchangeable B nodes; the matching must pair nodes with
	// agreeing "id" properties, not crossed ones.
	build := func(id1, id2 string) *graph.Graph {
		g := graph.New()
		a := g.AddNode("A", nil)
		b1 := g.AddNode("B", graph.Properties{"id": id1})
		b2 := g.AddNode("B", graph.Properties{"id": id2})
		mustEdge(t, g, a, b1)
		mustEdge(t, g, a, b2)
		return g
	}
	g := build("x", "y")
	h := build("x", "y")
	gen, _, err := GeneralizePair(g, h)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, n := range gen.Nodes() {
		if n.Props["id"] != "" {
			kept++
		}
	}
	if kept != 2 {
		t.Errorf("optimal matching should keep both id props, kept %d", kept)
	}
}

func TestGeneralizeRejectsDissimilar(t *testing.T) {
	g := chain(t, "A", "B")
	h := chain(t, "A", "C")
	if _, _, err := GeneralizePair(g, h); err == nil {
		t.Error("dissimilar graphs generalized")
	}
}

func TestSubgraphEmbedAndSubtract(t *testing.T) {
	bg := chain(t, "A", "B")
	fg := chain(t, "A", "B", "C") // bg plus one node and edge
	m, cost, err := SubgraphEmbed(bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("cost = %d, want 0", cost)
	}
	target := Subtract(fg, m)
	// Remaining: node C, the B->C edge, and a dummy for B.
	var labels []string
	for _, n := range target.Nodes() {
		labels = append(labels, n.Label)
	}
	if target.NumEdges() != 1 || len(labels) != 2 {
		t.Fatalf("target = %s", target)
	}
	hasC, hasDummy := false, false
	for _, l := range labels {
		if l == "C" {
			hasC = true
		}
		if l == "dummy" {
			hasDummy = true
		}
	}
	if !hasC || !hasDummy {
		t.Errorf("target labels = %v, want C and dummy", labels)
	}
	// The dummy must record what it stands for.
	for _, n := range target.Nodes() {
		if n.Label == "dummy" && n.Props["stands_for"] != "B" {
			t.Errorf("dummy stands_for = %q", n.Props["stands_for"])
		}
	}
}

func TestSubgraphEmbedFailsWhenNotContained(t *testing.T) {
	bg := chain(t, "A", "B", "Z")
	fg := chain(t, "A", "B", "C")
	if _, _, err := SubgraphEmbed(bg, fg); err == nil {
		t.Error("embedding of non-subgraph accepted")
	}
	// Larger bg than fg must also fail fast.
	if _, _, err := SubgraphEmbed(fg, chain(t, "A")); err == nil {
		t.Error("oversized background accepted")
	}
}

func TestSubgraphEmbedMinimizesPropertyCost(t *testing.T) {
	// fg has two candidate B nodes; one matches bg's property exactly.
	bg := graph.New()
	ba := bg.AddNode("A", nil)
	bb := bg.AddNode("B", graph.Properties{"k": "v"})
	mustEdge(t, bg, ba, bb)
	fg := graph.New()
	fa := fg.AddNode("A", nil)
	f1 := fg.AddNode("B", graph.Properties{"k": "other"})
	f2 := fg.AddNode("B", graph.Properties{"k": "v"})
	mustEdge(t, fg, fa, f1)
	mustEdge(t, fg, fa, f2)
	m, cost, err := SubgraphEmbed(bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || m[bb] != f2 {
		t.Errorf("cost=%d mapping=%v, want cost 0 via %s", cost, m, f2)
	}
}

func TestSelfLoopHandling(t *testing.T) {
	g := graph.New()
	a := g.AddNode("N", nil)
	if _, err := g.AddEdge(a, a, "loop", nil); err != nil {
		t.Fatal(err)
	}
	h := graph.New()
	b := h.AddNode("N", nil)
	if _, err := h.AddEdge(b, b, "loop", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := Similar(g, h); !ok {
		t.Error("self-loop graphs not similar")
	}
	if _, ok := SimilarDirect(g, h); !ok {
		t.Error("direct engine rejects self-loops")
	}
}

// randomDAGPair builds a random graph and an elementwise-renamed copy.
func randomDAGPair(seed int64) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"P", "Q", "R"}
	g := graph.New()
	n := 3 + rng.Intn(7)
	var ids []graph.ElemID
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode(labels[rng.Intn(len(labels))], nil))
	}
	for i := 0; i < rng.Intn(2*n); i++ {
		src := ids[rng.Intn(n)]
		tgt := ids[rng.Intn(n)]
		if _, err := g.AddEdge(src, tgt, "E", nil); err != nil {
			panic(err)
		}
	}
	// Renamed copy, permuted insertion order.
	h := graph.New()
	perm := rng.Perm(n)
	rename := make(map[graph.ElemID]graph.ElemID, n)
	nodes := g.Nodes()
	for i, pi := range perm {
		id := graph.ElemID("m" + strconv.Itoa(i))
		rename[nodes[pi].ID] = id
		if err := h.InsertNode(id, nodes[pi].Label, nil); err != nil {
			panic(err)
		}
	}
	for i, e := range g.Edges() {
		if err := h.InsertEdge(graph.ElemID("f"+strconv.Itoa(i)), rename[e.Src], rename[e.Tgt], e.Label, nil); err != nil {
			panic(err)
		}
	}
	return g, h
}

// TestEnginesAgreeOnIsomorphicPairs: the ASP-encoded oracle and the
// colour-guided matcher must both accept renamed copies and produce
// valid mappings.
func TestEnginesAgreeOnIsomorphicPairs(t *testing.T) {
	f := func(seed int64) bool {
		g, h := randomDAGPair(seed)
		m1, ok1 := SimilarASP(g, h)
		m2, ok2 := SimilarDirect(g, h)
		if !ok1 || !ok2 {
			return false
		}
		return VerifyMapping(g, h, m1) && VerifyMapping(g, h, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEnginesAgreeOnPerturbedPairs: after flipping one node label, both
// engines must reject.
func TestEnginesAgreeOnPerturbedPairs(t *testing.T) {
	f := func(seed int64) bool {
		g, h := randomDAGPair(seed)
		// Flip one label to a value not in the alphabet.
		h.Nodes()[0].Label = "FLIPPED"
		_, ok1 := SimilarASP(g, h)
		_, ok2 := SimilarDirect(g, h)
		return !ok1 && !ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEmbeddingIntoSupergraph: any graph embeds into itself plus extra
// structure, with cost 0 when properties agree.
func TestEmbeddingIntoSupergraph(t *testing.T) {
	f := func(seed int64) bool {
		g, h := randomDAGPair(seed)
		// Extend h with extra nodes/edges.
		extra := h.AddNode("EXTRA", nil)
		if _, err := h.AddEdge(extra, h.Nodes()[0].ID, "E", nil); err != nil {
			return false
		}
		m, cost, err := SubgraphEmbed(g, h)
		if err != nil {
			return false
		}
		return cost == 0 && VerifyMapping(g, h, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSubtractIdentityLeavesNothing(t *testing.T) {
	g := chain(t, "A", "B", "C")
	m, _, err := SubgraphEmbed(g, g)
	if err != nil {
		t.Fatal(err)
	}
	target := Subtract(g, m)
	if target.Size() != 0 {
		t.Errorf("self-subtraction left %d elements", target.Size())
	}
}

// arcGraph builds a graph of n uniformly labelled nodes and one
// uniformly labelled edge per arc, inserting nodes and edges in the
// order perm gives (nil keeps them in order).
func arcGraph(t *testing.T, n int, arcs [][2]int, perm func(int) []int) *graph.Graph {
	t.Helper()
	order := func(k int) []int {
		if perm != nil {
			return perm(k)
		}
		out := make([]int, k)
		for i := range out {
			out[i] = i
		}
		return out
	}
	g := graph.New()
	ids := make([]graph.ElemID, n)
	for _, i := range order(n) {
		ids[i] = graph.ElemID("v" + strconv.Itoa(i))
		if err := g.InsertNode(ids[i], "N", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range order(len(arcs)) {
		a := arcs[j]
		if err := g.InsertEdge(graph.ElemID("a"+strconv.Itoa(j)), ids[a[0]], ids[a[1]], "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// cycle returns the arcs of a directed cycle through first..first+n-1.
func cycle(first, n int) [][2]int {
	arcs := make([][2]int, n)
	for i := range arcs {
		arcs[i] = [2]int{first + i, first + (i+1)%n}
	}
	return arcs
}

// undirected adds the reverse of every arc.
func undirected(arcs [][2]int) [][2]int {
	out := append([][2]int(nil), arcs...)
	for _, a := range arcs {
		out = append(out, [2]int{a[1], a[0]})
	}
	return out
}

// doubled repeats every arc as a parallel edge.
func doubled(arcs [][2]int) [][2]int { return append(append([][2]int(nil), arcs...), arcs...) }

// shifted renumbers arcs by adding by to both endpoints.
func shifted(arcs [][2]int, by int) [][2]int {
	out := make([][2]int, len(arcs))
	for i, a := range arcs {
		out[i] = [2]int{a[0] + by, a[1] + by}
	}
	return out
}

func joined(parts ...[][2]int) [][2]int {
	var out [][2]int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// wlBlind lists non-isomorphic pairs with equal 3-round WL colours:
// node count and the two arc lists.
var wlBlind = []struct {
	name   string
	n      int
	a1, a2 [][2]int
}{
	{"C6 vs 2xC3", 6, undirected(cycle(0, 6)), undirected(joined(cycle(0, 3), cycle(3, 3)))},
	{"directed C6 vs 2 directed C3", 6, cycle(0, 6), joined(cycle(0, 3), cycle(3, 3))},
	// The same arcs, a 4-cycle and two 2-cycles; only which of them
	// carry a parallel same-label edge differs.
	{"parallel-edge multiplicity", 8,
		joined(doubled(cycle(0, 4)), cycle(4, 2), cycle(6, 2)),
		joined(cycle(0, 4), doubled(cycle(4, 2)), doubled(cycle(6, 2)))},
	{"self-loops vs 2-cycle", 2, [][2]int{{0, 0}, {1, 1}}, cycle(0, 2)},
}

// TestWLBlindPairs: WL refinement cannot separate these pairs, so the
// fingerprint filter passes them to the matcher, which must reject
// them exactly like the ASP oracle; permuted copies of every shape
// must be accepted with valid witnesses.
func TestWLBlindPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	engines := []struct {
		name    string
		similar func(g1, g2 *graph.Graph) (Mapping, bool)
	}{{"Similar", Similar}, {"SimilarDirect", SimilarDirect}, {"SimilarASP", SimilarASP}}
	for _, tc := range wlBlind {
		g1 := arcGraph(t, tc.n, tc.a1, nil)
		g2 := arcGraph(t, tc.n, tc.a2, nil)
		c1, c2 := graph.WLColors(g1, graph.CanonRounds), graph.WLColors(g2, graph.CanonRounds)
		if g1.Fingerprint() != g2.Fingerprint() || !sameColourHistogram(c1, c2) {
			t.Fatalf("%s: WL separates the pair; it does not test the matcher", tc.name)
		}
		for _, e := range engines {
			if _, ok := e.similar(g1, g2); ok {
				t.Errorf("%s: %s says similar", tc.name, e.name)
			}
			for _, arcs := range [][][2]int{tc.a1, tc.a2} {
				g, h := arcGraph(t, tc.n, arcs, nil), arcGraph(t, tc.n, arcs, rng.Perm)
				if m, ok := e.similar(g, h); !ok || !VerifyMapping(g, h, m) {
					t.Errorf("%s: %s rejects a permuted copy (ok=%v)", tc.name, e.name, ok)
				}
			}
		}
		// Both shapes side by side: a root mapped into the wrong kind of
		// component must be backtracked out of. The ASP oracle does not
		// finish these in test time (no colour separates the components),
		// so only the matcher paths run.
		union := joined(tc.a1, shifted(tc.a2, tc.n))
		for _, e := range engines[:2] {
			for k := 0; k < 4; k++ {
				g, h := arcGraph(t, 2*tc.n, union, nil), arcGraph(t, 2*tc.n, union, rng.Perm)
				if m, ok := e.similar(g, h); !ok || !VerifyMapping(g, h, m) {
					t.Errorf("%s union: %s rejects a permuted copy (ok=%v)", tc.name, e.name, ok)
				}
			}
		}
	}
}

func sameColourHistogram(c1, c2 map[graph.ElemID]string) bool {
	count := make(map[string]int)
	for _, c := range c1 {
		count[c]++
	}
	for _, c := range c2 {
		count[c]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestSimilarCountsParallelEdges: two hubs each send a parallel pair of
// edges to one leaf and a single edge to the other, so hubs and leaves
// each share one WL colour and every hub-leaf pair is adjacent. Only
// the edge multiplicities say which leaf goes with which hub; a matcher
// that checks adjacency alone maps the first hub's leaves crossed on
// the reordered copy and then finds no edge bijection.
func TestSimilarCountsParallelEdges(t *testing.T) {
	arcs := [][2]int{{0, 2}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {1, 3}}
	g := arcGraph(t, 4, arcs, nil)
	for _, nodeOrder := range [][]int{{0, 1, 2, 3}, {0, 1, 3, 2}, {1, 0, 2, 3}, {3, 2, 1, 0}} {
		h := arcGraph(t, 4, arcs, func(k int) []int {
			if k == len(nodeOrder) {
				return nodeOrder
			}
			return rand.New(rand.NewSource(int64(k))).Perm(k)
		})
		m, ok := Similar(g, h)
		if !ok || !VerifyMapping(g, h, m) {
			t.Errorf("node order %v: reordered copy rejected (ok=%v)", nodeOrder, ok)
		}
	}
}
