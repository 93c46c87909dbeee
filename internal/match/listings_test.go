package match

import (
	"testing"

	"provmark/internal/graph"
)

// These tests pin the correspondence between the asp.Problem encodings
// and the paper's listings on instances small enough to verify by hand.

// TestListing4CostSemantics checks the three cost/3 rules: matched
// property costs 0, differing value costs 1, missing key costs 1;
// properties present only on the foreground element are free.
func TestListing4CostSemantics(t *testing.T) {
	bg := graph.New()
	bg.AddNode("X", graph.Properties{"same": "v", "diff": "a", "missing": "m"})
	fg := graph.New()
	fg.AddNode("X", graph.Properties{"same": "v", "diff": "b", "extra": "e"})
	_, cost, err := SubgraphEmbed(bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	// diff (1) + missing (1); same costs 0 and fg-only extra is free.
	if cost != 2 {
		t.Errorf("cost = %d, want 2", cost)
	}
}

// TestListing3Bijectivity: similarity must be a bijection, so graphs
// with equal label multisets but unequal sizes per colour class fail.
func TestListing3Bijectivity(t *testing.T) {
	// g: two isolated A nodes plus A->A edge pair... simplest: sizes
	// already filtered; exercise the injectivity constraints instead.
	g := graph.New()
	a1 := g.AddNode("A", nil)
	a2 := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if _, err := g.AddEdge(a1, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a2, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	m, ok := Similar(g, h)
	if !ok {
		t.Fatal("clone not similar")
	}
	// Injectivity: the two A nodes must map to distinct targets.
	if m[a1] == m[a2] {
		t.Error("injectivity violated")
	}
}

// TestListing3EndpointPreservation: an edge may only map to an edge
// whose endpoints are the images of its own endpoints.
func TestListing3EndpointPreservation(t *testing.T) {
	g := graph.New()
	ga := g.AddNode("A", nil)
	gb := g.AddNode("B", nil)
	ge, err := g.AddEdge(ga, gb, "E", nil)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	m, ok := Similar(g, h)
	if !ok {
		t.Fatal("clone not similar")
	}
	he := h.Edge(m[ge])
	if he.Src != m[ga] || he.Tgt != m[gb] {
		t.Error("endpoint preservation violated")
	}
}

// TestGeneralizationMinimizesTotalDiffs: the generalization objective
// counts disagreements in both directions (symmetric difference).
func TestGeneralizationMinimizesTotalDiffs(t *testing.T) {
	if w := propDiffWeight(
		graph.Properties{"a": "1", "b": "2"},
		graph.Properties{"a": "1", "c": "3"},
	); w != 2 { // b missing on right, c missing on left
		t.Errorf("weight = %d, want 2", w)
	}
	if w := propDiffWeight(
		graph.Properties{"a": "1"},
		graph.Properties{"a": "2"},
	); w != 1 {
		t.Errorf("weight = %d, want 1", w)
	}
	if w := propDiffWeight(nil, nil); w != 0 {
		t.Errorf("weight = %d, want 0", w)
	}
}

// TestEncodingRendersAsASP: the ground problem renders in clingo-like
// syntax mirroring the listings' h/2 vocabulary, with each injectivity
// set as an at-most-one constraint over the atoms sharing an image.
func TestEncodingRendersAsASP(t *testing.T) {
	bg := graph.New()
	a := bg.AddNode("A", graph.Properties{"k": "v"})
	b := bg.AddNode("B", nil)
	if _, err := bg.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	// Two isolated A nodes (n3, n4) may map onto any A node, so three
	// atoms compete for n1 and two for n3.
	bg.AddNode("A", nil)
	bg.AddNode("A", nil)
	fg := bg.Clone()
	enc, err := encodeSubgraph(bg, fg)
	if err != nil {
		t.Fatal(err)
	}
	out := enc.problem.Render()
	for _, want := range []string{
		"{ h(n1,n1) } = 1",
		":- h(e1,e1), not h(n1,n1).",
		":- 2 { h(n1,n1); h(n3,n1); h(n4,n1) }.",
		":- h(n3,n3), h(n4,n3).",
	} {
		if !containsStr(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
