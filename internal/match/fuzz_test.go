package match

import (
	"strconv"
	"testing"

	"provmark/internal/graph"
)

// fuzzBytes reads a fuzz input one byte at a time; past the end it
// reads zeros, so every input decodes.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (r *fuzzBytes) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

// perm decodes a permutation of 0..n-1 (Fisher–Yates driven by input
// bytes).
func (r *fuzzBytes) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.next() % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

const (
	fuzzMaxNodes = 8
	fuzzMaxEdges = 16
)

var fuzzLabels = [2]string{"A", "B"}

// fuzzGraph decodes a graph: a node count (1..8), a label byte per
// node, an edge count (0..16) and (source, target, label) bytes per
// edge. Self-loops and parallel edges arise freely.
func fuzzGraph(r *fuzzBytes, prefix string) *graph.Graph {
	g := graph.New()
	n := 1 + r.next()%fuzzMaxNodes
	ids := make([]graph.ElemID, n)
	for i := range ids {
		ids[i] = graph.ElemID(prefix + "n" + strconv.Itoa(i))
		if err := g.InsertNode(ids[i], fuzzLabels[r.next()%2], nil); err != nil {
			panic(err)
		}
	}
	m := r.next() % (fuzzMaxEdges + 1)
	for j := 0; j < m; j++ {
		src, tgt := ids[r.next()%n], ids[r.next()%n]
		if err := g.InsertEdge(graph.ElemID(prefix+"e"+strconv.Itoa(j)), src, tgt, fuzzLabels[r.next()%2], nil); err != nil {
			panic(err)
		}
	}
	return g
}

// fuzzCopy returns g with fresh identifiers and nodes and edges
// inserted in decoded permuted orders: an isomorphic copy.
func fuzzCopy(r *fuzzBytes, g *graph.Graph) *graph.Graph {
	out := graph.New()
	nodes, edges := g.Nodes(), g.Edges()
	rename := make(map[graph.ElemID]graph.ElemID, len(nodes))
	for i, pi := range r.perm(len(nodes)) {
		n := nodes[pi]
		rename[n.ID] = graph.ElemID("cn" + strconv.Itoa(i))
		if err := out.InsertNode(rename[n.ID], n.Label, nil); err != nil {
			panic(err)
		}
	}
	for i, pi := range r.perm(len(edges)) {
		e := edges[pi]
		if err := out.InsertEdge(graph.ElemID("ce"+strconv.Itoa(i)), rename[e.Src], rename[e.Tgt], e.Label, nil); err != nil {
			panic(err)
		}
	}
	return out
}

// FuzzSimilarAgreesWithASP checks the colour-guided matcher against the
// ASP oracle on small graphs. The first byte picks how the second graph
// is made: decoded independently (mode 0), as a permuted copy of the
// first (mode 1, which must be similar), or as a permuted copy with one
// edge re-targeted (mode 2). Similar, SimilarDirect and SimilarASP must
// agree, and every witness must verify.
func FuzzSimilarAgreesWithASP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{data: data}
		mode := r.next() % 3
		g1 := fuzzGraph(r, "a")
		var g2 *graph.Graph
		switch mode {
		case 0:
			g2 = fuzzGraph(r, "b")
		default:
			g2 = fuzzCopy(r, g1)
			if mode == 2 && g2.NumEdges() > 0 {
				e := g2.Edges()[r.next()%g2.NumEdges()]
				tgt := g2.Nodes()[r.next()%g2.NumNodes()].ID
				g2.RemoveEdge(e.ID)
				if err := g2.InsertEdge(e.ID, e.Src, tgt, e.Label, nil); err != nil {
					t.Fatal(err)
				}
			}
		}

		want, aspOK := SimilarASP(g1, g2)
		if aspOK && !VerifyMapping(g1, g2, want) {
			t.Fatalf("SimilarASP witness invalid")
		}
		if mode == 1 && !aspOK {
			t.Fatalf("SimilarASP rejects a permuted copy")
		}
		for name, similar := range map[string]func(g1, g2 *graph.Graph) (Mapping, bool){
			"Similar": Similar, "SimilarDirect": SimilarDirect,
		} {
			m, ok := similar(g1, g2)
			if ok != aspOK {
				t.Fatalf("%s says %v, SimilarASP says %v\nG1:\n%s\nG2:\n%s", name, ok, aspOK, g1, g2)
			}
			if ok && !VerifyMapping(g1, g2, m) {
				t.Fatalf("%s witness invalid", name)
			}
		}
	})
}
