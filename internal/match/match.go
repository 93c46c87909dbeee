// Package match implements the graph-matching operations of ProvMark's
// generalization and comparison stages. The optimizing problems are
// grounded into the asp package's program class; the yes/no
// similarity decision is not:
//
//   - Similar: property-graph similarity (Listing 3 without properties) —
//     an exact isomorphism on structure and labels, decided by a
//     colour-guided backtracking matcher;
//   - GeneralizePair: similarity plus #minimize over property mismatches;
//     the result keeps only properties whose values agree across the
//     matched pair (volatile data such as timestamps is discarded);
//   - SubgraphEmbed: approximate subgraph isomorphism (Listing 4) —
//     an injective label/endpoint-preserving embedding of the background
//     graph into the foreground graph minimizing mismatched properties;
//   - Subtract: removes the embedded background from the foreground,
//     retaining dummy nodes for pre-existing endpoints of result edges.
//
// # Fingerprint-then-confirm contract
//
// Similar consults graph.ShapeFingerprint before any search. The
// fingerprint check is a necessary-condition filter only: unequal
// fingerprints prove non-similarity, but equal fingerprints never
// certify similarity — a confirming engine always has the final word.
// Decisions go to the colour-guided matcher (SimilarDirect's engine):
// a complete backtracking search whose candidates are restricted by
// the memoized WL colours and by the adjacency of already-mapped
// neighbours, so a "not similar" verdict is exact and a discrete
// colouring is decided without backtracking. The ASP solver grounds
// only the two optimizing listings (GeneralizePair, SubgraphEmbed) and
// isomorphism enumeration. SimilarASP grounds Listing 3 for the same
// yes/no question and stays as the paper-faithful independent oracle;
// the differential harness and FuzzSimilarAgreesWithASP assert that
// every decision path agrees with it.
package match

import (
	"errors"
	"fmt"

	"provmark/internal/asp"
	"provmark/internal/graph"
)

// Mapping maps elements of G1 (nodes and edges) to elements of G2.
type Mapping map[graph.ElemID]graph.ElemID

// ErrNotSimilar is returned when no structure/label isomorphism exists.
var ErrNotSimilar = errors.New("match: graphs are not similar")

// ErrNoEmbedding is returned when the background graph cannot be
// embedded in the foreground graph. The paper assumes provenance
// recording is monotonic so this indicates a failed/garbled trial.
var ErrNoEmbedding = errors.New("match: no subgraph embedding exists")

// encoding records, for each asp group, which G1 element it stands for.
type encoding struct {
	problem *asp.Problem
	groupOf []graph.ElemID // group index -> G1 element
}

func (enc *encoding) decode(sol *asp.Solution) Mapping {
	m := make(Mapping, len(enc.groupOf))
	for gi, a := range sol.Selected {
		at := enc.problem.Atom(a)
		m[enc.groupOf[gi]] = graph.ElemID(at.Y)
	}
	return m
}

// Similar reports whether g1 and g2 are similar (same shape and labels,
// properties ignored) and returns a witnessing isomorphism. It is the
// production decision path: cheap invariants first (counts, label
// multisets, memoized shape fingerprints — necessary conditions only),
// then the colour-guided matcher. It never calls the ASP solver.
func Similar(g1, g2 *graph.Graph) (Mapping, bool) {
	if !sameShape(g1, g2) {
		return nil, false
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		return nil, false
	}
	return confirm(g1, g2)
}

// SimilarASP decides similarity purely through the ASP solver (after
// the trivially sound count/label prechecks). It never consults shape
// fingerprints, making it an independent oracle for the differential
// harness and the faithful reproduction of the paper's clingo path.
func SimilarASP(g1, g2 *graph.Graph) (Mapping, bool) {
	if !sameShape(g1, g2) {
		return nil, false
	}
	return solveIso(g1, g2)
}

// sameShape checks the trivially sound similarity preconditions:
// element counts and label multisets.
func sameShape(g1, g2 *graph.Graph) bool {
	return g1.NumNodes() == g2.NumNodes() &&
		g1.NumEdges() == g2.NumEdges() &&
		graph.SameLabelCounts(g1, g2)
}

// solveIso grounds Listing 3 and runs the ASP solver for SimilarASP.
func solveIso(g1, g2 *graph.Graph) (Mapping, bool) {
	enc, err := encodeIso(g1, g2, nil)
	if err != nil {
		return nil, false
	}
	sol, err := enc.problem.Solve()
	if err != nil {
		return nil, false
	}
	return enc.decode(sol), true
}

// GeneralizePair finds the structure isomorphism between two similar
// graphs that minimizes property disagreements, then returns a copy of
// g1 with every disagreeing property removed. This implements the
// generalization stage: the surviving properties are those invariant
// across trials.
func GeneralizePair(g1, g2 *graph.Graph) (*graph.Graph, Mapping, error) {
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() || !graph.SameLabelCounts(g1, g2) {
		return nil, nil, ErrNotSimilar
	}
	enc, err := encodeIso(g1, g2, propDiffWeight)
	if err != nil {
		return nil, nil, ErrNotSimilar
	}
	sol, err := enc.problem.SolveMin()
	if err != nil {
		return nil, nil, ErrNotSimilar
	}
	m := enc.decode(sol)
	out := g1.Clone()
	for _, n := range g1.Nodes() {
		keepCommonProps(out, n.ID, n.Props, elemProps(g2, m[n.ID]))
	}
	for _, e := range g1.Edges() {
		keepCommonProps(out, e.ID, e.Props, elemProps(g2, m[e.ID]))
	}
	return out, m, nil
}

// SubgraphEmbed finds a minimum-property-cost injective embedding of bg
// into fg (Listing 4) and returns the mapping plus its cost.
func SubgraphEmbed(bg, fg *graph.Graph) (Mapping, int, error) {
	if bg.NumNodes() > fg.NumNodes() || bg.NumEdges() > fg.NumEdges() {
		return nil, 0, ErrNoEmbedding
	}
	enc, err := encodeSubgraph(bg, fg)
	if err != nil {
		return nil, 0, ErrNoEmbedding
	}
	sol, err := enc.problem.SolveMin()
	if err != nil {
		return nil, 0, ErrNoEmbedding
	}
	return enc.decode(sol), sol.Cost, nil
}

// Subtract removes the matched image of bg from fg. The remaining nodes
// and edges form the benchmark result; any result edge whose endpoint
// was part of the background is re-attached to a dummy node (the paper's
// green/gray nodes standing for pre-existing graph parts).
func Subtract(fg *graph.Graph, m Mapping) *graph.Graph {
	matched := make(map[graph.ElemID]bool, len(m))
	for _, y := range m {
		matched[y] = true
	}
	out := graph.New()
	dummies := make(map[graph.ElemID]graph.ElemID)
	for _, n := range fg.Nodes() {
		if !matched[n.ID] {
			mustInsertNode(out, n.ID, n.Label, n.Props)
		}
	}
	dummyFor := func(id graph.ElemID) graph.ElemID {
		if d, ok := dummies[id]; ok {
			return d
		}
		orig := fg.Node(id)
		d := graph.ElemID("dummy_" + string(id))
		mustInsertNode(out, d, "dummy", graph.Properties{"stands_for": orig.Label})
		dummies[id] = d
		return d
	}
	for _, e := range fg.Edges() {
		if matched[e.ID] {
			continue
		}
		src, tgt := e.Src, e.Tgt
		if matched[src] {
			src = dummyFor(src)
		}
		if matched[tgt] {
			tgt = dummyFor(tgt)
		}
		if err := out.InsertEdge(e.ID, src, tgt, e.Label, e.Props); err != nil {
			panic("match: subtract: " + err.Error()) // ids copied from fg cannot collide
		}
	}
	return out
}

func mustInsertNode(g *graph.Graph, id graph.ElemID, label string, props graph.Properties) {
	if err := g.InsertNode(id, label, props); err != nil {
		panic("match: " + err.Error())
	}
}

// weightFunc scores a candidate pair of property dictionaries.
type weightFunc func(a, b graph.Properties) int

// propDiffWeight counts keys whose values disagree or exist on only one
// side — the generalization objective.
func propDiffWeight(a, b graph.Properties) int {
	w := 0
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			w++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			w++
		}
	}
	return w
}

// subgraphCost counts properties of the background element with no
// exactly matching property on the foreground element — Listing 4's
// cost/3 definition (missing key costs 1, differing value costs 1).
func subgraphCost(bgProps, fgProps graph.Properties) int {
	w := 0
	for k, v := range bgProps {
		if fv, ok := fgProps[k]; !ok || fv != v {
			w++
		}
	}
	return w
}

func elemProps(g *graph.Graph, id graph.ElemID) graph.Properties {
	if n := g.Node(id); n != nil {
		return n.Props
	}
	if e := g.Edge(id); e != nil {
		return e.Props
	}
	return nil
}

func keepCommonProps(out *graph.Graph, id graph.ElemID, mine, theirs graph.Properties) {
	for k, v := range mine {
		if tv, ok := theirs[k]; !ok || tv != v {
			out.DeleteProp(id, k)
		}
	}
}

// encodeIso grounds Listing 3 (full isomorphism with optional weights).
// WL-colour pruning is sound here: any label-preserving isomorphism maps
// nodes to nodes of the same refined colour.
func encodeIso(g1, g2 *graph.Graph, wf weightFunc) (*encoding, error) {
	c1 := g1.AppendCanonColors(nil)
	c2 := g2.AppendCanonColors(nil)
	return ground(g1, g2, func(i1, i2 int, n1, n2 *graph.Node) bool {
		return n1.Label == n2.Label && c1[i1] == c2[i2]
	}, wf)
}

// encodeSubgraph grounds Listing 4. WL pruning is unsound for subgraph
// embedding (the foreground has extra structure), so candidates are
// filtered only by label and per-label degree bounds: every edge label
// incident to a background node must be at least as frequent, in the
// same direction, at its foreground image.
func encodeSubgraph(bg, fg *graph.Graph) (*encoding, error) {
	need, have := degreeProfiles(bg), degreeProfiles(fg)
	return ground(bg, fg, func(_, _ int, x, y *graph.Node) bool {
		if x.Label != y.Label {
			return false
		}
		for k, v := range need[x.ID] {
			if have[y.ID][k] < v {
				return false
			}
		}
		return true
	}, subgraphCost)
}

// degreeKey names one direction of one edge label at a node.
type degreeKey struct {
	out   bool
	label string
}

// degreeProfiles counts, for every node with incident edges, its
// incident edges per label and direction.
func degreeProfiles(g *graph.Graph) map[graph.ElemID]map[degreeKey]int {
	prof := make(map[graph.ElemID]map[degreeKey]int, g.NumNodes())
	bump := func(id graph.ElemID, k degreeKey) {
		m := prof[id]
		if m == nil {
			m = make(map[degreeKey]int)
			prof[id] = m
		}
		m[k]++
	}
	for _, e := range g.Edges() {
		bump(e.Src, degreeKey{out: true, label: e.Label})
		bump(e.Tgt, degreeKey{out: false, label: e.Label})
	}
	return prof
}

// ground builds what both listings share: a group per G1 node over the
// G2 nodes nodeOK admits (passed both nodes and their insertion
// indices), a group per G1 edge over the same-label G2 edges whose
// endpoints are admitted images of its own, the endpoint implications,
// and one at-most-one set per G2 element (injectivity).
// Atoms within a group follow G2 insertion order: the solver breaks
// ties in construction order, so that order fixes which optimum is
// returned. wf == nil grounds every atom with weight zero.
func ground(g1, g2 *graph.Graph, nodeOK func(i1, i2 int, n1, n2 *graph.Node) bool, wf weightFunc) (*encoding, error) {
	p := asp.NewProblem()
	enc := &encoding{problem: p}
	nodes2, edges2 := g2.Nodes(), g2.Edges()
	weight := func(a, b graph.Properties) int {
		if wf == nil {
			return 0
		}
		return wf(a, b)
	}

	// nodeAtom maps (G1 node, G2 node), as i1*len(nodes2)+i2, to its atom.
	index1 := make(map[graph.ElemID]int, g1.NumNodes())
	index2 := make(map[graph.ElemID]int, len(nodes2))
	for i, n := range nodes2 {
		index2[n.ID] = i
	}
	nodeAtom := make(map[int]asp.AtomID)
	// image[a] is atom a's G2 element: a node index, or len(nodes2)
	// plus an edge index.
	var image []int32

	for i1, n1 := range g1.Nodes() {
		index1[n1.ID] = i1
		gi := p.AddGroup("node " + string(n1.ID))
		enc.groupOf = append(enc.groupOf, n1.ID)
		any := false
		for i2, n2 := range nodes2 {
			if !nodeOK(i1, i2, n1, n2) {
				continue
			}
			a := p.AddAtom(gi, string(n1.ID), string(n2.ID), weight(n1.Props, n2.Props))
			nodeAtom[i1*len(nodes2)+i2] = a
			image = append(image, int32(i2))
			any = true
		}
		if !any {
			return nil, fmt.Errorf("node %s has no candidates", n1.ID)
		}
	}
	src2 := make([]int, len(edges2))
	tgt2 := make([]int, len(edges2))
	for j, e2 := range edges2 {
		src2[j], tgt2[j] = index2[e2.Src], index2[e2.Tgt]
	}
	for _, e1 := range g1.Edges() {
		gi := p.AddGroup("edge " + string(e1.ID))
		enc.groupOf = append(enc.groupOf, e1.ID)
		s1, t1 := index1[e1.Src]*len(nodes2), index1[e1.Tgt]*len(nodes2)
		any := false
		for j, e2 := range edges2 {
			if e1.Label != e2.Label {
				continue
			}
			sa, okS := nodeAtom[s1+src2[j]]
			ta, okT := nodeAtom[t1+tgt2[j]]
			if !okS || !okT {
				continue
			}
			a := p.AddAtom(gi, string(e1.ID), string(e2.ID), weight(e1.Props, e2.Props))
			image = append(image, int32(len(nodes2)+j))
			p.AddImplication(a, sa)
			p.AddImplication(a, ta)
			any = true
		}
		if !any {
			return nil, fmt.Errorf("edge %s has no candidates", e1.ID)
		}
	}
	addInjectivity(p, image, len(nodes2)+len(edges2))
	return enc, nil
}

// addInjectivity adds one at-most-one set per G2 element over the atoms
// mapping onto it (the :- X<>Y, h(X,Z), h(Y,Z) rules), in G2 order. The
// atoms are bucketed by image with a counting sort, ascending by id.
func addInjectivity(p *asp.Problem, image []int32, elems int) {
	start := make([]int32, elems+1)
	for _, y := range image {
		start[y+1]++
	}
	for y := 0; y < elems; y++ {
		start[y+1] += start[y]
	}
	next := append([]int32(nil), start[:elems]...)
	byImage := make([]asp.AtomID, len(image))
	for a, y := range image {
		byImage[next[y]] = asp.AtomID(a)
		next[y]++
	}
	for y := 0; y < elems; y++ {
		p.AddAtMostOne(byImage[start[y]:start[y+1]])
	}
}
