package match

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"provmark/internal/graph"
)

// SimilarDirect decides similarity with the colour-guided matcher
// alone: after the trivially sound count/label prechecks it skips the
// fingerprint filter and goes straight to the search. It is the engine
// behind Similar, exposed unfiltered so the differential harness can
// pit it against SimilarASP.
//
// The matcher is complete: it backtracks over every candidate a
// label-preserving isomorphism could use, so "not similar" is exact.
// What keeps it cheap is candidate restriction:
//
//   - Every node keeps the memoized canonical WL colour of its graph
//     (any isomorphism preserves it), and the two colour histograms
//     must agree before any search.
//   - G1 nodes are searched breadth-first from the rarest colour class,
//     so after each component's root every node has an already-mapped
//     neighbour. Its candidates are then only the neighbours of that
//     neighbour's image over the same edge label and direction, rather
//     than its whole colour class.
//   - A candidate is accepted only when its (image, edge label,
//     direction) multiset towards already-mapped nodes equals the
//     mapped node's, in both directions; that covers self-loops and
//     parallel edges, so the node mapping at the leaf is an isomorphism
//     on edge multiplicities.
//   - Edges are assigned last, one (source, target, label) bucket at a
//     time.
//
// A discrete colouring is the case where every node has exactly one
// candidate and the search never backtracks.
func SimilarDirect(g1, g2 *graph.Graph) (Mapping, bool) {
	if !sameShape(g1, g2) {
		return nil, false
	}
	return confirm(g1, g2)
}

// confirm runs the matcher on a pair that passed the prechecks.
func confirm(g1, g2 *graph.Graph) (Mapping, bool) {
	m := matcherPool.Get().(*matcher)
	defer m.release()
	return m.match(g1, g2)
}

// An adjacency entry packs (edge label, direction, neighbour) into one
// word: the label and direction form the high key, the neighbour's
// node index the low 32 bits. Sorting a node's entries groups them by
// key, so the neighbours over one label and direction are a contiguous
// run, with parallel edges adjacent.
const (
	entryOut  = 1 // direction bit: the edge leaves the node
	nbrMask   = 1<<32 - 1
	entryKeys = 32
)

func entryKey(e uint64) uint64 { return e >> entryKeys }
func entryNbr(e uint64) int32  { return int32(e & nbrMask) }

// side is one graph flattened for the matcher: nodes and edges by
// insertion index, canonical colours, interned labels and a CSR
// adjacency holding every edge once at each endpoint.
type side struct {
	idx    map[graph.ElemID]int32
	colors []uint64
	label  []int32
	off    []int32 // node i's entries are adj[off[i]:off[i+1]]
	adj    []uint64
	src    []int32 // per edge
	tgt    []int32
	elab   []int32
}

// load flattens g, interning its labels into labels.
func (s *side) load(g *graph.Graph, nodes []*graph.Node, edges []*graph.Edge, labels map[string]int32) {
	n := len(nodes)
	s.label = grow(s.label, n)
	for i, nd := range nodes {
		s.idx[nd.ID] = int32(i)
		s.label[i] = intern(labels, nd.Label)
	}
	s.colors = g.AppendCanonColors(s.colors[:0])
	s.off = grow(s.off, n+1)
	clear(s.off)
	s.src, s.tgt, s.elab = grow(s.src, len(edges)), grow(s.tgt, len(edges)), grow(s.elab, len(edges))
	for j, e := range edges {
		s.src[j], s.tgt[j], s.elab[j] = s.idx[e.Src], s.idx[e.Tgt], intern(labels, e.Label)
		s.off[s.src[j]+1]++
		s.off[s.tgt[j]+1]++
	}
	for i := 0; i < n; i++ {
		s.off[i+1] += s.off[i]
	}
	// Fill with off[i] as node i's write cursor, then shift the
	// cursors (now each node's end) back into starts.
	s.adj = grow(s.adj, 2*len(edges))
	put := func(at, nbr int32, key uint64) {
		s.adj[s.off[at]] = key<<entryKeys | uint64(uint32(nbr))
		s.off[at]++
	}
	for j := range edges {
		key := uint64(s.elab[j]) << 1
		put(s.src[j], s.tgt[j], key|entryOut)
		put(s.tgt[j], s.src[j], key)
	}
	copy(s.off[1:], s.off[:n])
	s.off[0] = 0
	for i := 0; i < n; i++ {
		slices.Sort(s.adj[s.off[i]:s.off[i+1]])
	}
}

// entries returns node i's sorted adjacency entries.
func (s *side) entries(i int32) []uint64 { return s.adj[s.off[i]:s.off[i+1]] }

// keyRange returns the bounds, as absolute adj offsets, of node i's
// entries with the given key.
func (s *side) keyRange(i int32, key uint64) (int32, int32) {
	es := s.entries(i)
	lo := sort.Search(len(es), func(k int) bool { return entryKey(es[k]) >= key })
	hi := lo + sort.Search(len(es)-lo, func(k int) bool { return entryKey(es[lo+k]) > key })
	return s.off[i] + int32(lo), s.off[i] + int32(hi)
}

// bucket names the G2 edges one G1 edge may map onto.
type bucket struct{ src, tgt, label int32 }

// matcher is the pooled state of one SimilarDirect call.
type matcher struct {
	labels map[string]int32
	s1, s2 side
	order  []int32  // G1 nodes in search order
	pos    []int32  // G1 node -> index in order
	parent []int32  // order[i]'s earlier neighbour guiding candidates, or -1
	via    []uint64 // entry key, seen from the parent, of the guiding edge
	fwd    []int32  // G1 node -> G2 node, -1 when unmapped
	inv    []int32  // G2 node -> G1 node, -1 when unmapped
	class2 []int32  // G2 nodes sorted by colour
	sorted []uint64 // G1 colours, sorted
	cur    []int32  // per-depth candidate cursor
	end    []int32
	last   []int32 // per-depth last candidate tried
	bufA   []uint64
	bufB   []uint64
	heads  map[bucket]int32
	chain  []int32 // G2 edge -> next edge of its bucket, or -1
}

var matcherPool = sync.Pool{New: func() any {
	return &matcher{
		labels: map[string]int32{},
		s1:     side{idx: map[graph.ElemID]int32{}},
		s2:     side{idx: map[graph.ElemID]int32{}},
		heads:  map[bucket]int32{},
	}
}}

// release clears the maps, which hold the graphs' strings, and returns
// the workspace to the pool.
func (m *matcher) release() {
	clear(m.labels)
	clear(m.s1.idx)
	clear(m.s2.idx)
	clear(m.heads)
	matcherPool.Put(m)
}

func (m *matcher) match(g1, g2 *graph.Graph) (Mapping, bool) {
	nodes1, nodes2 := g1.Nodes(), g2.Nodes()
	edges1, edges2 := g1.Edges(), g2.Edges()
	m.s1.load(g1, nodes1, edges1, m.labels)
	m.s2.load(g2, nodes2, edges2, m.labels)
	if !m.sameColours(len(nodes1)) {
		return nil, false
	}
	m.plan(len(nodes1))
	if !m.search() {
		return nil, false
	}
	out := make(Mapping, len(nodes1)+len(edges1))
	for i, n := range nodes1 {
		out[n.ID] = nodes2[m.fwd[i]].ID
	}
	if !m.assignEdges(edges1, edges2, out) {
		return nil, false
	}
	return out, true
}

// sameColours indexes G2's colour classes and reports whether both
// graphs have the same colour histogram.
func (m *matcher) sameColours(n int) bool {
	c1, c2 := m.s1.colors, m.s2.colors
	m.class2 = grow(m.class2, n)
	for i := range m.class2 {
		m.class2[i] = int32(i)
	}
	slices.SortFunc(m.class2, func(a, b int32) int {
		return cmp.Or(cmp.Compare(c2[a], c2[b]), cmp.Compare(a, b))
	})
	m.sorted = append(m.sorted[:0], c1...)
	slices.Sort(m.sorted)
	for k, y := range m.class2 {
		if m.sorted[k] != c2[y] {
			return false
		}
	}
	return true
}

// classRange returns the bounds, in sorted/class2 positions, of the
// colour class of c.
func (m *matcher) classRange(c uint64) (int32, int32) {
	lo, found := slices.BinarySearch(m.sorted, c)
	if !found {
		return 0, 0
	}
	hi := lo + sort.Search(len(m.sorted)-lo, func(k int) bool { return m.sorted[lo+k] > c })
	return int32(lo), int32(hi)
}

// plan orders G1 breadth-first, each component rooted at its rarest
// colour, and picks for every non-root node the earlier neighbour whose
// edge leaves it the fewest candidates.
func (m *matcher) plan(n int) {
	s := &m.s1
	m.cur, m.last = grow(m.cur, n), grow(m.last, n) // scratch until search
	rarity, roots := m.cur, m.last
	for x := range rarity {
		lo, hi := m.classRange(s.colors[x])
		rarity[x] = hi - lo
	}
	for x := range roots {
		roots[x] = int32(x)
	}
	slices.SortStableFunc(roots, func(a, b int32) int { return int(rarity[a] - rarity[b]) })

	m.pos = grow(m.pos, n)
	for x := range m.pos {
		m.pos[x] = -1
	}
	m.order = m.order[:0]
	for _, r := range roots {
		if m.pos[r] >= 0 {
			continue
		}
		m.pos[r] = int32(len(m.order))
		m.order = append(m.order, r)
		for q := int(m.pos[r]); q < len(m.order); q++ { // order doubles as the BFS queue
			for _, e := range s.entries(m.order[q]) {
				if v := entryNbr(e); m.pos[v] < 0 {
					m.pos[v] = int32(len(m.order))
					m.order = append(m.order, v)
				}
			}
		}
	}

	m.parent, m.via = grow(m.parent, n), grow(m.via, n)
	for i, x := range m.order {
		m.parent[i] = -1
		best := int32(-1)
		for _, e := range s.entries(x) {
			v := entryNbr(e)
			if m.pos[v] >= int32(i) {
				continue
			}
			key := entryKey(e) ^ entryOut // the same edge, seen from v
			lo, hi := s.keyRange(v, key)
			if best < 0 || hi-lo < best {
				best, m.parent[i], m.via[i] = hi-lo, v, key
			}
		}
	}
}

// search runs the backtracking over m.order; on success m.fwd holds
// the node isomorphism.
func (m *matcher) search() bool {
	n := len(m.order)
	m.fwd, m.inv = grow(m.fwd, n), grow(m.inv, n)
	for i := range m.fwd {
		m.fwd[i], m.inv[i] = -1, -1
	}
	if n == 0 {
		return true
	}
	m.cur, m.end, m.last = grow(m.cur, n), grow(m.end, n), grow(m.last, n)
	m.open(0)
	for i := 0; ; {
		x := m.order[i]
		y := m.next(i, x)
		if y < 0 {
			if i == 0 {
				return false
			}
			i--
			px := m.order[i]
			m.inv[m.fwd[px]], m.fwd[px] = -1, -1
			continue
		}
		if !m.consistent(x, y) {
			continue
		}
		m.fwd[x], m.inv[y] = y, x
		if i++; i == n {
			return true
		}
		m.open(i)
	}
}

// open positions depth i's cursor on its candidate run: the guiding
// neighbour's image's entries over the guiding key, or for a component
// root its G2 colour class.
func (m *matcher) open(i int) {
	if p := m.parent[i]; p >= 0 {
		m.cur[i], m.end[i] = m.s2.keyRange(m.fwd[p], m.via[i])
	} else {
		m.cur[i], m.end[i] = m.classRange(m.s1.colors[m.order[i]])
	}
	m.last[i] = -1
}

// next returns depth i's next unused candidate of x's colour and label,
// or -1 when the run is exhausted. Parallel edges repeat a neighbour in
// adjacent entries; it is tried once.
func (m *matcher) next(i int, x int32) int32 {
	for m.cur[i] < m.end[i] {
		c := m.cur[i]
		m.cur[i]++
		var y int32
		if m.parent[i] >= 0 {
			y = entryNbr(m.s2.adj[c])
		} else {
			y = m.class2[c]
		}
		if y == m.last[i] {
			continue
		}
		m.last[i] = y
		if m.inv[y] < 0 && m.s2.colors[y] == m.s1.colors[x] && m.s2.label[y] == m.s1.label[x] {
			return y
		}
	}
	return -1
}

// consistent reports whether mapping x to y keeps the (image, label,
// direction) multiset of x's edges to mapped nodes equal to y's edges
// to their images. A self-loop counts as an edge to a mapped node on
// both sides.
func (m *matcher) consistent(x, y int32) bool {
	a := m.bufA[:0]
	for _, e := range m.s1.entries(x) {
		img := y
		if v := entryNbr(e); v != x {
			if img = m.fwd[v]; img < 0 {
				continue
			}
		}
		a = append(a, e&^nbrMask|uint64(uint32(img)))
	}
	b := m.bufB[:0]
	for _, e := range m.s2.entries(y) {
		if w := entryNbr(e); w == y || m.inv[w] >= 0 {
			b = append(b, e)
		}
	}
	m.bufA, m.bufB = a, b
	if len(a) != len(b) {
		return false
	}
	slices.Sort(a) // b is already sorted: a subsequence of y's entries
	return slices.Equal(a, b)
}

// assignEdges maps each G1 edge, in insertion order, onto the first
// unused G2 edge of its (source image, target image, label) bucket.
// The node mapping preserves edge multiplicities, so every bucket has
// exactly enough edges.
func (m *matcher) assignEdges(edges1, edges2 []*graph.Edge, out Mapping) bool {
	s1, s2 := &m.s1, &m.s2
	m.chain = grow(m.chain, len(edges2))
	for j := len(edges2) - 1; j >= 0; j-- {
		k := bucket{s2.src[j], s2.tgt[j], s2.elab[j]}
		m.chain[j] = -1
		if h, ok := m.heads[k]; ok {
			m.chain[j] = h
		}
		m.heads[k] = int32(j)
	}
	for j, e := range edges1 {
		k := bucket{m.fwd[s1.src[j]], m.fwd[s1.tgt[j]], s1.elab[j]}
		h, ok := m.heads[k]
		if !ok || h < 0 {
			return false
		}
		out[e.ID] = edges2[h].ID
		m.heads[k] = m.chain[h]
	}
	return true
}

func intern(labels map[string]int32, s string) int32 {
	id, ok := labels[s]
	if !ok {
		id = int32(len(labels))
		labels[s] = id
	}
	return id
}

// grow returns s with length n, reusing capacity.
func grow[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// VerifyMapping checks that m is a valid label/endpoint-preserving
// injective mapping from g1 into g2 covering every element of g1. Used
// by property-based tests.
func VerifyMapping(g1, g2 *graph.Graph, m Mapping) bool {
	seen := make(map[graph.ElemID]bool, len(m))
	for _, n := range g1.Nodes() {
		y, ok := m[n.ID]
		if !ok || seen[y] {
			return false
		}
		seen[y] = true
		n2 := g2.Node(y)
		if n2 == nil || n2.Label != n.Label {
			return false
		}
	}
	for _, e := range g1.Edges() {
		y, ok := m[e.ID]
		if !ok || seen[y] {
			return false
		}
		seen[y] = true
		e2 := g2.Edge(y)
		if e2 == nil || e2.Label != e.Label {
			return false
		}
		if m[e.Src] != e2.Src || m[e.Tgt] != e2.Tgt {
			return false
		}
	}
	return true
}
