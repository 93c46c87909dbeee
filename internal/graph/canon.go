package graph

import (
	"fmt"
	"sync/atomic"
)

// CanonRounds is the refinement depth used by the canonical fingerprint
// and by the matching engines' colour pruning. The memoized canonCache
// stores colours at exactly this depth.
const CanonRounds = 3

// fingerprintComputes counts actual (cache-missing) fingerprint
// computations process-wide; see FingerprintComputations.
var fingerprintComputes atomic.Uint64

// FingerprintComputations reports how many times a shape fingerprint
// has actually been computed (cache misses only) since process start.
// Instrumented tests and benchmarks diff this counter to prove each
// trial graph is fingerprinted at most once per pipeline run.
func FingerprintComputations() uint64 { return fingerprintComputes.Load() }

// ShapeFingerprint returns a hash that is invariant under renaming of
// node and edge identifiers and under property values, but sensitive to
// labels and to the multiset of (srcLabel, edgeLabel, tgtLabel) triples
// refined by iterated neighbourhood colouring (a Weisfeiler–Leman style
// refinement). Two graphs with different fingerprints are guaranteed not
// to be similar in the sense of Section 3.4; equal fingerprints are a
// fast necessary condition checked before running the full solver.
//
// The result is memoized on the graph and recomputed only after a
// structural mutation, so repeated classification passes fingerprint
// each graph exactly once.
func ShapeFingerprint(g *Graph) string { return g.Fingerprint() }

// Fingerprint is ShapeFingerprint as a method; it serves the memoized
// value when the graph is structurally unchanged. It is safe for
// concurrent use provided no goroutine mutates the graph concurrently.
func (g *Graph) Fingerprint() string {
	g.canon.mu.Lock()
	defer g.canon.mu.Unlock()
	g.ensureCanonLocked()
	return g.canon.fp
}

// ensureCanonLocked fills the canonical cache; callers hold canon.mu.
// The refinement runs on the pooled integer engine (wl.go); only the
// fingerprint string and a copy of the colour slab outlive the
// workspace, so a (cache-missing) fingerprint computation costs a
// handful of allocations, and a cache hit costs none.
func (g *Graph) ensureCanonLocked() {
	if g.canon.valid {
		return
	}
	ws := wlGet()
	colors := wlRefine(g, CanonRounds, ws)
	g.canon.fp = wlFingerprint(g, colors, ws)
	g.canon.colors64 = append(g.canon.colors64[:0], colors...)
	g.canon.colors = nil
	g.canon.valid = true
	wlPut(ws)
	fingerprintComputes.Add(1)
}

// renderColors exposes integer colours under the exported string API:
// 16 hex digits per colour, fixed width so colour strings sort like
// the integers they render.
func renderColors(g *Graph, colors []uint64) map[ElemID]string {
	out := make(map[ElemID]string, len(g.nodeIDs))
	for i, id := range g.nodeIDs {
		var b [16]byte
		c := colors[i]
		for j := 15; j >= 0; j-- {
			b[j] = "0123456789abcdef"[c&0xf]
			c >>= 4
		}
		out[id] = string(b[:])
	}
	return out
}

// WLColors exposes the refinement used by ShapeFingerprint as strings:
// nodes mapped to each other by any label-preserving isomorphism
// necessarily share a WL colour (matching engines read the integer
// form through AppendCanonColors). At the canonical depth the colours
// come from the graph's memoized cache (rendered to strings on first
// request); the returned map is a copy the caller may retain.
func WLColors(g *Graph, rounds int) map[ElemID]string {
	if rounds != CanonRounds {
		ws := wlGet()
		colors := wlRefine(g, rounds, ws)
		out := renderColors(g, colors)
		wlPut(ws)
		return out
	}
	g.canon.mu.Lock()
	g.ensureCanonLocked()
	if g.canon.colors == nil {
		g.canon.colors = renderColors(g, g.canon.colors64)
	}
	cached := g.canon.colors
	g.canon.mu.Unlock()
	out := make(map[ElemID]string, len(cached))
	for k, v := range cached {
		out[k] = v
	}
	return out
}

// AppendCanonColors appends the memoized canonical-depth WL colours to
// dst, indexed by node insertion order (the order of Nodes), and
// returns the extended slice. It is WLColors without the string
// rendering: matching engines that only compare colours for equality
// read the integer slab directly.
func (g *Graph) AppendCanonColors(dst []uint64) []uint64 {
	g.canon.mu.Lock()
	defer g.canon.mu.Unlock()
	g.ensureCanonLocked()
	return append(dst, g.canon.colors64...)
}

// LabelCounts returns the multiset of node and edge labels, a cheap
// invariant used to discard non-similar trial pairs before solving.
func LabelCounts(g *Graph) map[string]int {
	out := make(map[string]int)
	for _, n := range g.Nodes() {
		out["n:"+n.Label]++
	}
	for _, e := range g.Edges() {
		out["e:"+e.Label]++
	}
	return out
}

// SameLabelCounts reports whether two graphs have identical label multisets.
func SameLabelCounts(a, b *Graph) bool {
	ca, cb := LabelCounts(a), LabelCounts(b)
	if len(ca) != len(cb) {
		return false
	}
	for k, v := range ca {
		if cb[k] != v {
			return false
		}
	}
	return true
}

// Equal reports whether two graphs are identical including identifiers,
// labels, endpoints and all properties. This is stricter than
// isomorphism and is what the regression store uses after normalizing
// identifiers via the Datalog round trip.
func Equal(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, n := range a.Nodes() {
		m := b.Node(n.ID)
		if m == nil || m.Label != n.Label || !propsEqual(n.Props, m.Props) {
			return false
		}
	}
	for _, e := range a.Edges() {
		f := b.Edge(e.ID)
		if f == nil || f.Label != e.Label || f.Src != e.Src || f.Tgt != e.Tgt || !propsEqual(e.Props, f.Props) {
			return false
		}
	}
	return true
}

func propsEqual(a, b Properties) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Stats summarizes a graph for table rendering.
type Stats struct {
	Nodes int
	Edges int
	Props int
}

// Summarize computes element and property counts.
func Summarize(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for _, n := range g.Nodes() {
		s.Props += len(n.Props)
	}
	for _, e := range g.Edges() {
		s.Props += len(e.Props)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%dn/%de/%dp", s.Nodes, s.Edges, s.Props)
}
