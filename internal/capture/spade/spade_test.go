package spade

import (
	"context"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
)

func record(t *testing.T, cfg Config, benchName string, v benchprog.Variant, trial int) *graph.Graph {
	t.Helper()
	rec := New(cfg)
	prog, ok := benchprog.ByName(benchName)
	if !ok {
		t.Fatalf("unknown benchmark %s", benchName)
	}
	n, err := rec.Record(context.Background(), prog, v, trial)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rec.Transform(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func recordProg(t *testing.T, cfg Config, prog benchprog.Program, v benchprog.Variant) *graph.Graph {
	t.Helper()
	rec := New(cfg)
	n, err := rec.Record(context.Background(), prog, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rec.Transform(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNativeFormatIsDOT(t *testing.T) {
	rec := New(DefaultConfig())
	prog, _ := benchprog.ByName("open")
	n, err := rec.Record(context.Background(), prog, benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Format() != "dot" {
		t.Errorf("format = %s", n.Format())
	}
	out, ok := n.(Output)
	if !ok || !strings.HasPrefix(out.DOT, "digraph") {
		t.Error("native output is not a DOT digraph")
	}
}

// TestFailedCallsInvisible: SPADE's default audit rules only report
// successful calls (the Alice use case).
func TestFailedCallsInvisible(t *testing.T) {
	fg := recordProg(t, DefaultConfig(), benchprog.FailedRename(), benchprog.Foreground)
	for _, e := range fg.Edges() {
		if e.Props["operation"] == "rename" {
			t.Error("failed rename produced graph structure")
		}
	}
}

// TestDupStateChangeOnly: dup is tracked as fd state, not graphed.
func TestDupStateChangeOnly(t *testing.T) {
	bg := record(t, DefaultConfig(), "dup", benchprog.Background, 0)
	fg := record(t, DefaultConfig(), "dup", benchprog.Foreground, 0)
	if bg.Size() != fg.Size() {
		t.Errorf("dup changed graph size: bg=%d fg=%d", bg.Size(), fg.Size())
	}
}

// TestVforkChildDisconnected: the DV observation.
func TestVforkChildDisconnected(t *testing.T) {
	fg := record(t, DefaultConfig(), "vfork", benchprog.Foreground, 0)
	// Find the child process vertex (ppid = bench pid) and check no
	// WasTriggeredBy edge leaves it.
	var childID graph.ElemID
	for _, n := range fg.Nodes() {
		if n.Label == "Process" && n.Props["ppid"] == "2" && n.Props["pid"] == "3" {
			childID = n.ID
		}
	}
	if childID == "" {
		t.Fatal("vfork child vertex missing")
	}
	if len(fg.OutEdges(childID))+len(fg.InEdges(childID)) != 0 {
		t.Error("vfork child vertex is connected; expected DV")
	}
}

// TestSimplifyOffRecordsSetres: disabling simplify monitors setresgid
// explicitly even when nothing changes.
func TestSimplifyOffRecordsSetres(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Simplify = false
	cfg.BugRandomEdgeProperty = false
	bg := record(t, cfg, "setresgid", benchprog.Background, 0)
	fg := record(t, cfg, "setresgid", benchprog.Foreground, 0)
	if fg.Size() <= bg.Size() {
		t.Error("simplify=off did not record the no-op setresgid")
	}
	// With simplify on it stays invisible.
	on := DefaultConfig()
	bgOn := record(t, on, "setresgid", benchprog.Background, 0)
	fgOn := record(t, on, "setresgid", benchprog.Foreground, 0)
	if fgOn.Size() != bgOn.Size() {
		t.Error("simplify=on recorded a credential no-op")
	}
}

// TestSimplifyBugAddsDisconnectedEdge: the Bob bug.
func TestSimplifyBugAddsDisconnectedEdge(t *testing.T) {
	buggy := DefaultConfig()
	buggy.Simplify = false
	buggy.BugRandomEdgeProperty = true
	fixed := buggy
	fixed.BugRandomEdgeProperty = false
	gBuggy := record(t, buggy, "setresuid", benchprog.Foreground, 0)
	gFixed := record(t, fixed, "setresuid", benchprog.Foreground, 0)
	if gBuggy.Size() != gFixed.Size()+3 { // 2 spurious nodes + 1 edge
		t.Errorf("bug structure delta = %d, want 3", gBuggy.Size()-gFixed.Size())
	}
	// The spurious property must be volatile across trials.
	g2 := record(t, buggy, "setresuid", benchprog.Foreground, 1)
	flags := collectProps(gBuggy, "flags")
	flags2 := collectProps(g2, "flags")
	if len(flags) != 1 || len(flags2) != 1 {
		t.Fatalf("expected one buggy flags prop per run, got %d/%d", len(flags), len(flags2))
	}
	if flags[0] == flags2[0] {
		t.Error("buggy flags value not random across trials")
	}
}

func collectProps(g *graph.Graph, key string) []string {
	var out []string
	for _, e := range g.Edges() {
		if v, ok := e.Props[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// TestIORunsFilter: buggy filter is a no-op; fixed filter coalesces.
func TestIORunsFilter(t *testing.T) {
	prog := benchprog.RepeatedReads(6)
	countReads := func(g *graph.Graph) (edges int, counted string) {
		for _, e := range g.Edges() {
			if e.Props["operation"] == "read" {
				edges++
				if c, ok := e.Props["count"]; ok {
					counted = c
				}
			}
		}
		return edges, counted
	}

	off := DefaultConfig()
	gOff := recordProg(t, off, prog, benchprog.Foreground)
	nOff, _ := countReads(gOff)
	if nOff != 6 {
		t.Fatalf("without filter: %d read edges, want 6", nOff)
	}

	buggy := DefaultConfig()
	buggy.IORuns = true
	gBuggy := recordProg(t, buggy, prog, benchprog.Foreground)
	nBuggy, _ := countReads(gBuggy)
	if nBuggy != 6 {
		t.Errorf("buggy filter coalesced (%d edges); the bug should make it a no-op", nBuggy)
	}

	fixed := buggy
	fixed.BugIORunsPropertyName = false
	gFixed := recordProg(t, fixed, prog, benchprog.Foreground)
	nFixed, count := countReads(gFixed)
	if nFixed != 1 || count != "6" {
		t.Errorf("fixed filter: %d edges count=%q, want 1 edge with count=6", nFixed, count)
	}
}

// TestVersioningCreatesArtifactVersions: with versioning, each write
// yields a fresh artifact vertex.
func TestVersioningCreatesArtifactVersions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Versioning = true
	g := record(t, cfg, "write", benchprog.Foreground, 0)
	versions := map[string]bool{}
	for _, n := range g.Nodes() {
		if n.Label == "Artifact" && n.Props["path"] == "/stage/test.txt" {
			versions[n.Props["version"]] = true
		}
	}
	if len(versions) < 2 {
		t.Errorf("versioning produced %d versions of the written file, want >=2", len(versions))
	}
}

// TestVolatilePropsDifferAcrossTrials while structure is stable.
func TestVolatilePropsDifferAcrossTrials(t *testing.T) {
	g1 := record(t, DefaultConfig(), "open", benchprog.Foreground, 0)
	g2 := record(t, DefaultConfig(), "open", benchprog.Foreground, 1)
	if graph.ShapeFingerprint(g1) != graph.ShapeFingerprint(g2) {
		t.Fatal("structure differs across trials")
	}
	if graph.Equal(g1, g2) {
		t.Error("trials identical including volatile properties")
	}
}

func TestRecorderMetadata(t *testing.T) {
	rec := New(DefaultConfig())
	if rec.Name() != "spade" || rec.DefaultTrials() != 2 || rec.FilterGraphs() {
		t.Error("metadata wrong")
	}
}
