package opus

import (
	"context"
	"strings"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/neo4jsim"
)

func fastConfig() Config {
	return Config{DB: neo4jsim.Options{WarmupPages: 1, ScanRoundsPerRow: 1}}
}

func record(t *testing.T, cfg Config, prog benchprog.Program, v benchprog.Variant, trial int) *graph.Graph {
	t.Helper()
	rec := New(cfg)
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

func byName(t *testing.T, name string) benchprog.Program {
	t.Helper()
	prog, ok := benchprog.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return prog
}

func TestNativeFormatIsNeo4j(t *testing.T) {
	rec := New(fastConfig())
	n, err := rec.Record(context.Background(), byName(t, "open"), benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Format() != "neo4j" {
		t.Errorf("format = %s", n.Format())
	}
	out, ok := n.(Output)
	if !ok || out.DB.NumNodes() == 0 {
		t.Error("no database produced")
	}
}

// TestProcessNodeCarriesEnvironment: the PVM process node records the
// full environment, the reason OPUS graphs are big.
func TestProcessNodeCarriesEnvironment(t *testing.T) {
	g := record(t, fastConfig(), byName(t, "open"), benchprog.Foreground, 0)
	found := false
	for _, n := range g.Nodes() {
		if n.Label == "Process" && n.Props["env:PATH"] != "" && n.Props["env:HOME"] != "" {
			found = true
		}
	}
	if !found {
		t.Error("process node lacks environment properties")
	}
}

// TestFailedCallRecordedWithRetval: the Alice use case.
func TestFailedCallRecordedWithRetval(t *testing.T) {
	g := record(t, fastConfig(), benchprog.FailedRename(), benchprog.Foreground, 0)
	found := false
	for _, n := range g.Nodes() {
		if n.Label == "SyscallEvent" && n.Props["call"] == "rename" {
			found = true
			if n.Props["retval"] != "-1" {
				t.Errorf("failed rename retval = %s", n.Props["retval"])
			}
		}
	}
	if !found {
		t.Error("failed rename not recorded")
	}
}

// TestCloneInvisible: raw clone never reaches the interposition layer.
func TestCloneInvisible(t *testing.T) {
	bg := record(t, fastConfig(), byName(t, "clone"), benchprog.Background, 0)
	fg := record(t, fastConfig(), byName(t, "clone"), benchprog.Foreground, 0)
	if bg.Size() != fg.Size() {
		t.Errorf("clone changed OPUS graph: bg=%d fg=%d", bg.Size(), fg.Size())
	}
}

// TestReadWriteSkippedByDefault but recordable via configuration.
func TestReadWriteSkippedByDefault(t *testing.T) {
	bg := record(t, fastConfig(), byName(t, "read"), benchprog.Background, 0)
	fg := record(t, fastConfig(), byName(t, "read"), benchprog.Foreground, 0)
	if bg.Size() != fg.Size() {
		t.Error("default config recorded a read")
	}
	cfg := fastConfig()
	cfg.RecordReadsWrites = true
	fgOn := record(t, cfg, byName(t, "read"), benchprog.Foreground, 0)
	if fgOn.Size() <= fg.Size() {
		t.Error("RecordReadsWrites did not record the read")
	}
}

// TestDupTwoDisconnectedNodes: the Section 4.1 observation — the event
// node and the new resource node are both connected to the process but
// not to each other.
func TestDupTwoDisconnectedNodes(t *testing.T) {
	bg := record(t, fastConfig(), byName(t, "dup"), benchprog.Background, 0)
	fg := record(t, fastConfig(), byName(t, "dup"), benchprog.Foreground, 0)
	if fg.NumNodes()-bg.NumNodes() != 2 {
		t.Fatalf("dup added %d nodes, want 2", fg.NumNodes()-bg.NumNodes())
	}
	// Identify the two new nodes by their labels.
	var evID, localID graph.ElemID
	for _, n := range fg.Nodes() {
		if n.Label == "SyscallEvent" && strings.HasPrefix(n.Props["call"], "dup") {
			evID = n.ID
		}
		if n.Label == "Local" && n.Props["fd"] != "" && bgLacksLocal(bg, n.Props["fd"]) {
			localID = n.ID
		}
	}
	if evID == "" || localID == "" {
		t.Fatal("dup nodes not found")
	}
	for _, e := range fg.Edges() {
		if (e.Src == evID && e.Tgt == localID) || (e.Src == localID && e.Tgt == evID) {
			t.Error("dup event and resource nodes are directly connected")
		}
	}
}

func bgLacksLocal(bg *graph.Graph, fd string) bool {
	for _, n := range bg.Nodes() {
		if n.Label == "Local" && n.Props["fd"] == fd {
			return false
		}
	}
	return true
}

// TestMknodatNotInterposed: mknod is wrapped, mknodat is not.
func TestMknodatNotInterposed(t *testing.T) {
	bgAt := record(t, fastConfig(), byName(t, "mknodat"), benchprog.Background, 0)
	fgAt := record(t, fastConfig(), byName(t, "mknodat"), benchprog.Foreground, 0)
	if bgAt.Size() != fgAt.Size() {
		t.Error("mknodat recorded despite missing wrapper")
	}
	bg := record(t, fastConfig(), byName(t, "mknod"), benchprog.Background, 0)
	fg := record(t, fastConfig(), byName(t, "mknod"), benchprog.Foreground, 0)
	if fg.Size() <= bg.Size() {
		t.Error("mknod not recorded")
	}
}

// TestForkIsLarge: OPUS fork graphs are large (child process node with
// environment plus fd rebinding).
func TestForkIsLarge(t *testing.T) {
	bg := record(t, fastConfig(), byName(t, "fork"), benchprog.Background, 0)
	fg := record(t, fastConfig(), byName(t, "fork"), benchprog.Foreground, 0)
	delta := fg.Size() - bg.Size()
	if delta < 4 {
		t.Errorf("fork added only %d elements; OPUS fork graphs should be large", delta)
	}
}

// TestRenameDozenNodes: Figure 1c's shape — event, names, versions.
func TestRenameAddsNameAndVersionChain(t *testing.T) {
	bg := record(t, fastConfig(), byName(t, "rename"), benchprog.Background, 0)
	fg := record(t, fastConfig(), byName(t, "rename"), benchprog.Foreground, 0)
	delta := fg.NumNodes() - bg.NumNodes()
	if delta < 5 {
		t.Errorf("rename added %d nodes, want >=5 (event, two names, two versions)", delta)
	}
	labels := map[string]int{}
	for _, n := range fg.Nodes() {
		labels[n.Label]++
	}
	if labels["Global"] < 3 || labels["Version"] < 2 {
		t.Errorf("labels = %v", labels)
	}
}

func TestRecorderMetadata(t *testing.T) {
	rec := New(fastConfig())
	if rec.Name() != "opus" || rec.DefaultTrials() != 2 || rec.FilterGraphs() {
		t.Error("metadata wrong")
	}
}
