package spade

import (
	"context"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/match"
	"provmark/internal/neo4jsim"
)

func fastNeo4jConfig() Config {
	return DefaultConfig().WithNeo4jStorage(neo4jsim.Options{WarmupPages: 1, ScanRoundsPerRow: 1})
}

func TestNeo4jStorageFormat(t *testing.T) {
	rec := New(fastNeo4jConfig())
	prog, _ := benchprog.ByName("open")
	n, err := rec.Record(context.Background(), prog, benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Format() != "neo4j" {
		t.Errorf("format = %s", n.Format())
	}
	out, ok := n.(Output)
	if !ok || out.DB == nil || out.DOT != "" {
		t.Error("neo4j backend should produce a database and no DOT text")
	}
}

// TestBackendsAgreeOnStructure: the same trial through spg and spn must
// yield similar graphs — storage choice cannot change semantics.
func TestBackendsAgreeOnStructure(t *testing.T) {
	for _, benchName := range []string{"open", "rename", "execve", "fork"} {
		prog, _ := benchprog.ByName(benchName)
		dotRec := New(DefaultConfig())
		dbRec := New(fastNeo4jConfig())
		nDot, err := dotRec.Record(context.Background(), prog, benchprog.Foreground, 0)
		if err != nil {
			t.Fatal(err)
		}
		gDot, err := dotRec.Transform(nDot)
		if err != nil {
			t.Fatal(err)
		}
		nDB, err := dbRec.Record(context.Background(), prog, benchprog.Foreground, 0)
		if err != nil {
			t.Fatal(err)
		}
		gDB, err := dbRec.Transform(nDB)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := match.Similar(gDot, gDB); !ok {
			t.Errorf("%s: spg and spn graphs differ structurally (%d vs %d elements)",
				benchName, gDot.Size(), gDB.Size())
		}
	}
}

func TestTransformRejectsForeignNative(t *testing.T) {
	rec := New(DefaultConfig())
	if _, err := rec.Transform(fakeNative{}); err == nil {
		t.Error("foreign native type accepted")
	}
}

type fakeNative struct{}

func (fakeNative) Format() string { return "fake" }
