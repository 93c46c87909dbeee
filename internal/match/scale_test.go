package match_test

import (
	"testing"
	"time"

	"provmark/internal/asp"
	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/match"
)

// scaleGuardCeiling bounds Similar over all the guard's pairs. The
// matcher needs milliseconds for them; a regression in candidate
// restriction turns the symmetric classes of these graphs into an
// exponential search and blows far past it.
const scaleGuardCeiling = 5 * time.Second

// TestSimilarScaleGuard decides the foreground trial pairs of
// ScaleScenario(64) and RepeatedReadsScenario(128) under every tool,
// graphs with large classes of interchangeable nodes. Every pair must
// be similar with a valid witness, without any ASP solve, within the
// ceiling. The pairs are the first two recorded trials, not a
// classifier's choice, so the matcher runs first inside the timed
// section.
func TestSimilarScaleGuard(t *testing.T) {
	var progs []benchprog.Program
	for _, sc := range []benchprog.Scenario{benchprog.ScaleScenario(64), benchprog.RepeatedReadsScenario(128)} {
		prog, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	type pair struct {
		name   string
		g1, g2 *graph.Graph
	}
	var pairs []pair
	for _, tool := range goldenTools {
		rec := openRecorder(t, tool)
		for _, prog := range progs {
			trials := recordTrials(t, rec, prog, benchprog.Foreground)
			if len(trials) < 2 {
				t.Fatalf("%s/%s: %d complete trials, want 2", tool, prog.Name, len(trials))
			}
			pairs = append(pairs, pair{tool + "/" + prog.Name, trials[0], trials[1]})
		}
	}

	solves := asp.SolveInvocations()
	start := time.Now()
	for _, p := range pairs {
		m, ok := match.Similar(p.g1, p.g2)
		if !ok {
			t.Errorf("%s: trial graphs not similar", p.name)
		} else if !match.VerifyMapping(p.g1, p.g2, m) {
			t.Errorf("%s: invalid witness", p.name)
		}
	}
	elapsed := time.Since(start)
	if d := asp.SolveInvocations() - solves; d != 0 {
		t.Errorf("Similar ran %d ASP solves, want 0", d)
	}
	if elapsed > scaleGuardCeiling {
		t.Errorf("Similar over %d scale pairs took %v, ceiling %v", len(pairs), elapsed, scaleGuardCeiling)
	}
	t.Logf("%d pairs in %v", len(pairs), elapsed)
}
