package match_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"provmark/internal/asp"
	"provmark/internal/benchprog"
	"provmark/internal/capture"
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
	"provmark/internal/graph"
	"provmark/internal/match"
	"provmark/internal/provmark"
)

// The solver-output golden pins what the ASP kernel returns on the
// problems the pipeline really grounds: for every tool, each Table 2
// program and four scale scenarios, the GeneralizePair mapping of the
// selected background and foreground trial pairs, the SubgraphEmbed
// mapping and cost of the generalized pair, and the SimilarASP mapping
// of each trial pair. The optimizing problems mostly have one optimum;
// the similarity problems leave the solver genuine symmetric choices,
// so their first model pins the search order itself. Each mapping is
// stored as a sha256 over its sorted "x y" pairs. A drift is a change
// in which model the solver returns, not a stale golden, so the test
// has no update flag.

const solveGoldenPath = "testdata/solve_golden.json"

var goldenTools = []string{"spade", "opus", "camflow"}

// goldenScales are the ScaleScenario sizes covered besides Table 2.
var goldenScales = []int{8, 16, 24, 31}

// solveRecord is one (tool, program) cell's solver outputs. A field
// holds "error" when the corresponding call failed.
type solveRecord struct {
	SimilarBG    string `json:"similar_bg"`
	SimilarFG    string `json:"similar_fg"`
	GeneralizeBG string `json:"generalize_bg"`
	GeneralizeFG string `json:"generalize_fg"`
	Embed        string `json:"embed"`
	EmbedCost    int    `json:"embed_cost"`
}

// goldenPrograms lists the Table 2 programs followed by the scale
// scenarios.
func goldenPrograms(t testing.TB) []benchprog.Program {
	t.Helper()
	progs := benchprog.All()
	for _, n := range goldenScales {
		prog, err := benchprog.ScaleScenario(n).Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// trialPair records a variant's default trials with the fast-capture
// recorder, applies the recorder's graph filter and returns the pair
// the pipeline's generalization stage would unify.
func trialPair(t testing.TB, rec capture.Recorder, prog benchprog.Program, v benchprog.Variant) (*graph.Graph, *graph.Graph) {
	t.Helper()
	c, filter := capture.AsComplete(rec)
	filter = filter && rec.FilterGraphs()
	var trials []*graph.Graph
	for i := 0; i < rec.DefaultTrials(); i++ {
		n, err := rec.Record(prog, v, i)
		if err != nil {
			t.Fatalf("%s/%s: record: %v", rec.Name(), prog.Name, err)
		}
		g, err := rec.Transform(n)
		if err != nil {
			t.Fatalf("%s/%s: transform: %v", rec.Name(), prog.Name, err)
		}
		if !filter || c.CompleteGraph(g) {
			trials = append(trials, g)
		}
	}
	g1, g2, err := provmark.SelectPair(trials)
	if err != nil {
		t.Fatalf("%s/%s: %v", rec.Name(), prog.Name, err)
	}
	return g1, g2
}

func openRecorder(t testing.TB, tool string) capture.Recorder {
	t.Helper()
	rec, err := capture.Open(tool, capture.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// mappingDigest hashes a mapping's pairs in sorted order.
func mappingDigest(m match.Mapping) string {
	pairs := make([]string, 0, len(m))
	for x, y := range m {
		pairs = append(pairs, string(x)+" "+string(y)+"\n")
	}
	sort.Strings(pairs)
	sum := sha256.Sum256([]byte(strings.Join(pairs, "")))
	return hex.EncodeToString(sum[:])
}

// solveCell computes one cell's record.
func solveCell(t testing.TB, rec capture.Recorder, prog benchprog.Program) solveRecord {
	t.Helper()
	var r solveRecord
	generalize := func(v benchprog.Variant, similar, generalized *string) *graph.Graph {
		g1, g2 := trialPair(t, rec, prog, v)
		*similar = "error"
		if m, ok := match.SimilarASP(g1, g2); ok {
			*similar = mappingDigest(m)
		}
		gen, m, err := match.GeneralizePair(g1, g2)
		if err != nil {
			*generalized = "error"
			return nil
		}
		*generalized = mappingDigest(m)
		return gen
	}
	bg := generalize(benchprog.Background, &r.SimilarBG, &r.GeneralizeBG)
	fg := generalize(benchprog.Foreground, &r.SimilarFG, &r.GeneralizeFG)
	r.Embed = "error"
	if bg != nil && fg != nil {
		if m, cost, err := match.SubgraphEmbed(bg, fg); err == nil {
			r.Embed, r.EmbedCost = mappingDigest(m), cost
		}
	}
	return r
}

// TestSolveGolden re-solves every cell and compares each record with
// the checked-in golden.
func TestSolveGolden(t *testing.T) {
	data, err := os.ReadFile(solveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]solveRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	progs := goldenPrograms(t)
	if n := len(goldenTools) * len(progs); len(want) != n {
		t.Errorf("golden has %d cells, want %d", len(want), n)
	}
	for _, tool := range goldenTools {
		rec := openRecorder(t, tool)
		for _, prog := range progs {
			key := tool + "/" + prog.Name
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: missing from golden", key)
				continue
			}
			if got := solveCell(t, rec, prog); got != w {
				t.Errorf("%s: solver output %+v, golden %+v", key, got, w)
			}
		}
	}
}

// BenchmarkGeneralizeScale generalizes the scale31 background and
// foreground trial pairs of every tool: the largest problems the
// service's scale workload grounds. solves/op counts ASP searches.
func BenchmarkGeneralizeScale(b *testing.B) {
	prog, err := benchprog.ScaleScenario(31).Compile()
	if err != nil {
		b.Fatal(err)
	}
	var pairs [][2]*graph.Graph
	for _, tool := range goldenTools {
		rec := openRecorder(b, tool)
		for _, v := range []benchprog.Variant{benchprog.Background, benchprog.Foreground} {
			g1, g2 := trialPair(b, rec, prog, v)
			pairs = append(pairs, [2]*graph.Graph{g1, g2})
		}
	}
	b.ReportAllocs()
	solves := asp.SolveInvocations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if _, _, err := match.GeneralizePair(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(asp.SolveInvocations()-solves)/float64(b.N), "solves/op")
}
