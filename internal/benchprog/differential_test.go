package benchprog_test

// Differential tests: every benchmark expressed on the declarative
// instruction set must stay observationally identical to the closure
// form it replaced. The closures are gone; their observable output is
// frozen in testdata/closure_golden.json, recorded from them before
// they were deleted. Two levels:
//
//  1. Event-stream equality — run every registered Table 2, extra and
//     failure scenario (both variants) in a fresh kernel and require
//     the sha256 of each JSON-encoded audit/libc/LSM stream to match
//     the golden. The kernel clock is simulated, so the streams are
//     deterministic, timestamps included, and stream equality implies
//     graph equality for every capture tool.
//  2. Graph-fingerprint equality — run the full four-stage pipeline on
//     every Table 2 scenario under each capture tool and require the
//     golden target/fg/bg shape fingerprints.
//
// The golden has no update flag on purpose: regenerating it from the
// scenarios would make both checks tautologies.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/oskernel"
	"provmark/internal/provmark"

	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

const goldenPath = "testdata/closure_golden.json"

// streamDigest is one event stream's length and the sha256 of its
// JSON encoding.
type streamDigest struct {
	Events int    `json:"events"`
	SHA256 string `json:"sha256"`
}

// variantDigests holds the three kernel event streams of one variant.
type variantDigests struct {
	Audit streamDigest `json:"audit"`
	Libc  streamDigest `json:"libc"`
	LSM   streamDigest `json:"lsm"`
}

// goldenProgram is one recorded closure program: its metadata, the
// stream digests per variant ("bg", "fg") and, for Table 2 programs,
// the target/fg/bg fingerprints per capture tool.
type goldenProgram struct {
	Name         string                    `json:"name"`
	Group        int                       `json:"group"`
	Desc         string                    `json:"desc"`
	Streams      map[string]variantDigests `json:"streams"`
	Fingerprints map[string][3]string      `json:"fingerprints,omitempty"`
}

var goldenTools = []string{"spade", "opus", "camflow"}

func loadGolden(t *testing.T) []goldenProgram {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var progs []goldenProgram
	if err := json.Unmarshal(data, &progs); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return progs
}

func digest(t *testing.T, events any, n int) streamDigest {
	t.Helper()
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return streamDigest{Events: n, SHA256: hex.EncodeToString(sum[:])}
}

// runDigests executes one program variant in a fresh kernel and
// digests the captured event streams.
func runDigests(t *testing.T, prog benchprog.Program, v benchprog.Variant) variantDigests {
	t.Helper()
	k := oskernel.New()
	tap := &oskernel.TapBuffer{}
	k.Register(tap)
	if err := benchprog.Run(k, prog, v); err != nil {
		t.Fatalf("%s/%s: %v", prog.Name, v, err)
	}
	return variantDigests{
		Audit: digest(t, tap.AuditEvents, len(tap.AuditEvents)),
		Libc:  digest(t, tap.LibcEvents, len(tap.LibcEvents)),
		LSM:   digest(t, tap.LSMEvents, len(tap.LSMEvents)),
	}
}

// assertStreamsMatchGolden compares a scenario's metadata and event
// streams against its golden record.
func assertStreamsMatchGolden(t *testing.T, want goldenProgram) {
	t.Helper()
	prog, ok := benchprog.ByName(want.Name)
	if !ok {
		t.Errorf("%s: in the golden but not in the scenario registry", want.Name)
		return
	}
	if prog.Group != want.Group || prog.Desc != want.Desc {
		t.Errorf("%s: metadata drift: golden (%d,%q) vs scenario (%d,%q)",
			want.Name, want.Group, want.Desc, prog.Group, prog.Desc)
	}
	for _, v := range []benchprog.Variant{benchprog.Background, benchprog.Foreground} {
		got, exp := runDigests(t, prog, v), want.Streams[v.String()]
		for _, s := range []struct {
			name      string
			got, want streamDigest
		}{{"audit", got.Audit, exp.Audit}, {"libc", got.Libc, exp.Libc}, {"LSM", got.LSM, exp.LSM}} {
			if s.got != s.want {
				t.Errorf("%s/%s: %s stream differs from the golden (golden %d events, scenario %d)",
					want.Name, v, s.name, s.want.Events, s.got.Events)
			}
		}
	}
}

// goldenNames splits the golden's program names by whether they carry
// Table 2 fingerprints.
func goldenNames(progs []goldenProgram) (table2, others []string) {
	for _, p := range progs {
		if p.Fingerprints != nil {
			table2 = append(table2, p.Name)
		} else {
			others = append(others, p.Name)
		}
	}
	return table2, others
}

// TestScenarioStreamEquivalenceTable2: every Table 2 scenario replays
// the recorded closure event streams byte for byte, and the registry
// holds exactly the golden's Table 2 programs.
func TestScenarioStreamEquivalenceTable2(t *testing.T) {
	progs := loadGolden(t)
	table2, _ := goldenNames(progs)
	registered := benchprog.Names()
	slices.Sort(table2)
	slices.Sort(registered)
	if !slices.Equal(table2, registered) {
		t.Fatalf("Table 2 registry drift:\ngolden:     %v\nregistered: %v", table2, registered)
	}
	for _, p := range progs {
		if p.Fingerprints != nil {
			assertStreamsMatchGolden(t, p)
		}
	}
}

// TestScenarioStreamEquivalenceExtras: the extra and failure scenarios
// match their recorded closure streams too.
func TestScenarioStreamEquivalenceExtras(t *testing.T) {
	progs := loadGolden(t)
	_, others := goldenNames(progs)
	registered := append(benchprog.ScenarioNames(benchprog.KindExtra), benchprog.ScenarioNames(benchprog.KindFailure)...)
	slices.Sort(others)
	slices.Sort(registered)
	if !slices.Equal(others, registered) {
		t.Fatalf("extra/failure registry drift:\ngolden:     %v\nregistered: %v", others, registered)
	}
	for _, p := range progs {
		if p.Fingerprints == nil {
			assertStreamsMatchGolden(t, p)
		}
	}
}

func fingerprints(t *testing.T, tool string, prog benchprog.Program) [3]string {
	t.Helper()
	rec, err := capture.Open(tool, capture.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := provmark.New(rec, provmark.WithTrials(2)).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatalf("%s/%s: %v", tool, prog.Name, err)
	}
	fp := func(g *graph.Graph) string {
		if g == nil {
			return "<nil>"
		}
		return graph.ShapeFingerprint(g)
	}
	return [3]string{fp(res.Target), fp(res.FG), fp(res.BG)}
}

// TestScenarioFingerprintEquivalence runs the full pipeline on every
// Table 2 scenario under every registered capture tool and requires
// the recorded closure fingerprints — the acceptance bar for the
// instruction-set rewrite.
func TestScenarioFingerprintEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline differential is not a -short test")
	}
	for _, want := range loadGolden(t) {
		if want.Fingerprints == nil {
			continue
		}
		prog, ok := benchprog.ByName(want.Name)
		if !ok {
			t.Fatalf("%s: not registered", want.Name)
		}
		for _, tool := range goldenTools {
			if got := fingerprints(t, tool, prog); got != want.Fingerprints[tool] {
				t.Errorf("%s/%s: fingerprint drift: scenario %v, golden %v", tool, want.Name, got, want.Fingerprints[tool])
			}
		}
	}
}
