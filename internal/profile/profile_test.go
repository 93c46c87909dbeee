package profile

import (
	"context"
	"strings"
	"testing"

	"provmark/internal/benchprog"

	// Register the backends profile.Build resolves by name.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

func TestDefaultProfiles(t *testing.T) {
	cfg := Default()
	names := cfg.Names()
	want := []string{"cam", "opu", "spc", "spg", "spn"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", names, want)
	}
	cam, ok := cfg.Profile("cam")
	if !ok || !cam.FilterGraphs {
		t.Error("cam profile should enable graph filtering")
	}
	spg, _ := cfg.Profile("spg")
	if spg.FilterGraphs || spg.Stage2Handler != "dot" {
		t.Errorf("spg profile = %+v", spg)
	}
}

func TestBuildAllDefaultProfiles(t *testing.T) {
	cfg := Default()
	wantName := map[string]string{"spg": "spade", "spn": "spade", "spc": "spade", "opu": "opus", "cam": "camflow"}
	for _, name := range cfg.Names() {
		rec, err := cfg.Build(name)
		if err != nil {
			t.Errorf("build %s: %v", name, err)
			continue
		}
		if rec.Name() != wantName[name] {
			t.Errorf("%s built %s", name, rec.Name())
		}
	}
}

func TestBuiltRecorderRecords(t *testing.T) {
	cfg, err := ParseString(`
[fastspn]
stage1tool = spade
stage2handler = neo4j
warmup_pages = 1
scan_rounds = 1
`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cfg.Build("fastspn")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := benchprog.ByName("open")
	n, err := rec.Record(context.Background(), prog, benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Format() != "neo4j" {
		t.Errorf("format = %s", n.Format())
	}
	if _, err := rec.Transform(n); err != nil {
		t.Fatal(err)
	}
}

func TestCustomOptions(t *testing.T) {
	cfg, err := ParseString(`
# comment
; another comment
[tuned]
stage1tool = camflow
stage2handler = prov-json
filtergraphs = true
record_denied = true
`)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cfg.Build("tuned")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FilterGraphs() {
		t.Error("filtergraphs not applied")
	}
	// record_denied makes the failed rename visible under CamFlow.
	prog := benchprog.FailedRename()
	nFG, err := rec.Record(context.Background(), prog, benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	gFG, err := rec.Transform(nFG)
	if err != nil {
		t.Fatal(err)
	}
	nBG, err := rec.Record(context.Background(), prog, benchprog.Background, 0)
	if err != nil {
		t.Fatal(err)
	}
	gBG, err := rec.Transform(nBG)
	if err != nil {
		t.Fatal(err)
	}
	if gFG.Size() <= gBG.Size() {
		t.Error("record_denied option had no effect")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"key = value\n",             // key outside section
		"[a]\nstage1tool spade\n",   // missing =
		"[]\n",                      // empty section
		"[a]\n[a]\n",                // duplicate
		"[a]\nfiltergraphs = huh\n", // bad bool
	}
	for _, input := range cases {
		if _, err := ParseString(input); err == nil {
			t.Errorf("accepted %q", input)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cfg, err := ParseString(`
[weird]
stage1tool = pass
[mismatched]
stage1tool = opus
stage2handler = dot
[badspade]
stage1tool = spade
stage2handler = prov-json
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"weird", "mismatched", "badspade", "missing"} {
		if _, err := cfg.Build(name); err == nil {
			t.Errorf("build %s succeeded", name)
		}
	}
}
