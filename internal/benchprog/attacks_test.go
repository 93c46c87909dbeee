package benchprog_test

// Attack-chain contract tests. These live in the external test package
// because they drive the chains through the capture + pipeline layers,
// which import benchprog.

import (
	"context"
	"os"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/datalog"
	"provmark/internal/oskernel"
	"provmark/internal/provmark"

	_ "provmark/internal/capture/camflow"
)

// TestAttackChainsExecute: every registered attack chain validates,
// compiles, and executes cleanly in both variants.
func TestAttackChainsExecute(t *testing.T) {
	names := benchprog.ScenarioNames(benchprog.KindAttack)
	want := []string{"attack-exfil", "attack-fork-taint", "attack-cover-tracks"}
	if len(names) != len(want) {
		t.Fatalf("registered attack chains = %v, want %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("registered attack chains = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		scn, ok := benchprog.ScenarioByName(name)
		if !ok {
			t.Fatalf("%s: not in registry", name)
		}
		prog, err := scn.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, v := range []benchprog.Variant{benchprog.Background, benchprog.Foreground} {
			if err := benchprog.Run(oskernel.New(), prog, v); err != nil {
				t.Errorf("%s: %s: %v", name, v, err)
			}
		}
	}
}

// loadDetectionRules parses examples/detection/suspicious.dl — the
// attack chains exist to be caught by exactly those rules, so the test
// reads the shipped file rather than a private copy.
func loadDetectionRules(t *testing.T) []datalog.Rule {
	t.Helper()
	src, err := os.ReadFile("../../examples/detection/suspicious.dl")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := datalog.ParseRules(string(src))
	if err != nil {
		t.Fatalf("suspicious.dl: %v", err)
	}
	return rules
}

// TestSuspiciousRulesFlagAttackChains: benchmark each chain under
// CamFlow and evaluate the shipped detection rules over the derived
// target graph. The escalated task version must be flagged suspicious
// in every chain; only the chain that never drops privileges may be
// unmitigated.
func TestSuspiciousRulesFlagAttackChains(t *testing.T) {
	rules := loadDetectionRules(t)
	rec, err := capture.Open("camflow", capture.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := provmark.New(rec)

	cases := []struct {
		name        string
		unmitigated bool
	}{
		{"attack-exfil", true},
		{"attack-fork-taint", true},
		{"attack-cover-tracks", false}, // ends with setuid 1000: dropped(P) holds
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scn, ok := benchprog.ScenarioByName(tc.name)
			if !ok {
				t.Fatalf("%s not registered", tc.name)
			}
			res, err := runner.RunScenario(context.Background(), scn)
			if err != nil {
				t.Fatal(err)
			}
			if res.Empty {
				t.Fatalf("chain not recorded: %s", res.Reason)
			}
			db := datalog.NewDatabase()
			db.LoadGraph(res.Target)
			if err := db.Run(rules); err != nil {
				t.Fatal(err)
			}
			sus := db.Query(datalog.Atom{Pred: "suspicious", Terms: []datalog.Term{datalog.V("P")}})
			if len(sus) == 0 {
				t.Fatalf("suspicious(P) matched nothing in the %s target graph (%d nodes, %d edges)",
					tc.name, res.Target.NumNodes(), res.Target.NumEdges())
			}
			tainted := db.Query(datalog.Atom{Pred: "tainted", Terms: []datalog.Term{datalog.V("X")}})
			if len(tainted) == 0 {
				t.Errorf("tainted(X) matched nothing — escalation flagged but taint did not propagate")
			}
			unmit := db.Query(datalog.Atom{Pred: "unmitigated", Terms: []datalog.Term{datalog.V("P")}})
			if tc.unmitigated && len(unmit) == 0 {
				t.Errorf("unmitigated(P) empty, but %s never drops privileges", tc.name)
			}
			if !tc.unmitigated && len(unmit) != 0 {
				t.Errorf("unmitigated(P) matched %d — the privilege drop should mitigate via stratified negation", len(unmit))
			}
		})
	}
}
