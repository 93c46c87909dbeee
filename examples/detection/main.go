// Detection reproduces the paper's "Dora" use case (Section 3.1):
// using ProvMark to obtain the exact provenance-graph pattern a target
// activity produces, then using that pattern to detect the activity in
// recorded provenance. The target is a privilege-escalation step
// (setuid 0) inside a larger program.
//
// The workflow is:
//
//  1. benchmark the privilege-escalation program under CamFlow, with
//     the escalation marked as the target activity;
//
//  2. inspect the benchmark graph to learn the structure CamFlow
//     records for the escalation;
//
//  3. express that structure as a Datalog detection rule;
//
//  4. run the rule over a full (un-differenced) provenance recording
//     and flag the escalation.
//
//     go run ./examples/detection
package main

import (
	"context"
	"fmt"
	"os"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/datalog"
	"provmark/internal/provmark"

	// Register the CamFlow backend with the capture registry.
	_ "provmark/internal/capture/camflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "detection:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	rec, err := capture.Open("camflow", capture.Options{})
	if err != nil {
		return err
	}
	prog := benchprog.PrivilegeEscalation()

	// Step 1-2: benchmark the escalation to learn its graph pattern.
	res, err := provmark.New(rec).RunContext(ctx, prog)
	if err != nil {
		return err
	}
	if res.Empty {
		return fmt.Errorf("escalation not recorded: %s", res.Reason)
	}
	fmt.Printf("benchmark graph for the escalation step (%d nodes, %d edges):\n",
		res.Target.NumNodes(), res.Target.NumEdges())
	fmt.Println(res.Target)

	// Step 3: the benchmark shows CamFlow records a credential change
	// as a fresh task activity version carrying a cf:setid property,
	// informed by the previous version. Express that as a rule. The
	// rule also checks the new uid is 0 — the escalation proper.
	rules, err := datalog.ParseRules(`
% escalation(New): a task version whose credential change set uid 0.
escalation(New) :- node(New, "activity"), prop(New, "cf:setid", "uid=0"), prop(New, "cf:uid", "0").
% chain(New, Old): the version edge connecting the escalation to its past.
chain(New, Old) :- escalation(New), edge(_, New, Old, "wasInformedBy").
`)
	if err != nil {
		return err
	}

	// Step 4: record the whole program (no differencing) and scan it.
	native, err := rec.Record(ctx, prog, benchprog.Foreground, 0)
	if err != nil {
		return err
	}
	full, err := rec.Transform(native)
	if err != nil {
		return err
	}
	db := datalog.NewDatabase()
	db.LoadGraph(full)
	if err := db.Run(rules); err != nil {
		return err
	}
	hits := db.Query(datalog.Atom{Pred: "escalation", Terms: []datalog.Term{datalog.V("N")}})
	fmt.Printf("full recording has %d nodes; detection rule matched %d escalation(s)\n",
		full.NumNodes(), len(hits))
	for _, h := range hits {
		fmt.Printf("  escalated task version: %s\n", h["N"])
		for _, c := range db.Query(datalog.Atom{
			Pred:  "chain",
			Terms: []datalog.Term{datalog.C(h["N"]), datalog.V("Old")},
		}) {
			fmt.Printf("  previous task version:  %s\n", c["Old"])
		}
	}
	if len(hits) == 0 {
		return fmt.Errorf("detection rule failed to match")
	}

	// Control: a benign run (background variant, no escalation) must
	// not trigger the rule.
	benignNative, err := rec.Record(ctx, prog, benchprog.Background, 0)
	if err != nil {
		return err
	}
	benign, err := rec.Transform(benignNative)
	if err != nil {
		return err
	}
	db2 := datalog.NewDatabase()
	db2.LoadGraph(benign)
	if err := db2.Run(rules); err != nil {
		return err
	}
	benignHits := db2.Query(datalog.Atom{Pred: "escalation", Terms: []datalog.Term{datalog.V("N")}})
	fmt.Printf("benign run: detection rule matched %d escalation(s)\n", len(benignHits))
	if len(benignHits) != 0 {
		return fmt.Errorf("false positive on benign run")
	}
	return nil
}
