package provmark_test

import (
	"context"
	"sync"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/match"
	"provmark/internal/provmark"
)

// TestStageObserverSeesAllStages: one pipeline run emits exactly one
// event per stage, in order, with the run's identity on each event.
func TestStageObserverSeesAllStages(t *testing.T) {
	var mu sync.Mutex
	var events []provmark.StageEvent
	prog, _ := benchprog.ByName("open")
	runner := provmark.New(fastRecorders()["camflow"],
		provmark.WithStageObserver(func(ev provmark.StageEvent) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		}),
	)
	res, err := runner.RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// The classification sub-step reports once per variant (bg, fg)
	// inside the generalization stage; its durations are part of the
	// generalization total and are excluded from the duration check.
	want := []provmark.Stage{
		provmark.StageRecording,
		provmark.StageTransformation,
		provmark.StageClassification,
		provmark.StageClassification,
		provmark.StageGeneralization,
		provmark.StageComparison,
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	var total int64
	for i, ev := range events {
		if ev.Stage != want[i] {
			t.Errorf("event %d stage = %v, want %v", i, ev.Stage, want[i])
		}
		if ev.Benchmark != "open" || ev.Tool != "camflow" {
			t.Errorf("event %d identity = %s/%s", i, ev.Tool, ev.Benchmark)
		}
		if ev.Err != nil {
			t.Errorf("event %d err = %v", i, ev.Err)
		}
		if !ev.Stage.Substage() {
			total += int64(ev.Duration)
		}
	}
	// Observer durations must account for the result's stage times.
	if total != int64(res.Times.Total()) {
		t.Errorf("observed total %d != result total %d", total, int64(res.Times.Total()))
	}
}

// TestStageObserverSeesFailure: a failing generalization reports the
// error on its stage event.
func TestStageObserverSeesFailure(t *testing.T) {
	var events []provmark.StageEvent
	// Trials=1 cannot form a consistent pair, so generalization fails.
	runner := provmark.New(fastRecorders()["spade"],
		provmark.WithTrials(1),
		provmark.WithStageObserver(func(ev provmark.StageEvent) {
			events = append(events, ev)
		}),
	)
	prog, _ := benchprog.ByName("open")
	if _, err := runner.RunContext(context.Background(), prog); err == nil {
		t.Fatal("single-trial run succeeded")
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	last := events[len(events)-1]
	if last.Stage != provmark.StageGeneralization || last.Err == nil {
		t.Errorf("last event = %+v, want failed generalization", last)
	}
}

// TestStageObserversChain: installing two observers runs both.
func TestStageObserversChain(t *testing.T) {
	var first, second int
	runner := provmark.New(fastRecorders()["spade"],
		provmark.WithStageObserver(func(provmark.StageEvent) { first++ }),
		provmark.WithStageObserver(func(provmark.StageEvent) { second++ }),
	)
	prog, _ := benchprog.ByName("creat")
	if _, err := runner.RunContext(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	// Four paper stages plus the two classification sub-step events.
	if first != 6 || second != 6 {
		t.Errorf("observer calls = %d/%d, want 6/6", first, second)
	}
}

// TestWithPairExtremes: the option reaches the pair-selection logic
// (mirrors the ablation test's use of BGPair/FGPair).
func TestWithPairExtremes(t *testing.T) {
	prog, _ := benchprog.ByName("rename")
	res, err := provmark.New(fastRecorders()["camflow"],
		provmark.WithTrials(6),
		provmark.WithPairExtremes(provmark.Largest, provmark.Largest),
	).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Error("rename empty under largest-pair selection")
	}
}

// TestBoundedParallelismMatchesSequential: a bounded worker pool yields
// the same benchmark result as sequential recording (trial index fully
// determines output). Run with -race to check pool safety.
func TestBoundedParallelismMatchesSequential(t *testing.T) {
	prog, _ := benchprog.ByName("rename")
	seq, err := provmark.New(fastRecorders()["spade"], provmark.WithTrials(6)).
		RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 6, 16} {
		par, err := provmark.New(fastRecorders()["spade"],
			provmark.WithTrials(6),
			provmark.WithParallelism(workers),
		).RunContext(context.Background(), prog)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if seq.Empty != par.Empty {
			t.Fatalf("workers=%d: empty mismatch", workers)
		}
		if !seq.Empty {
			if _, ok := match.Similar(seq.Target, par.Target); !ok {
				t.Errorf("workers=%d: target differs: %s vs %s", workers,
					graph.Summarize(seq.Target), graph.Summarize(par.Target))
			}
		}
	}
}
