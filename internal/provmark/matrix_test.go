package provmark_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

func testPrograms(t *testing.T, names ...string) []benchprog.Program {
	t.Helper()
	out := make([]benchprog.Program, 0, len(names))
	for _, name := range names {
		prog, ok := benchprog.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		out = append(out, prog)
	}
	return out
}

// TestMatrixGrid: a (2 tools × 3 benchmarks) matrix run over a bounded
// pool yields one result per cell, addressable by grid index. Run with
// -race to check the worker pool and observer plumbing.
func TestMatrixGrid(t *testing.T) {
	recs := fastRecorders()
	m := provmark.Matrix{
		Recorders:  []capture.Recorder{recs["spade"], recs["opus"]},
		Benchmarks: testPrograms(t, "creat", "open", "rename"),
		Workers:    2,
	}
	cells, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	wantTool := []string{"spade", "spade", "spade", "opus", "opus", "opus"}
	wantBench := []string{"creat", "open", "rename", "creat", "open", "rename"}
	for i, cell := range cells {
		if cell.Index != i {
			t.Errorf("cell %d has index %d", i, cell.Index)
		}
		if cell.Tool != wantTool[i] || cell.Benchmark != wantBench[i] {
			t.Errorf("cell %d = %s/%s, want %s/%s", i, cell.Tool, cell.Benchmark, wantTool[i], wantBench[i])
		}
		if cell.Err != nil {
			t.Errorf("cell %s/%s: %v", cell.Tool, cell.Benchmark, cell.Err)
		} else if cell.Result == nil {
			t.Errorf("cell %s/%s has no result", cell.Tool, cell.Benchmark)
		}
	}
}

// TestMatrixRegistryTools: tools resolve through the capture registry,
// and unknown names fail before any work starts.
func TestMatrixRegistryTools(t *testing.T) {
	m := provmark.Matrix{
		Tools:      []string{"spade", "camflow"},
		Capture:    capture.Options{Fast: true},
		Benchmarks: testPrograms(t, "open"),
		Workers:    2,
	}
	cells, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, cell := range cells {
		if cell.Err != nil {
			t.Errorf("%s/%s: %v", cell.Tool, cell.Benchmark, cell.Err)
		}
	}

	bad := provmark.Matrix{Tools: []string{"no-such-tool"}, Benchmarks: testPrograms(t, "open")}
	if _, err := bad.Stream(context.Background()); err == nil {
		t.Error("unknown tool accepted")
	}
	empty := provmark.Matrix{Tools: []string{"spade"}}
	if _, err := empty.Stream(context.Background()); err == nil {
		t.Error("empty benchmark list accepted")
	}
}

// TestMatrixStreamYieldsIncrementally: results arrive on the stream as
// cells complete — the fast column's cell is delivered while the gated
// column is still blocked mid-recording.
func TestMatrixStreamYieldsIncrementally(t *testing.T) {
	gated := &gatedRecorder{gate: make(chan struct{})}
	m := provmark.Matrix{
		Recorders:  []capture.Recorder{fastRecorders()["spade"], gated},
		Benchmarks: testPrograms(t, "creat"),
		Workers:    2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := m.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case cell, ok := <-stream:
		if !ok || cell.Err != nil || cell.Tool != "spade" {
			t.Fatalf("first streamed cell = %+v (ok=%v), want a spade result", cell, ok)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no streamed result within 30s while gated cell blocks")
	}
	cancel() // releases the gated cell via ctx
	for range stream {
	}
}

// gatedRecorder blocks Record until its gate closes or ctx is done —
// the instrument for cancellation tests.
type gatedRecorder struct {
	gate    chan struct{}
	started atomic.Int32
}

func (r *gatedRecorder) Name() string       { return "gated" }
func (r *gatedRecorder) DefaultTrials() int { return 2 }
func (r *gatedRecorder) FilterGraphs() bool { return false }
func (r *gatedRecorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	r.started.Add(1)
	select {
	case <-r.gate:
		return gatedNative{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (r *gatedRecorder) Transform(n capture.Native) (*graph.Graph, error) {
	return graph.New(), nil
}

type gatedNative struct{}

func (gatedNative) Format() string { return "gated" }

// TestMatrixCancellationAbortsPromptly: cancelling the context mid-
// recording ends a matrix run well before the recorder would have
// finished on its own (the gate never opens).
func TestMatrixCancellationAbortsPromptly(t *testing.T) {
	rec := &gatedRecorder{gate: make(chan struct{})}
	m := provmark.Matrix{
		Recorders:  []capture.Recorder{fastRecorders()["spade"], rec},
		Benchmarks: testPrograms(t, "creat", "open", "rename", "write"),
		Workers:    2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := m.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for range stream {
		}
		close(done)
	}()
	// Wait until at least one gated recording is in flight, then cancel.
	for rec.started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("matrix stream did not close promptly after cancellation")
	}
}

// TestRunContextCancellationMidRecording: with a recorder that selects
// on its context, cancellation interrupts a trial that is already blocked
// inside Record, and the pipeline returns context.Canceled.
func TestRunContextCancellationMidRecording(t *testing.T) {
	rec := &gatedRecorder{gate: make(chan struct{})}
	runner := provmark.New(rec, provmark.WithTrials(3), provmark.WithParallelism(2))
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	start := time.Now()
	go func() {
		defer wg.Done()
		_, runErr = runner.RunContext(ctx, benchprog.Program{Name: "gated-bench"})
	}()
	for rec.started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", runErr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
