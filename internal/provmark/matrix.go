package provmark

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
)

// Matrix describes a (tools × benchmarks) grid of pipeline runs — the
// unit of work behind the paper's Table 2/3 and timing experiments,
// and the execution path the CLIs and bench suite share. Its columns
// are the Tools opened from the registry followed by the Recorders
// given as instances; each column's recorder is shared by all of its
// cells. Cells fan out over a bounded worker pool and results stream
// back as they complete:
//
//	m := provmark.Matrix{
//		Tools:      []string{"spade", "opus", "camflow"},
//		Benchmarks: progs,
//		Workers:    4,
//		Pipeline:   []provmark.Option{provmark.WithTrials(2)},
//	}
//	results, err := m.Stream(ctx)
//	for r := range results { ... }
type Matrix struct {
	// Tools names registry backends, opened with Capture options.
	Tools []string
	// Capture configures the registry backends named in Tools.
	Capture capture.Options
	// Recorders lists explicit recorder instances, appended after the
	// Tools columns — for recorders with configurations the registry
	// vocabulary cannot express, or decorators around a backend.
	Recorders []capture.Recorder
	// Benchmarks are the grid rows.
	Benchmarks []benchprog.Program
	// Scenarios are additional grid rows given as declarative scenario
	// specs (registered-by-value or inline); they are validated and
	// compiled during setup and appended after Benchmarks.
	Scenarios []benchprog.Scenario
	// Workers bounds the number of cells in flight; values < 1 use
	// GOMAXPROCS. Within a cell, recording concurrency is governed
	// separately by WithParallelism in Pipeline.
	Workers int
	// Pipeline options apply to every cell's runner (WithTrials,
	// WithStageObserver, ...).
	Pipeline []Option
}

// MatrixResult is one completed cell of a matrix run.
type MatrixResult struct {
	// Index is the cell's position in row-major grid order (tool-major:
	// all benchmarks of the first tool come first).
	Index int
	// Tool and Benchmark identify the cell.
	Tool      string
	Benchmark string
	// Result is the pipeline outcome; nil when Err is set.
	Result *Result
	// Err is the cell's pipeline error, including ctx.Err() for cells
	// aborted by cancellation. Cells never started are not reported.
	Err error
}

// cells resolves the grid into its recorder columns and benchmark
// rows, compiling any declarative scenarios into programs.
func (m Matrix) cells() ([]capture.Recorder, []benchprog.Program, error) {
	recs := make([]capture.Recorder, 0, len(m.Tools)+len(m.Recorders))
	for _, name := range m.Tools {
		rec, err := capture.Open(name, m.Capture)
		if err != nil {
			return nil, nil, fmt.Errorf("provmark: matrix: %w", err)
		}
		recs = append(recs, rec)
	}
	recs = append(recs, m.Recorders...)
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("provmark: matrix: no tools")
	}
	progs := make([]benchprog.Program, 0, len(m.Benchmarks)+len(m.Scenarios))
	progs = append(progs, m.Benchmarks...)
	for _, s := range m.Scenarios {
		prog, err := s.Compile()
		if err != nil {
			return nil, nil, fmt.Errorf("provmark: matrix: %w", err)
		}
		progs = append(progs, prog)
	}
	if len(progs) == 0 {
		return nil, nil, fmt.Errorf("provmark: matrix: no benchmarks")
	}
	return recs, progs, nil
}

// Stream starts the matrix run and returns a channel of cell results
// in completion order; the channel closes when every started cell has
// reported or the context is cancelled. Setup errors (unknown tool,
// empty grid) are reported before any work starts.
func (m Matrix) Stream(ctx context.Context) (<-chan MatrixResult, error) {
	recs, progs, err := m.cells()
	if err != nil {
		return nil, err
	}
	workers := m.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(recs) * len(progs)
	if workers > total {
		workers = total
	}

	// Every cell of the run shares one classification engine; callers
	// that re-run a matrix over retained graphs reuse its verdicts. A
	// WithClassifier in m.Pipeline (applied later) wins.
	pipeline := make([]Option, 0, len(m.Pipeline)+1)
	pipeline = append(pipeline, WithClassifier(NewClassifier()))
	pipeline = append(pipeline, m.Pipeline...)

	out := make(chan MatrixResult)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rec := recs[i/len(progs)]
				prog := progs[i%len(progs)]
				res, err := New(rec, pipeline...).RunContext(ctx, prog)
				cell := MatrixResult{
					Index:     i,
					Tool:      rec.Name(),
					Benchmark: prog.Name,
					Result:    res,
					Err:       err,
				}
				select {
				case out <- cell:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(out)
	feed:
		for i := 0; i < total; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}()
	return out, nil
}

// Run executes the matrix and collects every completed cell, ordered
// by grid index. It returns ctx's error when the run was cancelled
// before all cells completed; per-cell pipeline failures stay on the
// individual MatrixResult.
func (m Matrix) Run(ctx context.Context) ([]MatrixResult, error) {
	stream, err := m.Stream(ctx)
	if err != nil {
		return nil, err
	}
	var out []MatrixResult
	for cell := range stream {
		out = append(out, cell)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
