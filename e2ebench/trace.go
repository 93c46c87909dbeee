package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// span is one timed call into a layer, recorded around the call from
// the benchmark's own files. Spans of one op share its Op number.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Start is nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// Calls is how many calls the span stands for when a layer only
	// reports an aggregate (the wire StageTimes of a job cell).
	Calls int `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	ops   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp numbers a new op.
func (t *tracer) nextOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

func (t *tracer) add(op int64, name, parent string, start time.Time, d time.Duration) {
	t.addCalls(op, name, parent, start, d, 1)
}

func (t *tracer) addCalls(op int64, name, parent string, start time.Time, d time.Duration, calls int) {
	if t == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent, Start: int64(start.Sub(t.epoch)), Dur: int64(d)}
	if calls != 1 {
		s.Calls = calls
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// total sums the duration and the calls of every span with the name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	calls := 0
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d += time.Duration(s.Dur)
		if s.Calls == 0 {
			calls++
		} else {
			calls += s.Calls
		}
	}
	return d, calls
}

// mean is the mean duration per call of the named spans, in the given
// unit; 0 when there are none.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	d, calls := t.total(name)
	if calls == 0 {
		return 0
	}
	return float64(d) / float64(calls) / float64(unit)
}

// write stores every span as one JSON line under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// tracedRecorder times one cell's Record and Transform calls. It hands
// the wrapped legacy recorder out through Unwrap, so capture.AsComplete
// still finds CamFlow's graph filter and the traced pipeline filters
// exactly like the untraced one.
type tracedRecorder struct {
	capture.RecorderContext
	legacy                capture.Recorder
	tr                    *tracer
	op                    int64
	recordName, transName string
}

func newTracedRecorder(rec capture.Recorder, tr *tracer, op int64) *tracedRecorder {
	return &tracedRecorder{
		RecorderContext: capture.WithContext(rec),
		legacy:          rec,
		tr:              tr,
		op:              op,
		recordName:      "capture.record." + rec.Name(),
		transName:       "capture.transform." + rec.Name(),
	}
}

func (r *tracedRecorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	start := time.Now()
	n, err := r.RecorderContext.Record(ctx, prog, v, trial)
	r.tr.add(r.op, r.recordName, "stage.recording", start, time.Since(start))
	return n, err
}

func (r *tracedRecorder) Transform(n capture.Native) (*graph.Graph, error) {
	start := time.Now()
	g, err := r.RecorderContext.Transform(n)
	r.tr.add(r.op, r.transName, "stage.transformation", start, time.Since(start))
	return g, err
}

// Unwrap exposes the wrapped recorder to optional-interface probes.
func (r *tracedRecorder) Unwrap() capture.Recorder { return r.legacy }

var (
	_ capture.RecorderContext                = (*tracedRecorder)(nil)
	_ interface{ Unwrap() capture.Recorder } = (*tracedRecorder)(nil)
)

// stageObserver records the pipeline's stage events of one op as
// spans named stage.<stage>.
func stageObserver(tr *tracer, op int64) provmark.Option {
	return provmark.WithStageObserver(func(ev provmark.StageEvent) {
		parent := "cell"
		if ev.Stage.Substage() {
			parent = "stage.generalization"
		}
		tr.add(op, "stage."+ev.Stage.String(), parent, time.Now().Add(-ev.Duration), ev.Duration)
	})
}
