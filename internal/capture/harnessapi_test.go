package capture_test

import (
	"context"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/graph"
	"provmark/internal/provmark"
)

// The e2ebench harness is a module of its own: `go build ./...` never
// lists it, and it stays frozen while it holds the benchmark baseline.
// These compile-only declarations pin the exact signatures it uses, so
// the main module's own build and tests catch a break in them.
// RecorderContext, WithContext and NewContext exist only for the
// harness; they forward to Recorder and New and go once it moves off
// them.
var (
	_ func(capture.Recorder) capture.RecorderContext                     = capture.WithContext
	_ func(any) (capture.Complete, bool)                                 = capture.AsComplete
	_ func(string, capture.Options) (capture.Recorder, error)            = capture.Open
	_ func(capture.RecorderContext, ...provmark.Option) *provmark.Runner = provmark.NewContext
	_ func(capture.Recorder, ...provmark.Option) *provmark.Runner        = provmark.New

	_ func(*provmark.Runner, context.Context, benchprog.Program) (*provmark.Result, error) = (*provmark.Runner).RunContext

	_ capture.RecorderContext                = (*harnessDecorator)(nil)
	_ interface{ Unwrap() capture.Recorder } = (*harnessDecorator)(nil)
)

// harnessDecorator has the shape of the harness's timing decorator: it
// embeds a capture.RecorderContext, overrides Record and Transform, and
// hands the plain recorder out through Unwrap.
type harnessDecorator struct {
	capture.RecorderContext
	inner capture.Recorder
}

func (d *harnessDecorator) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	return d.RecorderContext.Record(ctx, prog, v, trial)
}

func (d *harnessDecorator) Transform(n capture.Native) (*graph.Graph, error) {
	return d.RecorderContext.Transform(n)
}

func (d *harnessDecorator) Unwrap() capture.Recorder { return d.inner }
