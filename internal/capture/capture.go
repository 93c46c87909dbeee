// Package capture defines the recorder abstraction ProvMark drives: a
// provenance capture tool that can record one run of a benchmark
// program into its native output format, plus a transformation from
// that native format into the common property-graph model. The three
// tools the paper studies live in the spade, opus and camflow
// subpackages.
//
// Recorder is the single recorder interface. Its Record method takes a
// context.Context, so cancellation and deadlines reach the recording
// stage. The built-in backends run each trial through RunTrial, which
// checks the context once before the trial starts; a recorder that
// selects on the context can also stop a trial already in flight.
package capture

import (
	"context"
	"fmt"

	"provmark/internal/benchprog"
	"provmark/internal/graph"
	"provmark/internal/oskernel"
)

// Native is a tool-specific recording artifact (DOT text, a Neo4j-sim
// database, PROV-JSON bytes). The transformation stage converts it to
// the common format.
type Native interface {
	// Format names the concrete serialization, e.g. "dot", "neo4j",
	// "prov-json".
	Format() string
}

// Recorder is one provenance capture tool under benchmark.
type Recorder interface {
	// Name identifies the tool ("spade", "opus", "camflow").
	Name() string
	// DefaultTrials is how many runs per variant the recording stage
	// performs by default; tools with run-to-run variation need more.
	DefaultTrials() int
	// FilterGraphs reports whether obviously incomplete trial graphs
	// should be dropped before similarity grouping (the config.ini
	// filtergraphs flag; default true only for CamFlow).
	FilterGraphs() bool
	// Record executes one trial of the given benchmark variant in a
	// fresh kernel and returns the tool's native output. trial seeds
	// the tool's volatile data (timestamps, identifiers). It returns
	// ctx.Err() when the context is done before the trial starts.
	Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (Native, error)
	// Transform converts a native recording to the common model.
	Transform(n Native) (*graph.Graph, error)
}

// RunTrial is the recording prologue the built-in backends share: it
// runs variant v of prog in a fresh simulated kernel with a tap
// attached and returns the captured event streams. It returns
// ctx.Err() unwrapped, without running anything, when ctx is already
// done; a trial that has started runs to completion. tool prefixes a
// benchmark failure.
func RunTrial(ctx context.Context, tool string, prog benchprog.Program, v benchprog.Variant) (*oskernel.TapBuffer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := oskernel.New()
	tap := &oskernel.TapBuffer{}
	k.Register(tap)
	if err := benchprog.Run(k, prog, v); err != nil {
		return nil, fmt.Errorf("%s: record %s/%s: %w", tool, prog.Name, v, err)
	}
	k.Unregister(tap)
	return tap, nil
}

// Complete is an optional interface a Recorder implements when it can
// judge whether a trial graph is obviously incomplete (used by the
// graph-filtering mechanism).
type Complete interface {
	CompleteGraph(g *graph.Graph) bool
}

// AsComplete reports whether a recorder, or a recorder it wraps (one
// or more decorators exposing Unwrap() Recorder), implements the
// Complete optional interface, and returns that view.
func AsComplete(rec any) (Complete, bool) {
	for rec != nil {
		if c, ok := rec.(Complete); ok {
			return c, true
		}
		u, ok := rec.(interface{ Unwrap() Recorder })
		if !ok {
			return nil, false
		}
		rec = u.Unwrap()
	}
	return nil, false
}
