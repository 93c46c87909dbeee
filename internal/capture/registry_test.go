package capture_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/capture/camflow"
	"provmark/internal/graph"
	"provmark/internal/provmark"

	// The cancellation test opens every built-in backend.
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

// stubNative is a minimal Native for registry tests.
type stubNative struct{}

func (stubNative) Format() string { return "stub" }

// stubRecorder is a minimal Recorder.
type stubRecorder struct {
	name   string
	filter bool
}

func (r *stubRecorder) Name() string       { return r.name }
func (r *stubRecorder) DefaultTrials() int { return 2 }
func (r *stubRecorder) FilterGraphs() bool { return r.filter }
func (r *stubRecorder) Record(ctx context.Context, prog benchprog.Program, v benchprog.Variant, trial int) (capture.Native, error) {
	return stubNative{}, nil
}
func (r *stubRecorder) Transform(n capture.Native) (*graph.Graph, error) {
	return graph.New(), nil
}

// backendName returns a registry name no earlier run registered: the
// registry is process-global, and go test -count=N reruns tests in one
// process.
func backendName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, backendSeq.Add(1))
}

var backendSeq atomic.Int64

func TestRegisterAndOpen(t *testing.T) {
	name := backendName("test-stub")
	err := capture.Register(name, func(opts capture.Options) (capture.Recorder, error) {
		return &stubRecorder{name: name, filter: opts.Bool("filtergraphs", false)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := capture.Open(name, capture.Options{
		Params: map[string]string{"filtergraphs": "true"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name() != name || !rec.FilterGraphs() {
		t.Errorf("opened %q filter=%v, want %s with filtering", rec.Name(), rec.FilterGraphs(), name)
	}
	found := false
	for _, b := range capture.Backends() {
		if b == name {
			found = true
		}
	}
	if !found {
		t.Errorf("Backends() = %v, missing %s", capture.Backends(), name)
	}
}

func TestRegisterErrors(t *testing.T) {
	factory := func(capture.Options) (capture.Recorder, error) {
		return &stubRecorder{name: "dup"}, nil
	}
	dup := backendName("test-dup")
	if err := capture.Register(dup, factory); err != nil {
		t.Fatal(err)
	}
	if err := capture.Register(dup, factory); err == nil {
		t.Error("double register accepted")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Errorf("double register error = %v", err)
	}
	if err := capture.Register("", factory); err == nil {
		t.Error("empty name accepted")
	}
	if err := capture.Register("test-nil", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	factory := func(capture.Options) (capture.Recorder, error) {
		return &stubRecorder{name: "must"}, nil
	}
	name := backendName("test-must")
	capture.MustRegister(name, factory)
	defer func() {
		if recover() == nil {
			t.Error("MustRegister did not panic on duplicate")
		}
	}()
	capture.MustRegister(name, factory)
}

func TestOpenUnknownBackend(t *testing.T) {
	_, err := capture.Open("test-no-such-backend", capture.Options{})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	if !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("error = %v", err)
	}
}

func TestOpenFactoryError(t *testing.T) {
	name := backendName("test-broken")
	capture.MustRegister(name, func(capture.Options) (capture.Recorder, error) {
		return nil, fmt.Errorf("bad wiring")
	})
	_, err := capture.Open(name, capture.Options{})
	if err == nil || !strings.Contains(err.Error(), "bad wiring") {
		t.Errorf("factory error not surfaced: %v", err)
	}
}

func TestOptionsHelpers(t *testing.T) {
	opts := capture.Options{Params: map[string]string{
		"flag": "true", "count": "7", "junk": "zzz",
	}}
	if !opts.Bool("flag", false) {
		t.Error("Bool(flag) = false")
	}
	if opts.Bool("junk", false) || !opts.Bool("junk", true) {
		t.Error("malformed bool should fall back to default")
	}
	if opts.Int("count", 0) != 7 {
		t.Errorf("Int(count) = %d", opts.Int("count", 0))
	}
	if opts.Int("junk", 3) != 3 || opts.Int("absent", 5) != 5 {
		t.Error("malformed/absent int should fall back to default")
	}
	if v, ok := opts.Param("flag"); !ok || v != "true" {
		t.Errorf("Param(flag) = %q, %v", v, ok)
	}
}

// TestBackendsHonorCancelledContext: every built-in backend, opened
// through the registry, refuses to start a trial under a context that
// is already done, and reports the context's error.
func TestBackendsHonorCancelledContext(t *testing.T) {
	prog, ok := benchprog.ByName("open")
	if !ok {
		t.Fatal("open benchmark missing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []string{"spade", "spn", "opus", "camflow"} {
		t.Run(backend, func(t *testing.T) {
			rec, err := capture.Open(backend, capture.Options{Fast: true})
			if err != nil {
				t.Fatal(err)
			}
			n, err := rec.Record(ctx, prog, benchprog.Foreground, 0)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Record under a cancelled context = (%v, %v), want context.Canceled", n, err)
			}
		})
	}
}

// unwrapper decorates a recorder without forwarding its optional
// interfaces, the way a timing or tracing wrapper does; it exposes the
// wrapped recorder through Unwrap.
type unwrapper struct {
	capture.Recorder
}

func (u unwrapper) Unwrap() capture.Recorder { return u.Recorder }

func TestAsCompleteSeesThroughAdapter(t *testing.T) {
	// The stub recorder does not implement Complete.
	if _, ok := capture.AsComplete(unwrapper{&stubRecorder{name: "x"}}); ok {
		t.Error("AsComplete invented a Complete implementation")
	}
	// CamFlow does; decorators must not hide it, however deep.
	cfg := camflow.DefaultConfig()
	cfg.JitterPeriod = 0
	cfg.CorruptPeriod = 1 // every trial loses its machine agent
	cam := camflow.New(cfg)
	wrapped := unwrapper{unwrapper{cam}}
	if _, ok := wrapped.Recorder.(capture.Complete); ok {
		t.Fatal("the decorator forwards CompleteGraph itself; the test needs one that does not")
	}
	if c, ok := capture.AsComplete(wrapped); !ok || c != capture.Complete(cam) {
		t.Fatalf("AsComplete(wrapped) = %v, %v; want the camflow recorder", c, ok)
	}

	// The pipeline finds the filter the same way: with every trial
	// incomplete, filtering leaves no consistent pair. Had the wrapper
	// hidden the filter, the identical corrupt trials would benchmark.
	prog, _ := benchprog.ByName("open")
	_, err := provmark.New(wrapped, provmark.WithTrials(3)).RunContext(context.Background(), prog)
	if !errors.Is(err, provmark.ErrInconsistentTrials) {
		t.Errorf("pipeline through the wrapper: err = %v, want ErrInconsistentTrials from graph filtering", err)
	}
}
