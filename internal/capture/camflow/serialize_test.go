package camflow

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"provmark/internal/benchprog"
	"provmark/internal/provmark"
)

// TestSerializeOnceBreaksRepeatTrials documents why the 0.4.5
// re-serialization workaround exists (Section 3.2): under the old
// serialize-once policy, each later trial is missing the structures an
// earlier session already emitted, so no two trials agree and the
// pipeline cannot generalize.
func TestSerializeOnceBreaksRepeatTrials(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterPeriod = 0
	cfg.SerializeOnce = true
	rec := New(cfg)
	prog, _ := benchprog.ByName("open")
	n0, err := rec.Record(context.Background(), prog, benchprog.Foreground, 0)
	if err != nil {
		t.Fatal(err)
	}
	g0, err := rec.Transform(n0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := rec.Record(context.Background(), prog, benchprog.Foreground, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := rec.Transform(n1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Size() >= g0.Size() {
		t.Errorf("second trial (%d elements) not smaller than first (%d): serialize-once not modelled",
			g1.Size(), g0.Size())
	}

	// The full pipeline fails with the honest error.
	rec2 := New(cfg)
	_, err = provmark.New(rec2, provmark.WithTrials(3)).RunContext(context.Background(), prog)
	if !errors.Is(err, provmark.ErrInconsistentTrials) {
		t.Errorf("want ErrInconsistentTrials under serialize-once, got %v", err)
	}
}

// TestReserializationWorkaroundRestoresRepeatability: the 0.4.5
// default (SerializeOnce off) yields consistent trials.
func TestReserializationWorkaroundRestoresRepeatability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterPeriod = 0
	prog, _ := benchprog.ByName("open")
	res, err := provmark.New(New(cfg), provmark.WithTrials(2)).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty {
		t.Errorf("open empty: %s", res.Reason)
	}
}

// TestSerializeOnceConcurrentRecord: one serialize-once recorder shared
// by concurrent Record calls, as pool workers share a job's recorder
// across cells. Under -race an unguarded serialized map trips the
// detector (or the runtime's concurrent map write check). Every node
// signature is emitted exactly once whatever the interleaving, so the
// concurrent run emits as many nodes in total as a sequential one.
func TestSerializeOnceConcurrentRecord(t *testing.T) {
	const workers, perWorker = 4, 20
	cfg := DefaultConfig()
	cfg.SerializeOnce = true
	prog, _ := benchprog.ByName("open")
	emitted := func(rec *Recorder, trial int) int {
		n, err := rec.Record(context.Background(), prog, benchprog.Foreground, trial)
		if err != nil {
			t.Error(err)
			return 0
		}
		g, err := rec.Transform(n)
		if err != nil {
			t.Error(err)
			return 0
		}
		return len(g.Nodes())
	}

	seq := New(cfg)
	want := 0
	for trial := 0; trial < workers*perWorker; trial++ {
		want += emitted(seq, trial)
	}

	shared := New(cfg)
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				total.Add(int64(emitted(shared, w*perWorker+i)))
			}
		}(w)
	}
	wg.Wait()
	if got := int(total.Load()); got != want {
		t.Errorf("concurrent records emitted %d nodes, sequential %d", got, want)
	}
}
