package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/capture"
	"provmark/internal/provmark"
)

// suiteLoad is the Table 2 experiment: every round is one pass over
// the 132 (tool, benchmark) cells with fast capture and default
// trials, run on a pool of nproc workers in a seeded order, with a
// fresh classifier per pass.
type suiteLoad struct {
	rng     *rand.Rand
	workers int
	gold    *golden
	cells   []suiteCell
}

type suiteCell struct {
	tool string
	rec  capture.Recorder
	prog benchprog.Program
}

func newSuiteLoad(seed int64, gold *golden) *suiteLoad {
	return &suiteLoad{rng: rand.New(rand.NewSource(seed)), workers: runtime.NumCPU(), gold: gold}
}

// suiteCells opens the fast-capture recorders and compiles the Table 2
// programs, tool-major in Table 2 order.
func suiteCells() ([]suiteCell, error) {
	var cells []suiteCell
	for _, tool := range tools {
		rec, err := capture.Open(tool, capture.Options{Fast: true})
		if err != nil {
			return nil, err
		}
		for _, prog := range benchprog.All() {
			cells = append(cells, suiteCell{tool: tool, rec: rec, prog: prog})
		}
	}
	return cells, nil
}

func (s *suiteLoad) setup(context.Context) error {
	cells, err := suiteCells()
	s.cells = cells
	return err
}

func (s *suiteLoad) close() {}

func (s *suiteLoad) round(ctx context.Context, m *meter, tr *tracer) (*roundResult, error) {
	order := s.rng.Perm(len(s.cells))
	cls := provmark.NewClassifier()
	results := make([]*provmark.Result, len(s.cells))
	errs := make([]error, len(s.cells))
	lat := make([]float64, len(s.cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	m.start()
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				c := order[i]
				start := time.Now()
				results[c], errs[c] = s.runCell(ctx, s.cells[c], cls, tr)
				lat[i] = millis(time.Since(start))
			}
		}()
	}
	wg.Wait()
	m.stop()

	st := cls.Stats()
	rr := &roundResult{lat: lat, counts: map[string]int64{
		"provmark.classify_graphs":     int64(st.Graphs),
		"provmark.classify_confirms":   int64(st.Confirms),
		"provmark.classify_cache_hits": int64(st.CacheHits),
	}}
	for i, c := range s.cells {
		key := cellName(c.tool, c.prog.Name)
		if errs[i] != nil {
			rr.failed++
			rr.problem("%s: %v", key, errs[i])
			continue
		}
		if err := checkDigest(s.gold.Suite, key, provmark.ToWire(results[i])); err != nil {
			rr.wrong++
			rr.problem("%v", err)
		}
	}
	return rr, nil
}

// runCell is one op: a pipeline run of one cell. Traced, the recorder
// is wrapped in the timing decorator and the stage events are kept.
func (s *suiteLoad) runCell(ctx context.Context, c suiteCell, cls *provmark.Classifier, tr *tracer) (*provmark.Result, error) {
	if tr == nil {
		return provmark.New(c.rec, provmark.WithClassifier(cls)).RunContext(ctx, c.prog)
	}
	op := tr.nextOp()
	start := time.Now()
	res, err := provmark.NewContext(newTracedRecorder(c.rec, tr, op),
		provmark.WithClassifier(cls), stageObserver(tr, op)).RunContext(ctx, c.prog)
	tr.add(op, "cell", "", start, time.Since(start))
	return res, err
}

func (s *suiteLoad) layers(_ context.Context, tr *tracer, rounds int) (map[string]float64, error) {
	// The decorator must not hide an optional interface: CamFlow's
	// graph filter is found through it exactly as without it.
	for _, c := range s.cells {
		_, plain := capture.AsComplete(capture.WithContext(c.rec))
		_, traced := capture.AsComplete(newTracedRecorder(c.rec, nil, 0))
		if plain != traced {
			return nil, fmt.Errorf("%s: the traced recorder hides capture.Complete", c.tool)
		}
	}
	return pipelineLayers(tr, rounds), nil
}

// pipelineLayers derives the capture, classification and matching
// metrics from the stage and capture spans: capture times per call,
// stage times per completed cell, call counts per round.
func pipelineLayers(tr *tracer, rounds int) map[string]float64 {
	out := map[string]float64{}
	var records, transforms int
	for _, tool := range tools {
		out["capture.record_ms."+tool] = tr.mean("capture.record."+tool, time.Millisecond)
		out["capture.transform_ms."+tool] = tr.mean("capture.transform."+tool, time.Millisecond)
		_, n := tr.total("capture.record." + tool)
		records += n
		_, n = tr.total("capture.transform." + tool)
		transforms += n
	}
	out["capture.record_calls"] = float64(records) / float64(rounds)
	out["capture.transform_calls"] = float64(transforms) / float64(rounds)
	compare, cells := tr.total("stage.comparison")
	if cells == 0 {
		return out
	}
	classify, _ := tr.total("stage.classification")
	generalize, _ := tr.total("stage.generalization")
	perCell := func(d time.Duration) float64 { return float64(d) / float64(cells) / float64(time.Millisecond) }
	out["provmark.classify_ms"] = perCell(classify)
	out["match.generalize_ms"] = perCell(generalize - classify)
	out["match.compare_ms"] = perCell(compare)
	return out
}

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
