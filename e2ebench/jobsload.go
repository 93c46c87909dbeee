package main

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/httpmw"
	"provmark/internal/wire"
)

// The jobs workload's cells: every tool × benchprog.ScaleScenario(n)
// for n in [scaleMin, scaleMax], 72 distinct cells per round.
const (
	scaleMin = 8
	scaleMax = 31
	// repeatEvery fresh submissions a client repeats one of its own
	// earlier specs, so one submission in four is a dedup-store hit.
	repeatEvery = 3
)

// jobsLoad is the provmarkd write path. nproc clients each submit a
// one-cell job and stream it to completion, closed loop, through the
// full middleware chain over loopback. A round deals every distinct
// cell to exactly one client, balanced by size, in a seeded order, and
// runs against a fresh service whose store starts empty; so each round
// repeats the same work and the same store hits exactly.
type jobsLoad struct {
	rng      *rand.Rand
	clients  int
	gold     *golden
	sessions *httpmw.SessionStore
	specs    map[jobCell]*wire.JobSpec
	// svc is the latest round's service, kept until the next round so
	// retained heap is measured with one round's store populated.
	svc *service

	streamBytes, streams int64
}

type jobCell struct {
	tool string
	n    int
}

type jobOp struct {
	jobCell
	repeat bool
}

type jobOutcome struct {
	lat   float64
	lines []*wire.MatrixResult
	err   error
}

func newJobsLoad(seed int64, gold *golden) *jobsLoad {
	return &jobsLoad{rng: rand.New(rand.NewSource(seed)), clients: runtime.NumCPU(), gold: gold}
}

// setup builds the job specs and the session store the rounds'
// services share.
func (j *jobsLoad) setup(context.Context) error {
	j.close()
	j.sessions = newSessions()
	j.specs = map[jobCell]*wire.JobSpec{}
	for _, tool := range tools {
		for n := scaleMin; n <= scaleMax; n++ {
			j.specs[jobCell{tool, n}] = &wire.JobSpec{
				Tools:     []string{tool},
				Scenarios: []benchprog.Scenario{benchprog.ScaleScenario(n)},
				Capture:   &wire.CaptureOptions{Fast: true},
			}
		}
	}
	return nil
}

func (j *jobsLoad) close() {
	if j.svc != nil {
		j.svc.close()
		j.svc = nil
	}
}

// plan deals the round's cells to clients. Each tool's n values go out
// in groups of one value per client, so every client gets the same
// amount of work; then each client's cells are shuffled and every
// third is followed by a repeat of one of the client's earlier cells.
func (j *jobsLoad) plan() [][]jobOp {
	fresh := make([][]jobOp, j.clients)
	for _, tool := range tools {
		for lo := scaleMin; lo <= scaleMax; lo += j.clients {
			for i, c := range j.rng.Perm(j.clients) {
				if n := lo + i; n <= scaleMax {
					fresh[c] = append(fresh[c], jobOp{jobCell: jobCell{tool, n}})
				}
			}
		}
	}
	plans := make([][]jobOp, j.clients)
	for c, ops := range fresh {
		j.rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		for k, op := range ops {
			plans[c] = append(plans[c], op)
			if (k+1)%repeatEvery == 0 {
				again := ops[j.rng.Intn(k+1)]
				again.repeat = true
				plans[c] = append(plans[c], again)
			}
		}
	}
	return plans
}

func (j *jobsLoad) round(ctx context.Context, m *meter, tr *tracer) (*roundResult, error) {
	j.close()
	svc, err := newService(j.clients, j.sessions)
	if err != nil {
		return nil, err
	}
	j.svc = svc
	plans := j.plan()
	outcomes := make([][]jobOutcome, len(plans))
	rate0, quota0 := j.sessions.RateRejections(), j.sessions.QuotaRejections()
	if tr != nil {
		svc.tr.Store(tr)
	}
	var wg sync.WaitGroup
	m.start()
	for c, plan := range plans {
		outcomes[c] = make([]jobOutcome, len(plan))
		wg.Add(1)
		go func(out []jobOutcome, plan []jobOp) {
			defer wg.Done()
			for k, op := range plan {
				out[k] = j.runJob(ctx, svc, op, tr)
			}
		}(outcomes[c], plan)
	}
	wg.Wait()
	m.stop()
	svc.tr.Store(nil)
	j.streamBytes += svc.streamBytes.Load()
	j.streams += svc.streams.Load()

	store := svc.m.Store().Stats()
	cls := svc.m.Classifier().Stats()
	rr := &roundResult{counts: map[string]int64{
		"jobs.store_hits":              store.Hits,
		"jobs.store_misses":            store.Misses,
		"jobs.store_evictions":         store.Evictions,
		"provmark.classify_graphs":     int64(cls.Graphs),
		"provmark.classify_confirms":   int64(cls.Confirms),
		"provmark.classify_cache_hits": int64(cls.CacheHits),
	}}
	if n := j.sessions.RateRejections() - rate0 + j.sessions.QuotaRejections() - quota0; n != 0 {
		rr.problem("the rate-limit and quota layers refused %d requests", n)
	}
	for c, plan := range plans {
		for k, op := range plan {
			out := outcomes[c][k]
			rr.lat = append(rr.lat, out.lat)
			j.verify(rr, op, out)
		}
	}
	return rr, nil
}

// runJob is one op: submit a one-cell job and stream it to its end.
func (j *jobsLoad) runJob(ctx context.Context, svc *service, op jobOp, tr *tracer) jobOutcome {
	start := time.Now()
	st, err := svc.client.Submit(ctx, j.specs[op.jobCell])
	if err != nil {
		return jobOutcome{lat: millis(time.Since(start)), err: err}
	}
	submitted := time.Now()
	var lines []*wire.MatrixResult
	err = svc.client.Stream(ctx, st.ID, func(mr *wire.MatrixResult) error {
		lines = append(lines, mr)
		return nil
	})
	end := time.Now()
	if tr != nil {
		id := tr.nextOp()
		tr.add(id, "job", "", start, end.Sub(start))
		tr.add(id, "jobs.submit", "job", start, submitted.Sub(start))
		tr.add(id, "jobs.stream", "job", submitted, end.Sub(submitted))
		for _, mr := range lines {
			if mr.Result != nil && !mr.Cached {
				addWireStages(tr, id, mr.Result, submitted)
			}
		}
	}
	return jobOutcome{lat: millis(end.Sub(start)), lines: lines, err: err}
}

// addWireStages records a fresh cell's streamed stage times as spans:
// the job path runs recorders the benchmark cannot wrap, so the wire
// StageTimes are its view of the pipeline layers.
func addWireStages(tr *tracer, op int64, r *wire.Result, at time.Time) {
	t := r.Times
	calls := 2 * r.Trials // background and foreground trials
	tr.addCalls(op, "capture.record."+r.Tool, "stage.recording", at, time.Duration(t.RecordingNS), calls)
	tr.addCalls(op, "capture.transform."+r.Tool, "stage.transformation", at, time.Duration(t.TransformationNS), calls)
	tr.add(op, "stage.recording", "cell", at, time.Duration(t.RecordingNS))
	tr.add(op, "stage.transformation", "cell", at, time.Duration(t.TransformationNS))
	tr.add(op, "stage.generalization", "cell", at, time.Duration(t.GeneralizationNS))
	tr.add(op, "stage.classification", "stage.generalization", at, time.Duration(t.ClassificationNS))
	tr.add(op, "stage.comparison", "cell", at, time.Duration(t.ComparisonNS))
}

// verify checks one job's stream: a single cell, served from the store
// exactly when the op repeats an earlier spec, with the golden result.
func (j *jobsLoad) verify(rr *roundResult, op jobOp, out jobOutcome) {
	key := cellName(op.tool, "scale"+strconv.Itoa(op.n))
	switch {
	case out.err != nil:
		rr.failed++
		rr.problem("%s: %v", key, out.err)
		return
	case len(out.lines) != 1:
		rr.wrong++
		rr.problem("%s: %d stream lines, want 1", key, len(out.lines))
		return
	}
	mr := out.lines[0]
	switch {
	case mr.Err != "":
		rr.failed++
		rr.problem("%s: %s", key, mr.Err)
	case mr.Cached != op.repeat:
		rr.wrong++
		rr.problem("%s: cached %v, want %v", key, mr.Cached, op.repeat)
	default:
		if err := checkDigest(j.gold.Jobs, key, mr.Result); err != nil {
			rr.wrong++
			rr.problem("%v", err)
		}
	}
}

func (j *jobsLoad) layers(_ context.Context, tr *tracer, rounds int) (map[string]float64, error) {
	out := pipelineLayers(tr, rounds)
	out["jobs.submit_ms"] = tr.mean("jobs.submit", time.Millisecond)
	out["jobs.stream_ms"] = tr.mean("jobs.stream", time.Millisecond)
	if j.streams > 0 {
		out["wire.stream_kb"] = float64(j.streamBytes) / float64(j.streams) / 1024
	}
	serverLayers(tr, out, "jobs.submit", "jobs.stream")
	mw, err := measureLayers()
	if err != nil {
		return nil, err
	}
	for k, v := range mw {
		out[k] = v
	}
	return out, nil
}
