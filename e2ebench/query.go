package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"provmark/internal/benchprog"
	"provmark/internal/datalog"
	"provmark/internal/datalog/analyze"
	"provmark/internal/httpmw"
	"provmark/internal/jobs"
	"provmark/internal/jobs/client"
	"provmark/internal/wire"
)

// detectionRules is the repository's example detection program, read
// relative to the repository root the benchmark runs from.
const detectionRules = "examples/detection/suspicious.dl"

// queryScales are the ScaleScenario sizes stored next to the Table 2
// cells, so closure queries span small and large graphs.
var queryScales = []int{8, 16, 24, 32}

// detectionGoals rotate over the Table 2 target graphs.
var detectionGoals = []string{"suspicious(P)", "tainted(X)", "unmitigated(P)"}

// closureRules is the recursive closure; its cost grows with the size
// of the fg graph it runs on.
const closureRules = `anc(X, Y) :- edge(_, X, Y, _).
anc(X, Z) :- anc(X, Y), edge(_, Y, Z, _).`

// goalRules is a rule library of which the goal fanout/3 needs only
// flow/2: analyze.Optimize prunes the closure and the quadratic
// cousin/2 before evaluation.
const goalRules = `flow(X, Y) :- edge(_, X, Y, _).
anc(X, Y) :- flow(X, Y).
anc(X, Z) :- anc(X, Y), flow(Y, Z).
cousin(X, Y) :- anc(Z, X), anc(Z, Y).
fanout(X, Y, Z) :- flow(X, Y), flow(X, Z).`

// rejectedPrograms are refused by the analyzer with a 422: an unbound
// head variable, recursion through negation, an arity mismatch.
var rejectedPrograms = []struct{ rules, goal string }{
	{`leak(X, Y) :- node(X, _).`, "leak(X, Y)"},
	{"odd(X) :- node(X, _), not even(X).\neven(X) :- node(X, _), not odd(X).", "odd(X)"},
	{"p(X) :- node(X, _).\nq(X) :- p(X, X).", "q(X)"},
}

// queryLoad is the provmarkd read path. Set-up fills a service's store
// with the Table 2 cells and scale cells through jobs, then nproc
// clients POST /v1/query in a closed loop; no pipeline runs in the
// timed phase. A round is every query of a fixed mix, in seeded order:
// detection rules on target graphs, the closure and the goal-directed
// library on fg graphs, and about one query in ten rejected.
type queryLoad struct {
	rng      *rand.Rand
	clients  int
	sessions *httpmw.SessionStore
	svc      *service
	queries  []queryCase
}

type queryCase struct {
	kind string
	req  *wire.QueryRequest
	// res is the stored cell result the server evaluates against.
	res  *wire.Result
	want queryExpect
}

// queryExpect is what jobs.EvalQuery answers for the request.
type queryExpect struct {
	rejected bool
	matches  int
	derived  int64
}

type queryOutcome struct {
	resp     *wire.QueryResponse
	rejected bool
	err      error
}

func newQueryLoad(seed int64) *queryLoad {
	return &queryLoad{rng: rand.New(rand.NewSource(seed)), clients: runtime.NumCPU()}
}

func (q *queryLoad) close() {
	if q.svc != nil {
		q.svc.close()
		q.svc = nil
	}
}

func (q *queryLoad) setup(ctx context.Context) error {
	q.close()
	detect, err := os.ReadFile(detectionRules)
	if err != nil {
		return err
	}
	q.sessions = newSessions()
	svc, err := newService(q.clients, q.sessions)
	if err != nil {
		return err
	}
	q.svc = svc
	var scales []benchprog.Scenario
	for _, n := range queryScales {
		scales = append(scales, benchprog.ScaleScenario(n))
	}
	fast := &wire.CaptureOptions{Fast: true}
	var cells []*wire.MatrixResult
	for _, spec := range []*wire.JobSpec{
		{Tools: tools, Capture: fast},
		{Tools: tools, Scenarios: scales, Capture: fast},
	} {
		_, err := svc.client.Run(ctx, spec, func(mr *wire.MatrixResult) error {
			if mr.Err != "" || mr.Result == nil {
				return fmt.Errorf("store fill: cell %s/%s: %s", mr.Tool, mr.Benchmark, mr.Err)
			}
			cells = append(cells, mr)
			return nil
		})
		if err != nil {
			return err
		}
	}
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].Tool != cells[b].Tool {
			return cells[a].Tool < cells[b].Tool
		}
		return cells[a].Benchmark < cells[b].Benchmark
	})

	q.queries = q.queries[:0]
	add := func(kind string, cell *wire.MatrixResult, graph, rules, goal string) error {
		res, ok := svc.m.Store().Peek(cell.Cell)
		if !ok {
			return fmt.Errorf("cell %s/%s missing from the store", cell.Tool, cell.Benchmark)
		}
		req := &wire.QueryRequest{Cell: cell.Cell, Graph: graph, Rules: rules, Goal: goal}
		want, err := expect(req, res)
		if err != nil {
			return fmt.Errorf("%s query on %s/%s: %w", kind, cell.Tool, cell.Benchmark, err)
		}
		q.queries = append(q.queries, queryCase{kind: kind, req: req, res: res, want: want})
		return nil
	}
	targets := 0
	for i, cell := range cells {
		var err error
		if cell.Result.Target != nil {
			err = add("detect", cell, wire.QueryGraphTarget, string(detect), detectionGoals[targets%len(detectionGoals)])
			targets++
		}
		if err == nil {
			err = add("closure", cell, wire.QueryGraphFG, closureRules, "anc(X, Y)")
		}
		if err == nil {
			err = add("goal", cell, wire.QueryGraphFG, goalRules, "fanout(X, Y, Z)")
		}
		if err == nil && i%3 == 0 {
			bad := rejectedPrograms[(i/3)%len(rejectedPrograms)]
			err = add("reject", cell, wire.QueryGraphFG, bad.rules, bad.goal)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// expect computes a request's answer in process through jobs.EvalQuery.
func expect(req *wire.QueryRequest, res *wire.Result) (queryExpect, error) {
	resp, err := jobs.EvalQuery(req, res)
	var rejected *jobs.RejectedQueryError
	switch {
	case errors.As(err, &rejected):
		return queryExpect{rejected: true}, nil
	case err != nil:
		return queryExpect{}, err
	}
	return queryExpect{matches: resp.Matches, derived: resp.Derived}, nil
}

func (q *queryLoad) round(ctx context.Context, m *meter, tr *tracer) (*roundResult, error) {
	order := q.rng.Perm(len(q.queries))
	outcomes := make([]queryOutcome, len(q.queries))
	lat := make([]float64, len(q.queries))
	stats0 := q.svc.m.QueryStats()
	rate0, quota0 := q.sessions.RateRejections(), q.sessions.QuotaRejections()
	if tr != nil {
		q.svc.tr.Store(tr)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	m.start()
	for c := 0; c < q.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				k := order[i]
				start := time.Now()
				resp, err := q.svc.client.Query(ctx, q.queries[k].req)
				d := time.Since(start)
				if tr != nil {
					tr.add(tr.nextOp(), "query.request", "", start, d)
				}
				var rejected *client.QueryRejectedError
				if errors.As(err, &rejected) {
					outcomes[k] = queryOutcome{rejected: true}
				} else {
					outcomes[k] = queryOutcome{resp: resp, err: err}
				}
				lat[i] = millis(d)
			}
		}()
	}
	wg.Wait()
	m.stop()
	q.svc.tr.Store(nil)

	stats := q.svc.m.QueryStats()
	rr := &roundResult{lat: lat, counts: map[string]int64{
		"jobs.queries":         stats.Total - stats0.Total,
		"jobs.queries_matched": stats.Matched - stats0.Matched,
		"jobs.query_errors":    stats.Errors - stats0.Errors,
	}}
	if n := q.sessions.RateRejections() - rate0 + q.sessions.QuotaRejections() - quota0; n != 0 {
		rr.problem("the rate-limit and quota layers refused %d requests", n)
	}
	var derived int64
	for k, qc := range q.queries {
		out := outcomes[k]
		switch {
		case out.err != nil:
			rr.failed++
			rr.problem("%s query on %s: %v", qc.kind, qc.req.Cell, out.err)
		case out.rejected != qc.want.rejected:
			rr.wrong++
			rr.problem("%s query on %s: rejected %v, want %v", qc.kind, qc.req.Cell, out.rejected, qc.want.rejected)
		case !out.rejected && (out.resp.Matches != qc.want.matches || out.resp.Derived != qc.want.derived):
			rr.wrong++
			rr.problem("%s query on %s: %d matches, %d derived; want %d, %d", qc.kind, qc.req.Cell,
				out.resp.Matches, out.resp.Derived, qc.want.matches, qc.want.derived)
		case !out.rejected:
			derived += out.resp.Derived
		}
	}
	rr.counts["datalog.derived"] = derived
	return rr, nil
}

// layers replays one round's queries through the public steps of
// jobs.EvalQuery, timing each, and measures the middleware layers.
func (q *queryLoad) layers(_ context.Context, tr *tracer, _ int) (map[string]float64, error) {
	out := map[string]float64{}
	var probes, derived, iterations int64
	for _, qc := range q.queries {
		st, err := replay(qc, tr, tr.nextOp())
		if err != nil {
			return nil, fmt.Errorf("replay of a %s query on %s: %w", qc.kind, qc.req.Cell, err)
		}
		probes += st.JoinProbes
		derived += st.Derived
		iterations += st.Iterations
	}
	for _, step := range []string{"wire.graph_build", "analyze.check", "analyze.optimize", "datalog.load", "datalog.eval", "datalog.query"} {
		out[step+"_us"] = tr.mean(step, time.Microsecond)
	}
	out["datalog.join_probes"] = float64(probes)
	out["datalog.derived"] = float64(derived)
	out["datalog.iterations"] = float64(iterations)
	serverLayers(tr, out, "query.request")
	mw, err := measureLayers()
	if err != nil {
		return nil, err
	}
	for k, v := range mw {
		out[k] = v
	}
	return out, nil
}

// replay evaluates one query the way jobs.EvalQuery does, one public
// step at a time, and checks the answer against the expectation.
func replay(qc queryCase, tr *tracer, op int64) (datalog.EvalStats, error) {
	step := func(name string, start time.Time) { tr.add(op, name, "query.replay", start, time.Since(start)) }
	src := qc.res.FG
	if qc.req.Graph == "" || qc.req.Graph == wire.QueryGraphTarget {
		src = qc.res.Target
	}
	start := time.Now()
	g, err := src.Build()
	step("wire.graph_build", start)
	if err != nil {
		return datalog.EvalStats{}, err
	}
	start = time.Now()
	goal, err := datalog.ParseAtom(qc.req.Goal)
	if err != nil {
		return datalog.EvalStats{}, err
	}
	prog, diags := analyze.Check(qc.req.Rules, analyze.Options{Goal: &goal})
	step("analyze.check", start)
	if analyze.HasErrors(diags) != qc.want.rejected {
		return datalog.EvalStats{}, fmt.Errorf("analysis rejected %v, want %v", analyze.HasErrors(diags), qc.want.rejected)
	}
	if qc.want.rejected {
		return datalog.EvalStats{}, nil
	}
	start = time.Now()
	rules, _ := analyze.Optimize(prog.Rules, goal)
	step("analyze.optimize", start)
	start = time.Now()
	db := datalog.NewDatabase()
	db.LoadGraph(g)
	step("datalog.load", start)
	start = time.Now()
	err = db.Run(rules)
	step("datalog.eval", start)
	if err != nil {
		return datalog.EvalStats{}, err
	}
	start = time.Now()
	bindings := db.Query(goal)
	step("datalog.query", start)
	st := db.Stats()
	if len(bindings) != qc.want.matches || st.Derived != qc.want.derived {
		return st, fmt.Errorf("%d matches, %d derived; want %d, %d", len(bindings), st.Derived, qc.want.matches, qc.want.derived)
	}
	return st, nil
}
