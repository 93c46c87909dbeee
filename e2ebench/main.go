// Command e2ebench is provmark's end-to-end benchmark. It drives three
// closed-loop workloads from one process, each with nproc clients or
// workers:
//
//   - suite: the paper's Table 2 experiment, 44 benchmarks × spade,
//     opus and camflow per pass, each cell one pipeline run;
//   - jobs: the provmarkd write path, jobs submitted and streamed over
//     loopback through the full middleware chain;
//   - query: the provmarkd read path, POST /v1/query against a store
//     filled during set-up.
//
// Every workload runs in rounds. A round is a fixed multiset of ops
// whose order (and, for jobs, split between clients) the seed draws,
// so the counts a round produces repeat exactly; the timed phase runs
// whole rounds until --seconds of them have been measured. Outputs are
// checked against golden.json (pipeline results) or against
// expectations computed during set-up (queries), outside the timed
// part of each round.
//
// With --trace 1 the benchmark times the calls into each layer's
// public functions from its own files and reports per-layer metrics
// instead of the end-to-end ones. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"provmark/internal/asp"
	"provmark/internal/graph"

	// Backends register themselves with the capture registry.
	_ "provmark/internal/capture/camflow"
	_ "provmark/internal/capture/opus"
	_ "provmark/internal/capture/spade"
)

// setupRepeats is how many times a run builds its workload; setup_s
// is the median.
const setupRepeats = 3

// traceDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const traceDir = ".bench_build/trace"

// minBeyond is the fewest samples every reported percentile must have
// beyond it.
const minBeyond = 10

// tools are the capture backends every workload covers, in Table 2
// order.
var tools = []string{"spade", "opus", "camflow"}

func main() {
	code, err := run(context.Background(), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var opt options
	var traceFlag int
	var golden string
	fs.StringVar(&opt.workload, "workload", "", "workload to run: suite, jobs or query")
	fs.Int64Var(&opt.seed, "seed", 1, "seed that draws the workload's inputs")
	fs.IntVar(&opt.seconds, "seconds", 25, "measured seconds of whole rounds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&golden, "update-golden", "", "recompute the golden output digests at one worker and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if golden != "" {
		return exitCode(writeGolden(ctx, golden))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if opt.seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	opt.trace = traceFlag == 1
	gold, err := loadGolden()
	if err != nil {
		return 1, err
	}
	var w workload
	switch opt.workload {
	case "suite":
		w = newSuiteLoad(opt.seed, gold)
	case "jobs":
		w = newJobsLoad(opt.seed, gold)
	case "query":
		w = newQueryLoad(opt.seed)
	default:
		return 2, fmt.Errorf("unknown --workload %q (want suite, jobs or query)", opt.workload)
	}
	defer w.close()

	printEnv(opt)
	rep, err := measure(ctx, w, opt)
	if err != nil {
		return 1, err
	}
	return exitCode(rep.print(opt))
}

func exitCode(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// workload is one closed-loop traffic mix.
type workload interface {
	// setup builds the inputs and the system under test, replacing the
	// instance a previous call built; setup_s times it together with
	// the warm-up round that follows it.
	setup(ctx context.Context) error
	// round runs the workload's fixed multiset of ops once, in an
	// order drawn from the seed, and checks every output. The meter
	// brackets exactly the part of the round that is timed; tr is nil
	// when tracing is off.
	round(ctx context.Context, m *meter, tr *tracer) (*roundResult, error)
	// layers derives the per-layer metrics of a traced timed phase of
	// the given number of rounds.
	layers(ctx context.Context, tr *tracer, rounds int) (map[string]float64, error)
	close()
}

// roundResult is what one round produced.
type roundResult struct {
	// lat holds each op's latency in milliseconds, failed ops included.
	lat []float64
	// failed counts ops that errored or were refused; wrong counts ops
	// whose output disagreed with the golden digest or expectation.
	failed, wrong int
	// counts are the round's exact work counters.
	counts map[string]int64
	// problems describes the first few failed or wrong ops.
	problems []string
}

func (r *roundResult) problem(format string, args ...any) {
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// meter brackets the timed part of each round: wall clock, heap
// allocation, GC cycles and the process-wide work counters.
type meter struct {
	t0          time.Time
	alloc0, gc0 uint64
	asp0, fp0   uint64
	elapsed     time.Duration
	alloc, gc   uint64
	// last holds the process-wide counter deltas of the latest bracket.
	last map[string]int64
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0, m.gc0 = ms.TotalAlloc, uint64(ms.NumGC)
	m.asp0, m.fp0 = asp.SolveInvocations(), graph.FingerprintComputations()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	d := time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.elapsed += d
	m.alloc += ms.TotalAlloc - m.alloc0
	m.gc += uint64(ms.NumGC) - m.gc0
	m.last = map[string]int64{
		"asp.solves":         int64(asp.SolveInvocations() - m.asp0),
		"graph.fingerprints": int64(graph.FingerprintComputations() - m.fp0),
	}
}

// report is the outcome of one run.
type report struct {
	metrics  []metric
	counts   map[string]int64
	rounds   int
	ops      int
	failed   int
	wrong    int
	gateErrs []string
	// lat holds every op's latency until the percentiles are taken.
	lat []float64
}

type metric struct {
	name, unit string
	value      float64
}

// measure runs set-up and the timed phase, enforcing the correctness
// and exact-count gates.
func measure(ctx context.Context, w workload, opt options) (*report, error) {
	rep := &report{}
	// Set-up builds the workload and runs one untraced warm-up round,
	// which fills caches and fixes the reference counts that every
	// timed round, traced or not, must repeat exactly.
	var refCounts map[string]int64
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		var refMeter meter
		ref, err := w.round(ctx, &refMeter, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if ref.failed+ref.wrong > 0 {
			rep.gateErrs = append(rep.gateErrs, fmt.Sprintf("warm-up round: %d failed, %d wrong ops", ref.failed, ref.wrong))
		}
		for _, p := range ref.problems {
			rep.gateErrs = append(rep.gateErrs, "warm-up round: "+p)
		}
		counts := mergeCounts(ref.counts, refMeter.last)
		if diff := diffCounts(refCounts, counts); refCounts != nil && diff != "" {
			rep.gateErrs = append(rep.gateErrs, "warm-up rounds differ: "+diff)
		}
		refCounts = counts
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	// Whole rounds run until the time budget is measured and the p99
	// has at least minBeyond samples beyond it, or three budgets are
	// measured, so that a slow machine still ends the run in time.
	var m meter
	budget := time.Duration(opt.seconds) * time.Second
	for m.elapsed < budget || (samplesBeyond(len(rep.lat), 0.99) < minBeyond && m.elapsed < 3*budget) {
		rr, err := w.round(ctx, &m, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", rep.rounds+1, err)
		}
		rep.rounds++
		rep.lat = append(rep.lat, rr.lat...)
		rep.failed += rr.failed
		rep.wrong += rr.wrong
		for _, p := range rr.problems {
			rep.gateErrs = append(rep.gateErrs, fmt.Sprintf("round %d: %s", rep.rounds, p))
		}
		if diff := diffCounts(refCounts, mergeCounts(rr.counts, m.last)); diff != "" {
			rep.gateErrs = append(rep.gateErrs, fmt.Sprintf("round %d: counts differ from the warm-up round: %s", rep.rounds, diff))
		}
	}
	rep.ops = len(rep.lat)
	rep.counts = refCounts
	opsPerSec := float64(rep.ops) / m.elapsed.Seconds()
	sort.Float64s(rep.lat)
	p50, p90, p99 := percentile(rep.lat, 0.50), percentile(rep.lat, 0.90), percentile(rep.lat, 0.99)
	// The latency samples are the benchmark's, not the program's: drop
	// them before measuring the heap the run retains. The second
	// collection frees what the first only moved to sync.Pool victim
	// caches.
	rep.lat = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	if !opt.trace {
		rep.metrics = []metric{
			{"setup_s", "s", median(setups)},
			{"ops_per_s", "1/s", opsPerSec},
			{"op_ms_p50", "ms", p50},
			{"op_ms_p90", "ms", p90},
			{"op_ms_p99", "ms", p99},
			{"alloc_kb_per_op", "KiB", float64(m.alloc) / float64(rep.ops) / 1024},
			{"retained_heap_mb", "MiB", float64(ms.HeapInuse) / (1 << 20)},
		}
		return rep, nil
	}

	layers, err := w.layers(ctx, tr, rep.rounds)
	if err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	if v, ok := layers["datalog.derived"]; ok && int64(v) != rep.counts["datalog.derived"] {
		rep.gateErrs = append(rep.gateErrs, fmt.Sprintf("replayed derived facts %d != %d from the responses", int64(v), rep.counts["datalog.derived"]))
	}
	for name, v := range rep.counts {
		if _, ok := layerUnits[name]; ok {
			layers[name] = float64(v)
		}
	}
	if lookups := rep.counts["jobs.store_hits"] + rep.counts["jobs.store_misses"]; lookups > 0 {
		layers["jobs.store_hit_ratio"] = float64(rep.counts["jobs.store_hits"]) / float64(lookups)
	}
	layers["runtime.gc_cycles"] = float64(m.gc) / float64(rep.rounds)
	layers["trace.ops_per_s"] = opsPerSec
	for _, name := range layerOrder {
		rep.metrics = append(rep.metrics, metric{name, layerUnits[name], layers[name]})
	}
	path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", tr.spanCount(), path)
	return rep, nil
}

// layerOrder lists the per-layer metrics in BENCHMARK.json order; a
// workload that does not exercise a layer reports 0 for it.
var layerOrder = []string{
	"capture.record_ms.spade", "capture.record_ms.opus", "capture.record_ms.camflow", "capture.record_calls",
	"capture.transform_ms.spade", "capture.transform_ms.opus", "capture.transform_ms.camflow", "capture.transform_calls",
	"provmark.classify_ms", "provmark.classify_graphs", "provmark.classify_confirms", "provmark.classify_cache_hits",
	"graph.fingerprints",
	"match.generalize_ms", "match.compare_ms", "asp.solves",
	"jobs.submit_ms", "jobs.stream_ms", "jobs.store_hits", "jobs.store_misses", "jobs.store_hit_ratio", "jobs.store_evictions",
	"wire.stream_kb", "jobs.server_us", "client.transport_us",
	"httpmw.recover_ns", "httpmw.requestid_ns", "httpmw.accesslog_ns", "httpmw.metrics_ns",
	"httpmw.auth_ns", "httpmw.ratelimit_ns", "httpmw.quota_ns", "httpmw.bodylimit_ns",
	"wire.graph_build_us", "analyze.check_us", "analyze.optimize_us",
	"datalog.load_us", "datalog.eval_us", "datalog.query_us",
	"datalog.join_probes", "datalog.derived", "datalog.iterations",
	"runtime.gc_cycles", "trace.ops_per_s",
}

// layerUnits gives each per-layer metric its unit. Times are means per
// call (capture), per fresh cell (pipeline stages), per request or per
// replayed query; counts are per round.
var layerUnits = map[string]string{
	"capture.record_ms.spade": "ms", "capture.record_ms.opus": "ms", "capture.record_ms.camflow": "ms",
	"capture.record_calls":       "count/round",
	"capture.transform_ms.spade": "ms", "capture.transform_ms.opus": "ms", "capture.transform_ms.camflow": "ms",
	"capture.transform_calls":      "count/round",
	"provmark.classify_ms":         "ms",
	"provmark.classify_graphs":     "count/round",
	"provmark.classify_confirms":   "count/round",
	"provmark.classify_cache_hits": "count/round",
	"graph.fingerprints":           "count/round",
	"match.generalize_ms":          "ms",
	"match.compare_ms":             "ms",
	"asp.solves":                   "count/round",
	"jobs.submit_ms":               "ms",
	"jobs.stream_ms":               "ms",
	"jobs.store_hits":              "count/round",
	"jobs.store_misses":            "count/round",
	"jobs.store_hit_ratio":         "ratio",
	"jobs.store_evictions":         "count/round",
	"wire.stream_kb":               "KiB",
	"jobs.server_us":               "us",
	"client.transport_us":          "us",
	"httpmw.recover_ns":            "ns", "httpmw.requestid_ns": "ns", "httpmw.accesslog_ns": "ns", "httpmw.metrics_ns": "ns",
	"httpmw.auth_ns": "ns", "httpmw.ratelimit_ns": "ns", "httpmw.quota_ns": "ns", "httpmw.bodylimit_ns": "ns",
	"wire.graph_build_us": "us", "analyze.check_us": "us", "analyze.optimize_us": "us",
	"datalog.load_us": "us", "datalog.eval_us": "us", "datalog.query_us": "us",
	"datalog.join_probes": "count/round", "datalog.derived": "count/round", "datalog.iterations": "count/round",
	"runtime.gc_cycles": "count/round",
	"trace.ops_per_s":   "1/s",
}

func mergeCounts(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// diffCounts describes every counter whose value differs; empty when
// the two sets agree exactly.
func diffCounts(want, got map[string]int64) string {
	var diffs []string
	for _, k := range sortedKeys(want, got) {
		if want[k] != got[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", k, got[k], want[k]))
		}
	}
	return strings.Join(diffs, ", ")
}

func sortedKeys(maps ...map[string]int64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range maps {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// samplesBeyond counts the samples above the p-th percentile of n.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankIndex(n, p) - 1
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printEnv records the environment the results were measured in.
func printEnv(opt options) {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
	}
	data, _ := json.Marshal(env) // a map of strings, ints and bools always marshals
	fmt.Printf("env %s\n", data)
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable metric table, the gates' verdicts
// and, last, the one-line JSON result.
func (r *report) print(opt options) error {
	for _, m := range r.metrics {
		fmt.Printf("metric %-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if !opt.trace && r.ops > 0 {
		for _, p := range []float64{0.50, 0.90, 0.99} {
			fmt.Printf("samples p%02.0f: %d ops, %d beyond\n", p*100, r.ops, samplesBeyond(r.ops, p))
		}
	}
	for _, k := range sortedKeys(r.counts) {
		fmt.Printf("count %-30s %d per round (%d rounds, exact)\n", k, r.counts[k], r.rounds)
	}
	failRatio := float64(r.failed+r.wrong) / float64(max(r.ops, 1))
	fmt.Printf("fail_ratio %.6f (%d failed, %d wrong of %d ops)\n", failRatio, r.failed, r.wrong, r.ops)
	for _, e := range r.gateErrs {
		fmt.Printf("gate FAILED: %s\n", e)
	}
	correct := len(r.gateErrs) == 0 && r.failed == 0 && r.wrong == 0
	if correct {
		fmt.Println("gates ok: outputs match golden digests and expectations, counts repeat exactly every round")
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.ops, r.failed + r.wrong, metrics})
	if err != nil {
		// Only a NaN or infinite metric fails to marshal: a benchmark
		// bug, reported without a result line.
		return fmt.Errorf("result does not encode: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
