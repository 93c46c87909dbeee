package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"provmark/internal/httpmw"
	"provmark/internal/jobs"
	"provmark/internal/jobs/client"
)

// The service runs with every policy layer of the chain enabled. The
// rate and quota are set far above what nproc closed-loop clients can
// issue, so the layers do their bookkeeping on every request but never
// refuse one; the run asserts that they did not.
const (
	benchToken   = "e2ebench-bearer"
	rateLimit    = 1e7 // requests per second per session
	rateBurst    = 1e6
	sessionQuota = 1 << 40
	// maxBodyBytes mirrors the body cap jobs.NewServer installs.
	maxBodyBytes = 1 << 20
)

// newSessions builds the session store the rate-limit and quota
// layers share.
func newSessions() *httpmw.SessionStore {
	return httpmw.NewSessionStore(httpmw.SessionConfig{Rate: rateLimit, Burst: rateBurst, Quota: sessionQuota})
}

// accessLogger formats access logs as provmarkd does, into a sink.
func accessLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// service is one in-process provmarkd: a job manager behind the full
// jobs.NewServer chain, served over loopback, plus a client that never
// retries, so a refused request shows as a failed op.
type service struct {
	m         *jobs.Manager
	srv       *httptest.Server
	transport *http.Transport
	client    *client.Client
	// tr is the tracer of the current round; nil outside traced rounds.
	tr          atomic.Pointer[tracer]
	streamBytes atomic.Int64
	streams     atomic.Int64
}

func newService(workers int, sessions *httpmw.SessionStore) (*service, error) {
	m := jobs.NewManager(jobs.Config{Workers: workers})
	h, err := jobs.NewServer(m,
		jobs.WithAuthToken(benchToken),
		jobs.WithRateLimit(rateLimit, rateBurst),
		jobs.WithSessionQuota(sessionQuota),
		jobs.WithSessionStore(sessions),
		jobs.WithLogger(accessLogger()),
	)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &service{m: m}
	s.srv = httptest.NewServer(s.timed(h))
	s.transport = &http.Transport{MaxIdleConnsPerHost: 2 * workers}
	s.client = client.New(s.srv.URL, &http.Client{Transport: roundTripFunc(s.roundTrip)})
	s.client.Retry.Attempts = 1
	s.client.SetAuthToken(benchToken)
	return s, nil
}

func (s *service) close() {
	s.srv.Close()
	s.transport.CloseIdleConnections()
	s.m.Close()
}

// timed wraps the handler NewServer returned, recording the server
// side of every request in traced rounds. The response writer passes
// through untouched, so streaming keeps its http.Flusher.
func (s *service) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(0, "jobs.server", "", start, time.Since(start))
	})
}

// roundTrip counts the bytes of job streams in traced rounds.
func (s *service) roundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.transport.RoundTrip(req)
	if err != nil || s.tr.Load() == nil || !strings.HasSuffix(req.URL.Path, "/stream") {
		return resp, err
	}
	s.streams.Add(1)
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &s.streamBytes}
	return resp, nil
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serverLayers reports jobs.server_us and client.transport_us: the
// mean server time per request, and the mean remainder of the client's
// round trip, given the names of the client-side request spans.
func serverLayers(tr *tracer, out map[string]float64, clientSpans ...string) {
	server, n := tr.total("jobs.server")
	var clientSide time.Duration
	requests := 0
	for _, name := range clientSpans {
		d, c := tr.total(name)
		clientSide += d
		requests += c
	}
	if n == 0 || requests == 0 {
		return
	}
	out["jobs.server_us"] = float64(server) / float64(n) / float64(time.Microsecond)
	out["client.transport_us"] = float64(clientSide-server) / float64(requests) / float64(time.Microsecond)
}

// Layer-cost measurement sizes: requests per timing sample, and
// interleaved passes over the chain prefixes.
const (
	layerRequests = 2000
	layerPasses   = 15
)

// measureLayers times every middleware layer of the server chain as
// the difference between consecutive chain prefixes over a bare
// handler. The layers come from the constructors jobs.NewServer uses,
// configured the same way. Each pass times every prefix back to back,
// after a forced GC so one prefix's garbage is not collected on
// another's clock; a layer's cost is the median over passes of its
// prefix's time minus the previous prefix's time in the same pass, in
// nanoseconds per request.
func measureLayers() (map[string]float64, error) {
	sessions := newSessions()
	metrics := httpmw.NewMetrics("provmarkd")
	logger := accessLogger()
	route := func(*http.Request) string { return "POST /v1/query" }
	layers := []httpmw.Layer{
		httpmw.RecoverLayer(logger),
		httpmw.RequestIDLayer(),
		httpmw.AccessLogLayer(logger, route, sessions.Key),
		httpmw.MetricsLayer(metrics, route),
		httpmw.AuthLayer(benchToken, "/healthz"),
		httpmw.RateLimitLayer(sessions, "/healthz", "/metrics"),
		httpmw.QuotaLayer(sessions, "/healthz", "/metrics"),
		httpmw.BodyLimitLayer(maxBodyBytes),
	}
	body := []byte(`{"cell":"0123456789abcdef","goal":"anc(X, Y)"}`)
	bare := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(w, "unreadable body", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	})
	handlers := make([]http.Handler, len(layers)+1)
	for k := range handlers {
		chain, err := httpmw.NewChain(layers[:k]...)
		if err != nil {
			return nil, fmt.Errorf("chain prefix %d: %w", k, err)
		}
		handlers[k] = chain.Then(bare)
	}
	serve := func(h http.Handler) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+benchToken)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("chain answered %d", rec.Code)
		}
		return nil
	}
	deltas := make([][]float64, len(layers))
	for i := 0; i < layerPasses; i++ {
		prev := 0.0
		for k, h := range handlers {
			runtime.GC()
			start := time.Now()
			for j := 0; j < layerRequests; j++ {
				if err := serve(h); err != nil {
					return nil, fmt.Errorf("chain prefix %d: %w", k, err)
				}
			}
			cur := float64(time.Since(start)) / layerRequests
			if k > 0 {
				deltas[k-1] = append(deltas[k-1], cur-prev)
			}
			prev = cur
		}
	}
	if n := sessions.RateRejections() + sessions.QuotaRejections(); n != 0 {
		return nil, fmt.Errorf("layer measurement refused %d requests", n)
	}
	out := make(map[string]float64, len(layers))
	for k, l := range layers {
		out["httpmw."+l.Name+"_ns"] = median(deltas[k])
	}
	return out, nil
}
