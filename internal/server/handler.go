package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/dash"
	"htlvideo/internal/obs/querystats"
)

// NewHTTPServer returns an http.Server hardened against slow clients: header
// and body read timeouts bound a Slowloris-style drip-feed, the write
// timeout bounds a reader that never drains, and header size is capped.
// Every listener in this repo (htlserve, htlquery's -metrics-addr) goes
// through it.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// QueryResponse is the /query payload.
type QueryResponse struct {
	// Class is the parsed formula's class.
	Class string `json:"class"`
	// Videos counts the videos eligible for the query (those with segments
	// at the asserted level); Evaluated the subset that produced a list.
	Videos    int `json:"videos"`
	Evaluated int `json:"evaluated"`
	// Top is the k highest-similarity segment runs across all videos.
	Top []RankedDoc `json:"top"`
	// Skipped lists videos not attempted (open circuit breaker).
	Skipped []SkipDoc `json:"skipped,omitempty"`
	// Failed lists videos whose evaluation failed after retries.
	Failed []FailDoc `json:"failed,omitempty"`
	// Retries counts extra evaluation attempts spent on transient errors.
	Retries int64 `json:"retries,omitempty"`
	// ElapsedMS is the server-side wall time of the request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID is the distributed trace id the request ran under: the inbound
	// X-Htl-Trace value when one was propagated, or a freshly minted id when
	// the request asked for a trace.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the request's span tree (per-video evaluation with the store's
	// own spans stitched under each attempt), present with ?trace=1. A
	// coordinator stitches it under its scatter spans to build the
	// cross-process trace.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// RankedDoc is one ranked segment run.
type RankedDoc struct {
	Video int     `json:"video"`
	Beg   int     `json:"beg"`
	End   int     `json:"end"`
	Sim   float64 `json:"sim"`
	Frac  float64 `json:"frac"`
}

// SkipDoc is one video skipped without evaluation.
type SkipDoc struct {
	Video  int    `json:"video"`
	Reason string `json:"reason"`
}

// FailDoc is one video that failed evaluation.
type FailDoc struct {
	Video   int    `json:"video"`
	Error   string `json:"error"`
	Timeout bool   `json:"timeout,omitempty"`
}

// errorDoc is the JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

// Handler returns the server's full endpoint set:
//
//	GET  /query          evaluate an HTL query (q, level, root, engine, tau,
//	                     k, timeout, partial, trace parameters; trace=1 adds
//	                     the span tree to the envelope, and an inbound
//	                     X-Htl-Trace header joins the request into a
//	                     distributed trace)
//	POST /explain        evaluate with per-plan-node profiling and return the
//	                     annotated plan (q plus the /query parameters, and
//	                     exact=true for exact time attribution)
//	GET  /healthz        liveness: 200 while the process runs
//	GET  /readyz         readiness: 200 while serving, 503 once draining
//	POST /-/reload       re-read and swap the store file (durable servers:
//	                     re-run snapshot + WAL recovery over the data dir)
//	POST /-/checkpoint   fold the durable store's WAL into a fresh snapshot
//	GET  /metrics        server + current-store metrics and stats (JSON by
//	                     default; Prometheus text format via Accept or
//	                     ?format=prometheus)
//	GET  /debug/slowlog  the current store's slow-query log
//	GET  /debug/traces   the current store's recent traces (?id= for one)
//	GET  /debug/pprof/*  runtime profiles
//	GET  /debug/queries  per-plan-key workload statistics (?sort=calls|
//	                     total|mean, ?limit=N)
//	GET  /debug/timeseries  windowed rates and latency-quantile trends from
//	                     the background sampler (WithSampleInterval)
//	GET  /debug/health   the component health rollup with reasons
//	GET  /debug/dash     self-contained auto-refreshing HTML dashboard
//
// Every handler is panic-isolated: a panic is contained, counted, and
// answered with 500 instead of killing the connection's goroutine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() || s.Store() == nil {
			writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "draining"})
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/-/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, errorDoc{Error: "POST required"})
			return
		}
		if err := s.Reload(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Reloaded bool `json:"reloaded"`
			Videos   int  `json:"videos"`
		}{true, len(s.Store().Videos())})
	})
	mux.HandleFunc("/-/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, errorDoc{Error: "POST required"})
			return
		}
		if err := s.Checkpoint(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorDoc{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Checkpointed bool                  `json:"checkpointed"`
			Durable      htlvideo.DurableStats `json:"durable"`
		}{true, s.Store().DurableStats()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		st := s.Store()
		if obs.WantsPrometheus(r) {
			// Server and store registries share one exposition; their metric
			// namespaces (server.*, query.*, process/build) are disjoint.
			regs := []*obs.Registry{s.m.reg}
			if st != nil {
				regs = append(regs, st.Metrics())
			}
			obs.PrometheusHandler(w, regs...)
			return
		}
		doc := struct {
			Server obs.RegistrySnapshot `json:"server"`
			Store  obs.RegistrySnapshot `json:"store"`
			Stats  any                  `json:"stats"`
		}{Server: s.m.reg.Snapshot()}
		if st != nil {
			doc.Store = st.Metrics().Snapshot()
			doc.Stats = st.Stats()
		}
		writeJSON(w, http.StatusOK, doc)
	})
	// The slow log and profiles belong to the current store snapshot; the
	// indirection keeps them pointing at the freshly reloaded store.
	debug := func(w http.ResponseWriter, r *http.Request) {
		if st := s.Store(); st != nil {
			st.DebugHandler().ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	}
	mux.HandleFunc("/debug/slowlog", debug)
	mux.HandleFunc("/debug/traces", debug)
	mux.HandleFunc("/debug/pprof/", debug)
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		querystats.ServeSnapshot(w, r, s.queryStatsSnapshot())
	})
	mux.Handle("/debug/timeseries", s.sampler)
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		obs.WriteHealth(w, s.Health())
	})
	mux.Handle("/debug/dash", dash.Handler(dash.Sources{
		Title:   "htlserve",
		Health:  s.Health,
		Queries: s.queryStatsSnapshot,
		Sampler: s.sampler,
		Sparks: []string{
			"server.requests.total", "server.request.latency",
			"server.requests.in_flight", "query.total", "query.latency",
		},
	}))
	return s.instrument(mux)
}

// instrument wraps the mux with panic isolation and request accounting.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		s.m.inFlight.Inc()
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Inc()
				s.logf("server: panic serving %s: %v", r.URL.Path, rec)
				// Best effort: if the handler already wrote, the connection
				// is poisoned and the write below is a no-op.
				writeJSON(w, http.StatusInternalServerError, errorDoc{Error: "internal error"})
			}
			s.m.inFlight.Dec()
			s.m.reqLat.Observe(time.Since(start))
			s.m.responses.Inc()
		}()
		next.ServeHTTP(w, r)
	})
}

// handleQuery evaluates one HTL query under admission control: parse the
// parameters and the formula, then run one store query whose worker pool
// evaluates each video behind its circuit breaker with transient-error
// retries, and rank whatever survived into a partial result.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "no store loaded"})
		return
	}
	if err := s.limiter.acquire(r.Context()); err != nil {
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.limiter.retryAfter().Seconds())))
			writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: "overloaded, retry later"})
			return
		}
		// The client went away while queued; nothing to say to it.
		writeJSON(w, http.StatusRequestTimeout, errorDoc{Error: err.Error()})
		return
	}
	defer s.limiter.release()

	start := time.Now()
	p, status, err := s.parseQueryRequest(r)
	if err != nil {
		writeJSON(w, status, errorDoc{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	out := s.evaluate(ctx, st, p)
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	switch {
	case ctx.Err() != nil && out.Evaluated == 0:
		// The deadline consumed the whole request.
		writeJSON(w, http.StatusGatewayTimeout, out)
	case !p.Partial && len(out.Failed) > 0:
		writeJSON(w, http.StatusInternalServerError, out)
	default:
		writeJSON(w, http.StatusOK, out)
	}
}

// handleExplain evaluates one query with per-plan-node profiling and returns
// the annotated plan tree as JSON (htlvideo.ExplainResult). It runs under the
// same admission control as /query — an explain is a full evaluation, only
// with attribution switched on — and requires POST: it always executes the
// query against the store, caches bypassed.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorDoc{Error: "POST required"})
		return
	}
	st := s.Store()
	if st == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "no store loaded"})
		return
	}
	if err := s.limiter.acquire(r.Context()); err != nil {
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.limiter.retryAfter().Seconds())))
			writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: "overloaded, retry later"})
			return
		}
		writeJSON(w, http.StatusRequestTimeout, errorDoc{Error: err.Error()})
		return
	}
	defer s.limiter.release()

	p, status, err := s.parseQueryRequest(r)
	if err != nil {
		writeJSON(w, status, errorDoc{Error: err.Error()})
		return
	}
	exact := false
	if v := r.FormValue("exact"); v != "" {
		if exact, err = strconv.ParseBool(v); err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("invalid exact %q", v)})
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), p.Timeout)
	defer cancel()

	opts := []htlvideo.QueryOption{
		htlvideo.AtLevel(p.Level),
		htlvideo.WithUntilThreshold(p.Tau),
		htlvideo.WithEngine(p.Engine),
	}
	if p.AtRoot {
		opts = append(opts, htlvideo.AtRoot())
	}
	if p.Partial {
		opts = append(opts, htlvideo.WithPartialResults())
	}
	if exact {
		opts = append(opts, htlvideo.WithExactProfile())
	}
	if p.TraceID != "" {
		// The explain's trace (and so its trace_id field) joins the
		// coordinator's distributed trace.
		opts = append(opts, htlvideo.WithTraceID(p.TraceID))
	}
	er, err := st.ExplainCtx(ctx, p.Query, opts...)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code = http.StatusGatewayTimeout
		}
		writeJSON(w, code, errorDoc{Error: truncate(err.Error(), 300)})
		return
	}
	writeJSON(w, http.StatusOK, er)
}

// QueryParams is one parsed and validated /query request. The coordinator
// (internal/shard) parses with the same function, so validation — including
// the hard 400 on malformed ?timeout= — behaves identically at every layer.
type QueryParams struct {
	Query   string
	Formula htlvideo.Formula
	Level   int
	AtRoot  bool
	Engine  htlvideo.Engine
	Tau     float64
	K       int
	Timeout time.Duration
	Partial bool
	// Trace asks for the request's span-tree snapshot in the response
	// envelope (?trace=1).
	Trace bool
	// TraceID is inbound distributed trace context (the X-Htl-Trace header),
	// empty when the request starts a trace of its own. Its presence alone —
	// with or without ?trace=1 — joins this process's query traces into the
	// caller's trace id.
	TraceID string
}

// ParseDefaults are the knobs ParseQueryRequest needs from the serving
// configuration.
type ParseDefaults struct {
	// DefaultTimeout bounds a request that names no ?timeout=; MaxTimeout
	// caps what a client may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

// parseQueryRequest validates the request against the server's configuration.
func (s *Server) parseQueryRequest(r *http.Request) (QueryParams, int, error) {
	return ParseQueryRequest(r, ParseDefaults{
		DefaultTimeout: s.cfg.defaultTimeout,
		MaxTimeout:     s.cfg.maxTimeout,
	})
}

// ParseQueryRequest validates a /query-shaped request. Parse and validation
// failures are terminal — they are deterministic and are never retried — and
// answer 400.
//
// Unlike http.Request.FormValue, a malformed query string (a broken percent
// escape, say) or a present-but-unparseable ?timeout= is a hard 400, never a
// silent fall-back to defaults: a client that asked for a 250ms budget and
// mistyped it must hear about it rather than run under the server's default
// deadline.
func ParseQueryRequest(r *http.Request, d ParseDefaults) (p QueryParams, status int, err error) {
	p = QueryParams{Level: 2, Tau: 0.5, K: 10, Timeout: d.DefaultTimeout, Partial: true}
	// ParseForm is what FormValue calls underneath, except its error — a
	// malformed query string or body — is surfaced instead of swallowed.
	if err := r.ParseForm(); err != nil {
		return p, http.StatusBadRequest, fmt.Errorf("malformed request parameters: %v", err)
	}
	q := r.Form.Get("q")
	if q == "" {
		return p, http.StatusBadRequest, errors.New("missing q parameter")
	}
	p.Query = q
	if p.Formula, err = htlvideo.Parse(q); err != nil {
		return p, http.StatusBadRequest, fmt.Errorf("parsing query: %w", err)
	}
	if v := r.Form.Get("level"); v != "" {
		if p.Level, err = strconv.Atoi(v); err != nil || p.Level < 1 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid level %q", v)
		}
	}
	if v := r.Form.Get("root"); v != "" {
		if p.AtRoot, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid root %q", v)
		}
	}
	if p.AtRoot {
		p.Level = 1
	}
	switch v := r.Form.Get("engine"); v {
	case "", "auto":
		p.Engine = htlvideo.EngineAuto
	case "direct":
		p.Engine = htlvideo.EngineDirect
	case "sql":
		p.Engine = htlvideo.EngineSQL
	case "reference":
		p.Engine = htlvideo.EngineReference
	default:
		return p, http.StatusBadRequest, fmt.Errorf("unknown engine %q", v)
	}
	if v := r.Form.Get("tau"); v != "" {
		if p.Tau, err = strconv.ParseFloat(v, 64); err != nil || p.Tau < 0 || p.Tau > 1 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid tau %q", v)
		}
	}
	if v := r.Form.Get("k"); v != "" {
		if p.K, err = strconv.Atoi(v); err != nil || p.K < 1 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid k %q", v)
		}
	}
	if raw, ok := r.Form["timeout"]; ok {
		// Present but empty is as much a client bug as an unparseable value.
		v := ""
		if len(raw) > 0 {
			v = raw[0]
		}
		d2, perr := time.ParseDuration(v)
		if perr != nil || d2 <= 0 {
			return p, http.StatusBadRequest, fmt.Errorf("invalid timeout %q", v)
		}
		if d2 > d.MaxTimeout {
			d2 = d.MaxTimeout
		}
		p.Timeout = d2
	}
	if v := r.Form.Get("partial"); v != "" {
		if p.Partial, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid partial %q", v)
		}
	}
	if v := r.Form.Get("trace"); v != "" {
		if p.Trace, err = strconv.ParseBool(v); err != nil {
			return p, http.StatusBadRequest, fmt.Errorf("invalid trace %q", v)
		}
	}
	p.TraceID = r.Header.Get(obs.TraceHeader)
	return p, http.StatusOK, nil
}

// evaluate runs the request as one store query. The store's worker pool
// evaluates the videos (s.cfg.parallelism at a time) and calls the guard
// around each: the video passes its circuit breaker, runs with
// transient-error retries, and reports its outcome back to the breaker. A
// failing or tripped video costs its own results only: the store returns it
// in Results.Errors, which map to the response's skipped and failed lists.
func (s *Server) evaluate(ctx context.Context, st *htlvideo.Store, p QueryParams) *QueryResponse {
	out := &QueryResponse{Class: fmt.Sprint(htlvideo.Classify(p.Formula)), TraceID: p.TraceID}

	// Trace context: an inbound X-Htl-Trace alone joins the store's query
	// trace into the caller's id (it surfaces in this process's slow log and
	// trace ring under it); ?trace=1 additionally builds a request-level span
	// tree — one span per video, each attempt a child carrying the store's
	// own per-video spans — returned in the envelope for the caller to stitch.
	var tr *obs.Trace
	var evalSpan *obs.Span
	if p.Trace {
		tr = obs.NewTrace(p.Query)
		tr.SetID(p.TraceID)
		tr.SetTag("layer", "server")
		tr.SetTag("class", out.Class)
		evalSpan = tr.StartSpan("evaluate")
	}

	var retries atomic.Int64
	guard := func(ctx context.Context, id int, eval func(context.Context) error) error {
		key := int64(id)
		vsp := evalSpan.StartSpan("video")
		vsp.SetTag("video", strconv.Itoa(id))
		defer vsp.End()
		if !s.breaker.Allow(key) {
			s.m.brSkipped.Inc()
			vsp.SetTag("skipped", "breaker open")
			return htlvideo.ErrVideoSkipped
		}
		attempt := 0
		err := s.retry.Do(ctx, func() error {
			if attempt++; attempt > 1 {
				retries.Add(1)
			}
			// Untraced, asp is nil and eval keeps the store's own video span.
			asp := vsp.StartSpan("attempt")
			asp.SetTag("attempt", strconv.Itoa(attempt))
			e := eval(obs.ContextWithSpan(ctx, asp))
			if e != nil {
				asp.SetTag("outcome", truncate(e.Error(), 120))
			} else {
				asp.SetTag("outcome", "ok")
			}
			asp.End()
			return e
		}, IsTransient)
		switch {
		case err == nil:
			s.breaker.Report(key, false)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The request's own deadline died, which says nothing about
			// the video's health.
			s.breaker.Cancel(key)
		default:
			s.breaker.Report(key, true)
		}
		return err
	}
	opts := []htlvideo.QueryOption{
		htlvideo.AtLevel(p.Level),
		htlvideo.WithUntilThreshold(p.Tau),
		htlvideo.WithEngine(p.Engine),
		htlvideo.WithPartialResults(),
		htlvideo.WithParallelism(s.cfg.parallelism),
		htlvideo.WithVideoGuard(guard),
	}
	if p.AtRoot {
		opts = append(opts, htlvideo.AtRoot())
	}
	if p.TraceID != "" {
		opts = append(opts, htlvideo.WithTraceID(p.TraceID))
	}
	res, err := st.QueryFormulaCtx(ctx, p.Formula, opts...)
	evalSpan.End()
	if err != nil {
		// A guarded partial query fails whole only on a store with no videos
		// (an empty answer) or when the deadline expired while it waited on
		// an identical in-flight query (nothing evaluated: 504).
		res = &htlvideo.Results{}
	}
	out.Evaluated = len(res.PerVideo)
	out.Videos = out.Evaluated + len(res.Errors)
	out.Retries = retries.Load()
	for _, e := range res.Errors {
		var ve *htlvideo.VideoError
		errors.As(e, &ve)
		switch {
		case errors.Is(e, htlvideo.ErrVideoSkipped):
			out.Skipped = append(out.Skipped, SkipDoc{Video: ve.VideoID, Reason: "breaker open"})
		case errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded):
			out.Failed = append(out.Failed, FailDoc{Video: ve.VideoID, Error: e.Error(), Timeout: true})
		default:
			out.Failed = append(out.Failed, FailDoc{Video: ve.VideoID, Error: truncate(e.Error(), 300)})
		}
	}

	mergeSpan := tr.StartSpan("merge")
	for _, rk := range res.TopKCtx(ctx, p.K) {
		out.Top = append(out.Top, RankedDoc{
			Video: rk.VideoID, Beg: rk.Iv.Beg, End: rk.Iv.End,
			Sim: rk.Sim.Act, Frac: rk.Sim.Frac(),
		})
	}
	mergeSpan.End()
	if tr != nil {
		tr.SetTag("videos", strconv.Itoa(out.Videos))
		tr.SetTag("evaluated", strconv.Itoa(out.Evaluated))
		tr.Finish()
		out.TraceID = tr.ID()
		snap := tr.Snapshot()
		out.Trace = &snap
		// The request-level trace is retained alongside the store's own
		// query trace, so /debug/traces on this process shows the stitched
		// view.
		st.TraceRing().ObserveTrace(tr)
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
