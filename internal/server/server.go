package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	coconut "github.com/coconut-db/coconut"
)

// Options configures a Server.
type Options struct {
	// DefaultTimeout is the per-request deadline applied when the client
	// sends none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested timeout_ms — a client may ask
	// for less time than the default, or more up to this bound (default
	// 2m).
	MaxTimeout time.Duration
	// MaxInFlightQueries bounds concurrently executing queries; excess
	// requests are shed with 429 + Retry-After instead of queueing
	// (default 64).
	MaxInFlightQueries int
	// MaxInFlightAppends bounds concurrently executing appends (default 8).
	MaxInFlightAppends int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish before their contexts are force-cancelled (default
	// 10s).
	DrainTimeout time.Duration
}

// WithDefaults fills unset fields with the documented defaults.
func (o Options) WithDefaults() Options {
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.MaxInFlightQueries <= 0 {
		o.MaxInFlightQueries = 64
	}
	if o.MaxInFlightAppends <= 0 {
		o.MaxInFlightAppends = 8
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// Server is the coconutd request front end: admission control, deadlines,
// and the HTTP/JSON handlers over a Manager of indexes.
type Server struct {
	mgr  *Manager
	opts Options
	mux  *http.ServeMux

	// base is the ancestor of every request context (wired through
	// http.Server.BaseContext by NewHTTPServer). Cancelling it at the
	// drain deadline reaches requests that http.Server.Shutdown alone
	// cannot interrupt — Shutdown only waits, it never cancels.
	base       context.Context
	cancelBase context.CancelFunc

	draining  atomic.Bool
	querySem  chan struct{}
	appendSem chan struct{}

	queriesTotal     atomic.Int64
	appendsTotal     atomic.Int64
	shedQueries      atomic.Int64
	shedAppends      atomic.Int64
	deadlineExceeded atomic.Int64
	canceled         atomic.Int64
}

// New returns a Server over mgr. The caller serves s.Handler() —
// typically through NewHTTPServer, which also wires the drain-cancel
// plumbing — and finally calls Shutdown.
func New(mgr *Manager, opts Options) *Server {
	opts = opts.WithDefaults()
	s := &Server{
		mgr:       mgr,
		opts:      opts,
		mux:       http.NewServeMux(),
		querySem:  make(chan struct{}, opts.MaxInFlightQueries),
		appendSem: make(chan struct{}, opts.MaxInFlightAppends),
	}
	s.base, s.cancelBase = context.WithCancel(context.Background())
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/indexes", s.handleIndexes)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/append", s.handleAppend)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BaseContext is the context every request context must descend from so
// that drain-deadline cancellation reaches in-flight requests. NewHTTPServer
// wires it; custom serving setups (tests) must do the same.
func (s *Server) BaseContext() context.Context { return s.base }

// NewHTTPServer returns an http.Server for addr wired to s: requests are
// served by s.Handler() and their contexts descend from s.BaseContext().
func (s *Server) NewHTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:        addr,
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.base },
	}
}

// Shutdown drains hs gracefully: stop accepting, let in-flight requests
// finish under the drain deadline, force-cancel whatever is still running
// at the deadline, then Sync+Close every index. The returned error is nil
// when the drain was clean (force-cancelling stragglers still leaves every
// index crash-consistent — Close runs after the cancellations unwind).
func (s *Server) Shutdown(parent context.Context, hs *http.Server) error {
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(parent, s.opts.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		// The drain deadline passed with requests still in flight: cancel
		// their contexts (they unwind with ctx.Err(), never a partial
		// answer) and close the connections out from under them.
		s.cancelBase()
		hs.Close()
	}
	if cerr := s.mgr.CloseAll(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// timeoutFor resolves the effective per-request deadline: the server
// default, overridden by a positive client timeout_ms capped at MaxTimeout.
func (s *Server) timeoutFor(clientMS int64) time.Duration {
	if clientMS <= 0 {
		return s.opts.DefaultTimeout
	}
	d := time.Duration(clientMS) * time.Millisecond
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// errStatus maps a search/append error to an HTTP status and bumps the
// matching counter.
func (s *Server) errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away or the drain deadline cancelled the
		// request; the status is best-effort (the connection is usually
		// gone).
		s.canceled.Add(1)
		return http.StatusServiceUnavailable
	case errors.Is(err, coconut.ErrCorruptData):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// admit acquires one slot of sem without blocking: admission control sheds
// load instead of queueing it, so an overloaded server answers 429 in
// microseconds rather than stalling every caller.
func admit(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// IndexInfo is one /indexes (and /stats) entry. BlockCache reports the
// index's shared decoded-block cache counters (all-zero for uncompressed
// layouts and variants that read no cache) so operators can size
// Config.CacheBytes from the live hit/miss ratio.
type IndexInfo struct {
	Name       string             `json:"name"`
	UUID       string             `json:"uuid"`
	Variant    string             `json:"variant"`
	SeriesLen  int                `json:"series_len"`
	Count      int64              `json:"count"`
	Degraded   bool               `json:"degraded"`
	BlockCache coconut.CacheStats `json:"block_cache"`
}

func (s *Server) indexInfos() []IndexInfo {
	hs := s.mgr.List()
	out := make([]IndexInfo, len(hs))
	for i, h := range hs {
		out[i] = IndexInfo{
			Name: h.Name, UUID: h.UUID, Variant: h.Variant,
			SeriesLen: h.SeriesLen, Count: h.Count(), Degraded: h.Degraded(),
			BlockCache: h.CacheStats(),
		}
	}
	return out
}

// Stats is the /stats response.
type Stats struct {
	InFlightQueries  int         `json:"in_flight_queries"`
	InFlightAppends  int         `json:"in_flight_appends"`
	QueriesTotal     int64       `json:"queries_total"`
	AppendsTotal     int64       `json:"appends_total"`
	ShedQueries      int64       `json:"shed_queries"`
	ShedAppends      int64       `json:"shed_appends"`
	DeadlineExceeded int64       `json:"deadline_exceeded"`
	Canceled         int64       `json:"canceled"`
	DegradedIndexes  int         `json:"degraded_indexes"`
	Draining         bool        `json:"draining"`
	Indexes          []IndexInfo `json:"indexes"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	infos := s.indexInfos()
	degraded := 0
	for _, in := range infos {
		if in.Degraded {
			degraded++
		}
	}
	writeJSON(w, http.StatusOK, Stats{
		InFlightQueries:  len(s.querySem),
		InFlightAppends:  len(s.appendSem),
		QueriesTotal:     s.queriesTotal.Load(),
		AppendsTotal:     s.appendsTotal.Load(),
		ShedQueries:      s.shedQueries.Load(),
		ShedAppends:      s.shedAppends.Load(),
		DeadlineExceeded: s.deadlineExceeded.Load(),
		Canceled:         s.canceled.Load(),
		DegradedIndexes:  degraded,
		Draining:         s.draining.Load(),
		Indexes:          infos,
	})
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.indexInfos())
}

// QueryRequest is the /query request body.
type QueryRequest struct {
	// Index names the target index; UUID optionally pins the exact open
	// generation (409 on mismatch).
	Index string `json:"index"`
	UUID  string `json:"uuid,omitempty"`
	// Series is the query series (SeriesLen values).
	Series []float64 `json:"series"`
	// Mode is exact (default), approx, or knn.
	Mode string `json:"mode,omitempty"`
	// K is the neighbor count for knn mode (default 1).
	K int `json:"k,omitempty"`
	// Radius is the approximate-search leaf radius (default 1).
	Radius int `json:"radius,omitempty"`
	// TimeoutMS overrides the server's default deadline, capped at its
	// maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// ZNormalize z-normalizes the query before searching (the built-in
	// datasets are z-normalized).
	ZNormalize bool `json:"znormalize,omitempty"`
}

// QueryNeighbor is one answer in a QueryResponse.
type QueryNeighbor struct {
	Position int64   `json:"position"`
	Distance float64 `json:"distance"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Index         string          `json:"index"`
	UUID          string          `json:"uuid"`
	Mode          string          `json:"mode"`
	Results       []QueryNeighbor `json:"results"`
	VisitedSeries int64           `json:"visited_series"`
	ElapsedMS     float64         `json:"elapsed_ms"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !admit(s.querySem) {
		s.shedQueries.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "query capacity (%d in flight) exhausted", s.opts.MaxInFlightQueries)
		return
	}
	defer func() { <-s.querySem }()
	s.queriesTotal.Add(1)

	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	h, ok := s.mgr.Get(req.Index)
	if !ok {
		writeError(w, http.StatusNotFound, "no index named %q", req.Index)
		return
	}
	if req.UUID != "" && req.UUID != h.UUID {
		writeError(w, http.StatusConflict, "index %q is now generation %s (request pinned %s)", h.Name, h.UUID, req.UUID)
		return
	}
	if len(req.Series) != h.SeriesLen {
		writeError(w, http.StatusBadRequest, "query series has %d values, index %q holds series of length %d",
			len(req.Series), h.Name, h.SeriesLen)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "exact"
	}
	radius := req.Radius
	if radius <= 0 {
		radius = 1
	}
	q := coconut.Series(req.Series)
	if req.ZNormalize {
		q = coconut.ZNormalize(q)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	start := time.Now()
	resp := QueryResponse{Index: h.Name, UUID: h.UUID, Mode: mode}
	switch mode {
	case "exact":
		res, err := h.Search(ctx, q)
		if err != nil {
			writeError(w, s.errStatus(err), "exact search: %v", err)
			return
		}
		resp.Results = []QueryNeighbor{{Position: res.Position, Distance: res.Distance}}
		resp.VisitedSeries = res.VisitedSeries
	case "approx":
		res, err := h.SearchApprox(ctx, q, radius)
		if err != nil {
			writeError(w, s.errStatus(err), "approximate search: %v", err)
			return
		}
		resp.Results = []QueryNeighbor{{Position: res.Position, Distance: res.Distance}}
		resp.VisitedSeries = res.VisitedSeries
	case "knn":
		if h.SearchKNN == nil {
			writeError(w, http.StatusBadRequest, "index %q (%s) does not support knn", h.Name, h.Variant)
			return
		}
		k := req.K
		if k <= 0 {
			k = 1
		}
		ns, err := h.SearchKNN(ctx, q, k)
		if err != nil {
			writeError(w, s.errStatus(err), "knn search: %v", err)
			return
		}
		resp.Results = make([]QueryNeighbor, len(ns))
		for i, n := range ns {
			resp.Results[i] = QueryNeighbor{Position: n.Position, Distance: n.Distance}
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want exact, approx, or knn)", mode)
		return
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// AppendRequest is the /append request body.
type AppendRequest struct {
	Index string `json:"index"`
	UUID  string `json:"uuid,omitempty"`
	// Series holds the records to append, each SeriesLen values.
	Series    [][]float64 `json:"series"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// AppendResponse is the /append response body.
type AppendResponse struct {
	Index     string  `json:"index"`
	UUID      string  `json:"uuid"`
	Appended  int     `json:"appended"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !admit(s.appendSem) {
		s.shedAppends.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "append capacity (%d in flight) exhausted", s.opts.MaxInFlightAppends)
		return
	}
	defer func() { <-s.appendSem }()
	s.appendsTotal.Add(1)

	var req AppendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	h, ok := s.mgr.Get(req.Index)
	if !ok {
		writeError(w, http.StatusNotFound, "no index named %q", req.Index)
		return
	}
	if req.UUID != "" && req.UUID != h.UUID {
		writeError(w, http.StatusConflict, "index %q is now generation %s (request pinned %s)", h.Name, h.UUID, req.UUID)
		return
	}
	if h.insert == nil {
		writeError(w, http.StatusBadRequest, "index %q (%s) is read-only", h.Name, h.Variant)
		return
	}
	if len(req.Series) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	batch := make([]coconut.Series, len(req.Series))
	for i, vals := range req.Series {
		if len(vals) != h.SeriesLen {
			writeError(w, http.StatusBadRequest, "series %d has %d values, index %q holds series of length %d",
				i, len(vals), h.Name, h.SeriesLen)
			return
		}
		batch[i] = coconut.Series(vals)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	start := time.Now()
	if err := h.insert(ctx, batch); err != nil {
		writeError(w, s.errStatus(err), "append: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Index:     h.Name,
		UUID:      h.UUID,
		Appended:  len(batch),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}
