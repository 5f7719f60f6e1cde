package serve

// The daemon side: HTTP handlers, the serving generation with its arena
// pool, atomic model hot-swap, admission/size limits and graceful drain.
//
// # Hot-swap without torn policies
//
// Everything a request needs to decide — the policy, its model, its cache
// and its arena pool — lives in one immutable serving value behind an
// atomic.Pointer. A request loads the pointer once and works off that
// snapshot for its whole lifetime; POST /v1/model builds a complete new
// serving and Stores it. In-flight requests finish on the generation they
// started on, new requests see the new one, and no request can ever observe
// half a swap — the bit-identity invariant extended to reconfiguration.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"synpa/internal/core"
	"synpa/internal/obs"
	"synpa/internal/predcache"
)

// Config tunes a placement server. The zero value serves without an
// inversion memo and with production-safe limits.
type Config struct {
	// Policy tunes the SYNPA policy built around each installed model
	// (core.PolicyOptions semantics). The model's category count picks
	// its extractor, so a swap to a model with no extractor answers 400.
	Policy core.PolicyOptions
	// SharedCache, when true, installs one predcache.Shared with default
	// options per serving generation so all in-flight requests warm one
	// inversion memo (bit-identical by construction); false inverts every
	// query directly.
	SharedCache bool
	// MaxRequestBytes bounds one /v1/place or /v1/model body, and one
	// /v1/place/batch line with its newline (default 1 MiB). A batch line
	// over it aborts the stream with a trailing error line.
	MaxRequestBytes int64
	// MaxBatchBytes bounds a whole /v1/place/batch stream (default 64 MiB).
	MaxBatchBytes int64
	// MaxConcurrent bounds the placement requests decided at once; excess
	// requests are rejected with 503 rather than queued (default
	// 4×GOMAXPROCS). A batch stream holds one slot for its whole length.
	MaxConcurrent int
	// DrainTimeout bounds Shutdown's graceful drain when the caller's
	// context has no deadline (default 10s).
	DrainTimeout time.Duration
	// Registry receives the serving metrics (default obs.Global()).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 64 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Global()
	}
	return c
}

// serving is one immutable generation: a policy, its (optional) shared
// cache and the arena pool serving it. Swaps replace the whole value.
type serving struct {
	policy *core.Policy
	gen    int64
	arenas sync.Pool
}

func newServing(m *core.Model, gen int64, cfg Config) (*serving, error) {
	p, err := core.NewPolicy(m, cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.SharedCache {
		p.SetSharedCache(predcache.NewShared(predcache.Options{}, 0))
	}
	sv := &serving{policy: p, gen: gen}
	sv.arenas.New = func() any { return p.NewArena() }
	return sv, nil
}

func (sv *serving) arena() *core.Arena    { return sv.arenas.Get().(*core.Arena) }
func (sv *serving) release(a *core.Arena) { sv.arenas.Put(a) }

// metrics are the server's resolved registry handles: request counters,
// the decision-latency histogram and the generation gauge.
type metrics struct {
	placeRequests, placeErrors               *obs.Counter
	batchRequests, batchQueries, batchErrors *obs.Counter
	swaps, swapErrors, rejected, panics      *obs.Counter
	generation                               *obs.Gauge
	placeLatency                             *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		placeRequests: r.Counter("synpad.place.requests"),
		placeErrors:   r.Counter("synpad.place.errors"),
		batchRequests: r.Counter("synpad.batch.requests"),
		batchQueries:  r.Counter("synpad.batch.queries"),
		batchErrors:   r.Counter("synpad.batch.errors"),
		swaps:         r.Counter("synpad.model.swaps"),
		swapErrors:    r.Counter("synpad.model.errors"),
		rejected:      r.Counter("synpad.rejected"),
		panics:        r.Counter("synpad.panics"),
		generation:    r.Gauge("synpad.generation"),
		placeLatency:  r.Histogram("synpad.place.latency_ns"),
	}
}

// Server is the placement daemon: build with New, expose via Handler or
// Serve, reconfigure live through POST /v1/model, stop with Shutdown.
type Server struct {
	cfg Config
	m   metrics

	cur    atomic.Pointer[serving]
	gen    atomic.Int64
	swapMu sync.Mutex // serialises generation bumps, never request traffic

	sem     chan struct{}
	hs      *http.Server
	handler http.Handler
}

// New builds a placement server around an initial model (generation 1).
func New(model *core.Model, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, m: newMetrics(cfg.Registry), sem: make(chan struct{}, cfg.MaxConcurrent)}
	sv, err := newServing(model, s.gen.Add(1), cfg)
	if err != nil {
		return nil, err
	}
	s.cur.Store(sv)
	s.m.generation.Set(sv.gen)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", s.handlePlace)
	mux.HandleFunc("POST /v1/place/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/model", s.handleModel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.handler = s.recoverPanics(mux)
	s.hs = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// Handler exposes the server's routes, for callers embedding the placement
// surface into their own http.Server (or an httptest one).
func (s *Server) Handler() http.Handler { return s.handler }

// recoverPanics answers a panic in h with a JSON 500 and counts it in
// synpad.panics; without it net/http drops the connection and the client
// sees no reason. A handler that panics after writing its header (a batch
// stream mid-way) gets the error line appended to what it wrote. The
// handlers' deferred cleanups run first, so the concurrency slot is
// released. http.ErrAbortHandler keeps its meaning.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.m.panics.Add(1)
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: fmt.Sprintf("internal error: %v", v)})
		}()
		h.ServeHTTP(w, r)
	})
}

// Generation returns the current serving generation (1-based; each
// successful model swap increments it).
func (s *Server) Generation() int64 { return s.cur.Load().gen }

// Policy returns the currently serving policy — the in-process half of the
// HTTP-vs-in-process differential tests.
func (s *Server) Policy() *core.Policy { return s.cur.Load().policy }

// Serve accepts connections on l until Shutdown. It blocks, returning
// http.ErrServerClosed after a graceful stop (net/http semantics).
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully drains the server: stop accepting, let in-flight
// requests finish, give up at the context deadline (or the configured
// DrainTimeout when ctx has none).
func (s *Server) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	return s.hs.Shutdown(ctx)
}

// acquire admits one placement request under the concurrency bound, or
// answers 503 and reports false. Rejection over queueing: a placement
// server's callers hold schedulers; a bounded-latency "try elsewhere" beats
// an unbounded queue.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.m.rejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: fmt.Sprintf("server at its concurrency limit (%d in flight)", s.cfg.MaxConcurrent)})
		return false
	}
}

func (s *Server) releaseSlot() { <-s.sem }

// handlePlace answers POST /v1/place: one query, one decision, one arena
// from the generation's pool.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	s.m.placeRequests.Add(1)
	if !s.acquire(w) {
		return
	}
	defer s.releaseSlot()

	var q PlaceRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err == nil {
		err = decodeRequest(body, &q)
	}
	if err != nil {
		s.m.placeErrors.Add(1)
		writeJSON(w, decodeStatus(err), ErrorResponse{Error: "parsing request: " + err.Error()})
		return
	}

	sv := s.cur.Load() // one snapshot per request: the hot-swap contract
	a := sv.arena()
	t0 := time.Now()
	resp, err := PlaceOne(sv.policy, a, &q)
	s.m.placeLatency.Observe(float64(time.Since(t0).Nanoseconds()))
	sv.release(a)
	if err != nil {
		s.m.placeErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Synpad-Generation", strconv.FormatInt(sv.gen, 10))
	if writeJSON(w, http.StatusOK, resp) != nil {
		s.m.placeErrors.Add(1)
	}
}

// handleBatch answers POST /v1/place/batch: a JSONL stream of PlaceRequests
// in, the matching JSONL stream of PlaceResponses out, strictly 1:1 and in
// order. Each non-empty line is decoded, decided by PlaceOne and encoded
// before the next line is read, so the handler holds one request at a time.
// A malformed or infeasible line yields an ErrorResponse line, not a
// dropped one; an empty line carries no query and gets no answer. Answers
// leave through one buffered writer, flushed when it fills and when the
// stream ends.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.m.batchRequests.Add(1)
	if r.ContentLength > s.cfg.MaxBatchBytes {
		s.m.batchErrors.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("batch body %d bytes exceeds the %d-byte limit", r.ContentLength, s.cfg.MaxBatchBytes)})
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.releaseSlot()

	sv := s.cur.Load()
	a := sv.arena()
	defer sv.release(a)

	// The scanner's line limit is the larger of its buffer and its max, so
	// the buffer starts no larger than MaxRequestBytes.
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	sc.Buffer(make([]byte, min(64<<10, s.cfg.MaxRequestBytes)), int(s.cfg.MaxRequestBytes))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Synpad-Generation", strconv.FormatInt(sv.gen, 10))
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	// place decides one line: its answer, or the error to answer instead.
	place := func(raw []byte) (*PlaceResponse, error) {
		var q PlaceRequest
		if err := decodeRequest(raw, &q); err != nil {
			return nil, fmt.Errorf("parsing request: %w", err)
		}
		t0 := time.Now()
		resp, err := PlaceOne(sv.policy, a, &q)
		s.m.placeLatency.Observe(float64(time.Since(t0).Nanoseconds()))
		return resp, err
	}
	// answer writes one line: resp, or err as an ErrorResponse. A response
	// that cannot be encoded becomes an ErrorResponse line too, so the
	// stream stays 1:1.
	var buf bytes.Buffer
	answer := func(resp *PlaceResponse, err error) error {
		var v any = resp
		if err != nil {
			v = ErrorResponse{Error: err.Error()}
		}
		buf.Reset()
		// A query counts once its answer has encoded; an unencodable
		// answer is an error line, never both.
		if encErr := encodeAnswer(&buf, v); err != nil || encErr != nil {
			s.m.batchErrors.Add(1)
		} else {
			s.m.batchQueries.Add(1)
		}
		_, err = bw.Write(buf.Bytes())
		return err
	}

	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if answer(place(sc.Bytes())) != nil {
			return // client gone; nothing sensible left to write
		}
	}
	if err := sc.Err(); err != nil {
		// Mid-stream failure (line over MaxRequestBytes, body over
		// MaxBatchBytes, transport error) after the 200 header is already
		// out: degrade to a trailing error line so the client sees a
		// structured reason instead of silence. A failed write means the
		// client is gone.
		_ = answer(nil, fmt.Errorf("batch stream aborted: %w", err))
	}
}

// handleModel answers POST /v1/model: parse, validate, build a complete new
// serving generation and publish it atomically. In-flight requests keep the
// snapshot they loaded; nothing is dropped or torn.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m, err := core.ReadModelJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		s.m.swapErrors.Add(1)
		writeJSON(w, decodeStatus(err), ErrorResponse{Error: err.Error()})
		return
	}
	s.swapMu.Lock()
	sv, err := newServing(m, s.gen.Add(1), s.cfg)
	if err == nil {
		s.cur.Store(sv)
		s.m.generation.Set(sv.gen)
	}
	s.swapMu.Unlock()
	if err != nil {
		s.m.swapErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	s.m.swaps.Add(1)
	writeJSON(w, http.StatusOK, SwapResponse{Generation: sv.gen, Categories: m.K(), Policy: sv.policy.Name()})
}

// SwapResponse is POST /v1/model's success body.
type SwapResponse struct {
	Generation int64  `json:"generation"`
	Categories int    `json:"categories"`
	Policy     string `json:"policy"`
}

// CacheStat is one memo's traffic in a StatsResponse.
type CacheStat struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Resets  uint64 `json:"resets"`
	Entries int    `json:"entries"`
}

// StatsResponse is GET /v1/stats's body: the serving identity, the cache
// mode ("shared", or "none" without a memo), the shared cache's traffic
// (shared mode only) and the full metrics registry snapshot (request
// counters, decision-latency histogram).
type StatsResponse struct {
	Generation  int64        `json:"generation"`
	Policy      string       `json:"policy"`
	CacheMode   string       `json:"cache_mode"`
	InvertCache *CacheStat   `json:"invert_cache,omitempty"`
	Metrics     obs.Snapshot `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sv := s.cur.Load()
	resp := StatsResponse{
		Generation: sv.gen,
		Policy:     sv.policy.Name(),
		CacheMode:  "none",
		Metrics:    s.cfg.Registry.Snapshot(),
	}
	if shared := sv.policy.SharedCache(); shared != nil {
		resp.CacheMode = "shared"
		inv, _ := shared.Stats()
		resp.InvertCache = &CacheStat{Hits: inv.Hits, Misses: inv.Misses, Resets: inv.Resets, Entries: shared.Entries()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is GET /healthz's body.
type HealthResponse struct {
	OK         bool  `json:"ok"`
	Generation int64 `json:"generation"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Generation: s.cur.Load().gen})
}

// decodeStatus maps a request-decoding error to its HTTP status: the body
// hitting MaxBytesReader's limit is 413, anything else malformed input.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// encodeAnswer appends v's JSON line to buf. A value that cannot be
// encoded (a non-finite float) appends an ErrorResponse naming the failure
// instead, and its error is returned.
func encodeAnswer(buf *bytes.Buffer, v any) error {
	err := json.NewEncoder(buf).Encode(v) // writes nothing on failure
	if err != nil {
		_ = json.NewEncoder(buf).Encode(ErrorResponse{Error: "encoding response: " + err.Error()}) // a string always encodes
	}
	return err
}

// writeJSON answers status with v's JSON encoding. It encodes before it
// writes the header, so a value that cannot be encoded answers 500 with an
// ErrorResponse, never status with an empty body; the encoding error is
// returned for the caller's error count.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	var buf bytes.Buffer
	err := encodeAnswer(&buf, v)
	if err != nil {
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone
	return err
}
