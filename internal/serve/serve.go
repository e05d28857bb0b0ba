// Package serve is the multi-tenant evaluation service: the simulator's
// CLIs split into a long-running daemon (cmd/psserve). An evaluation
// request names a spec, routing, traffic pattern, offered load, seed and
// an optional fault plan; the service answers with the sim Result plus
// an obs manifest.
//
// The architecture separates the two halves of every evaluation:
//
//   - Build (expensive, cacheable): topology construction and routing
//     tables, owned by Builder. Specs are built once — concurrent
//     requests for the same name share a single construction — and the
//     result is read-only, so one BuiltSpec serves any number of
//     concurrent runs.
//
//   - Run (cheap, per-request): one sim.RunPoint on a bounded worker
//     pool with a per-run deadline. Finished response bodies land in a
//     byte-bounded LRU keyed by the canonical request tuple, so a repeat
//     request replays the exact bytes of the first answer without
//     touching the builder or the engine. The cache key is computed
//     from the request alone (spec name + FNV of the fault-plan text),
//     which is what lets a warm hit skip construction entirely.
//
// Admission control: identical in-flight requests join the running job
// instead of queuing a duplicate; when the queue is full the request is
// shed with 429 + Retry-After; a draining service (Close, SIGTERM)
// refuses new work with 503 while in-flight runs finish.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

// Request bounds: hard caps on attacker-controlled sizes, checked
// before any expensive work.
const (
	maxPlanBytes  = 1 << 18 // fault-plan text
	maxPlanEvents = 1 << 14 // parsed fault events
	maxEvalCycles = 1 << 20 // requested measurement window
	maxRunWorkers = 64      // per-run engine goroutines
	maxEvalLanes  = 8       // requested multipath tree lanes
)

// EvalRequest is the POST /v1/eval body. Zero-valued optional fields
// take the documented defaults in Normalize.
type EvalRequest struct {
	Spec    string  `json:"spec"`              // required: a name sim.KnownSpec accepts
	Routing string  `json:"routing,omitempty"` // a sim.RoutingModeNames() entry (default "min")
	Pattern string  `json:"pattern,omitempty"` // traffic pattern (default "uniform")
	Load    float64 `json:"load,omitempty"`    // offered load in (0,1] (default 0.2)
	Cycles  int     `json:"cycles,omitempty"`  // measurement window; 0 = paper defaults
	Seed    int64   `json:"seed,omitempty"`    // RNG seed >= 0 (default 1)
	// Workers drives the per-run engine pool. Results are bit-identical
	// at any value (the engine's contract), so it is excluded from the
	// cache key. 0 = service default.
	Workers int `json:"workers,omitempty"`
	// FaultPlan is scripted fault-plan text (sim.ParsePlan format),
	// hashed into the cache key.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Lanes is the spanning-tree lane count of the multipath routings
	// (sim.RoutingMode.Multipath): 0 selects the engine default. Rejected
	// on single-table routings, where it is a no-op — silently accepting
	// it would mint distinct cache keys for bit-identical runs.
	Lanes int `json:"lanes,omitempty"`
	// RepairDelay is the table-reconvergence stall in cycles charged
	// after every applied fault event (sim.Params.RepairDelay). Needs a
	// fault plan for the same no-op-field reason as Lanes.
	RepairDelay int64 `json:"repair_delay,omitempty"`
	// Async makes POST /v1/eval return 202 with a run id immediately;
	// poll GET /v1/runs/{id} for the artifact.
	Async bool `json:"async,omitempty"`
}

// DecodeEvalRequest strictly parses an eval body: unknown fields,
// trailing data and malformed JSON are errors, never a partially
// defaulted request.
func DecodeEvalRequest(r io.Reader) (EvalRequest, error) {
	var req EvalRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return EvalRequest{}, fmt.Errorf("serve: bad request body: %w", err)
	}
	if dec.More() {
		return EvalRequest{}, errors.New("serve: trailing data after request body")
	}
	return req, nil
}

// Normalize fills defaults and validates every field that can be
// checked without building the topology. It must leave the request in
// canonical form: two requests that Normalize identically produce the
// same cache key.
func (req *EvalRequest) Normalize() error {
	if req.Spec == "" {
		return errors.New("serve: missing required field \"spec\"")
	}
	if !sim.KnownSpec(req.Spec) {
		return fmt.Errorf("serve: unknown spec %q", req.Spec)
	}
	if req.Routing == "" {
		req.Routing = "min"
	}
	mode, err := sim.ParseRoutingMode(req.Routing)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if req.Lanes < 0 || req.Lanes > maxEvalLanes {
		return fmt.Errorf("serve: lanes must be in [0, %d], got %d", maxEvalLanes, req.Lanes)
	}
	if req.Lanes != 0 && !mode.Multipath() {
		return fmt.Errorf("serve: lanes requires multipath routing, got %q", req.Routing)
	}
	if req.RepairDelay < 0 {
		return fmt.Errorf("serve: repair_delay must be >= 0, got %d", req.RepairDelay)
	}
	if req.RepairDelay > 0 && req.FaultPlan == "" {
		return errors.New("serve: repair_delay without a fault plan is a no-op")
	}
	if req.Pattern == "" {
		req.Pattern = "uniform"
	}
	if req.Load == 0 {
		req.Load = 0.2
	}
	if !sim.ValidLoad(req.Load) {
		return fmt.Errorf("serve: load must be in (0, 1], got %g", req.Load)
	}
	if req.Cycles < 0 || req.Cycles > maxEvalCycles {
		return fmt.Errorf("serve: cycles must be in [0, %d], got %d", maxEvalCycles, req.Cycles)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Seed < 0 {
		return fmt.Errorf("serve: seed must be >= 0, got %d", req.Seed)
	}
	if req.Workers < 0 || req.Workers > maxRunWorkers {
		return fmt.Errorf("serve: workers must be in [0, %d], got %d", maxRunWorkers, req.Workers)
	}
	if len(req.FaultPlan) > maxPlanBytes {
		return fmt.Errorf("serve: fault plan exceeds %d bytes", maxPlanBytes)
	}
	return nil
}

// plan parses the scripted fault plan, enforcing the event cap. A nil
// return means a healthy run.
func (req *EvalRequest) plan() (*sim.Plan, error) {
	if req.FaultPlan == "" {
		return nil, nil
	}
	p, err := sim.ParsePlan(req.FaultPlan)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if len(p.Events) > maxPlanEvents {
		return nil, fmt.Errorf("serve: fault plan exceeds %d events", maxPlanEvents)
	}
	return p, nil
}

// Key is the content address of a normalized request: FNV-1a 64
// (%016x) over the canonical tuple (spec, routing, pattern, load,
// cycles, seed, plan hash, lanes, repair delay). Workers and Async are
// deliberately excluded — neither changes a single Result bit, so
// requests differing only there share one artifact. The key doubles as
// the async run id.
func (req *EvalRequest) Key(plan *sim.Plan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "spec=%s routing=%s pattern=%s load=%.17g cycles=%d seed=%d plan=%016x lanes=%d rdelay=%d",
		req.Spec, req.Routing, req.Pattern, req.Load, req.Cycles, req.Seed, plan.Hash(), req.Lanes, req.RepairDelay)
	return fmt.Sprintf("%016x", h.Sum64())
}

// params builds the engine parameters: the §9.4 defaults, with the
// cycle windows rescaled when the request asks for a shorter (or
// longer) measurement.
func (req *EvalRequest) params(defaultWorkers int) sim.Params {
	p := sim.DefaultParams(req.Seed)
	p.SetCycles(req.Cycles)
	p.Workers = req.Workers
	if p.Workers == 0 {
		p.Workers = defaultWorkers
	}
	p.Lanes = req.Lanes
	p.RepairDelay = req.RepairDelay
	return p
}

// EvalResult is the wire form of sim.Result.
type EvalResult struct {
	Load             float64 `json:"load"`
	AvgLatency       float64 `json:"avg_latency"`
	MaxLatency       int64   `json:"max_latency"`
	DeliveredFrac    float64 `json:"delivered_frac"`
	Throughput       float64 `json:"throughput"`
	Backlog          int     `json:"backlog"`
	BacklogAtMeasEnd int     `json:"backlog_at_meas_end"`
	Saturated        bool    `json:"saturated"`
	Lost             int64   `json:"lost"`
	Dropped          int64   `json:"dropped,omitempty"`
	Retried          int64   `json:"retried,omitempty"`
	TerminatedEarly  bool    `json:"terminated_early,omitempty"`
}

func wireResult(r sim.Result) EvalResult {
	return EvalResult{
		Load: r.Load, AvgLatency: r.AvgLatency, MaxLatency: r.MaxLatency,
		DeliveredFrac: r.DeliveredFrac, Throughput: r.Throughput,
		Backlog: r.Backlog, BacklogAtMeasEnd: r.BacklogAtMeasEnd,
		Saturated: r.Saturated, Lost: r.Lost, Dropped: r.Dropped,
		Retried: r.Retried, TerminatedEarly: r.TerminatedEarly,
	}
}

// EvalResponse is the 200 body of a completed evaluation: the cache
// key (also the poll id), the provenance manifest and the Result. The
// body is a pure function of the normalized request and the binary —
// a warm cache hit replays it byte for byte.
type EvalResponse struct {
	Key      string       `json:"key"`
	Manifest obs.Manifest `json:"manifest"`
	Result   EvalResult   `json:"result"`
}

// Config bounds a Service. Zero values take the documented defaults.
type Config struct {
	Workers      int           // eval worker pool size (default GOMAXPROCS)
	QueueDepth   int           // pending-eval queue (default 4×Workers)
	CacheBytes   int64         // artifact LRU budget (default 64 MiB)
	MaxBodyBytes int64         // request body cap (default 1 MiB)
	RunTimeout   time.Duration // per-run deadline (default 120s)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 120 * time.Second
	}
	return c
}

// job is one admitted evaluation making its way through the worker
// pool. done closes after body/status/errMsg are final.
type job struct {
	key  string
	req  EvalRequest
	plan *sim.Plan

	done   chan struct{}
	body   []byte
	status int    // HTTP status of a failed run
	errMsg string // error message of a failed run
}

// failedRunMemory bounds the failed-run registry the poll endpoint
// reads: old failures age out in insertion order.
const failedRunMemory = 256

// Service is the evaluation daemon: builder + artifact cache + bounded
// worker pool. Create with New, serve Handler(), stop with Close.
type Service struct {
	cfg     Config
	builder *Builder
	cache   *resultCache

	mu          sync.Mutex
	draining    bool
	queue       chan *job
	inflight    map[string]*job   // cache key → running/queued job
	failed      map[string]string // cache key → error of a finished failed run
	failedOrder []string
	wg          sync.WaitGroup

	requests    atomic.Int64
	badRequests atomic.Int64
	misses      atomic.Int64
	joined      atomic.Int64
	shed        atomic.Int64

	// evaluateFn is the run step, swappable by white-box tests that
	// need workers to block deterministically.
	evaluateFn func(j *job) ([]byte, int, error)
}

// New starts a Service: cfg.Workers evaluation goroutines draining a
// cfg.QueueDepth admission queue.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		builder:  NewBuilder(),
		cache:    newResultCache(cfg.CacheBytes),
		queue:    make(chan *job, cfg.QueueDepth),
		inflight: map[string]*job{},
		failed:   map[string]string{},
	}
	s.evaluateFn = s.evaluate
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close drains the service: new evaluations are refused with 503,
// queued and running jobs finish, workers exit. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Service) runJob(j *job) {
	body, status, err := s.evaluateFn(j)
	if err != nil {
		j.status, j.errMsg = status, err.Error()
	} else {
		j.body = body
	}
	// Publish before unregistering: a request racing this finish must
	// find the key in the cache (or failed registry) once it is gone
	// from inflight — there is no window where a duplicate run starts.
	s.mu.Lock()
	if err != nil {
		s.recordFailureLocked(j.key, j.errMsg)
	} else {
		s.cache.Put(j.key, body)
	}
	delete(s.inflight, j.key)
	s.mu.Unlock()
	close(j.done)
}

// recordFailureLocked remembers a failed run for the poll endpoint,
// aging out the oldest entry past failedRunMemory. Caller holds s.mu.
func (s *Service) recordFailureLocked(key, msg string) {
	if _, ok := s.failed[key]; !ok {
		s.failedOrder = append(s.failedOrder, key)
		if len(s.failedOrder) > failedRunMemory {
			delete(s.failed, s.failedOrder[0])
			s.failedOrder = s.failedOrder[1:]
		}
	}
	s.failed[key] = msg
}

// evaluate is the cold path: build (or fetch) the spec, run the engine
// under the per-run deadline, marshal the deterministic response body.
func (s *Service) evaluate(j *job) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RunTimeout)
	defer cancel()
	bs, err := s.builder.Get(j.req.Spec)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	mode, err := sim.ParseRoutingMode(j.req.Routing)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	params := j.req.params(s.cfg.Workers)
	params.Plan = j.plan
	res, err := sim.RunPoint(ctx, bs.Spec, mode, j.req.Pattern, j.req.Load, params)
	if err != nil {
		if ctx.Err() != nil {
			return nil, http.StatusGatewayTimeout,
				fmt.Errorf("serve: run exceeded the %s deadline", s.cfg.RunTimeout)
		}
		return nil, http.StatusBadRequest, err
	}
	resp := EvalResponse{
		Key:      j.key,
		Manifest: s.manifest(j, bs, params),
		Result:   wireResult(res),
	}
	body, err := marshalDeterministic(resp)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return body, http.StatusOK, nil
}

// manifest builds the provenance block of a response. Workers stays
// zero on purpose: the engine's Results are bit-identical at any worker
// count, so recording it would make equal artifacts compare unequal.
func (s *Service) manifest(j *job, bs *BuiltSpec, params sim.Params) obs.Manifest {
	run := obs.NewRun("psserve")
	m := run.Manifest
	m.Spec = j.req.Spec
	m.Routing = j.req.Routing
	m.Pattern = j.req.Pattern
	m.SpecHash = bs.Hash
	m.Seed = j.req.Seed
	if !j.plan.Empty() {
		m.FaultPlan = params.FaultManifest("", 0, 0)
	}
	return m
}

// marshalDeterministic renders a response body the way obs artifacts
// are rendered: indented, no HTML escaping, trailing newline — a pure
// function of the value, so equal responses are equal bytes.
func marshalDeterministic(v any) ([]byte, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// Handler returns the service's HTTP routes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	mux.HandleFunc("GET /v1/cache/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalDeterministic(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleEval(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeEvalRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		err = req.Normalize()
	}
	var plan *sim.Plan
	if err == nil {
		plan, err = req.plan()
	}
	if err != nil {
		s.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.requests.Add(1)
	key := req.Key(plan)

	// Warm path: replay the stored bytes; construction is never touched.
	if body, ok := s.cache.Get(key); ok {
		s.writeArtifact(w, body, "hit")
		return
	}

	// Admission, under one lock: join an identical in-flight run, or
	// enqueue a fresh job — never both, and never a send on a queue
	// Close is about to close.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	// A run may have finished between the cache check and here.
	if body, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.writeArtifact(w, body, "hit")
		return
	}
	j, joined := s.inflight[key]
	if joined {
		s.joined.Add(1)
	} else {
		j = &job{key: key, req: req, plan: plan, done: make(chan struct{})}
		select {
		case s.queue <- j:
			s.inflight[key] = j
			delete(s.failed, key) // a fresh run supersedes an old failure
			s.misses.Add(1)
		default:
			s.mu.Unlock()
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, errors.New("serve: evaluation queue full"))
			return
		}
	}
	s.mu.Unlock()

	if req.Async {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": key, "status": "pending"})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; the run keeps going and lands in the cache.
		return
	}
	if j.errMsg != "" {
		writeError(w, j.status, errors.New(j.errMsg))
		return
	}
	s.writeArtifact(w, j.body, "miss")
}

// writeArtifact writes a finished response body. Cache status travels
// in a header, never the body — the body must stay byte-identical
// between the cold run and every warm replay.
func (s *Service) writeArtifact(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// isRunID reports whether id looks like a cache key: exactly 16 lowercase
// hex digits.
func isRunID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !isRunID(id) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed run id %q", id))
		return
	}
	// Peek, not Get: polling must not skew the eval-path hit counters.
	if body, ok := s.cache.Peek(id); ok {
		s.writeArtifact(w, body, "hit")
		return
	}
	s.mu.Lock()
	_, pending := s.inflight[id]
	errMsg, failed := s.failed[id]
	s.mu.Unlock()
	switch {
	case pending:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "pending"})
	case failed:
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "failed", "error": errMsg})
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown run %q", id))
	}
}

// Stats snapshots every service counter.
func (s *Service) Stats() obs.ServeStats {
	hits, evictions, runs, bytes := s.cache.Stats()
	specs, specBytes := s.builder.Resident()
	return obs.ServeStats{
		Requests:    s.requests.Load(),
		BadRequests: s.badRequests.Load(),
		CacheHits:   hits,
		CacheMisses: s.misses.Load(),
		Joined:      s.joined.Load(),
		Shed:        s.shed.Load(),
		Evictions:   evictions,
		CachedRuns:  runs,
		CachedBytes: bytes,
		Builds:      s.builder.builds.Load(),
		BuildHits:   s.builder.hits.Load(),
		BuildShared: s.builder.shared.Load(),
		SpecsBuilt:  specs,
		SpecBytes:   specBytes,
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Schema string         `json:"schema"`
		Serve  obs.ServeStats `json:"serve"`
	}{obs.Schema, s.Stats()})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
