// Package service turns the certified-GC compile-and-run pipeline into a
// long-lived concurrent HTTP service — the first scaling step of the
// ROADMAP's production north star, and the verification-as-a-service
// framing of Hawblitzel & Petrank applied to this reproduction: the
// typechecker run that certifies each collector happens once per process
// (collector.Load) and is observable at /metrics, instead of being paid on
// every request.
//
// Endpoints (request/response bodies are JSON unless negotiated otherwise;
// see README.md):
//
//	POST /compile    compile a program, report cache/typecheck behavior
//	                 (?trace=1 adds pipeline-phase spans)
//	POST /run        compile (or reuse) and execute on the λGC machine
//	                 (?trace=1 adds the GC-event timeline; ?stream=1
//	                 streams progress over SSE)
//	POST /interpret  run the reference evaluator (no regions, no GC)
//	GET  /healthz    liveness + queue snapshot
//	GET  /metrics    the metrics registry — JSON by default, Prometheus
//	                 text exposition with Accept: text/plain (or
//	                 ?format=prometheus)
//
// Requests are executed by a bounded worker pool. When the queue is full
// the service sheds load with HTTP 429 rather than queueing unboundedly;
// per-request deadlines are mapped onto machine fuel budgets (the machine
// is deterministic, so steps — not wall clock — are the enforceable
// resource); worker panics become structured 500s; Shutdown drains the
// pool gracefully. Every request gets a trace ID, returned in the
// X-Trace-Id header and the response body, and carried through the worker
// pool so queued work stays attributable.
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psgc"
	"psgc/internal/fault"
	"psgc/internal/obs"
	"psgc/internal/policy"
	"psgc/internal/regions"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; a full queue rejects
	// with 429 (default 64).
	QueueDepth int
	// CacheSize is the compiled-program LRU capacity in entries
	// (default 128).
	CacheSize int
	// CacheWeight bounds the summed AST size (gclang.ProgramSize) of the
	// cached programs, so a few huge programs cannot pin as much memory as
	// 128 typical ones. 0 uses the default of 512k AST nodes; negative
	// disables the weight budget (entry count still applies).
	CacheWeight int
	// Capacity is the default region capacity for /run requests that do
	// not specify one (default 64).
	Capacity int
	// DefaultFuel is the machine step budget for /run requests that
	// specify neither fuel nor a deadline (default psgc.DefaultFuel).
	DefaultFuel int
	// StepsPerMilli converts a request deadline into a fuel budget
	// (default 25000 machine steps per millisecond — sized to the slower
	// substitution engine, so deadlines stay conservative for requests
	// that opt out of the default environment engine).
	StepsPerMilli int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxResumeBytes bounds POST /resume bodies separately: they carry a
	// checkpoint heap image, which routinely dwarfs a source program
	// (default 64 MiB).
	MaxResumeBytes int64
	// CoCheckSample is the fraction of env-engine /run requests co-stepped
	// against the substitution oracle (sampled oracle co-checking). 0
	// disables; 1 co-checks every run. Sampling is deterministic: a rate of
	// s checks every round(1/s)-th run.
	CoCheckSample float64
	// WatchdogMs is the per-run wall-clock stall budget: a run exceeding it
	// is cut at its next progress tick and answered as a 504 with partial
	// statistics, instead of holding a worker hostage. 0 disables.
	WatchdogMs int
	// ShedThreshold is the queue-utilization fraction at or above which
	// trace/stream requests (the expensive observability tier) are shed
	// with 429 before plain runs are. 0 selects the default of 0.75;
	// negative disables shedding.
	ShedThreshold float64
	// DefaultEngine is the engine /run uses when the request names none:
	// "env" (the default) or "subst". Surfaced in /healthz so operators can
	// tell what a node is defaulting to.
	DefaultEngine string
	// DefaultBackend is the memory substrate /run uses when the request
	// names none: "map" (the default) or "arena" (contiguous slabs with
	// Cheney two-finger scavenging). Surfaced in /healthz.
	DefaultBackend string
	// PeerFetchURL, when non-empty, is the fleet gate's peer-fetch endpoint
	// (e.g. http://gate:8373/peer/compiled). On a local compiled-cache miss
	// the server asks it for another node's compiled entry before paying the
	// compile; the import is re-certified by the λGC typechecker.
	PeerFetchURL string
	// PeerSelf identifies this node to the peer-fetch endpoint so the gate
	// never asks the requester for its own miss. Typically the node's
	// advertised base URL.
	PeerSelf string
	// PeerTimeoutMs bounds one peer fetch (default 2000). A slow or dead
	// gate must never cost more than a fraction of the compile it avoids.
	PeerTimeoutMs int
	// MaxBatchItems caps the run items one /batch request may carry
	// (default 256).
	MaxBatchItems int
	// DefaultPolicy is the run policy /run uses when the request names
	// none: "static" (the default — the request's collector and capacity
	// are used as given) or "adaptive" (the profile-driven engine picks
	// the collector and initial capacity per program). Surfaced in
	// /healthz.
	DefaultPolicy string
	// ProfileCapacity bounds the per-program profile store in program
	// hashes (default obs.DefaultProfileCapacity). Profiles are recorded
	// for every run regardless of policy; the store is what the adaptive
	// policy reads.
	ProfileCapacity int
	// IncidentDir, when non-empty, persists the incident log as JSON lines
	// in <dir>/incidents.jsonl. Incidents recorded by previous processes
	// are replayed on boot, so divergences and rejected checkpoints
	// survive restarts.
	IncidentDir string
	// SnapshotWaitMs bounds how long POST /snapshot waits for the paused
	// run to reach its next progress tick and deliver its checkpoint
	// (default 2000).
	SnapshotWaitMs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.CacheWeight == 0 {
		c.CacheWeight = 512 * 1024
	} else if c.CacheWeight < 0 {
		c.CacheWeight = 0
	}
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.DefaultFuel <= 0 {
		c.DefaultFuel = psgc.DefaultFuel
	}
	if c.StepsPerMilli <= 0 {
		c.StepsPerMilli = 25_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxResumeBytes <= 0 {
		c.MaxResumeBytes = 64 << 20
	}
	if c.ShedThreshold == 0 {
		c.ShedThreshold = 0.75
	} else if c.ShedThreshold < 0 {
		c.ShedThreshold = 0
	}
	if _, err := psgc.ParseEngine(c.DefaultEngine); err != nil {
		c.DefaultEngine = psgc.EngineEnv.String()
	}
	b, err := regions.ParseBackend(c.DefaultBackend)
	if err != nil {
		b = regions.BackendMap
	}
	c.DefaultBackend = b.String()
	if c.PeerTimeoutMs <= 0 {
		c.PeerTimeoutMs = 2000
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if p, err := policy.Parse(c.DefaultPolicy); err != nil {
		c.DefaultPolicy = policy.Static
	} else {
		c.DefaultPolicy = p
	}
	if c.ProfileCapacity <= 0 {
		c.ProfileCapacity = obs.DefaultProfileCapacity
	}
	if c.SnapshotWaitMs <= 0 {
		c.SnapshotWaitMs = 2000
	}
	return c
}

// Server is the compile-and-run service. Create with New, serve via
// ServeHTTP (it is an http.Handler), stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *compiledCache
	flights flightGroup
	metrics *Metrics
	guard   *guardrails
	start   time.Time
	build   map[string]any

	// profiles is the always-on per-program profile store; adaptive is
	// the policy engine reading it. Every run feeds profiles regardless of
	// its policy, so an operator can flip DefaultPolicy to adaptive on a
	// warm node and get informed decisions immediately.
	profiles *obs.ProfileStore
	adaptive *policy.Engine

	// peer is the fleet peer-fetch client, swappable at runtime (the gate's
	// address may only be known after the backend starts).
	peer atomic.Pointer[peerClient]

	// liveMu guards the checkpoint/resume state: live maps the trace ID of
	// each in-flight streaming run to its stream, through which POST
	// /snapshot pauses it, and resumed records which snapshots (trace@step)
	// have already been resumed so a duplicate resume is rejected instead
	// of running the work twice.
	liveMu  sync.Mutex
	live    map[string]*stream
	resumed map[string]bool

	// mu guards jobs against Shutdown closing the channel while a
	// request goroutine is submitting.
	mu       sync.RWMutex
	jobs     chan *job
	shutdown bool
	wg       sync.WaitGroup
}

// job is one unit of pool work; done is buffered so an abandoned client
// never blocks a worker. traceID follows the job through the pool so
// panics and responses stay attributable to the request.
type job struct {
	do      func() *response
	done    chan *response
	traceID string
}

// response is a finished job: an HTTP status plus a JSON-encodable body.
type response struct {
	status int
	body   any
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The incident log persists to IncidentDir when configured, replaying
	// the previous process's incidents on boot. A directory that cannot be
	// opened degrades to in-memory logging with the failure recorded as
	// the first incident — observability must not take the service down.
	var incidents *obs.IncidentLog
	if cfg.IncidentDir != "" {
		var err error
		incidents, err = obs.OpenIncidentLog(0, filepath.Join(cfg.IncidentDir, "incidents.jsonl"))
		if err != nil {
			incidents = obs.NewIncidentLog(0)
			incidents.Record(obs.Incident{
				Kind:   "incident_log_open_failed",
				Detail: err.Error(),
			})
		}
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newCompiledCache(cfg.CacheSize, cfg.CacheWeight),
		metrics: &Metrics{},
		guard:   newGuardrails(cfg.CoCheckSample, incidents),
		start:   time.Now(),
		live:    map[string]*stream{},
		resumed: map[string]bool{},
		jobs:    make(chan *job, cfg.QueueDepth),
	}
	s.profiles = obs.NewProfileStore(cfg.ProfileCapacity)
	s.adaptive = policy.NewEngine(s.profiles)
	s.build = buildInfo()
	s.mux.HandleFunc("/compile", s.handleCompile)
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/interpret", s.handleInterpret)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/cache/export", s.handleCacheExport)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/resume", s.handleResume)
	s.mux.HandleFunc("/admin/breakers", s.handleAdminBreakers)
	s.mux.HandleFunc("/admin/cocheck", s.handleAdminCoCheck)
	if cfg.PeerFetchURL != "" {
		s.SetPeerFetch(cfg.PeerFetchURL, cfg.PeerSelf)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics exposes the registry (for embedding binaries and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Profiles exposes the per-program profile store (for embedding binaries
// and tests).
func (s *Server) Profiles() *obs.ProfileStore { return s.profiles }

// PolicyEngine exposes the adaptive policy engine (for embedding binaries
// and tests).
func (s *Server) PolicyEngine() *policy.Engine { return s.adaptive }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops accepting work, drains the queue, and waits for in-flight
// jobs, up to the context's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutdown {
		s.shutdown = true
		close(s.jobs)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.guard.incidents.Close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker drains the job queue, converting panics into structured 500s.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		j.done <- s.runJob(j)
		s.metrics.LeaveQueue()
	}
}

func (s *Server) runJob(j *job) (resp *response) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.Panics.Add(1)
			resp = &response{status: http.StatusInternalServerError,
				body: errorBody{Error: fmt.Sprintf("internal panic: %v", p), Panic: true, TraceID: j.traceID}}
		}
	}()
	// Chaos points: injected queue latency and worker panics. The panic
	// deliberately fires inside the recover above — the chaos suite asserts
	// no panic ever escapes a worker.
	fault.Sleep(fault.WorkerLatency)
	if fault.Should(fault.WorkerPanic) {
		panic(fmt.Sprintf("%v in worker", fault.ErrInjected))
	}
	return j.do()
}

// enqueueOutcome classifies a tryEnqueue attempt.
type enqueueOutcome int

const (
	enqueueOK enqueueOutcome = iota
	enqueueShutdown
	enqueueFull
)

// tryEnqueue places a job on the worker pool without touching any HTTP
// state, so both the per-request and the batch paths share one admission
// policy.
func (s *Server) tryEnqueue(j *job) enqueueOutcome {
	s.mu.RLock()
	if s.shutdown {
		s.mu.RUnlock()
		return enqueueShutdown
	}
	s.metrics.EnterQueue()
	select {
	case s.jobs <- j:
		s.mu.RUnlock()
		return enqueueOK
	default:
		s.mu.RUnlock()
		s.metrics.LeaveQueue()
		s.metrics.Rejected.Add(1)
		return enqueueFull
	}
}

// enqueue places a job on the worker pool, writing a 503 during shutdown
// or a 429 when the queue is full. It reports whether the job was
// accepted.
func (s *Server) enqueue(w http.ResponseWriter, j *job) bool {
	switch s.tryEnqueue(j) {
	case enqueueShutdown:
		// A draining instance will not come back; tell clients when a
		// replacement is worth trying.
		w.Header().Set("Retry-After", "5")
		s.writeResponse(w, &response{status: http.StatusServiceUnavailable,
			body: errorBody{Error: "server is shutting down", TraceID: j.traceID}})
		return false
	case enqueueFull:
		w.Header().Set("Retry-After", "1")
		s.writeResponse(w, &response{status: http.StatusTooManyRequests,
			body: errorBody{Error: "queue full, retry later", TraceID: j.traceID}})
		return false
	}
	return true
}

// submit enqueues do on the worker pool and writes its response, shedding
// load with 429 when the queue is full and 503 during shutdown. It reports
// whether the job was admitted.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, traceID string, do func() *response) bool {
	j := &job{do: do, done: make(chan *response, 1), traceID: traceID}
	if !s.enqueue(w, j) {
		return false
	}
	select {
	case resp := <-j.done:
		s.writeResponse(w, resp)
	case <-r.Context().Done():
		// Client abandoned the request; the worker finishes into the
		// buffered channel and moves on.
	}
	return true
}

// ---------------------------------------------------------------------------
// Request / response shapes
// ---------------------------------------------------------------------------

// CompileRequest is the POST /compile (and /run) source payload.
type CompileRequest struct {
	// Source is the program text of the simply-typed source language.
	Source string `json:"source"`
	// Collector is "basic", "forwarding", or "generational" (default
	// "basic").
	Collector string `json:"collector"`
}

// CompileResponse reports a compilation.
type CompileResponse struct {
	Collector  string  `json:"collector"`
	SourceHash string  `json:"source_hash"`
	Cached     bool    `json:"cached"`
	CodeBlocks int     `json:"code_blocks"`
	CompileMs  float64 `json:"compile_ms"`
	TraceID    string  `json:"trace_id,omitempty"`
	// Pipeline holds the compile's per-phase spans when tracing was
	// requested; for cache hits they are the spans of the compile that
	// produced the cached entry.
	Pipeline []obs.PhaseSpan `json:"pipeline,omitempty"`
}

// RunRequest is the POST /run payload.
type RunRequest struct {
	CompileRequest
	// Capacity overrides the region capacity (nil = server default;
	// 0 disables collection).
	Capacity *int `json:"capacity"`
	// Fixed disables the survivor-driven heap growth policy.
	Fixed bool `json:"fixed"`
	// Fuel bounds machine steps (0 = server default).
	Fuel int `json:"fuel"`
	// DeadlineMs maps a wall-clock budget onto a fuel budget via the
	// server's StepsPerMilli rate; the smaller of Fuel and the mapped
	// budget wins.
	DeadlineMs int `json:"deadline_ms"`
	// Trace includes the pipeline spans and GC-event timeline in the
	// response (equivalent to the ?trace=1 query parameter).
	Trace bool `json:"trace"`
	// MaxEvents caps the retained timeline event log (default 10000;
	// totals and collection spans are always exact).
	MaxEvents int `json:"max_events"`
	// Stream serves the run over SSE with progress events (equivalent to
	// the ?stream=1 query parameter).
	Stream bool `json:"stream"`
	// ProgressSteps is the SSE progress cadence in machine steps
	// (default 50000; progress is also emitted at every collection).
	ProgressSteps int `json:"progress_steps"`
	// Engine selects the execution engine: "env" (default) or "subst"
	// (the substitution-stepping oracle). Equivalent to the ?engine=
	// query parameter, which takes precedence.
	Engine string `json:"engine"`
	// CoCheck forces this run into the oracle co-check regardless of the
	// server's sample rate (equivalent to ?cocheck=1). Only meaningful for
	// the env engine; slower, but a divergence can never produce a wrong
	// answer — the oracle's result is always the one returned.
	CoCheck bool `json:"cocheck"`
	// Backend selects the memory substrate: "map" (the default) or
	// "arena". Equivalent to the ?backend= query parameter, which takes
	// precedence. Co-checked runs always keep the oracle on the map
	// backend, so a co-checked arena run is a cross-substrate differential.
	Backend string `json:"backend"`
	// Policy selects the run policy: "static" (the default — the
	// request's collector and capacity are used as given) or "adaptive"
	// (the profile-driven engine picks the collector and initial capacity
	// from the program's accumulated profile, falling back to the
	// request's choices for a cold hash). Equivalent to the ?policy=
	// query parameter, which takes precedence. Policy is outside the TCB:
	// it can cost time, never correctness.
	Policy string `json:"policy"`
}

// RunStats is the observable execution statistics, present in both
// successful responses and deadline-exceeded diagnostics.
type RunStats struct {
	Steps            int `json:"steps"`
	Collections      int `json:"collections"`
	Puts             int `json:"puts"`
	RegionsReclaimed int `json:"regions_reclaimed"`
	CellsReclaimed   int `json:"cells_reclaimed"`
	MaxLiveCells     int `json:"max_live_cells"`
	LiveCells        int `json:"live_cells"`
}

func statsOf(res psgc.Result) RunStats {
	return RunStats{
		Steps:            res.Steps,
		Collections:      res.Collections,
		Puts:             res.Stats.Puts,
		RegionsReclaimed: res.Stats.RegionsReclaimed,
		CellsReclaimed:   res.Stats.CellsReclaimed,
		MaxLiveCells:     res.Stats.MaxLiveCells,
		LiveCells:        res.LiveCells,
	}
}

// TraceReport is the observability payload attached to traced runs: the
// compile pipeline's phase spans and the GC-event timeline.
type TraceReport struct {
	Pipeline []obs.PhaseSpan `json:"pipeline,omitempty"`
	Timeline *obs.Timeline   `json:"timeline"`
}

// RunResponse reports an execution.
type RunResponse struct {
	Value      int     `json:"value"`
	Collector  string  `json:"collector"`
	Engine     string  `json:"engine"`
	Backend    string  `json:"backend"`
	SourceHash string  `json:"source_hash"`
	Cached     bool    `json:"cached"`
	Fuel       int     `json:"fuel"`
	RunMs      float64 `json:"run_ms"`
	// CoChecked marks runs that were co-stepped against the oracle
	// (sampled, forced, or breaker-pinned runs report their engine instead).
	CoChecked bool `json:"cochecked,omitempty"`
	// Diverged marks co-checked runs where the engines disagreed; the
	// value is the oracle's.
	Diverged bool `json:"diverged,omitempty"`
	// Resumed marks runs continued from a checkpoint by POST /resume;
	// ResumedFromStep is the step the checkpoint was captured at. Stats
	// and Value cover the whole logical run, so a resumed run's response
	// is bit-identical to an uninterrupted one's.
	Resumed         bool `json:"resumed,omitempty"`
	ResumedFromStep int  `json:"resumed_from_step,omitempty"`
	// Policy reports the run policy that configured this execution, and
	// Decision the adaptive engine's resolved choice (nil for static runs).
	// A decided collector overrides the request's, so Collector above
	// always reports what actually ran.
	Policy   string           `json:"policy,omitempty"`
	Decision *policy.Decision `json:"decision,omitempty"`
	Stats    RunStats         `json:"stats"`
	TraceID  string           `json:"trace_id,omitempty"`
	Trace    *TraceReport     `json:"trace,omitempty"`
}

// InterpretResponse reports a reference-evaluator run.
type InterpretResponse struct {
	Value   int    `json:"value"`
	TraceID string `json:"trace_id,omitempty"`
}

// errorBody is the structured error payload.
type errorBody struct {
	Error string `json:"error"`
	// Panic marks errors recovered from worker panics.
	Panic bool `json:"panic,omitempty"`
	// Partial carries the statistics of a deadline-killed run.
	Partial *RunStats `json:"partial,omitempty"`
	// TraceID attributes the error to a request.
	TraceID string `json:"trace_id,omitempty"`
	// Trace carries the timeline recorded up to the point a traced run
	// was cut off by its fuel budget.
	Trace *TraceReport `json:"trace,omitempty"`
	// Engine and Diverged report a partial co-checked run's lockstep, as
	// RunResponse does for a completed one.
	Engine   string `json:"engine,omitempty"`
	Diverged bool   `json:"diverged,omitempty"`
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

// traceRequest assigns the request a trace ID and exposes it in the
// response headers before any body is written. A well-formed incoming
// X-Trace-Id is honored — the gate stamps streams with its own IDs so a
// later POST /snapshot can name the run it wants paused — anything else
// gets a fresh one.
func (s *Server) traceRequest(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get("X-Trace-Id")
	if !validTraceID(id) {
		id = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", id)
	return id
}

// validTraceID bounds what this server accepts as a caller-supplied trace
// ID: short and header/JSON-safe.
func validTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// decode parses a JSON body with the configured size limit.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any, traceID string) bool {
	return s.decodeWithin(w, r, into, traceID, s.cfg.MaxBodyBytes)
}

// decodeWithin parses a JSON body under an explicit size limit (the
// resume path carries heap images and gets its own, larger bound).
func (s *Server) decodeWithin(w http.ResponseWriter, r *http.Request, into any, traceID string, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: "bad request body: " + err.Error(), TraceID: traceID}})
		return false
	}
	return true
}

func (s *Server) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeResponse(w, &response{status: http.StatusMethodNotAllowed,
			body: errorBody{Error: "use POST"}})
		return false
	}
	return true
}

// compiled fetches a ready-to-run program from the LRU or compiles and
// caches it, coalescing concurrent compiles of the same key so N
// simultaneous misses run the pipeline once. The returned bool reports
// whether this request avoided a compile (LRU hit or coalesced onto an
// in-flight one); the spans describe the compile that produced the
// program.
func (s *Server) compiled(src string, col psgc.Collector) (*psgc.Compiled, []obs.PhaseSpan, bool, error) {
	// Chaos point: an eviction storm flushes the probationary segment
	// before this request touches the cache, so a hit here proves the
	// entry had earned protection.
	if fault.Should(fault.CacheEvict) {
		if n := s.cache.storm(); n > 0 {
			s.metrics.CacheEvicted.Add(int64(n))
		}
	}
	k := keyFor(src, col)
	if c, spans, ok := s.cache.get(k); ok {
		s.metrics.CacheHits.Add(1)
		return c, spans, true, nil
	}
	c, spans, err, coalesced := s.flights.do(k, func() (*psgc.Compiled, []obs.PhaseSpan, error) {
		s.metrics.CacheMisses.Add(1)
		// Fleet peer cache tier: before paying the compile, ask the gate
		// whether another node already holds this entry. The singleflight
		// wrapper means N concurrent misses cost at most one peer round trip.
		if c, ok := s.peerFetch(SourceHash(src), col); ok {
			if n := s.cache.add(k, c, nil); n > 0 {
				s.metrics.CacheEvicted.Add(int64(n))
			}
			return c, nil, nil
		}
		c, spans, err := psgc.CompileTraced(src, col)
		if err != nil {
			return nil, spans, err
		}
		if n := s.cache.add(k, c, spans); n > 0 {
			s.metrics.CacheEvicted.Add(int64(n))
		}
		return c, spans, nil
	})
	if coalesced {
		s.metrics.CacheCoalesced.Add(1)
	}
	return c, spans, coalesced, err
}

// compileStatus maps a compile error onto an HTTP status: errors in the
// user's program are 400s; a pipeline bug (the compiled program failing
// λGC typechecking, a broken collector) or an injected infrastructure
// fault is a 500 — the program may be fine.
func compileStatus(err error) int {
	if strings.Contains(err.Error(), "internal error") || errors.Is(err, fault.ErrInjected) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// flagged reports whether a boolean request knob is on, either via its
// query parameter ("1" or "true") or the decoded body field.
func flagged(r *http.Request, name string, body bool) bool {
	if body {
		return true
	}
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.metrics.CompileRequests.Add(1)
	traceID := s.traceRequest(w, r)
	if !s.requirePost(w, r) {
		return
	}
	var req CompileRequest
	if !s.decode(w, r, &req, traceID) {
		return
	}
	col, err := psgc.ParseCollector(cmp.Or(req.Collector, psgc.Basic.String()))
	if err != nil {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: err.Error(), TraceID: traceID}})
		return
	}
	trace := flagged(r, "trace", false)
	s.submit(w, r, traceID, func() *response {
		t0 := time.Now()
		c, spans, hit, err := s.compiled(req.Source, col)
		if err != nil {
			return &response{status: compileStatus(err), body: errorBody{Error: err.Error(), TraceID: traceID}}
		}
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		s.metrics.CompileLatency.Observe(ms)
		resp := CompileResponse{
			Collector:  col.String(),
			SourceHash: SourceHash(req.Source),
			Cached:     hit,
			CodeBlocks: len(c.Prog.Code),
			CompileMs:  ms,
			TraceID:    traceID,
		}
		if trace {
			resp.Pipeline = spans
		}
		return &response{status: http.StatusOK, body: resp}
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.RunRequests.Add(1)
	traceID := s.traceRequest(w, r)
	if !s.requirePost(w, r) {
		return
	}
	var req RunRequest
	if !s.decode(w, r, &req, traceID) {
		return
	}
	q := r.URL.Query()
	req.Engine = cmp.Or(q.Get("engine"), req.Engine)
	req.Backend = cmp.Or(q.Get("backend"), req.Backend)
	req.Policy = cmp.Or(q.Get("policy"), req.Policy)
	req.CoCheck = flagged(r, "cocheck", req.CoCheck)
	req.Trace = flagged(r, "trace", req.Trace)
	req.Stream = flagged(r, "stream", req.Stream)
	spec, err := s.resolve(req)
	if err != nil {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: err.Error(), TraceID: traceID}})
		return
	}
	// Graceful degradation: when the queue is nearly full, the expensive
	// observability tier (traced and streamed runs) is shed first so plain
	// runs keep landing. 429 + Retry-After, like a full queue.
	if (spec.Trace || spec.Stream) && s.overloaded() {
		s.metrics.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeResponse(w, &response{status: http.StatusTooManyRequests,
			body: errorBody{Error: "degraded under load: trace/stream requests are shed, retry later or drop the trace", TraceID: traceID}})
		return
	}
	if spec.Stream {
		s.streamJob(w, r, traceID, func(st *stream) *response {
			return s.doRun(spec, traceID, st)
		})
		return
	}
	s.submit(w, r, traceID, func() *response {
		return s.doRun(spec, traceID, nil)
	})
}

// runSpec is a RunRequest with the server's defaults applied and its
// collector, engine, backend and policy names parsed.
type runSpec struct {
	RunRequest
	col     psgc.Collector
	engine  psgc.Engine
	backend regions.Backend
	policy  string
}

// resolve turns a run request into the runSpec doRun executes: an empty
// collector is basic, and an empty engine, backend or policy is the
// server's default. /run calls it after applying its query overrides; each
// /batch item calls it on its own.
func (s *Server) resolve(req RunRequest) (runSpec, error) {
	spec := runSpec{RunRequest: req}
	var err error
	if spec.col, err = psgc.ParseCollector(cmp.Or(req.Collector, psgc.Basic.String())); err != nil {
		return spec, err
	}
	if spec.engine, err = psgc.ParseEngine(cmp.Or(req.Engine, s.cfg.DefaultEngine)); err != nil {
		return spec, err
	}
	if spec.backend, err = regions.ParseBackend(cmp.Or(req.Backend, s.cfg.DefaultBackend)); err != nil {
		return spec, err
	}
	spec.policy, err = policy.Parse(cmp.Or(req.Policy, s.cfg.DefaultPolicy))
	return spec, err
}

// overloaded reports whether queue utilization has reached the shed
// threshold (the service's degradation mode).
func (s *Server) overloaded() bool {
	if s.cfg.ShedThreshold <= 0 {
		return false
	}
	return float64(s.metrics.QueueDepth.Load()) >= s.cfg.ShedThreshold*float64(s.cfg.QueueDepth)
}

// doRun is the shared run path behind the JSON and SSE variants of /run
// and /batch: compile (or fetch), execute with the request's fuel budget,
// record metrics, and shape the response. st, if non-nil, is the SSE stream
// the run reports progress to and that POST /snapshot can pause it
// through; a paused run answers with a CheckpointedResponse instead of a
// result.
func (s *Server) doRun(spec runSpec, traceID string, st *stream) *response {
	hash := SourceHash(spec.Source)
	col := spec.col
	// The collector is baked in at link time, so the adaptive decision
	// must land before the compile: the engine turns the hash's
	// accumulated profile into a collector and capacity, falling back to
	// the request's choices for a cold hash.
	capacity := s.cfg.Capacity
	if spec.Capacity != nil {
		capacity = *spec.Capacity
	}
	var decision *policy.Decision
	if spec.policy == policy.Adaptive {
		d := s.adaptive.Decide(hash, col.String(), capacity)
		s.metrics.PolicyDecisions.Add(1)
		if d.Runs == 0 {
			s.metrics.PolicyCold.Add(1)
		}
		if d.Flipped {
			s.metrics.PolicyFlips.Add(1)
		}
		if dc, err := psgc.ParseCollector(d.Collector); err == nil {
			col = dc
			s.metrics.PolicyChosen[dc].Add(1)
		}
		capacity = d.Capacity
		decision = &d
	}
	c, spans, hit, err := s.compiled(spec.Source, col)
	if err != nil {
		return &response{status: compileStatus(err), body: errorBody{Error: err.Error(), TraceID: traceID}}
	}
	x := &execution{
		c: c, col: col, engine: spec.engine, hash: hash, traceID: traceID,
		policy: spec.policy, decision: decision, cached: hit, spans: spans, coCheck: spec.CoCheck, stream: st,
		opts: psgc.RunOptions{
			Capacity:      capacity,
			FixedCapacity: spec.Fixed,
			Backend:       spec.backend,
			Fuel:          s.fuelBudget(spec.Fuel, spec.DeadlineMs),
			ProgressEvery: spec.ProgressSteps,
		},
	}
	if spec.Trace {
		rec := c.Recorder()
		if spec.MaxEvents > 0 {
			rec.MaxEvents = spec.MaxEvents
		}
		x.opts.Recorder = rec
	}
	return s.execute(x)
}

// execution is one run as doRun or doResume prepared it: its options carry
// the request's capacity, fuel and progress cadence. execute picks the
// engine, attaches the observers, runs it, and classifies the outcome.
type execution struct {
	c *psgc.Compiled
	// from is the checkpoint a resumed run continues; nil for a fresh run.
	from    *psgc.Checkpoint
	col     psgc.Collector
	engine  psgc.Engine
	hash    string
	traceID string
	opts    psgc.RunOptions
	// coCheck is the request's demand for a co-checked run.
	coCheck bool
	// stream is the SSE stream of a streamed run; nil otherwise.
	stream *stream
	// The response fields only a fresh run fills; decision is the adaptive
	// policy's choice (nil for a static run), which the run was compiled
	// and sized by.
	policy   string
	decision *policy.Decision
	cached   bool
	spans    []obs.PhaseSpan
}

// execute is the path doRun and doResume share: the co-check guard, the
// always-on profiler, the watchdog, the run itself, its metrics and
// profile-store feed, and the mapping of its outcome onto a response.
func (s *Server) execute(x *execution) *response {
	opts := &x.opts
	opts.Engine = x.engine
	if x.engine == psgc.EngineEnv {
		// An open breaker pins a fresh run to the oracle; the response's
		// engine field reports the truth. A resumed run's image dictates its
		// engine, so it is co-checked unconditionally instead, with the
		// oracle rebuilt from the same snapshot.
		breaker := s.guard.breakerOpen(x.hash)
		if breaker && x.from == nil {
			x.engine, opts.Engine = psgc.EngineSubst, psgc.EngineSubst
		} else if x.coCheck || breaker || s.guard.shouldCoCheck() {
			opts.Engine = psgc.EngineCoChecked
			s.metrics.CoCheckRuns.Add(1)
		}
	}
	// Always-on profiling: every run carries the allocation-free profiler
	// and feeds the per-program store the adaptive policy reads. A resumed
	// run's profiler continues from the checkpoint's aggregate, so the
	// completed profile spans the whole logical run.
	prof := x.c.Profiler()
	opts.Profiler = prof
	// A co-checked run's divergence trips the breaker once, at the first
	// Progress tick that sees it, so concurrent fresh runs of the hash are
	// pinned to the oracle while this one goes on; a divergence no tick saw
	// (at the halt, or between the last tick and a cut) is taken from the
	// Result, which carries it however the run ended.
	coChecked := opts.Engine == psgc.EngineCoChecked
	tripped := false
	trip := func(d psgc.Divergence) {
		tripped = true
		x.engine = psgc.EngineSubst // the oracle finishes the run
		s.metrics.CoCheckDivergences.Add(1)
		if s.guard.trip(x.hash, x.col.String(), x.traceID, d) {
			s.metrics.BreakersOpen.Add(1)
		}
	}
	// One Progress callback serves the breaker, the watchdog and the
	// stream. A pending POST /snapshot is taken first: the run checkpoints
	// at this tick and stops. Then the watchdog cuts a run past its
	// wall-clock budget, which is answered as a budgeted partial result
	// instead of a hung worker. Then a vanished client cancels the run;
	// otherwise the tick is streamed, never blocking the machine on a slow
	// client.
	stalled := false
	var deadline time.Time
	if s.cfg.WatchdogMs > 0 {
		deadline = time.Now().Add(time.Duration(s.cfg.WatchdogMs) * time.Millisecond)
		if opts.ProgressEvery <= 0 {
			opts.ProgressEvery = watchdogProgressEvery
		}
	}
	if st := x.stream; st != nil || s.cfg.WatchdogMs > 0 || coChecked {
		opts.Progress = func(p psgc.Progress) bool {
			if !tripped {
				if d := p.Divergence(); d != nil {
					trip(*d)
				}
			}
			if st != nil && st.pause.Load() {
				if ck, err := p.Checkpoint(); err == nil {
					ck.SourceHash, ck.TraceID = x.hash, x.traceID
					st.ckpts <- ck // buffered; the run stops here, so it is the only send
					return false
				}
			}
			if s.cfg.WatchdogMs > 0 && time.Now().After(deadline) {
				stalled = true
				return false
			}
			if st == nil {
				return true
			}
			if st.gone.Load() {
				return false
			}
			select {
			case st.events <- p:
			default:
			}
			return true
		}
	}
	var (
		res psgc.Result
		err error
		// The machine's counters continue from a checkpoint; only the
		// steps executed here are new traffic on this node.
		prior psgc.Result
	)
	t0 := time.Now()
	if x.from != nil {
		s.metrics.Resumes.Add(1)
		prior = psgc.Result{Steps: x.from.Steps, Collections: x.from.Collections}
		res, err = x.from.Resume(*opts)
	} else {
		res, err = x.c.Run(*opts)
	}
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	s.metrics.RunLatency.Observe(ms)
	s.metrics.MachineSteps[x.col].Add(int64(res.Steps - prior.Steps))
	s.metrics.Collections[x.col].Add(int64(res.Collections - prior.Collections))
	if d := res.Divergence; d != nil && !tripped {
		trip(*d)
	}
	var report *TraceReport
	if opts.Recorder != nil {
		report = &TraceReport{Pipeline: x.spans, Timeline: opts.Recorder.Timeline()}
	}
	if err != nil {
		partial := statsOf(res)
		eb := errorBody{Error: err.Error(), Partial: &partial, TraceID: x.traceID, Trace: report}
		if coChecked {
			// A co-checked run cut short still reports what the lockstep
			// saw so far: which engine it ended on and whether they diverged.
			eb.Engine, eb.Diverged = x.engine.String(), res.Divergence != nil
		}
		if errors.Is(err, psgc.ErrOutOfFuel) {
			// The deadline (as a fuel budget) expired: report the
			// partial execution so the client can see how far it got.
			s.metrics.Deadlines.Add(1)
			return &response{status: http.StatusGatewayTimeout, body: eb}
		}
		if errors.Is(err, psgc.ErrCanceled) {
			if stalled {
				s.metrics.WatchdogStalls.Add(1)
				detail := fmt.Sprintf("cut after %d steps at the %dms budget", res.Steps, s.cfg.WatchdogMs)
				if x.from != nil {
					detail = "resumed run " + detail
				}
				s.guard.incidents.Record(obs.Incident{
					Kind: "watchdog_stall", TraceID: x.traceID, Subject: x.hash, Detail: detail,
				})
				eb.Error = fmt.Sprintf("watchdog: run stalled past %dms; partial result attached", s.cfg.WatchdogMs)
				return &response{status: http.StatusGatewayTimeout, body: eb}
			}
			// The streaming client went away mid-run; nobody is left to
			// read this, but classify it as a client-side termination.
			s.metrics.Canceled.Add(1)
			eb.Trace = nil
			return &response{status: statusClientClosedRequest, body: eb}
		}
		if errors.Is(err, psgc.ErrCheckpointed) {
			// POST /snapshot paused this run at a progress tick; the
			// checkpoint itself went to the snapshot handler through the
			// stream. The stream answers with a "checkpointed" event so
			// relays know the run will continue elsewhere.
			return &response{status: http.StatusOK, body: CheckpointedResponse{
				Checkpointed: true,
				SourceHash:   x.hash,
				Steps:        res.Steps,
				TraceID:      x.traceID,
			}}
		}
		return &response{status: http.StatusInternalServerError,
			body: errorBody{Error: err.Error(), TraceID: x.traceID}}
	}
	// Only completed runs feed the profile store: a partial profile from
	// a fuel- or watchdog-killed run would skew the per-program aggregates
	// the adaptive policy decides from.
	s.adaptive.Observe(x.hash, x.col.String(), prof.Profile())
	s.metrics.ProfiledRuns.Add(1)
	if x.decision != nil {
		// A cold decision was made before the hash had a profile entry to
		// hang it on; now that the run has admitted the hash, re-record it
		// so /healthz shows the decision alongside the fresh profile.
		s.profiles.SetDecision(x.hash, *x.decision)
	}
	return &response{status: http.StatusOK, body: RunResponse{
		Value:           res.Value,
		Collector:       x.col.String(),
		Engine:          x.engine.String(),
		Backend:         opts.Backend.String(),
		SourceHash:      x.hash,
		Cached:          x.cached,
		Fuel:            opts.Fuel,
		RunMs:           ms,
		CoChecked:       opts.Engine == psgc.EngineCoChecked,
		Diverged:        res.Divergence != nil,
		Resumed:         x.from != nil,
		ResumedFromStep: prior.Steps,
		Policy:          x.policy,
		Decision:        x.decision,
		Stats:           statsOf(res),
		TraceID:         x.traceID,
		Trace:           report,
	}}
}

// watchdogProgressEvery is the Progress cadence a watchdog-enabled run
// uses when the request did not choose one: frequent enough to catch a
// stall within tens of milliseconds of healthy stepping, coarse enough to
// stay invisible in the latency histograms.
const watchdogProgressEvery = 2_000

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response (no stdlib constant exists).
const statusClientClosedRequest = 499

// stream is the live side of one SSE run: the progress events pumped to
// the client, whether the client has gone, and the POST /snapshot
// handshake — pause asks the run to checkpoint at its next progress tick,
// and the checkpoint arrives on ckpts.
type stream struct {
	events chan psgc.Progress
	gone   atomic.Bool
	pause  atomic.Bool
	ckpts  chan *psgc.Checkpoint
}

// newStream buffers 16 progress events so a burst of collection ticks
// reaches a slow client without blocking the machine (ticks past that are
// dropped), and one checkpoint, the only one a run ever sends.
func newStream() *stream {
	return &stream{events: make(chan psgc.Progress, 16), ckpts: make(chan *psgc.Checkpoint, 1)}
}

// streamJob serves one pool job over Server-Sent Events: "progress" events
// while the machine executes, then a final "result", "error" or
// "checkpointed" event carrying the same JSON body the non-streaming
// endpoint returns. Shared by /run?stream=1 and /resume?stream=1. Queue
// rejection and shutdown still answer with plain JSON status codes — the
// stream only starts once the job is accepted. While the run is live it is
// registered under its trace ID so POST /snapshot can pause it. streamJob
// reports whether the job was admitted to the pool.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, traceID string, run func(*stream) *response) bool {
	s.metrics.StreamRequests.Add(1)
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeResponse(w, &response{status: http.StatusInternalServerError,
			body: errorBody{Error: "streaming unsupported by this connection", TraceID: traceID}})
		return false
	}
	st := newStream()
	s.registerLive(traceID, st)
	defer s.unregisterLive(traceID)
	j := &job{traceID: traceID, done: make(chan *response, 1)}
	j.do = func() *response {
		defer close(st.events)
		return run(st)
	}
	if !s.enqueue(w, j) {
		return false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	events := st.events
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil // drained; the final response is next
				continue
			}
			writeSSE(w, fl, "progress", ev)
		case resp := <-j.done:
			s.countOutcome(resp.status)
			name := "result"
			if resp.status >= 400 {
				name = "error"
			} else if _, ck := resp.body.(CheckpointedResponse); ck {
				name = "checkpointed"
			}
			writeSSE(w, fl, name, resp.body)
			return true
		case <-r.Context().Done():
			// Client gone: tell the machine to stop at its next progress
			// tick; the worker finishes into the buffered done channel.
			st.gone.Store(true)
			return true
		}
	}
}

// writeSSE writes one Server-Sent Event with a JSON data payload.
func writeSSE(w io.Writer, fl http.Flusher, event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		b = []byte(`{"error":"encode failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	fl.Flush()
}

// fuelBudget resolves a request's fuel: explicit fuel, a deadline mapped
// through StepsPerMilli, or the server default — whichever is smallest of
// those specified.
func (s *Server) fuelBudget(fuel, deadlineMs int) int {
	budget := s.cfg.DefaultFuel
	if fuel > 0 && fuel < budget {
		budget = fuel
	}
	if deadlineMs > 0 {
		if mapped := deadlineMs * s.cfg.StepsPerMilli; mapped < budget {
			budget = mapped
		}
	}
	return budget
}

func (s *Server) handleInterpret(w http.ResponseWriter, r *http.Request) {
	s.metrics.InterpretRequests.Add(1)
	traceID := s.traceRequest(w, r)
	if !s.requirePost(w, r) {
		return
	}
	var req CompileRequest
	if !s.decode(w, r, &req, traceID) {
		return
	}
	s.submit(w, r, traceID, func() *response {
		t0 := time.Now()
		n, err := psgc.Interpret(req.Source)
		s.metrics.InterpretLatency.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		if err != nil {
			return &response{status: http.StatusBadRequest, body: errorBody{Error: err.Error(), TraceID: traceID}}
		}
		return &response{status: http.StatusOK, body: InterpretResponse{Value: n, TraceID: traceID}}
	})
}

// backendNames lists the memory substrates this build can serve, for the
// healthz inventory.
func backendNames() []string {
	bs := regions.Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.String()
	}
	return names
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	status := "ok"
	if s.shutdown {
		status = "shutting_down"
	}
	s.mu.RUnlock()
	degradation := "normal"
	if s.overloaded() {
		degradation = "shedding_observability"
	}
	entries, weight, probation, protected := s.cache.stats()
	body := map[string]any{
		"status": status,
		// What this node is running and defaulting to (PR 6): when a
		// co-check incident pins a hash to subst, operators need to see at a
		// glance what engine everything else still defaults to, and which
		// build is serving.
		"default_engine": s.cfg.DefaultEngine,
		// The memory substrate this node defaults to, and the ones it can
		// serve (PR 7): ?backend= selects per request.
		"default_backend": s.cfg.DefaultBackend,
		"backends":        backendNames(),
		// The run policy this node defaults to (PR 8): ?policy= selects per
		// request; the adaptive engine's decisions and the profile store
		// feeding it are detailed under "policy" below.
		"default_policy":  s.cfg.DefaultPolicy,
		"policies":        []string{policy.Static, policy.Adaptive},
		"build":           s.build,
		"uptime_ms":       time.Since(s.start).Milliseconds(),
		"workers":         s.cfg.Workers,
		"queue_depth":     s.metrics.QueueDepth.Load(),
		"queue_capacity":  s.cfg.QueueDepth,
		"cache_entries":   entries,
		"cache_weight":    weight,
		"cache_probation": probation,
		"cache_protected": protected,
		// Guardrail state (PR 5): the co-check sample rate (live value —
		// PUT /admin/cocheck can retune it), what it has caught, and how
		// degraded the instance currently is.
		"cocheck_sample":      s.guard.sampleRate(),
		"cocheck_divergences": s.metrics.CoCheckDivergences.Load(),
		"open_breakers":       s.guard.openBreakers(),
		"watchdog_ms":         s.cfg.WatchdogMs,
		"watchdog_stalls":     s.metrics.WatchdogStalls.Load(),
		"degradation_mode":    degradation,
		"incidents":           s.guard.incidents.Snapshot(),
	}
	pprob, pprot := s.profiles.Segments()
	body["policy"] = map[string]any{
		"counts":            s.adaptive.Counts(),
		"profiled_runs":     s.metrics.ProfiledRuns.Load(),
		"profiles":          s.profiles.Len(),
		"profile_probation": pprob,
		"profile_protected": pprot,
		"profile_evictions": s.profiles.Evictions(),
		// Per-hash profile summaries with the decision last made for each
		// hash, most-recently-used first.
		"programs": s.profiles.Snapshot(8),
	}
	if pc := s.peer.Load(); pc != nil {
		body["peer_fetch"] = map[string]any{
			"url":    pc.url,
			"self":   pc.self,
			"hits":   s.metrics.PeerHits.Load(),
			"misses": s.metrics.PeerMisses.Load(),
		}
	}
	if reg := fault.Installed(); reg != nil {
		body["chaos"] = reg.Snapshot()
	}
	s.writeResponse(w, &response{status: http.StatusOK, body: body})
}

// wantsPrometheus decides the /metrics representation: the Prometheus text
// exposition for scrape-style requests (Accept: text/plain or OpenMetrics,
// or ?format=prometheus), JSON otherwise.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.countOutcome(http.StatusOK)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.metrics.WritePrometheus(w)
		return
	}
	s.writeResponse(w, &response{status: http.StatusOK, body: s.metrics.Snapshot()})
}

// countOutcome records a response's outcome class.
func (s *Server) countOutcome(status int) {
	switch {
	case status < 300:
		s.metrics.OK.Add(1)
	case status == http.StatusTooManyRequests:
		// counted at the rejection site
	case status < 500:
		s.metrics.ClientErrors.Add(1)
	default:
		s.metrics.ServerErrors.Add(1)
	}
}

// writeResponse writes one JSON response and records the outcome.
func (s *Server) writeResponse(w http.ResponseWriter, resp *response) {
	s.countOutcome(resp.status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp.body)
}
