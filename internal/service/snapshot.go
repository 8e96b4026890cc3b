package service

// Checkpoint/resume over HTTP: POST /snapshot pauses a live streaming run
// at its next progress tick and returns the serialized checkpoint blob;
// POST /resume re-certifies a blob and continues the run — on this node,
// on any backend. Together with the gate's migration loop this is how an
// in-flight run moves off a degrading backend without losing a step.
//
// The trust story mirrors the peer cache tier (PR 6): a blob is untrusted
// input no matter who posted it. psgc.DecodeCheckpoint re-checks the
// checksum, re-certifies the collector prefix against this process's own
// verified collector, re-typechecks the mutator, and re-validates the heap
// image cell by cell. A corrupt or tampered blob is a 422 plus a
// "checkpoint_rejected" incident — never a panic, never a resumed machine
// that could compute a wrong answer.

import (
	"fmt"
	"net/http"
	"time"

	"psgc"
	"psgc/internal/fault"
	"psgc/internal/obs"
	"psgc/internal/regions"
)

// registerLive makes a streaming run snapshotable under its trace ID.
func (s *Server) registerLive(traceID string, st *stream) {
	s.liveMu.Lock()
	s.live[traceID] = st
	s.liveMu.Unlock()
}

func (s *Server) unregisterLive(traceID string) {
	s.liveMu.Lock()
	delete(s.live, traceID)
	s.liveMu.Unlock()
}

func (s *Server) lookupLive(traceID string) (*stream, bool) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	st, ok := s.live[traceID]
	return st, ok
}

// reserveResume claims a snapshot identity (trace@step) for resumption.
// It reports false if that snapshot was already resumed — the double-resume
// guard that keeps the gate's migration retries idempotent.
func (s *Server) reserveResume(key string) bool {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.resumed[key] {
		return false
	}
	s.resumed[key] = true
	return true
}

// releaseResume returns a reservation after an admission failure (queue
// full, shutdown), so the client's retry is not mistaken for a duplicate.
func (s *Server) releaseResume(key string) {
	s.liveMu.Lock()
	delete(s.resumed, key)
	s.liveMu.Unlock()
}

// SnapshotRequest asks POST /snapshot to pause the streaming run with the
// given trace ID at its next progress tick.
type SnapshotRequest struct {
	TraceID string `json:"trace_id"`
}

// SnapshotResponse carries the paused run's serialized checkpoint. Blob is
// base64 in JSON (Go's []byte encoding) and is exactly what POST /resume
// accepts.
type SnapshotResponse struct {
	TraceID    string `json:"trace_id"`
	SourceHash string `json:"source_hash,omitempty"`
	Collector  string `json:"collector"`
	Backend    string `json:"backend"`
	Engine     string `json:"engine"`
	Steps      int    `json:"steps"`
	Blob       []byte `json:"blob"`
}

// CheckpointedResponse is the terminal body of a streaming run that was
// paused by POST /snapshot: the run did not fail, it moved. SSE streams
// deliver it as a "checkpointed" event so relays know to expect the run's
// result from wherever the blob is resumed.
type CheckpointedResponse struct {
	Checkpointed bool   `json:"checkpointed"`
	SourceHash   string `json:"source_hash,omitempty"`
	Steps        int    `json:"steps"`
	TraceID      string `json:"trace_id,omitempty"`
}

// ResumeRequest is the POST /resume payload. Blob is a checkpoint as
// returned by POST /snapshot (or psgc -checkpoint). The zero value of
// every other field resumes the run exactly as it was: same backend, the
// checkpoint's remaining fuel.
type ResumeRequest struct {
	Blob []byte `json:"blob"`
	// Backend overrides the substrate the run resumes on ("map", "arena");
	// empty keeps the checkpoint's origin backend. Cross-backend resume is
	// bit-identical — the heap image is the backend-neutral canonical form.
	Backend string `json:"backend"`
	// Fuel / DeadlineMs bound the remaining execution like /run's fields;
	// both zero inherit the checkpoint's remaining fuel.
	Fuel       int `json:"fuel"`
	DeadlineMs int `json:"deadline_ms"`
	// Stream serves the resumed run over SSE (equivalent to ?stream=1).
	Stream bool `json:"stream"`
	// ProgressSteps is the SSE progress cadence in machine steps.
	ProgressSteps int `json:"progress_steps"`
	// CoCheck forces the resumed run into the oracle co-check; the oracle
	// is rebuilt from the same snapshot (equivalent to ?cocheck=1).
	CoCheck bool `json:"cocheck"`
}

// handleSnapshot pauses a live streaming run and returns its checkpoint.
// The run checkpoints at its next progress tick — a step boundary, never
// mid-scavenge — which comes every progress_steps steps and at every
// collection, so the handler waits up to SnapshotWaitMs for it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	traceID := s.traceRequest(w, r)
	if !s.requirePost(w, r) {
		return
	}
	var req SnapshotRequest
	if !s.decode(w, r, &req, traceID) {
		return
	}
	if req.TraceID == "" {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: "missing trace_id", TraceID: traceID}})
		return
	}
	st, ok := s.lookupLive(req.TraceID)
	if !ok {
		s.metrics.SnapshotMisses.Add(1)
		s.writeResponse(w, &response{status: http.StatusNotFound,
			body: errorBody{Error: fmt.Sprintf("no live streaming run with trace id %q", req.TraceID), TraceID: traceID}})
		return
	}
	st.pause.Store(true)
	select {
	case ck := <-st.ckpts:
		blob, err := ck.Encode()
		if err != nil {
			s.writeResponse(w, &response{status: http.StatusInternalServerError,
				body: errorBody{Error: "encode checkpoint: " + err.Error(), TraceID: traceID}})
			return
		}
		// Chaos point: storage/transport corruption of the blob after the
		// run paused. Restore must reject it — incident + 422 at /resume,
		// never a resumed run with a wrong answer.
		if fault.Should(fault.CheckpointCorrupt) && len(blob) > 0 {
			blob[len(blob)/2] ^= 0x40
		}
		s.metrics.Snapshots.Add(1)
		s.writeResponse(w, &response{status: http.StatusOK, body: SnapshotResponse{
			TraceID:    req.TraceID,
			SourceHash: ck.SourceHash,
			Collector:  ck.Collector.String(),
			Backend:    ck.Backend.String(),
			Engine:     ck.Engine.String(),
			Steps:      ck.Steps,
			Blob:       blob,
		}})
	case <-time.After(time.Duration(s.cfg.SnapshotWaitMs) * time.Millisecond):
		// The run halted (or errored) before reaching another progress
		// tick; its stream already carries the final answer. Withdraw the
		// request so a run still going does not pause later, at a tick
		// whose checkpoint nobody would receive.
		st.pause.Store(false)
		s.metrics.SnapshotMisses.Add(1)
		s.writeResponse(w, &response{status: http.StatusGone,
			body: errorBody{Error: fmt.Sprintf("run %q finished or reached no progress tick within %dms", req.TraceID, s.cfg.SnapshotWaitMs), TraceID: traceID}})
	case <-r.Context().Done():
	}
}

// handleResume re-certifies a checkpoint blob and continues the run.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	reqTrace := s.traceRequest(w, r)
	if !s.requirePost(w, r) {
		return
	}
	var req ResumeRequest
	if !s.decodeWithin(w, r, &req, reqTrace, s.cfg.MaxResumeBytes) {
		return
	}
	if v := r.URL.Query().Get("backend"); v != "" {
		req.Backend = v
	}
	if req.Backend != "" {
		if _, err := regions.ParseBackend(req.Backend); err != nil {
			s.writeResponse(w, &response{status: http.StatusBadRequest,
				body: errorBody{Error: err.Error(), TraceID: reqTrace}})
			return
		}
	}
	req.CoCheck = flagged(r, "cocheck", req.CoCheck)
	streamed := flagged(r, "stream", req.Stream)
	if len(req.Blob) == 0 {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: "missing blob", TraceID: reqTrace}})
		return
	}
	ck, err := psgc.DecodeCheckpoint(req.Blob)
	if err != nil {
		// The certifying decoder refused the blob: corruption, truncation,
		// or tampering. 422 — the request was well-formed JSON, the
		// checkpoint inside it was not acceptable.
		s.metrics.ResumesRejected.Add(1)
		s.guard.incidents.Record(obs.Incident{
			Kind:    "checkpoint_rejected",
			TraceID: reqTrace,
			Detail:  err.Error(),
		})
		s.writeResponse(w, &response{status: http.StatusUnprocessableEntity,
			body: errorBody{Error: err.Error(), TraceID: reqTrace}})
		return
	}
	// The resumed run keeps the original run's identity; the migration key
	// is (trace, step) so re-migrating the same run later — from a later
	// snapshot — is allowed, while replaying this snapshot is not.
	runTrace := ck.TraceID
	if runTrace == "" {
		runTrace = reqTrace
	}
	w.Header().Set("X-Trace-Id", runTrace)
	key := fmt.Sprintf("%s@%d", runTrace, ck.Steps)
	if !s.reserveResume(key) {
		s.metrics.ResumesDuplicate.Add(1)
		s.writeResponse(w, &response{status: http.StatusConflict,
			body: errorBody{Error: fmt.Sprintf("snapshot %s already resumed", key), TraceID: runTrace}})
		return
	}
	if streamed {
		if s.overloaded() {
			s.releaseResume(key)
			s.metrics.Shed.Add(1)
			w.Header().Set("Retry-After", "1")
			s.writeResponse(w, &response{status: http.StatusTooManyRequests,
				body: errorBody{Error: "degraded under load: stream requests are shed, retry later", TraceID: runTrace}})
			return
		}
		if !s.streamJob(w, r, runTrace, func(st *stream) *response {
			return s.doResume(ck, req, runTrace, st)
		}) {
			s.releaseResume(key)
		}
		return
	}
	if !s.submit(w, r, runTrace, func() *response { return s.doResume(ck, req, runTrace, nil) }) {
		s.releaseResume(key)
	}
}

// doResume executes a decoded (already re-certified) checkpoint on a pool
// worker through doRun's execute path; st is its SSE stream, if any.
func (s *Server) doResume(ck *psgc.Checkpoint, req ResumeRequest, traceID string, st *stream) *response {
	backend := ck.Backend
	if req.Backend != "" {
		b, err := regions.ParseBackend(req.Backend)
		if err != nil {
			return &response{status: http.StatusBadRequest, body: errorBody{Error: err.Error(), TraceID: traceID}}
		}
		backend = b
	}
	x := &execution{
		c: ck.Compiled(), from: ck, col: ck.Collector, engine: ck.Engine, hash: ck.SourceHash, traceID: traceID,
		coCheck: req.CoCheck, stream: st,
		opts: psgc.RunOptions{
			Backend:       backend,
			ProgressEvery: req.ProgressSteps,
		},
	}
	// With Fuel zero the run inherits the checkpoint's remaining fuel — an
	// interrupted budget stays a budget across the migration.
	if req.Fuel > 0 || req.DeadlineMs > 0 {
		x.opts.Fuel = s.fuelBudget(req.Fuel, req.DeadlineMs)
	}
	return s.execute(x)
}
