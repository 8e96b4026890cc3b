package service

// POST /batch: run many programs in one request. Each item becomes its own
// worker-pool job, so the pool's existing per-job machinery — panic
// recovery, watchdog stalls, fuel budgets, breakers — isolates failures to
// the item that caused them: a batch response is well-formed even when half
// its items panicked. Items land on the queue under the same admission
// policy as single runs; when the queue fills mid-batch the remaining items
// are rejected per-item with 429 bodies rather than failing the whole batch.

import (
	"fmt"
	"net/http"

	"psgc/internal/obs"
)

// BatchRequest is the POST /batch payload: an ordered list of run items.
type BatchRequest struct {
	Items []RunRequest `json:"items"`
}

// BatchItemResult is one item's outcome, in input order. Exactly one of
// Run and Error is set, matching what /run would have returned for the
// item on its own; Status is the HTTP status /run would have used.
type BatchItemResult struct {
	Status int          `json:"status"`
	Run    *RunResponse `json:"run,omitempty"`
	Error  *errorBody   `json:"error,omitempty"`
}

// BatchResponse reports a whole batch. The response status is 200 whenever
// the batch itself was admitted, even if every item failed — per-item
// outcomes live in Items.
type BatchResponse struct {
	TraceID   string            `json:"trace_id"`
	Items     []BatchItemResult `json:"items"`
	Completed int               `json:"completed"`
	Failed    int               `json:"failed"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.BatchRequests.Add(1)
	traceID := s.traceRequest(w, r)
	if !s.requirePost(w, r) {
		return
	}
	var req BatchRequest
	if !s.decode(w, r, &req, traceID) {
		return
	}
	if len(req.Items) == 0 {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: "batch has no items", TraceID: traceID}})
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: fmt.Sprintf("batch has %d items, max %d", len(req.Items), s.cfg.MaxBatchItems), TraceID: traceID}})
		return
	}
	s.metrics.BatchItems.Add(int64(len(req.Items)))

	// Fan the items out onto the pool. Validation failures and queue
	// rejections resolve immediately; admitted items resolve through their
	// job's done channel. pending[i] is nil for already-resolved items.
	results := make([]BatchItemResult, len(req.Items))
	pending := make([]*job, len(req.Items))
	for i, item := range req.Items {
		itemID := obs.NewTraceID()
		if item.Stream {
			results[i] = batchItemError(http.StatusBadRequest,
				errorBody{Error: "stream is not supported inside a batch", TraceID: itemID})
			continue
		}
		spec, err := s.resolve(item)
		if err != nil {
			results[i] = batchItemError(http.StatusBadRequest,
				errorBody{Error: err.Error(), TraceID: itemID})
			continue
		}
		j := &job{
			do:      func() *response { return s.doRun(spec, itemID, nil) },
			done:    make(chan *response, 1),
			traceID: itemID,
		}
		switch s.tryEnqueue(j) {
		case enqueueShutdown:
			// A draining instance admits nothing further; the items already
			// queued still finish below, and the unqueued tail is reported
			// item-by-item so the partial batch stays well-formed.
			results[i] = batchItemError(http.StatusServiceUnavailable,
				errorBody{Error: "server is shutting down", TraceID: itemID})
		case enqueueFull:
			results[i] = batchItemError(http.StatusTooManyRequests,
				errorBody{Error: "queue full, retry later", TraceID: itemID})
		default:
			pending[i] = j
		}
	}
	for i, j := range pending {
		if j == nil {
			continue
		}
		resp := <-j.done
		results[i] = batchItemResult(resp)
	}

	out := BatchResponse{TraceID: traceID, Items: results}
	for _, it := range results {
		if it.Error != nil {
			out.Failed++
		} else {
			out.Completed++
		}
	}
	s.writeResponse(w, &response{status: http.StatusOK, body: out})
}

func batchItemError(status int, body errorBody) BatchItemResult {
	return BatchItemResult{Status: status, Error: &body}
}

// batchItemResult converts a worker response into the item shape. Worker
// bodies are either RunResponse (success) or errorBody (every failure
// path, including recovered panics and watchdog cuts).
func batchItemResult(resp *response) BatchItemResult {
	switch b := resp.body.(type) {
	case RunResponse:
		return BatchItemResult{Status: resp.status, Run: &b}
	case errorBody:
		return BatchItemResult{Status: resp.status, Error: &b}
	default:
		return BatchItemResult{Status: resp.status,
			Error: &errorBody{Error: fmt.Sprintf("unexpected worker response %T", resp.body)}}
	}
}
