package gate

// Live-stream migration (PR 10). The gate stamps every streaming /run with
// its own trace ID before forwarding, so it can later name the run to the
// backend's POST /snapshot. When the health loop sees a backend leave the
// "up" state, the gate pauses that backend's in-flight SSE runs at their
// next progress tick, carries each checkpoint blob to the run's ring
// successor via POST /resume, and splices the resumed stream into the
// client's connection — the client sees an unbroken event stream whose
// terminal result is bit-identical to an unmigrated run. The backend's
// "checkpointed" terminal frame is suppressed while a migration is in
// flight; it is the seam the splice hides.
//
// Resume is idempotent on the backend side (a snapshot identity resumes
// once, replays are 409), so the gate retries candidates freely: the worst
// a duplicate POST can do is lose the race and get told so.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

const (
	// snapshotTimeout bounds one POST /snapshot: the backend itself waits
	// SnapshotWaitMs (default 2s) for a progress tick.
	snapshotTimeout = 15 * time.Second
	// migrateWait bounds how long a relay that saw the "checkpointed" frame
	// waits for the snapshot blob before declaring the migration failed.
	migrateWait = 15 * time.Second
	// maxSnapshotBytes caps a snapshot response (heap images are bounded by
	// the backends' own limits; this is a transport sanity cap).
	maxSnapshotBytes = 64 << 20
)

// liveStream is one SSE run the gate is relaying, addressable for
// migration by its gate-minted trace ID.
type liveStream struct {
	traceID string
	// key is the run's affinity key, reused to pick resume candidates.
	key string

	mu      sync.Mutex
	backend string // backend currently serving the stream

	// migrating is true while a snapshot POST is in flight; blobCh hands
	// its result (nil on failure) to the relay goroutine.
	migMu     sync.Mutex
	migrating bool
	blobCh    chan []byte
}

func (st *liveStream) currentBackend() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.backend
}

func (st *liveStream) setBackend(base string) {
	st.mu.Lock()
	st.backend = base
	st.mu.Unlock()
}

// beginMigration claims the stream for one snapshot attempt.
func (st *liveStream) beginMigration() bool {
	st.migMu.Lock()
	defer st.migMu.Unlock()
	if st.migrating {
		return false
	}
	st.migrating = true
	return true
}

func (st *liveStream) inMigration() bool {
	st.migMu.Lock()
	defer st.migMu.Unlock()
	return st.migrating
}

func (st *liveStream) endMigration() {
	st.migMu.Lock()
	st.migrating = false
	st.migMu.Unlock()
}

// deliverBlob never blocks: blobCh is buffered one deep and a stream has
// at most one migration in flight.
func (st *liveStream) deliverBlob(blob []byte) {
	select {
	case st.blobCh <- blob:
	default:
	}
}

func (g *Gate) registerStream(st *liveStream) {
	g.streamMu.Lock()
	g.streams[st.traceID] = st
	g.streamMu.Unlock()
}

func (g *Gate) unregisterStream(traceID string) {
	g.streamMu.Lock()
	delete(g.streams, traceID)
	g.streamMu.Unlock()
}

// migrateStreams starts a snapshot/resume for every live stream the
// given backend is serving. Called when a backend leaves "up" — it is
// still expected to answer /snapshot (a degraded node sheds new work but
// serves what it has; a truly dead one fails the POST and the stream
// surfaces an error instead of a silent hang).
func (g *Gate) migrateStreams(base string) {
	g.streamMu.Lock()
	var targets []*liveStream
	for _, st := range g.streams {
		if st.currentBackend() == base {
			targets = append(targets, st)
		}
	}
	g.streamMu.Unlock()
	for _, st := range targets {
		if !st.beginMigration() {
			continue
		}
		g.wg.Add(1)
		go func(st *liveStream) {
			defer g.wg.Done()
			g.snapshotStream(base, st)
		}(st)
	}
}

// snapshotStream pauses one run on its degrading backend and hands the
// checkpoint blob to the stream's relay.
func (g *Gate) snapshotStream(base string, st *liveStream) {
	fail := func() {
		st.deliverBlob(nil)
		g.metrics.MigrationFailures.Add(1)
	}
	body, err := json.Marshal(map[string]string{"trace_id": st.traceID})
	if err != nil {
		fail()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), snapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/snapshot", bytes.NewReader(body))
	if err != nil {
		fail()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		fail()
		return
	}
	defer resp.Body.Close()
	g.metrics.BackendRequests.Add(base, 1)
	if resp.StatusCode != http.StatusOK {
		// 404/410: the run finished (or never registered) before the pause
		// landed; its own stream already carries the final answer, so this
		// is a no-op rather than a failure.
		io.Copy(io.Discard, resp.Body)
		st.endMigration()
		return
	}
	var snap struct {
		Blob []byte `json:"blob"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSnapshotBytes)).Decode(&snap); err != nil || len(snap.Blob) == 0 {
		fail()
		return
	}
	st.deliverBlob(snap.Blob)
}

// frameVerdict classifies why relayFrames stopped.
type frameVerdict int

const (
	frameDone         frameVerdict = iota // terminal frame forwarded
	frameCheckpointed                     // suppressed checkpointed frame: splice here
	frameIOError                          // stream cut without a terminal frame
)

// relayFrames copies SSE frames from one backend response to the client
// until the run ends or checkpoints. A "checkpointed" frame is forwarded
// verbatim only when no migration is in flight (someone paused the run
// directly on the backend); during a migration it is suppressed — the
// resumed stream takes over mid-connection.
func (g *Gate) relayFrames(fw flushWriter, body io.Reader, st *liveStream) frameVerdict {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var frame bytes.Buffer
	event := ""
	for sc.Scan() {
		line := sc.Text()
		frame.WriteString(line)
		frame.WriteByte('\n')
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if line != "" {
			continue
		}
		// Frame complete.
		if event == "checkpointed" && st.inMigration() {
			return frameCheckpointed
		}
		fw.Write(frame.Bytes())
		if event == "result" || event == "error" || event == "checkpointed" {
			return frameDone
		}
		frame.Reset()
		event = ""
	}
	return frameIOError
}

// resumeStream waits for the migration blob and continues the run on a
// ring successor, returning the new live response.
func (g *Gate) resumeStream(r *http.Request, st *liveStream) (*http.Response, bool) {
	var blob []byte
	select {
	case blob = <-st.blobCh:
	case <-time.After(migrateWait):
	case <-r.Context().Done():
		return nil, false
	}
	if len(blob) == 0 {
		return nil, false
	}
	old := st.currentBackend()
	payload, err := json.Marshal(map[string]any{"blob": blob, "stream": true})
	if err != nil {
		return nil, false
	}
	for _, base := range g.candidates(st.key) {
		if base == old {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, base+"/resume?stream=1", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Trace-Id", st.traceID)
		resp, err := g.client.Do(req)
		if err != nil {
			g.markDown(base, err)
			continue
		}
		g.metrics.BackendRequests.Add(base, 1)
		if resp.StatusCode != http.StatusOK {
			// 409 means a previous attempt won the resume race — the run is
			// alive somewhere, but this relay lost its thread; surface it.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		st.setBackend(base)
		st.endMigration()
		return resp, true
	}
	return nil, false
}

// relayStream relays a live SSE run to the client across migrations: each
// time the run checkpoints off a degrading backend, the relay splices in
// the resumed stream from its new home.
func (g *Gate) relayStream(w http.ResponseWriter, r *http.Request, resp *http.Response, st *liveStream) {
	for _, h := range []string{"Content-Type", "X-Trace-Id", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	g.metrics.countOutcome(resp.StatusCode)
	w.WriteHeader(resp.StatusCode)
	fw := flushWriter{w}
	body := resp.Body
	defer func() { body.Close() }()
	for {
		switch g.relayFrames(fw, body, st) {
		case frameDone:
			return
		case frameCheckpointed:
			next, ok := g.resumeStream(r, st)
			if !ok {
				g.metrics.MigrationFailures.Add(1)
				writeSSEError(fw, "migration failed: run checkpointed off "+st.currentBackend()+" but no backend could resume it")
				return
			}
			body.Close()
			body = next.Body
			g.metrics.Migrations.Add(1)
		case frameIOError:
			if r.Context().Err() != nil {
				return // the client went away, not the backend
			}
			writeSSEError(fw, fmt.Sprintf("backend %s dropped the stream mid-run", st.currentBackend()))
			return
		}
	}
}

// writeSSEError emits a terminal error frame on an already-started stream
// (the status line is long gone; the event is all the signal we have).
func writeSSEError(fw flushWriter, msg string) {
	data, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		return
	}
	fmt.Fprintf(fw, "event: error\ndata: %s\n\n", data)
}
