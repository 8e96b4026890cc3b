package service

// Tests for the checkpoint/resume surface (PR 10): POST /snapshot pausing
// a live stream, POST /resume re-certifying and continuing the run on any
// backend, the double-resume idempotency guard, the checkpoint.corrupt
// chaos point, the operator endpoints, and the persistent incident log.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"psgc"
	"psgc/internal/fault"
	"psgc/internal/obs"
)

// doJSON drives one endpoint with an arbitrary method (DELETE, PUT).
func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// startStream launches a streaming run and returns the live response plus
// the trace ID the server minted for it. The caller owns resp.Body.
func startStream(t *testing.T, ts *httptest.Server, req RunRequest) (*http.Response, string) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, out.Bytes())
	}
	trace := resp.Header.Get("X-Trace-Id")
	if trace == "" {
		t.Fatal("stream response has no X-Trace-Id header")
	}
	return resp, trace
}

// nextSSE reads the next complete event off a live stream.
func nextSSE(sc *bufio.Scanner) (sseEvent, bool) {
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != nil {
				return cur, true
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, strings.TrimPrefix(line, "data: ")...)
		}
	}
	return cur, false
}

func sseScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

// stallSteps slows every machine step so a streaming run is still alive
// when the test's /snapshot arrives.
func stallSteps(t *testing.T, reg *fault.Registry) {
	t.Helper()
	if reg == nil {
		reg = fault.NewRegistry(1)
	}
	fault.Install(reg.EnableDelay(fault.MachineStall, 0.05, 200*time.Microsecond))
	t.Cleanup(func() { fault.Install(nil) })
}

// makeCheckpointBlob builds a mid-run checkpoint through the psgc API,
// with a pinned trace identity, for driving /resume without a live server.
func makeCheckpointBlob(t *testing.T, traceID string) []byte {
	t.Helper()
	c, err := psgc.Compile(allocHeavy, psgc.Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(psgc.RunOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	var ck *psgc.Checkpoint
	var ckErr error
	_, err = c.Run(psgc.RunOptions{
		Capacity:      32,
		ProgressEvery: 50,
		Progress: func(p psgc.Progress) bool {
			if p.Steps < ref.Steps/2 {
				return true
			}
			ck, ckErr = p.Checkpoint()
			return false
		},
	})
	if ckErr != nil {
		t.Fatal(ckErr)
	}
	if !errors.Is(err, psgc.ErrCheckpointed) {
		t.Fatalf("run did not pause at the checkpoint: %v", err)
	}
	ck.SourceHash, ck.TraceID = SourceHash(allocHeavy), traceID
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSnapshotResumeMigration is the acceptance scenario: a streaming run
// on the arena backend is paused by POST /snapshot at a progress tick, its
// stream ends with a "checkpointed" event, and POST /resume continues it
// on the map backend with a bit-identical result — same value, same
// machine-step and GC counters as the uninterrupted run.
func TestSnapshotResumeMigration(t *testing.T) {
	stallSteps(t, nil)
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Uninterrupted reference run (map backend).
	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       intp(32),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d (%s)", resp.StatusCode, body)
	}
	ref := decode[RunResponse](t, body)

	// Live streaming run on the arena backend.
	stream, trace := startStream(t, ts, RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       intp(32),
		Backend:        "arena",
		ProgressSteps:  100,
	})
	defer stream.Body.Close()
	sc := sseScanner(stream.Body)
	if ev, ok := nextSSE(sc); !ok || ev.name != "progress" {
		t.Fatalf("first stream event %q (ok=%v), want progress", ev.name, ok)
	}

	// Pause it at the next progress tick.
	sresp, sbody := postJSON(t, ts.URL+"/snapshot", SnapshotRequest{TraceID: trace})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d (%s)", sresp.StatusCode, sbody)
	}
	snap := decode[SnapshotResponse](t, sbody)
	if snap.Backend != "arena" || snap.Collector != "forwarding" || snap.Steps <= 0 || len(snap.Blob) == 0 {
		t.Fatalf("snapshot %+v: want arena/forwarding, positive steps, non-empty blob", snap)
	}
	if snap.SourceHash != ref.SourceHash {
		t.Errorf("snapshot hash %s, want %s", snap.SourceHash, ref.SourceHash)
	}

	// The interrupted stream's terminal event is "checkpointed", not a
	// result and not an error: the run moved, it did not fail.
	var last sseEvent
	for {
		ev, ok := nextSSE(sc)
		if !ok {
			break
		}
		last = ev
	}
	if last.name != "checkpointed" {
		t.Fatalf("terminal stream event %q (%s), want checkpointed", last.name, last.data)
	}
	ckd := decode[CheckpointedResponse](t, last.data)
	if !ckd.Checkpointed || ckd.Steps != snap.Steps || ckd.TraceID != trace {
		t.Errorf("checkpointed event %+v does not match snapshot (steps %d, trace %s)", ckd, snap.Steps, trace)
	}

	// Resume on the other backend: the migration must be invisible in the
	// result.
	rresp, rbody := postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: snap.Blob, Backend: "map"})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d (%s)", rresp.StatusCode, rbody)
	}
	rr := decode[RunResponse](t, rbody)
	if rr.Value != ref.Value {
		t.Errorf("resumed value %d, want %d", rr.Value, ref.Value)
	}
	if rr.Stats != ref.Stats {
		t.Errorf("resumed stats diverged:\n  resumed       %+v\n  uninterrupted %+v", rr.Stats, ref.Stats)
	}
	if !rr.Resumed || rr.ResumedFromStep != snap.Steps {
		t.Errorf("resumed/from = %v/%d, want true/%d", rr.Resumed, rr.ResumedFromStep, snap.Steps)
	}
	if rr.Backend != "map" {
		t.Errorf("resumed backend %q, want map", rr.Backend)
	}
	if rr.TraceID != trace {
		t.Errorf("resumed trace %q, want the original run's %q", rr.TraceID, trace)
	}
	if got := s.metrics.Snapshots.Load(); got != 1 {
		t.Errorf("snapshots counter = %d, want 1", got)
	}
	if got := s.metrics.Resumes.Load(); got != 1 {
		t.Errorf("resumes counter = %d, want 1", got)
	}
}

// TestSnapshotWithoutProgressSteps pauses a stream that set no
// progress_steps: its progress ticks are its collections (and every 50,000
// steps), and POST /snapshot lands on the next one. The blob resumes to the
// uninterrupted run's exact value and counters.
func TestSnapshotWithoutProgressSteps(t *testing.T) {
	stallSteps(t, nil)
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	req := RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "basic"},
		Capacity:       intp(16),
	}
	resp, body := postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d (%s)", resp.StatusCode, body)
	}
	ref := decode[RunResponse](t, body)

	stream, trace := startStream(t, ts, req)
	defer stream.Body.Close()
	sc := sseScanner(stream.Body)
	if ev, ok := nextSSE(sc); !ok || ev.name != "progress" {
		t.Fatalf("first stream event %q (ok=%v), want progress", ev.name, ok)
	}
	sresp, sbody := postJSON(t, ts.URL+"/snapshot", SnapshotRequest{TraceID: trace})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d (%s)", sresp.StatusCode, sbody)
	}
	snap := decode[SnapshotResponse](t, sbody)

	rresp, rbody := postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: snap.Blob})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d (%s)", rresp.StatusCode, rbody)
	}
	rr := decode[RunResponse](t, rbody)
	if rr.Value != ref.Value || rr.Stats != ref.Stats {
		t.Errorf("resumed run diverged:\n  resumed       %d %+v\n  uninterrupted %d %+v",
			rr.Value, rr.Stats, ref.Value, ref.Stats)
	}
	if !rr.Resumed || rr.ResumedFromStep != snap.Steps {
		t.Errorf("resumed/from = %v/%d, want true/%d", rr.Resumed, rr.ResumedFromStep, snap.Steps)
	}
}

// TestSnapshotMisses pins the miss paths: an unknown trace is 404, a
// registered run that never reaches another progress tick is 410 after
// SnapshotWaitMs, and a request without a trace ID is 400.
func TestSnapshotMisses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, SnapshotWaitMs: 50})

	resp, body := postJSON(t, ts.URL+"/snapshot", SnapshotRequest{TraceID: "no-such-run"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d (%s), want 404", resp.StatusCode, body)
	}

	s.registerLive("stalled-run", newStream())
	defer s.unregisterLive("stalled-run")
	resp, body = postJSON(t, ts.URL+"/snapshot", SnapshotRequest{TraceID: "stalled-run"})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("boundary timeout: %d (%s), want 410", resp.StatusCode, body)
	}
	if got := s.metrics.SnapshotMisses.Load(); got != 2 {
		t.Errorf("snapshot_misses = %d, want 2", got)
	}

	resp, body = postJSON(t, ts.URL+"/snapshot", SnapshotRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing trace_id: %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestResumeRejectsCorruptBlob flips one bit in a valid checkpoint and
// posts garbage outright: both must be refused with 422 and a
// checkpoint_rejected incident — never a resumed machine.
func TestResumeRejectsCorruptBlob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	blob := makeCheckpointBlob(t, "corrupt-run")
	blob[len(blob)/2] ^= 0x40
	resp, body := postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: blob})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bit-flipped blob: %d (%s), want 422", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: []byte("not a checkpoint")})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage blob: %d (%s), want 422", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/resume", ResumeRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty blob: %d (%s), want 400", resp.StatusCode, body)
	}

	if got := s.metrics.ResumesRejected.Load(); got != 2 {
		t.Errorf("resumes_rejected = %d, want 2", got)
	}
	incidents := s.guard.incidents.Snapshot()
	rejected := 0
	for _, in := range incidents {
		if in.Kind == "checkpoint_rejected" {
			rejected++
		}
	}
	if rejected != 2 {
		t.Errorf("checkpoint_rejected incidents = %d (%+v), want 2", rejected, incidents)
	}
}

// TestSnapshotCorruptFaultPoint drives the checkpoint.corrupt chaos point
// end to end: the fault flips a bit in the blob /snapshot returns, and
// /resume must detect it.
func TestSnapshotCorruptFaultPoint(t *testing.T) {
	stallSteps(t, fault.NewRegistry(1).Enable(fault.CheckpointCorrupt, 1))
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	stream, trace := startStream(t, ts, RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "basic"},
		Capacity:       intp(32),
		ProgressSteps:  100,
	})
	defer stream.Body.Close()
	sc := sseScanner(stream.Body)
	if ev, ok := nextSSE(sc); !ok || ev.name != "progress" {
		t.Fatalf("first stream event %q (ok=%v), want progress", ev.name, ok)
	}
	sresp, sbody := postJSON(t, ts.URL+"/snapshot", SnapshotRequest{TraceID: trace})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d (%s)", sresp.StatusCode, sbody)
	}
	snap := decode[SnapshotResponse](t, sbody)
	io.Copy(io.Discard, stream.Body)

	rresp, rbody := postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: snap.Blob})
	if rresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupted snapshot resumed: %d (%s), want 422", rresp.StatusCode, rbody)
	}
	if got := s.metrics.ResumesRejected.Load(); got != 1 {
		t.Errorf("resumes_rejected = %d, want 1", got)
	}
}

// TestResumeDuplicateRejected pins the idempotency guard the gate's
// migration retries rely on: the same snapshot resumes once; a replay is
// 409.
func TestResumeDuplicateRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	blob := makeCheckpointBlob(t, "dup-run")

	resp, body := postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: blob})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first resume: %d (%s)", resp.StatusCode, body)
	}
	rr := decode[RunResponse](t, body)
	if !rr.Resumed || rr.TraceID != "dup-run" {
		t.Errorf("first resume %+v, want resumed under trace dup-run", rr)
	}

	resp, body = postJSON(t, ts.URL+"/resume", ResumeRequest{Blob: blob})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replayed resume: %d (%s), want 409", resp.StatusCode, body)
	}
	if got := s.metrics.ResumesDuplicate.Load(); got != 1 {
		t.Errorf("resumes_duplicate = %d, want 1", got)
	}
}

// TestAdminBreakers opens a breaker through a forced divergence, then
// exercises the operator surface: list, delete a bogus hash, delete the
// real one.
func TestAdminBreakers(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.HeapCorrupt, 1))
	defer fault.Install(nil)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CoCheckSample: 1})

	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diverging run: %d (%s)", resp.StatusCode, body)
	}
	rr := decode[RunResponse](t, body)
	if !rr.Diverged {
		t.Fatal("heap corruption did not force a divergence")
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/admin/breakers", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list breakers: %d (%s)", resp.StatusCode, body)
	}
	br := decode[BreakersResponse](t, body)
	if len(br.Breakers) != 1 || br.Breakers[0].SourceHash != rr.SourceHash {
		t.Fatalf("breakers %+v, want exactly the diverged program %s", br.Breakers, rr.SourceHash)
	}

	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/admin/breakers?hash=feedface", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown hash: %d (%s), want 404", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/admin/breakers?hash="+rr.SourceHash, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete breaker: %d (%s)", resp.StatusCode, body)
	}
	cleared := decode[BreakersResponse](t, body)
	if cleared.Cleared != 1 || len(cleared.Breakers) != 0 {
		t.Errorf("delete response %+v, want cleared=1 and no open breakers", cleared)
	}
	if got := s.metrics.BreakersOpen.Load(); got != 0 {
		t.Errorf("breakers gauge = %d, want 0 after the clear", got)
	}
	found := false
	for _, in := range s.guard.incidents.Snapshot() {
		if in.Kind == "breaker_cleared" {
			found = true
		}
	}
	if !found {
		t.Error("clearing a breaker recorded no breaker_cleared incident")
	}

	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/admin/breakers", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /admin/breakers: %d, want 405", resp.StatusCode)
	}
}

// TestAdminCoCheck retunes the live co-check sample rate over HTTP.
func TestAdminCoCheck(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/admin/cocheck", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get cocheck: %d (%s)", resp.StatusCode, body)
	}
	if cc := decode[CoCheckResponse](t, body); cc.Sample != 0 {
		t.Errorf("initial sample %v, want 0", cc.Sample)
	}

	resp, body = doJSON(t, http.MethodPut, ts.URL+"/admin/cocheck", CoCheckRequest{Sample: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put cocheck: %d (%s)", resp.StatusCode, body)
	}
	if cc := decode[CoCheckResponse](t, body); cc.Sample != 0.5 {
		t.Errorf("sample after PUT 0.5 = %v", cc.Sample)
	}
	if !s.guard.shouldCoCheck() {
		t.Error("first run after retune not sampled at rate 0.5")
	}

	resp, body = doJSON(t, http.MethodPut, ts.URL+"/admin/cocheck", CoCheckRequest{Sample: 1.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range sample: %d (%s), want 400", resp.StatusCode, body)
	}
	if cc := decode[CoCheckResponse](t, mustBody(t, ts.URL+"/admin/cocheck")); cc.Sample != 0.5 {
		t.Errorf("rejected PUT changed the rate to %v", cc.Sample)
	}

	resp, body = doJSON(t, http.MethodPut, ts.URL+"/admin/cocheck", CoCheckRequest{Sample: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disable cocheck: %d (%s)", resp.StatusCode, body)
	}
	if s.guard.shouldCoCheck() {
		t.Error("sampling still on after PUT 0")
	}
}

func mustBody(t *testing.T, url string) []byte {
	t.Helper()
	_, body := getJSON(t, url)
	return body
}

// TestIncidentLogSurvivesRestart is the persistence replay test: incidents
// recorded under -incident-dir are JSONL on disk and reload on boot.
func TestIncidentLogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 4, IncidentDir: dir}

	boot := func() (*Server, *httptest.Server) {
		s := New(cfg)
		return s, httptest.NewServer(s)
	}
	shutdown := func(s *Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}

	s1, ts1 := boot()
	resp, body := postJSON(t, ts1.URL+"/resume", ResumeRequest{Blob: []byte("junk")})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("junk blob: %d (%s), want 422", resp.StatusCode, body)
	}
	if got := s1.guard.incidents.Total(); got != 1 {
		t.Fatalf("first process logged %d incidents, want 1", got)
	}
	shutdown(s1, ts1)

	// Second process on the same directory replays the incident, and its
	// own incidents append rather than truncate.
	s2, ts2 := boot()
	replayed := s2.guard.incidents.Snapshot()
	if len(replayed) != 1 || replayed[0].Kind != "checkpoint_rejected" {
		t.Fatalf("replayed incidents %+v, want the checkpoint_rejected from the first process", replayed)
	}
	s2.guard.incidents.Record(obs.Incident{Kind: "second_boot", Detail: "appended after replay"})
	shutdown(s2, ts2)

	s3, ts3 := boot()
	defer shutdown(s3, ts3)
	kinds := []string{}
	for _, in := range s3.guard.incidents.Snapshot() {
		kinds = append(kinds, in.Kind)
	}
	if fmt.Sprint(kinds) != "[checkpoint_rejected second_boot]" {
		t.Fatalf("third boot replayed %v, want both incidents in order", kinds)
	}
}
