package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"psgc"
	"psgc/internal/fault"
)

// intp is shorthand for the optional capacity field.
func intp(n int) *int { return &n }

// getJSON drives one GET endpoint and returns the response plus body.
func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func mustUnmarshal(t *testing.T, data []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("bad response %s: %v", data, err)
	}
}

// newHTTPServer wraps an already-built Server in an httptest listener
// without the double-Shutdown the newTestServer cleanup would add.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// postJSONNoFatal is postJSON for goroutines, where t.Fatal is illegal.
func postJSONNoFatal(url string, body any) (int, []byte) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, []byte(err.Error())
	}
	return resp.StatusCode, out.Bytes()
}

// retryAfter asserts the response carries a parseable, positive
// Retry-After header and returns its value in seconds.
func retryAfter(t *testing.T, resp *http.Response) int {
	t.Helper()
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		t.Fatalf("%d response without Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs <= 0 {
		t.Fatalf("Retry-After %q is not a positive integer", raw)
	}
	return secs
}

// TestCoCheckSamplingRate pins the deterministic every-Nth sampler that
// implements CoCheckSample.
func TestCoCheckSamplingRate(t *testing.T) {
	cases := []struct {
		sample float64
		wantOf int // co-checks per 100 runs
	}{
		{0, 0}, {1, 100}, {0.5, 50}, {0.25, 25}, {0.01, 1},
	}
	for _, c := range cases {
		g := newGuardrails(c.sample, nil)
		got := 0
		for i := 0; i < 100; i++ {
			if g.shouldCoCheck() {
				got++
			}
		}
		if got != c.wantOf {
			t.Errorf("sample %v: %d co-checks per 100 runs, want %d", c.sample, got, c.wantOf)
		}
	}
	// The first run must be in the sample, so a freshly configured server
	// co-checks immediately rather than after 1/s warm-up runs.
	if g := newGuardrails(0.1, nil); !g.shouldCoCheck() {
		t.Error("first run not sampled at rate 0.1")
	}
}

// TestCoCheckDivergenceFallback is the acceptance scenario: synthetic heap
// corruption in the env machine forces an env/oracle divergence on a
// co-checked run, and the service must (1) record an incident, (2) serve
// the request from the oracle with the correct result, (3) open a
// circuit breaker visible in /healthz, and (4) increment
// psgc_cocheck_divergences_total.
func TestCoCheckDivergenceFallback(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.HeapCorrupt, 1))
	defer fault.Install(nil)

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CoCheckSample: 1})

	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rr := decode[RunResponse](t, body)
	if rr.Value != 465 {
		t.Errorf("value %d, want the oracle's 465", rr.Value)
	}
	if !rr.CoChecked || !rr.Diverged {
		t.Errorf("cochecked/diverged = %v/%v, want true/true", rr.CoChecked, rr.Diverged)
	}
	if rr.Engine != "subst" {
		t.Errorf("engine %q, want subst (oracle fallback)", rr.Engine)
	}
	if got := s.metrics.CoCheckDivergences.Load(); got != 1 {
		t.Errorf("divergence counter = %d, want 1", got)
	}
	if got := s.metrics.BreakersOpen.Load(); got != 1 {
		t.Errorf("breakers gauge = %d, want 1", got)
	}

	// The incident is recorded and the breaker is visible in /healthz.
	hresp, hbody := getJSON(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
	var health struct {
		CoCheckDivergences int64 `json:"cocheck_divergences"`
		OpenBreakers       []struct {
			SourceHash  string `json:"source_hash"`
			Collector   string `json:"collector"`
			Divergences int    `json:"divergences"`
			LastDetail  string `json:"last_detail"`
		} `json:"open_breakers"`
		Incidents []struct {
			Kind    string `json:"kind"`
			Subject string `json:"subject"`
		} `json:"incidents"`
		Chaos map[string]any `json:"chaos"`
	}
	mustUnmarshal(t, hbody, &health)
	if health.CoCheckDivergences != 1 {
		t.Errorf("healthz cocheck_divergences = %d, want 1", health.CoCheckDivergences)
	}
	if len(health.OpenBreakers) != 1 {
		t.Fatalf("healthz open_breakers = %+v, want exactly one", health.OpenBreakers)
	}
	b := health.OpenBreakers[0]
	if b.SourceHash != rr.SourceHash || b.Collector != "forwarding" || b.Divergences != 1 || b.LastDetail == "" {
		t.Errorf("breaker %+v does not match the diverged run (hash %s)", b, rr.SourceHash)
	}
	if len(health.Incidents) != 1 || health.Incidents[0].Kind != "engine_divergence" || health.Incidents[0].Subject != rr.SourceHash {
		t.Errorf("incidents = %+v, want one engine_divergence for %s", health.Incidents, rr.SourceHash)
	}
	if health.Chaos == nil {
		t.Error("healthz does not surface the installed chaos registry")
	}

	// The Prometheus exposition carries the divergence counter.
	promReq, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	promResp, err := http.DefaultClient.Do(promReq)
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := promResp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	for _, want := range []string{"psgc_cocheck_divergences_total 1", "psgc_breakers_open 1", "psgc_cocheck_runs_total 1"} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}

	// The breaker now pins the program to the oracle: the next run is not
	// co-checked (no second divergence), served by subst, still correct.
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-pinned run: status %d: %s", resp.StatusCode, body)
	}
	rr2 := decode[RunResponse](t, body)
	if rr2.Engine != "subst" || rr2.CoChecked || rr2.Diverged {
		t.Errorf("breaker-pinned run = engine %q cochecked %v diverged %v, want subst/false/false",
			rr2.Engine, rr2.CoChecked, rr2.Diverged)
	}
	if rr2.Value != 465 {
		t.Errorf("breaker-pinned value %d, want 465", rr2.Value)
	}
	if got := s.metrics.CoCheckDivergences.Load(); got != 1 {
		t.Errorf("divergence counter moved to %d on a breaker-pinned run", got)
	}
}

// TestCoCheckDivergenceOnPartialRun covers a co-checked run that diverges
// and is then cut by its fuel budget: the 504 partial answer still trips
// the breaker and records the incident, so the next run of the program is
// pinned to the oracle.
func TestCoCheckDivergenceOnPartialRun(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.HeapCorrupt, 1))
	defer fault.Install(nil)
	// Find where the corruption surfaces, and cut the run halfway from
	// there to its end.
	c, err := psgc.Compile(allocHeavy, psgc.Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Run(psgc.RunOptions{Capacity: 40, Engine: psgc.EngineCoChecked})
	if err != nil || full.Divergence == nil || full.Divergence.Step >= full.Steps {
		t.Fatalf("corrupted co-checked run %+v (err %v) does not diverge before its last step", full, err)
	}
	fuel := full.Divergence.Step + (full.Steps-full.Divergence.Step)/2

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: "forwarding"},
		Capacity:       intp(40),
		Fuel:           fuel,
		CoCheck:        true,
	}
	resp, body := postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	eb := decode[errorBody](t, body)
	if eb.Partial == nil || eb.Partial.Steps != fuel {
		t.Errorf("partial %+v, want %d steps", eb.Partial, fuel)
	}
	if !eb.Diverged || eb.Engine != "subst" {
		t.Errorf("partial body reports diverged %v engine %q, want true and subst", eb.Diverged, eb.Engine)
	}
	if got := s.metrics.CoCheckDivergences.Load(); got != 1 {
		t.Errorf("divergence counter = %d, want 1", got)
	}
	if got := s.metrics.BreakersOpen.Load(); got != 1 {
		t.Errorf("breakers gauge = %d, want 1", got)
	}
	incidents := s.guard.incidents.Snapshot()
	if len(incidents) != 1 || incidents[0].Kind != "engine_divergence" || incidents[0].Subject != SourceHash(allocHeavy) {
		t.Errorf("incidents = %+v, want one engine_divergence", incidents)
	}

	req.Fuel, req.CoCheck = 0, false
	resp, body = postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker-pinned run: status %d: %s", resp.StatusCode, body)
	}
	if rr := decode[RunResponse](t, body); rr.Engine != "subst" || rr.CoChecked || rr.Value != 465 {
		t.Errorf("breaker-pinned run = engine %q cochecked %v value %d, want subst/false/465", rr.Engine, rr.CoChecked, rr.Value)
	}
}

// TestCoCheckDivergenceTripsBreakerMidRun pins when the breaker opens: at
// the first Progress tick after the divergence, while the co-checked run
// is still going, so concurrent fresh runs of the program are pinned to
// the oracle without waiting for it to end. The run is a collection storm
// at a fixed undersized capacity that only its fuel ends, long enough that
// its first streamed tick arrives well before it returns; the machine-step
// counter, which moves only once the run has returned, shows it is still
// going when the breaker is seen open.
func TestCoCheckDivergenceTripsBreakerMidRun(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.HeapCorrupt, 1))
	defer fault.Install(nil)

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"source":`+strconv.Quote(allocHeavy)+`,"collector":"forwarding","capacity":8,"fixed":true,"fuel":100000,"progress_steps":200,"cocheck":true}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawTick := false
	for sc.Scan() {
		if sc.Text() == "event: progress" {
			sawTick = true
			break
		}
	}
	open := s.guard.breakerOpen(SourceHash(allocHeavy))
	running := s.metrics.MachineSteps[psgc.Forwarding].Load() == 0
	resp.Body.Close()
	if !sawTick {
		t.Fatal("stream ended before any progress tick")
	}
	if !running {
		t.Fatal("the run returned before its first tick was read; it is too short to tell when the breaker opened")
	}
	if !open {
		t.Fatal("breaker closed at the first tick after the divergence, want it open while the run goes on")
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.QueueDepth.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.CoCheckDivergences.Load(); got != 1 {
		t.Errorf("divergence counter = %d, want 1", got)
	}
	if incidents := s.guard.incidents.Snapshot(); len(incidents) != 1 || incidents[0].Kind != "engine_divergence" {
		t.Errorf("incidents = %+v, want one engine_divergence", incidents)
	}
}

// TestCoCheckCleanRunsStayOnEnv asserts co-checking without faults keeps
// the env engine's answer and opens nothing.
func TestCoCheckCleanRunsStayOnEnv(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CoCheckSample: 1})
	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rr := decode[RunResponse](t, body)
	if !rr.CoChecked || rr.Diverged || rr.Engine != "env" {
		t.Errorf("clean co-checked run = %+v, want cochecked env run without divergence", rr)
	}
	if got := s.metrics.BreakersOpen.Load(); got != 0 {
		t.Errorf("breakers open = %d after a clean run", got)
	}
}

// TestDrain503RetryAfter asserts a draining server answers with 503 plus a
// parseable, positive Retry-After (the 429 sibling assertion lives in
// TestQueueFull429).
func TestDrain503RetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := newHTTPServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/interpret", CompileRequest{Source: "1 + 2"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	retryAfter(t, resp)
}

// TestWatchdogStallBecomesPartial injects a per-step stall and asserts the
// watchdog converts the hung run into a 504 with well-formed partial
// statistics instead of a worker held hostage.
func TestWatchdogStallBecomesPartial(t *testing.T) {
	fault.Install(fault.NewRegistry(1).EnableDelay(fault.MachineStall, 1, time.Millisecond))
	defer fault.Install(nil)

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, WatchdogMs: 40})
	resp, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		Capacity:       intp(40),
		ProgressSteps:  20,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	eb := decode[errorBody](t, body)
	if !strings.Contains(eb.Error, "watchdog") {
		t.Errorf("error %q does not name the watchdog", eb.Error)
	}
	if eb.Partial == nil || eb.Partial.Steps <= 0 {
		t.Errorf("watchdog 504 without well-formed partial stats: %s", body)
	}
	if got := s.metrics.WatchdogStalls.Load(); got != 1 {
		t.Errorf("watchdog stall counter = %d, want 1", got)
	}
	if got := s.metrics.Deadlines.Load(); got != 0 {
		t.Errorf("watchdog stall was misclassified as a fuel deadline (%d)", got)
	}

	// Uninstall the stall: the same server must serve the program normally
	// (no breaker involvement — a stall is not a divergence).
	fault.Install(nil)
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		Capacity:       intp(40),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-stall run: status %d: %s", resp.StatusCode, body)
	}
}

// TestShedObservabilityUnderLoad drives the degradation mode: at the shed
// threshold, traced and streamed runs get 429 + Retry-After while the
// queue is still accepting plain work.
func TestShedObservabilityUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ShedThreshold: 0.25})

	block := make(chan struct{})
	started := make(chan struct{})
	s.metrics.EnterQueue()
	s.jobs <- &job{do: func() *response {
		close(started)
		<-block
		return &response{status: http.StatusOK, body: struct{}{}}
	}, done: make(chan *response, 1)}
	<-started
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	defer unblock()

	// Queue depth 1 ≥ 0.25×4: degradation mode is on.
	hresp, hbody := getJSON(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatal("healthz unavailable")
	}
	var health struct {
		Degradation string `json:"degradation_mode"`
	}
	mustUnmarshal(t, hbody, &health)
	if health.Degradation != "shedding_observability" {
		t.Errorf("degradation_mode = %q, want shedding_observability", health.Degradation)
	}

	for _, variant := range []string{"?trace=1", "?stream=1"} {
		resp, body := postJSON(t, ts.URL+"/run"+variant, RunRequest{
			CompileRequest: CompileRequest{Source: allocHeavy},
		})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s under load: status %d (%s), want 429", variant, resp.StatusCode, body)
		}
		retryAfter(t, resp)
	}
	if got := s.metrics.Shed.Load(); got != 2 {
		t.Errorf("shed counter = %d, want 2", got)
	}

	// A plain run is NOT shed: it queues behind the blocker and completes
	// once the blocker exits.
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: allocHeavy},
			Capacity:       intp(40),
		})
		done <- result{resp, body}
	}()
	time.Sleep(50 * time.Millisecond) // let it enqueue behind the blocker
	unblock()
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("plain run under load: status %d (%s), want 200", r.status, r.body)
	}
}

// TestStreamClientDisconnectMidCollection is the SSE cancellation
// regression: a client that vanishes while the machine is collecting must
// free the worker at the next progress tick and leave the counters
// consistent (one canceled run, queue drained back to zero).
func TestStreamClientDisconnectMidCollection(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	// A fixed undersized capacity makes the live set exceed the heap at
	// every function entry: the machine collects continuously and only the
	// fuel budget would ever end the run — perfect for disconnecting mid-
	// collection.
	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"source":`+strconv.Quote(allocHeavy)+`,"capacity":8,"fixed":true,"progress_steps":200}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawCollection := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"collections":`) && !strings.Contains(line, `"collections":0`) {
			sawCollection = true
			break
		}
	}
	if !sawCollection {
		t.Fatal("stream ended before any collection was reported")
	}
	resp.Body.Close() // disconnect mid-run, mid-collection-storm

	// The worker must notice at its next progress tick and come back.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.QueueDepth.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d := s.metrics.QueueDepth.Load(); d != 0 {
		t.Fatalf("queue depth still %d after disconnect; worker not freed", d)
	}
	deadline = time.Now().Add(10 * time.Second)
	for s.metrics.Canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.Canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}

	// The freed worker serves the next request promptly.
	resp2, body := postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy},
		Capacity:       intp(40),
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("run after disconnect: status %d (%s)", resp2.StatusCode, body)
	}
	if got := s.metrics.Panics.Load(); got != 0 {
		t.Errorf("panics = %d after disconnect, want 0", got)
	}
}
