package service

import (
	"net/http"
	"strings"
	"testing"

	"psgc/internal/policy"
	"psgc/internal/workload"
)

// runReq builds a small-capacity run request so every test run exercises
// the collectors and produces a meaningful profile.
func runReq(src, collector, pol string) RunRequest {
	cap := 24
	return RunRequest{
		CompileRequest: CompileRequest{Source: src, Collector: collector},
		Capacity:       &cap,
		Policy:         pol,
	}
}

// TestRunPolicyAdaptive drives the whole loop over HTTP: a cold adaptive
// run falls back to the request's collector, static runs accumulate a
// profile, and a warm adaptive run decides from it — with the decision
// reported in the response and the value unchanged throughout, and the
// warm run's stats are those of a static run at the decided collector and
// capacity.
func TestRunPolicyAdaptive(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	want := 30 * 31 / 2

	// Cold: no profile for the hash yet, fallback to the request.
	resp, body := postJSON(t, ts.URL+"/run", runReq(allocHeavy, "basic", "adaptive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold adaptive run: status %d: %s", resp.StatusCode, body)
	}
	cold := decode[RunResponse](t, body)
	if cold.Value != want {
		t.Fatalf("cold adaptive value %d, want %d", cold.Value, want)
	}
	if cold.Policy != policy.Adaptive || cold.Decision == nil {
		t.Fatalf("cold adaptive response missing decision: %+v", cold)
	}
	if cold.Decision.Runs != 0 || cold.Collector != "basic" {
		t.Fatalf("cold decision should fall back to basic with 0 runs: %+v", cold.Decision)
	}

	// Warm the profile (the cold adaptive run above also fed it).
	for i := 0; i < 2; i++ {
		resp, body = postJSON(t, ts.URL+"/run", runReq(allocHeavy, "basic", "static"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("static warm-up run: status %d: %s", resp.StatusCode, body)
		}
		warm := decode[RunResponse](t, body)
		if warm.Policy != policy.Static || warm.Decision != nil {
			t.Fatalf("static run reported %q with decision %+v", warm.Policy, warm.Decision)
		}
	}

	resp, body = postJSON(t, ts.URL+"/run", runReq(allocHeavy, "basic", "adaptive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm adaptive run: status %d: %s", resp.StatusCode, body)
	}
	got := decode[RunResponse](t, body)
	if got.Value != want {
		t.Fatalf("warm adaptive value %d, want %d", got.Value, want)
	}
	d := got.Decision
	if d == nil || d.Runs == 0 {
		t.Fatalf("warm adaptive decision not profile-backed: %+v", d)
	}
	if d.Collector != got.Collector {
		t.Fatalf("response collector %q != decided %q", got.Collector, d.Collector)
	}
	if d.Reason == "" || strings.Contains(d.Reason, "cold") {
		t.Fatalf("warm decision reason %q", d.Reason)
	}
	if s.Metrics().PolicyDecisions.Load() != 2 || s.Metrics().PolicyCold.Load() != 1 {
		t.Fatalf("decision counters: decisions %d cold %d, want 2 and 1",
			s.Metrics().PolicyDecisions.Load(), s.Metrics().PolicyCold.Load())
	}
	if n := s.Metrics().ProfiledRuns.Load(); n != 4 {
		t.Fatalf("profiled runs %d, want 4 (every completed run feeds the store)", n)
	}

	// The decision is the whole of the policy's effect: a static run at the
	// decided collector and capacity does exactly what the adaptive one did.
	resp, body = postJSON(t, ts.URL+"/run", RunRequest{
		CompileRequest: CompileRequest{Source: allocHeavy, Collector: d.Collector},
		Capacity:       intp(d.Capacity),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static run at the decision: status %d: %s", resp.StatusCode, body)
	}
	if static := decode[RunResponse](t, body); static.Value != got.Value || static.Stats != got.Stats {
		t.Fatalf("static run at %s/%d: value %d stats %+v; adaptive: value %d stats %+v",
			d.Collector, d.Capacity, static.Value, static.Stats, got.Value, got.Stats)
	}
}

// TestRunPolicyValidation pins the knob's precedence and error paths: the
// query parameter beats the body, and unknown names are 400s.
func TestRunPolicyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, body := postJSON(t, ts.URL+"/run?policy=adaptive", runReq(allocHeavy, "basic", "static"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := decode[RunResponse](t, body); got.Policy != policy.Adaptive {
		t.Fatalf("?policy=adaptive did not override body static: %q", got.Policy)
	}

	resp, body = postJSON(t, ts.URL+"/run?policy=bogus", runReq(allocHeavy, "basic", ""))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus policy: status %d: %s", resp.StatusCode, body)
	}
	if e := decode[errorBody](t, body); !strings.Contains(e.Error, "bogus") {
		t.Fatalf("error %q does not name the bad policy", e.Error)
	}
}

// TestRunPolicyAdaptiveCoChecked proves policy is correctness-neutral on
// the strongest oracle we have: an adaptive run co-stepped against the
// substitution machine returns the oracle-verified value with no
// divergence.
func TestRunPolicyAdaptiveCoChecked(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	// Build profiles for both workloads first.
	shared := workload.SharedDAGSrc(6)
	for _, src := range []string{allocHeavy, shared} {
		for _, col := range []string{"basic", "forwarding"} {
			resp, body := postJSON(t, ts.URL+"/run", runReq(src, col, "static"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
			}
		}
	}
	for _, tc := range []struct {
		src  string
		want int
	}{{allocHeavy, 30 * 31 / 2}, {shared, 4}} {
		resp, body := postJSON(t, ts.URL+"/run?cocheck=1", runReq(tc.src, "basic", "adaptive"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("co-checked adaptive run: status %d: %s", resp.StatusCode, body)
		}
		got := decode[RunResponse](t, body)
		if got.Value != tc.want {
			t.Fatalf("co-checked adaptive value %d, want %d", got.Value, tc.want)
		}
		if !got.CoChecked || got.Diverged {
			t.Fatalf("cochecked=%v diverged=%v, want co-checked and clean", got.CoChecked, got.Diverged)
		}
	}
	if n := s.Metrics().CoCheckDivergences.Load(); n != 0 {
		t.Fatalf("%d divergences under adaptive policy, want 0", n)
	}
}

// TestHealthzPolicyExposure pins the operator view: per-hash profile
// summaries with the last decision, the store's segment sizes, and the
// engine counters all surface in /healthz.
func TestHealthzPolicyExposure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DefaultPolicy: "adaptive"})
	resp, body := postJSON(t, ts.URL+"/run", runReq(allocHeavy, "basic", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	if got := decode[RunResponse](t, body); got.Policy != policy.Adaptive {
		t.Fatalf("DefaultPolicy adaptive not applied: %q", got.Policy)
	}

	hresp, hbody := getJSON(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", hresp.StatusCode)
	}
	h := decode[map[string]any](t, hbody)
	if h["default_policy"] != "adaptive" {
		t.Fatalf("healthz default_policy = %v", h["default_policy"])
	}
	pol, ok := h["policy"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no policy section: %v", h)
	}
	if pol["profiles"].(float64) != 1 || pol["profiled_runs"].(float64) != 1 {
		t.Fatalf("policy section %v, want 1 profile from 1 run", pol)
	}
	programs, ok := pol["programs"].([]any)
	if !ok || len(programs) != 1 {
		t.Fatalf("policy programs %v, want one entry", pol["programs"])
	}
	prog := programs[0].(map[string]any)
	if prog["hash"] != SourceHash(allocHeavy) {
		t.Fatalf("program hash %v, want %s", prog["hash"], SourceHash(allocHeavy))
	}
	if prog["decision"] == nil {
		t.Fatalf("program entry carries no decision: %v", prog)
	}
	_ = s
}

// TestMetricsPolicyFamilies pins the Prometheus and JSON exposure of the
// policy counters.
func TestMetricsPolicyFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body := postJSON(t, ts.URL+"/run", runReq(allocHeavy, "basic", "adaptive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}

	mresp, mbody := getJSON(t, ts.URL+"/metrics?format=prometheus")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", mresp.StatusCode)
	}
	text := string(mbody)
	for _, family := range []string{
		"psgc_profiled_runs_total 1",
		`psgc_policy_decisions_total{outcome="decided"} 1`,
		`psgc_policy_decisions_total{outcome="cold"} 1`,
		`psgc_policy_chosen_total{collector="basic"} 1`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("prometheus output missing %q", family)
		}
	}

	jresp, jbody := getJSON(t, ts.URL+"/metrics")
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics json: status %d", jresp.StatusCode)
	}
	j := decode[map[string]any](t, jbody)
	pol, ok := j["policy"].(map[string]any)
	if !ok || pol["decisions"].(float64) != 1 {
		t.Fatalf("json metrics policy section %v", j["policy"])
	}
}

// TestBatchPolicy runs a mixed-policy batch: static and adaptive items
// resolve independently and an invalid policy fails only its item.
func TestBatchPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	req := BatchRequest{Items: []RunRequest{
		runReq(allocHeavy, "basic", "static"),
		runReq(allocHeavy, "basic", "adaptive"),
		runReq(allocHeavy, "basic", "bogus"),
	}}
	resp, body := postJSON(t, ts.URL+"/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	out := decode[BatchResponse](t, body)
	if len(out.Items) != 3 {
		t.Fatalf("batch items %d, want 3", len(out.Items))
	}
	if out.Items[0].Run == nil || out.Items[0].Run.Policy != policy.Static {
		t.Fatalf("item 0: %+v", out.Items[0])
	}
	if out.Items[1].Run == nil || out.Items[1].Run.Decision == nil {
		t.Fatalf("item 1 (adaptive): %+v", out.Items[1])
	}
	if out.Items[2].Error == nil || out.Items[2].Status != http.StatusBadRequest {
		t.Fatalf("item 2 (bogus policy): %+v", out.Items[2])
	}
	if out.Completed != 2 || out.Failed != 1 {
		t.Fatalf("completed %d failed %d, want 2 and 1", out.Completed, out.Failed)
	}
}
