//go:build chaos

package service

// The full chaos matrix, selected with `go test -tags chaos -run Chaos`:
// every fault point hammered concurrently over the E1 workload, plus the
// cross-cutting invariants — no panic escapes a worker, partial results
// stay well-formed, the PR-2 timeline/counter identities hold under
// faults that must not disturb them, and the cache stays coherent after
// eviction storms. The fast default-on slice is chaos_smoke_test.go.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"psgc/internal/fault"
	"psgc/internal/workload"
)

// chaosPoints is the hammering matrix: one entry per fault point, with the
// statuses that count as well-formed under that fault and whether the run
// is forced through the oracle co-check (corruption must never surface a
// wrong value, only a divergence).
var chaosPoints = []struct {
	name    string
	reg     *fault.Registry
	cocheck bool
	allowed map[int]bool
}{
	{"compile.parse", fault.NewRegistry(101).Enable(fault.CompileParse, 0.4), false,
		map[int]bool{http.StatusOK: true, http.StatusInternalServerError: true}},
	{"machine.step", fault.NewRegistry(102).Enable(fault.MachineStep, 0.0005), false,
		map[int]bool{http.StatusOK: true, http.StatusInternalServerError: true}},
	{"machine.stall", fault.NewRegistry(103).EnableDelay(fault.MachineStall, 0.001, time.Millisecond), false,
		map[int]bool{http.StatusOK: true}},
	{"machine.corrupt", fault.NewRegistry(104).Enable(fault.HeapCorrupt, 0.5), true,
		map[int]bool{http.StatusOK: true}},
	{"worker.panic", fault.NewRegistry(105).Enable(fault.WorkerPanic, 0.4), false,
		map[int]bool{http.StatusOK: true, http.StatusInternalServerError: true}},
	{"worker.latency", fault.NewRegistry(106).EnableDelay(fault.WorkerLatency, 1, time.Millisecond), false,
		map[int]bool{http.StatusOK: true}},
	{"cache.evict", fault.NewRegistry(107).Enable(fault.CacheEvict, 0.8), false,
		map[int]bool{http.StatusOK: true}},
	{"policy.flip", fault.NewRegistry(108).Enable(fault.PolicyFlip, 1), true,
		map[int]bool{http.StatusOK: true}},
}

var chaosCollectors = []string{"basic", "forwarding", "generational"}

// chaosBackends alternates the memory substrate across the matrix so every
// fault point fires against the arena as well as the map backend —
// machine.corrupt in particular must land on arena slabs and still be
// caught by the map-substrate oracle.
var chaosBackends = []string{"map", "arena"}

// chaosPolicies alternates the decision path: static runs pin the request's
// collector, adaptive runs route through the policy engine — which is the
// surface the policy.flip fault perturbs.
var chaosPolicies = []string{"static", "adaptive"}

// TestChaosMatrix hammers every fault point with concurrent mixed-collector,
// mixed-backend traffic and asserts the service never leaves its
// well-formed envelope.
func TestChaosMatrix(t *testing.T) {
	for _, p := range chaosPoints {
		t.Run(p.name, func(t *testing.T) {
			fault.Install(p.reg)
			t.Cleanup(func() { fault.Install(nil) })
			s, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 32, CacheSize: 8})

			const goroutines, perG = 4, 6
			var wg sync.WaitGroup
			errs := make(chan string, goroutines*perG)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						n := 10 + (g*perG+i)%12
						col := chaosCollectors[(g+i)%len(chaosCollectors)]
						status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
							CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(n), Collector: col},
							Capacity:       intp(40),
							CoCheck:        p.cocheck,
							Backend:        chaosBackends[(g+i)%len(chaosBackends)],
							Policy:         chaosPolicies[(g+2*i)%len(chaosPolicies)],
						})
						if !p.allowed[status] {
							errs <- string(body)
							continue
						}
						if status == http.StatusOK {
							var rr RunResponse
							if err := json.Unmarshal(body, &rr); err != nil {
								errs <- "unparseable 200: " + string(body)
							} else if rr.Value != n*(n+1)/2 {
								errs <- "wrong value under " + p.name + ": " + string(body)
							}
						} else {
							var eb errorBody
							if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
								errs <- "unparseable error body: " + string(body)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Errorf("%s: %s", p.name, e)
			}

			// The invariants: no panic escaped a worker (the pool still
			// serves), and the cache is coherent whatever the fault did.
			fault.Install(nil)
			status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
				CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(15)},
				Capacity:       intp(40),
			})
			if status != http.StatusOK {
				t.Fatalf("pool did not survive %s: status %d: %s", p.name, status, body)
			}
			if err := s.cache.coherent(); err != nil {
				t.Errorf("cache incoherent after %s: %v", p.name, err)
			}
		})
	}
}

// TestChaosTimelineIdentity asserts the PR-2 counter identities — timeline
// steps equal machine steps, spans equal collections, and allocs+copies
// equal puts minus code installs — on traced runs under the fault points
// that must not disturb accounting (latency, stalls, eviction storms).
// Synthetic heap corruption deliberately bypasses the stats counters for
// the same reason: damage must surface behaviorally, not arithmetically.
func TestChaosTimelineIdentity(t *testing.T) {
	fault.Install(fault.NewRegistry(9).
		EnableDelay(fault.WorkerLatency, 0.5, time.Millisecond).
		EnableDelay(fault.MachineStall, 0.0005, time.Millisecond).
		Enable(fault.CacheEvict, 0.5))
	t.Cleanup(func() { fault.Install(nil) })
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheSize: 4})

	for _, col := range chaosCollectors {
		status, body := postJSONNoFatal(ts.URL+"/compile", CompileRequest{Source: allocHeavy, Collector: col})
		if status != http.StatusOK {
			t.Fatalf("%s compile: %d: %s", col, status, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}

		status, body = postJSONNoFatal(ts.URL+"/run?trace=1", RunRequest{
			CompileRequest: CompileRequest{Source: allocHeavy, Collector: col},
			Capacity:       intp(24),
		})
		if status != http.StatusOK {
			t.Fatalf("%s traced run: %d: %s", col, status, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Trace == nil || rr.Trace.Timeline == nil {
			t.Fatalf("%s: traced run has no timeline", col)
		}
		tl := rr.Trace.Timeline
		if tl.Steps != rr.Stats.Steps {
			t.Errorf("%s: timeline steps %d vs stats %d under faults", col, tl.Steps, rr.Stats.Steps)
		}
		if rr.Stats.Collections < 1 || len(tl.Collections) != rr.Stats.Collections {
			t.Errorf("%s: %d spans for %d collections under faults", col, len(tl.Collections), rr.Stats.Collections)
		}
		if got, want := tl.Allocs+tl.Copies, rr.Stats.Puts-cr.CodeBlocks; got != want {
			t.Errorf("%s: allocs+copies = %d, puts-code = %d under faults", col, got, want)
		}
	}
}

// TestChaosCorruptionNeverWrongValue runs every collector × backend with
// certain corruption under full co-check sampling: the oracle's value must
// be served on every single response, and each diverged program must open
// its own breaker. The corruption is a tag-bit flip in a packed heap cell,
// so the arena rows specifically pin that flipping bits in the flat slab
// is caught cell-by-cell by the clean map-substrate oracle.
func TestChaosCorruptionNeverWrongValue(t *testing.T) {
	fault.Install(fault.NewRegistry(13).Enable(fault.HeapCorrupt, 1))
	t.Cleanup(func() { fault.Install(nil) })
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CoCheckSample: 1})

	diverged := 0
	cases := 0
	for i, col := range chaosCollectors {
		for _, be := range chaosBackends {
			cases++
			n := 22 + i
			status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
				CompileRequest: CompileRequest{Source: workload.AllocHeavySrc(n), Collector: col},
				Capacity:       intp(40),
				Backend:        be,
			})
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", col, be, status, body)
			}
			var rr RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			if rr.Value != n*(n+1)/2 {
				t.Errorf("%s/%s: value %d under certain corruption, want the oracle's %d", col, be, rr.Value, n*(n+1)/2)
			}
			if rr.Diverged {
				diverged++
			}
		}
	}
	if diverged == 0 {
		t.Errorf("certain corruption across %d collector×backend cases produced no divergence", cases)
	}
	if got := s.metrics.BreakersOpen.Load(); got == 0 {
		t.Error("no breaker opened for diverged programs")
	}
}

// TestChaosWatchdogStallStorm pairs a certain per-step stall with the
// watchdog: every run must come back as a 504 carrying well-formed partial
// statistics, and the pool must be fully alive afterwards.
func TestChaosWatchdogStallStorm(t *testing.T) {
	fault.Install(fault.NewRegistry(17).EnableDelay(fault.MachineStall, 1, time.Millisecond))
	t.Cleanup(func() { fault.Install(nil) })
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, WatchdogMs: 30})

	for i := 0; i < 3; i++ {
		status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
			CompileRequest: CompileRequest{Source: allocHeavy},
			Capacity:       intp(40),
			ProgressSteps:  20,
		})
		if status != http.StatusGatewayTimeout {
			t.Fatalf("stalled run %d: status %d: %s", i, status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(eb.Error, "watchdog") || eb.Partial == nil || eb.Partial.Steps <= 0 {
			t.Errorf("stalled run %d: malformed watchdog response: %s", i, body)
		}
	}
	if got := s.metrics.WatchdogStalls.Load(); got != 3 {
		t.Errorf("watchdog stalls = %d, want 3", got)
	}

	// Both workers must be back: one concurrent run each. The program
	// (265 steps, no collection at capacity 0) ends before the watchdog's
	// first Progress tick, so the watchdog cannot cut it however slow the
	// host is, and the stall count must stay at the storm's 3.
	fault.Install(nil)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
				CompileRequest: CompileRequest{Source: "fun sum (n : int) : int = if0 n then 0 else n + sum (n - 1)\ndo sum 5"},
				Capacity:       intp(0),
			})
			var rr RunResponse
			if status != http.StatusOK || json.Unmarshal(body, &rr) != nil || rr.Value != 15 {
				errs <- fmt.Sprintf("%d: %s", status, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("pool did not survive the stall storm: %s", e)
	}
	if got := s.metrics.WatchdogStalls.Load(); got != 3 {
		t.Errorf("watchdog stalls after the storm = %d, want 3", got)
	}
}

// TestChaosStormCoherenceConcurrent floods the cache with concurrent
// compiles of distinct programs while every compile also fires an eviction
// storm, then re-derives the SLRU invariants.
func TestChaosStormCoherenceConcurrent(t *testing.T) {
	fault.Install(fault.NewRegistry(19).Enable(fault.CacheEvict, 0.5))
	t.Cleanup(func() { fault.Install(nil) })
	s, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 64, CacheSize: 6})

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				n := 8 + (g*8+i)%16
				col := chaosCollectors[(g+i)%len(chaosCollectors)]
				status, body := postJSONNoFatal(ts.URL+"/compile", CompileRequest{Source: workload.AllocHeavySrc(n), Collector: col})
				if status != http.StatusOK {
					errs <- string(body)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("compile under storm: %s", e)
	}
	if err := s.cache.coherent(); err != nil {
		t.Errorf("cache incoherent after concurrent storms: %v", err)
	}
	if got, _, _, _ := s.cache.stats(); got > 6 {
		t.Errorf("cache holds %d entries, cap is 6", got)
	}
}

// TestChaosPolicyFlipNeutral is the policy ∉ TCB demonstration: with the
// policy.flip fault certain, every warm adaptive decision is rotated to a
// collector the profile did not pick — and the program's value, the oracle
// co-check, and the PR-2 timeline identities must all be indifferent to it.
func TestChaosPolicyFlipNeutral(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	// Warm the profile for both workloads with clean static runs first.
	srcs := []struct {
		src  string
		want int
	}{{allocHeavy, 30 * 31 / 2}, {workload.SharedDAGSrc(6), 4}}
	for _, tc := range srcs {
		for _, col := range chaosCollectors {
			status, body := postJSONNoFatal(ts.URL+"/run", RunRequest{
				CompileRequest: CompileRequest{Source: tc.src, Collector: col},
				Capacity:       intp(24),
			})
			if status != http.StatusOK {
				t.Fatalf("warm-up %s: %d: %s", col, status, body)
			}
		}
	}

	fault.Install(fault.NewRegistry(23).Enable(fault.PolicyFlip, 1))
	t.Cleanup(func() { fault.Install(nil) })

	flipped := 0
	for _, tc := range srcs {
		status, body := postJSONNoFatal(ts.URL+"/run?trace=1&cocheck=1", RunRequest{
			CompileRequest: CompileRequest{Source: tc.src, Collector: "basic"},
			Capacity:       intp(24),
			Policy:         "adaptive",
		})
		if status != http.StatusOK {
			t.Fatalf("flipped adaptive run: %d: %s", status, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Value != tc.want {
			t.Errorf("flipped policy changed the value: %d, want %d", rr.Value, tc.want)
		}
		if !rr.CoChecked || rr.Diverged {
			t.Errorf("flipped run cochecked=%v diverged=%v, want clean co-check", rr.CoChecked, rr.Diverged)
		}
		d := rr.Decision
		if d == nil || !d.Flipped || !strings.Contains(d.Reason, "policy.flip") {
			t.Fatalf("decision not flipped under certain fault: %+v", d)
		}
		if d.Collector != rr.Collector {
			t.Errorf("run used %q but the (flipped) decision says %q", rr.Collector, d.Collector)
		}
		if flippedDecision := d.Flipped; flippedDecision {
			flipped++
		}

		// Timeline identities survive the flip: the events the profile and
		// timeline count come from the machine that actually ran.
		status, cbody := postJSONNoFatal(ts.URL+"/compile", CompileRequest{Source: tc.src, Collector: rr.Collector})
		if status != http.StatusOK {
			t.Fatalf("compile %s: %d: %s", rr.Collector, status, cbody)
		}
		var cr CompileResponse
		if err := json.Unmarshal(cbody, &cr); err != nil {
			t.Fatal(err)
		}
		tl := rr.Trace.Timeline
		if tl == nil {
			t.Fatal("flipped traced run has no timeline")
		}
		if tl.Steps != rr.Stats.Steps {
			t.Errorf("timeline steps %d vs stats %d under flip", tl.Steps, rr.Stats.Steps)
		}
		if len(tl.Collections) != rr.Stats.Collections {
			t.Errorf("%d spans for %d collections under flip", len(tl.Collections), rr.Stats.Collections)
		}
		if got, want := tl.Allocs+tl.Copies, rr.Stats.Puts-cr.CodeBlocks; got != want {
			t.Errorf("allocs+copies = %d, puts-code = %d under flip", got, want)
		}
	}
	if flipped != len(srcs) {
		t.Errorf("%d of %d adaptive decisions flipped under a certain fault", flipped, len(srcs))
	}
	if got := s.Metrics().PolicyFlips.Load(); int(got) != flipped {
		t.Errorf("PolicyFlips metric %d, want %d", got, flipped)
	}
}
