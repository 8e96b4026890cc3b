// Command psgc-bench regenerates the per-experiment tables of DESIGN.md
// (E1–E9): the behavioural claims of "Principled Scavenging" measured on
// this reproduction. Run with no arguments for every experiment, or pass
// experiment ids (e1 … e9) to select.
//
// Additional modes:
//
//	-engine env|subst     execution engine for in-process experiments (default env)
//	-backend map|arena    memory substrate for in-process experiments (default map)
//	-remote URL           drive the experiment suite (E1–E9) through a running
//	                      psgc-served instance: per-collector / per-engine
//	                      p50/p90/p99 request latencies next to the behavioural
//	                      statistics the servers report. Experiments whose
//	                      instrumentation lives inside the abstract machine
//	                      (e2, e4, e8) print their local tables with a note.
//	-gate URL             base URL of a psgc-gate fleet front. Alone it is a
//	                      remote target like -remote; combined with -remote it
//	                      adds a direct-vs-gate latency comparison plus the
//	                      gate's routing counters (retries, rebalances, peer
//	                      cache tier).
//	-snapshot-backend PATH  write a JSON snapshot comparing the map and arena
//	                      memory backends on the E1 workload — whole-run rows
//	                      with bit-for-bit counter identities, a co-check
//	                      verification, and the substrate-isolated op-trace
//	                      replay (the CI BENCH_7.json artifact) — and exit
//	-snapshot-fleet PATH  write a fleet-mode JSON snapshot (E1 latency
//	                      percentiles through -gate or -remote, plus the gate's
//	                      metrics when the target is a gate — the CI
//	                      BENCH_6.json artifact) and exit
//	-snapshot-policy PATH  write a JSON snapshot of the always-on profiling
//	                      overhead on E1 and the adaptive policy measured
//	                      against every static collector on the mixed
//	                      workloads (the CI BENCH_8.json artifact) and exit
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"psgc"
	"psgc/internal/baseline"
	"psgc/internal/gclang"
	"psgc/internal/gen"
	"psgc/internal/obs"
	"psgc/internal/policy"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/tags"
	"psgc/internal/workload"
)

var experiments = []struct {
	id   string
	name string
	run  func()
}{
	{"e1", "basic collection across capacities", e1},
	{"e2", "continuation-region bound (§6.1)", e2},
	{"e3", "sharing: basic vs forwarding (§7)", e3},
	{"e4", "forwarding space overhead (§7 fn.1)", e4},
	{"e5", "generational minor collections (§8)", e5},
	{"e6", "decidability: normalization & checking cost (§6.5.1)", e6},
	{"e7", "empirical soundness counts", e7},
	{"e8", "code size: ITA library vs monomorphization (§2.1)", e8},
	{"e9", "mutator overhead of the region discipline (Fig. 3)", e9},
}

// runEngine is the engine every in-process experiment runs on, from -engine.
var runEngine psgc.Engine

// runBackend is the memory substrate every in-process experiment runs on,
// from -backend.
var runBackend regions.Backend

func main() {
	log.SetFlags(0)
	log.SetPrefix("psgc-bench: ")
	engineName := flag.String("engine", "env", "execution engine for in-process experiments: env or subst")
	backendName := flag.String("backend", "map", "memory substrate for in-process experiments: map or arena")
	remoteURL := flag.String("remote", "", "base URL of a running psgc-served; drives the experiment suite over HTTP with latency percentiles")
	gateURL := flag.String("gate", "", "base URL of a psgc-gate fleet front; a remote target on its own, a direct-vs-gate comparison with -remote")
	flag.IntVar(&remoteRetries, "retries", 4, "retry budget per remote request on 429/503/transport errors (jittered backoff, honors Retry-After)")
	backendSnapshot := flag.String("snapshot-backend", "", "write a JSON snapshot comparing the map and arena backends on the E1 workload to this path and exit")
	fleetSnapshot := flag.String("snapshot-fleet", "", "write a fleet-mode JSON snapshot (latency percentiles through -gate or -remote) to this path and exit")
	policySnapshot := flag.String("snapshot-policy", "", "write a JSON snapshot of profiling overhead and adaptive-vs-static policy to this path and exit")
	flag.Parse()
	var err error
	if runEngine, err = psgc.ParseEngine(*engineName); err != nil {
		log.Fatal(err)
	}
	if runBackend, err = regions.ParseBackend(*backendName); err != nil {
		log.Fatal(err)
	}
	if *backendSnapshot != "" {
		if err := writeBackendSnapshot(*backendSnapshot); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *policySnapshot != "" {
		if err := writePolicySnapshot(*policySnapshot); err != nil {
			log.Fatal(err)
		}
		return
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}
	if *fleetSnapshot != "" {
		target := *gateURL
		if target == "" {
			target = *remoteURL
		}
		if target == "" {
			log.Fatal("-snapshot-fleet needs a target: pass -gate or -remote")
		}
		if err := writeFleetSnapshot(target, *gateURL, *fleetSnapshot); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *remoteURL != "" || *gateURL != "" {
		base := *remoteURL
		if base == "" {
			base = *gateURL
		}
		remoteBench(base, want)
		if *remoteURL != "" && *gateURL != "" {
			remoteVsGate(*remoteURL, *gateURL)
		}
		return
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.name)
		e.run()
		fmt.Println()
	}
}

// runDriver executes a single-collection workload driver on the selected
// engine.
func runDriver(c workload.CollectOnce, fuel int) (workload.RunStats, error) {
	if runEngine == psgc.EngineSubst {
		return c.Run(fuel)
	}
	return c.RunEnv(fuel)
}

var allocHeavy = workload.AllocHeavySrc(60)

// churnSrc is the E5 generational workload: a long-lived tower survives a
// churn loop of short-lived junk allocations.
func churnSrc(churn int) string {
	return fmt.Sprintf(`
fun tower (n : int) : int * (int * (int * int)) =
  (n, (n + 1, (n + 2, n + 3)))
fun churn (state : int * (int * (int * (int * int)))) : int =
  let n = fst state in
  let keep = snd state in
  if0 n then fst keep + fst (snd (snd keep))
  else let junk = (n, (n, n)) in churn (n - 1, keep)
do churn (%d, tower 10)
`, churn)
}

// e9Progs are the Fig. 3 mutator-overhead programs, also driven remotely.
var e9Progs = []struct {
	name string
	src  string
}{
	{"arith", "fun f (n : int) : int = if0 n then 0 else n + f (n - 1)\ndo f 40"},
	{"pairs", allocHeavy},
	{"closures", "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\ndo (twice (fn (y : int) => y + 3)) 10"},
}

// e1: the basic collector keeps an allocation-heavy program's result
// intact while collecting, across capacities.
func e1() {
	want, err := psgc.Interpret(allocHeavy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("capacity | collector    | result ok | collections | puts | reclaimed | max live")
	for _, capacity := range []int{16, 32, 64, 128} {
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
			c, err := psgc.Compile(allocHeavy, col)
			if err != nil {
				log.Fatal(err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: capacity, Engine: runEngine, Backend: runBackend})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8d | %-12s | %9v | %11d | %4d | %9d | %8d\n",
				capacity, col, res.Value == want, res.Collections,
				res.Stats.Puts, res.Stats.CellsReclaimed, res.Stats.MaxLiveCells)
		}
	}
}

// e2: the CPS'd collector's temporary continuation region stays linear in
// the to-space (§6.1 claims the bound; Fig. 12 realizes ≤ 2·copied+1).
func e2() {
	fmt.Println("heap cells | copied | peak continuations | ratio")
	for _, n := range []int{16, 64, 256, 1024, 2048} {
		c, err := workload.BuildCollectOnce(gclang.Base, workload.List, n)
		if err != nil {
			log.Fatal(err)
		}
		st, err := runDriver(c, 2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d | %6d | %18d | %.2f\n", n, st.Copied, st.MaxCont,
			float64(st.MaxCont)/float64(st.Copied))
	}
}

// e3: DAG sharing — the §7 headline table.
func e3() {
	fmt.Println("depth | nodes | basic copies | forwarding copies | go-baseline (fwd) copies")
	for depth := 2; depth <= 10; depth += 2 {
		b, err := workload.BuildCollectOnce(gclang.Base, workload.DAG, depth)
		if err != nil {
			log.Fatal(err)
		}
		bs, err := runDriver(b, 2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		f, err := workload.BuildCollectOnce(gclang.Forw, workload.DAG, depth)
		if err != nil {
			log.Fatal(err)
		}
		fs, err := runDriver(f, 2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d | %5d | %12d | %17d | %d\n",
			depth, depth+1, bs.Copied, fs.Copied, depth+1)
	}
}

// e4: space overhead of the paper's 1-bit scheme vs the Wang–Appel
// pair-per-object forwarding slot.
func e4() {
	fmt.Println("objects | 1-bit overhead (words) | paired overhead (words) | paper's saving")
	for _, n := range []int{64, 1024, 16384, 262144} {
		m := baseline.SpaceOverhead(n)
		fmt.Printf("%7d | %22d | %23d | %.0fx\n",
			m.Objects, m.TagBitsWords, m.PairedWords,
			float64(m.PairedWords)/float64(m.TagBitsWords))
	}
}

// e5: generational collection — total allocation falls as the long-lived
// fraction grows, because minor collections stop at the old generation.
func e5() {
	fmt.Println("churn | collector    | collections | total puts | reclaimed")
	for _, churn := range []int{40, 80, 160} {
		src := churnSrc(churn)
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Generational} {
			c, err := psgc.Compile(src, col)
			if err != nil {
				log.Fatal(err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: 48, Engine: runEngine, Backend: runBackend})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%5d | %-12s | %11d | %10d | %9d\n",
				churn, col, res.Collections, res.Stats.Puts, res.Stats.CellsReclaimed)
		}
	}
}

// e6: tag normalization and whole-program typechecking stay fast as terms
// grow — the operational face of decidability (Props. 6.1, 6.2).
func e6() {
	fmt.Println("tag size | normalize time")
	for _, n := range []int{64, 256, 1024, 4096} {
		tag := tags.Tag(tags.Int{})
		for i := 1; i < n; i++ {
			tag = tags.Prod{L: tags.Int{}, R: tag}
		}
		// Wrap in β-redexes to give the normalizer work.
		for i := 0; i < 8; i++ {
			tag = tags.App{Fn: tags.Lam{Param: "u", Body: tags.Var{Name: "u"}}, Arg: tag}
		}
		start := time.Now()
		if _, err := tags.Normalize(tag); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d | %s\n", n, time.Since(start))
	}
	fmt.Println("program size | compile+typecheck time")
	r := rand.New(rand.NewSource(42))
	for _, cfg := range []gen.Config{
		{MaxDepth: 3, MaxFuns: 2, Recursion: 3},
		{MaxDepth: 5, MaxFuns: 3, Recursion: 3},
		{MaxDepth: 7, MaxFuns: 4, Recursion: 3},
	} {
		p := gen.Program(r, cfg)
		start := time.Now()
		if _, err := psgc.CompileProgram(p, psgc.Basic); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d | %s\n", source.ProgramSize(p), time.Since(start))
	}
}

// e7: empirical soundness — random programs, per-step state re-checking.
func e7() {
	r := rand.New(rand.NewSource(7))
	cfg := gen.Config{MaxDepth: 4, MaxFuns: 2, Recursion: 3}
	fmt.Println("collector    | programs | states checked | violations")
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		programs, states := 0, 0
		for i := 0; programs < 4 && i < 60; i++ {
			p := gen.Program(r, cfg)
			ev := source.Evaluator{Fuel: 30_000}
			if _, err := ev.RunInt(p); err != nil {
				continue
			}
			c, err := psgc.CompileProgram(p, col)
			if err != nil {
				log.Fatal(err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: 16, CheckEveryStep: true, Fuel: 2_000_000, Backend: runBackend})
			if err != nil {
				log.Fatalf("%v: soundness violation: %v", col, err)
			}
			programs++
			states += res.Steps
		}
		fmt.Printf("%-12s | %8d | %14d | 0\n", col, programs, states)
	}
}

// e8: code size — the ITA collector is a constant-size library while
// monomorphization grows with the number of distinct types.
func e8() {
	r := rand.New(rand.NewSource(8))
	fmt.Println("program size | distinct types (≈ specialized copies) | ITA blocks")
	for _, cfg := range []gen.Config{
		{MaxDepth: 3, MaxFuns: 1, Recursion: 3},
		{MaxDepth: 4, MaxFuns: 2, Recursion: 3},
		{MaxDepth: 5, MaxFuns: 3, Recursion: 3},
		{MaxDepth: 6, MaxFuns: 4, Recursion: 3},
	} {
		p := gen.Program(r, cfg)
		c, err := psgc.CompileProgram(p, psgc.Basic)
		if err != nil {
			log.Fatal(err)
		}
		n := baseline.SpecializationCount(c.Clos)
		fmt.Printf("%12d | %38d | %d\n", source.ProgramSize(p), n, baseline.ITACollectorBlocks)
	}
}

// e9: the region discipline's mutator overhead — machine steps of the
// compiled λGC program (without any collection) versus the λCLOS
// reference machine.
func e9() {
	fmt.Println("program  | λGC steps | puts | gets")
	for _, p := range e9Progs {
		c, err := psgc.Compile(p.src, psgc.Basic)
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.Run(psgc.RunOptions{Capacity: 0, Engine: runEngine, Backend: runBackend}) // no collections
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s | %9d | %4d | %4d\n", p.name, res.Steps, res.Stats.Puts, res.Stats.Gets)
	}
}

// ---------------------------------------------------------------------------
// Remote mode and snapshot emission
// ---------------------------------------------------------------------------

// remoteRunRequest mirrors the service's RunRequest wire shape (the bench
// binary deliberately doesn't import internal/service: it exercises the
// HTTP surface a real client sees).
type remoteRunRequest struct {
	Source    string `json:"source"`
	Collector string `json:"collector"`
	Engine    string `json:"engine"`
	Backend   string `json:"backend,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Capacity  *int   `json:"capacity,omitempty"`
	CoCheck   bool   `json:"cocheck,omitempty"`
}

type remoteRunStats struct {
	Steps          int `json:"steps"`
	Collections    int `json:"collections"`
	Puts           int `json:"puts"`
	CellsReclaimed int `json:"cells_reclaimed"`
	MaxLiveCells   int `json:"max_live_cells"`
}

type remoteRunResponse struct {
	Value     int            `json:"value"`
	Engine    string         `json:"engine"`
	Backend   string         `json:"backend"`
	Cached    bool           `json:"cached"`
	RunMs     float64        `json:"run_ms"`
	CoChecked bool           `json:"cochecked"`
	Diverged  bool           `json:"diverged"`
	Stats     remoteRunStats `json:"stats"`
}

type remoteCompileRequest struct {
	Source    string `json:"source"`
	Collector string `json:"collector"`
}

type remoteCompileResponse struct {
	SourceHash string  `json:"source_hash"`
	Cached     bool    `json:"cached"`
	CodeBlocks int     `json:"code_blocks"`
	CompileMs  float64 `json:"compile_ms"`
}

// remoteRetries is the -retries budget for postWithRetry.
var remoteRetries int

// postWithRetry posts body to url, retrying transport errors and 429/503
// responses with jittered exponential backoff. A Retry-After header, when
// present and parseable, overrides the computed backoff (capped at 5s so a
// pathological server cannot stall the bench). The rng is seeded by the
// caller so retry schedules are reproducible run to run.
func postWithRetry(client *http.Client, url string, body []byte, rng *rand.Rand) (*http.Response, error) {
	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				if d := time.Duration(secs) * time.Second; d < maxBackoff {
					backoff = d
				} else {
					backoff = maxBackoff
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		default:
			return resp, nil
		}
		if attempt >= remoteRetries {
			return nil, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
		}
		// Full jitter on top of the exponential base spreads retries from
		// concurrent bench runs instead of synchronizing them.
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// percentile returns the p-th percentile (0 < p ≤ 1) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// remoteTarget wraps one HTTP surface — a psgc-served backend or a
// psgc-gate fleet front — for latency sampling. Both speak the same
// /run, /compile, and /batch protocol, so every remote experiment works
// against either.
type remoteTarget struct {
	base   string
	client *http.Client
	rng    *rand.Rand
}

func newRemoteTarget(base string) *remoteTarget {
	return &remoteTarget{
		base:   base,
		client: &http.Client{Timeout: 60 * time.Second},
		rng:    rand.New(rand.NewSource(1)),
	}
}

// runOnce posts one /run request, returning the decoded response, the
// HTTP status, and the end-to-end request latency in milliseconds
// (including any retries postWithRetry performed).
func (t *remoteTarget) runOnce(req remoteRunRequest) (remoteRunResponse, int, float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return remoteRunResponse{}, 0, 0, err
	}
	t0 := time.Now()
	resp, err := postWithRetry(t.client, t.base+"/run", body, t.rng)
	if err != nil {
		return remoteRunResponse{}, 0, 0, err
	}
	defer resp.Body.Close()
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return remoteRunResponse{}, resp.StatusCode, ms, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var rr remoteRunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return remoteRunResponse{}, resp.StatusCode, ms, err
	}
	return rr, resp.StatusCode, ms, nil
}

// compileOnce posts one /compile request.
func (t *remoteTarget) compileOnce(req remoteCompileRequest) (remoteCompileResponse, float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return remoteCompileResponse{}, 0, err
	}
	t0 := time.Now()
	resp, err := postWithRetry(t.client, t.base+"/compile", body, t.rng)
	if err != nil {
		return remoteCompileResponse{}, 0, err
	}
	defer resp.Body.Close()
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return remoteCompileResponse{}, ms, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var cr remoteCompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return remoteCompileResponse{}, ms, err
	}
	return cr, ms, nil
}

// sample measures warmup+n /run requests, passing every decoded response
// through check (when non-nil), and returns the sorted post-warmup
// latencies alongside the last response.
func (t *remoteTarget) sample(req remoteRunRequest, warmup, n int, check func(remoteRunResponse) error) ([]float64, remoteRunResponse, error) {
	lat := make([]float64, 0, n)
	var last remoteRunResponse
	for i := 0; i < warmup+n; i++ {
		rr, status, ms, err := t.runOnce(req)
		if err != nil {
			return nil, last, fmt.Errorf("request %d (status %d): %w", i, status, err)
		}
		if check != nil {
			if err := check(rr); err != nil {
				return nil, last, fmt.Errorf("request %d: %w", i, err)
			}
		}
		last = rr
		if i >= warmup {
			lat = append(lat, ms)
		}
	}
	sort.Float64s(lat)
	return lat, last, nil
}

// pcts reports the p50/p90/p99 of sorted latency samples.
func pcts(sorted []float64) (p50, p90, p99 float64) {
	return percentile(sorted, 0.50), percentile(sorted, 0.90), percentile(sorted, 0.99)
}

// remoteExperiments mirrors the experiments table over the HTTP surface.
// Experiments whose instrumentation lives inside the abstract machine
// (continuation-region peaks, forwarding-slot accounting, specialization
// counts) print their local tables behind an explanatory note instead.
var remoteExperiments = []struct {
	id   string
	name string
	run  func(*remoteTarget)
}{
	{"e1", "basic collection across capacities", remoteE1},
	{"e2", "continuation-region bound (§6.1)", remoteLocalOnly("the continuation-region peak instruments the abstract machine directly", e2)},
	{"e3", "sharing: basic vs forwarding (§7)", remoteE3},
	{"e4", "forwarding space overhead (§7 fn.1)", remoteLocalOnly("a static model, nothing to execute remotely", e4)},
	{"e5", "generational minor collections (§8)", remoteE5},
	{"e6", "decidability: compile & typecheck cost (§6.5.1)", remoteE6},
	{"e7", "empirical soundness via the oracle co-check", remoteE7},
	{"e8", "code size: ITA library vs monomorphization (§2.1)", remoteLocalOnly("specialization counting inspects compiled code in process", e8)},
	{"e9", "mutator overhead of the region discipline (Fig. 3)", remoteE9},
}

// remoteBench drives the experiment suite through a running psgc-served
// instance (or a psgc-gate front): behavioural statistics from the
// server's responses next to end-to-end latency percentiles.
func remoteBench(base string, want map[string]bool) {
	t := newRemoteTarget(base)
	fmt.Printf("remote target %s\n\n", base)
	for _, e := range remoteExperiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s (remote): %s ==\n", e.id, e.name)
		e.run(t)
		fmt.Println()
	}
}

// remoteLocalOnly wraps an in-process experiment for the remote table list.
func remoteLocalOnly(reason string, run func()) func(*remoteTarget) {
	return func(*remoteTarget) {
		fmt.Printf("(in-process only: %s; local table follows)\n", reason)
		run()
	}
}

// remoteE1: the allocation-heavy workload per collector × engine, with the
// in-process run time of the same program as a reference point.
func remoteE1(t *remoteTarget) {
	const (
		warmup   = 3
		requests = 30
		capacity = 32
	)
	want, err := psgc.Interpret(allocHeavy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d requests per row after %d warmups, capacity %d\n", requests, warmup, capacity)
	fmt.Println("collector    | engine | in-proc ms | remote p50 | p90 | p99 | ok")
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		for _, eng := range []string{"env", "subst"} {
			// In-process reference number for the same program and engine.
			c, err := psgc.Compile(allocHeavy, col)
			if err != nil {
				log.Fatal(err)
			}
			e, _ := psgc.ParseEngine(eng)
			t0 := time.Now()
			res, err := c.Run(psgc.RunOptions{Capacity: capacity, Engine: e, Backend: runBackend})
			if err != nil {
				log.Fatal(err)
			}
			inProcMs := float64(time.Since(t0)) / float64(time.Millisecond)
			ok := res.Value == want

			cp := capacity
			lat, _, err := t.sample(remoteRunRequest{
				Source: allocHeavy, Collector: col.String(), Engine: eng, Capacity: &cp,
			}, warmup, requests, func(rr remoteRunResponse) error {
				if rr.Value != want || rr.Engine != eng {
					ok = false
				}
				return nil
			})
			if err != nil {
				log.Fatalf("remote e1: %v", err)
			}
			p50, p90, p99 := pcts(lat)
			fmt.Printf("%-12s | %-6s | %10.3f | %10.3f | %7.3f | %7.3f | %v\n",
				col, eng, inProcMs, p50, p90, p99, ok)
		}
	}
}

// remoteE3: the §7 sharing claim over the wire. workload.SharedDAGSrc
// rebuilds a four-pointer fan-in to one shared tower; at a capacity where
// both collectors perform the same single collection, the basic collector
// copies the tower once per path and so allocates strictly more.
func remoteE3(t *remoteTarget) {
	const (
		warmup   = 1
		requests = 8
	)
	fmt.Println("churn | capacity | collector  | collections | puts | max live | p50 | p90 | p99 | ok")
	for _, cfg := range []struct{ churn, capacity int }{{200, 2048}, {400, 4096}} {
		src := workload.SharedDAGSrc(cfg.churn)
		want, err := psgc.Interpret(src)
		if err != nil {
			log.Fatal(err)
		}
		var puts [2]int
		for i, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding} {
			cp := cfg.capacity
			okAll := true
			lat, last, err := t.sample(remoteRunRequest{
				Source: src, Collector: col.String(), Engine: "env", Capacity: &cp,
			}, warmup, requests, func(rr remoteRunResponse) error {
				okAll = okAll && rr.Value == want
				return nil
			})
			if err != nil {
				log.Fatalf("remote e3: %v", err)
			}
			puts[i] = last.Stats.Puts
			p50, p90, p99 := pcts(lat)
			fmt.Printf("%5d | %8d | %-10s | %11d | %4d | %8d | %7.3f | %7.3f | %7.3f | %v\n",
				cfg.churn, cfg.capacity, col, last.Stats.Collections, last.Stats.Puts,
				last.Stats.MaxLiveCells, p50, p90, p99, okAll)
		}
		fmt.Printf("      -> basic allocated %d more cells than forwarding (sharing lost: the shared tower is copied once per path)\n",
			puts[0]-puts[1])
	}
}

// remoteE5: the generational workload per collector, with latency.
func remoteE5(t *remoteTarget) {
	const (
		warmup   = 1
		requests = 8
	)
	fmt.Println("churn | collector    | collections | puts | reclaimed | p50 | p90 | p99")
	for _, churn := range []int{40, 160} {
		src := churnSrc(churn)
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Generational} {
			cp := 48
			lat, last, err := t.sample(remoteRunRequest{
				Source: src, Collector: col.String(), Engine: "env", Capacity: &cp,
			}, warmup, requests, nil)
			if err != nil {
				log.Fatalf("remote e5: %v", err)
			}
			p50, p90, p99 := pcts(lat)
			fmt.Printf("%5d | %-12s | %11d | %4d | %9d | %7.3f | %7.3f | %7.3f\n",
				churn, col, last.Stats.Collections, last.Stats.Puts,
				last.Stats.CellsReclaimed, p50, p90, p99)
		}
	}
}

// remoteE6: compile-and-typecheck cost over the wire. Fresh random
// programs pay the full pipeline (the server reports its own compile
// span); repeating the last program shows the compiled-program cache.
func remoteE6(t *remoteTarget) {
	r := rand.New(rand.NewSource(42))
	fmt.Println("max depth | avg program size | fresh | cached | server compile ms p50 | p99 | cached repeat wall ms")
	for _, cfg := range []gen.Config{
		{MaxDepth: 3, MaxFuns: 2, Recursion: 3},
		{MaxDepth: 5, MaxFuns: 3, Recursion: 3},
		{MaxDepth: 7, MaxFuns: 4, Recursion: 3},
	} {
		const programs = 6
		sizes, cachedHits := 0, 0
		comp := make([]float64, 0, programs)
		var lastSrc string
		for i := 0; i < programs; i++ {
			p := gen.Program(r, cfg)
			sizes += source.ProgramSize(p)
			lastSrc = p.String()
			cr, _, err := t.compileOnce(remoteCompileRequest{Source: lastSrc, Collector: "basic"})
			if err != nil {
				log.Fatalf("remote e6: %v", err)
			}
			if cr.Cached {
				cachedHits++
				continue
			}
			comp = append(comp, cr.CompileMs)
		}
		cr, repeatMs, err := t.compileOnce(remoteCompileRequest{Source: lastSrc, Collector: "basic"})
		if err != nil {
			log.Fatalf("remote e6 repeat: %v", err)
		}
		if !cr.Cached {
			log.Fatalf("remote e6: repeated compile of an identical program was not served from cache")
		}
		sort.Float64s(comp)
		fmt.Printf("%9d | %16d | %5d | %6d | %21.3f | %8.3f | %.3f\n",
			cfg.MaxDepth, sizes/programs, len(comp), cachedHits,
			percentile(comp, 0.50), percentile(comp, 0.99), repeatMs)
	}
}

// remoteE7: empirical soundness over the wire — random programs run with
// the oracle co-check forced (?cocheck equivalent); the local reference
// evaluator's value must agree with the remote answer, and the server
// must report zero divergences between its engines.
func remoteE7(t *remoteTarget) {
	r := rand.New(rand.NewSource(7))
	cfg := gen.Config{MaxDepth: 4, MaxFuns: 2, Recursion: 3}
	programs, states, agree, cochecked, diverged := 0, 0, 0, 0, 0
	for i := 0; programs < 6 && i < 80; i++ {
		p := gen.Program(r, cfg)
		ev := source.Evaluator{Fuel: 30_000}
		want, err := ev.RunInt(p)
		if err != nil {
			continue
		}
		cp := 16
		rr, status, _, err := t.runOnce(remoteRunRequest{
			Source: p.String(), Collector: "basic", Engine: "env", Capacity: &cp, CoCheck: true,
		})
		if err != nil {
			log.Fatalf("remote e7 (status %d): %v", status, err)
		}
		programs++
		states += rr.Stats.Steps
		if rr.Value == want {
			agree++
		}
		if rr.CoChecked {
			cochecked++
		}
		if rr.Diverged {
			diverged++
		}
	}
	fmt.Printf("programs %d | machine states %d | oracle value agreements %d | cochecked %d | divergences %d\n",
		programs, states, agree, cochecked, diverged)
}

// remoteE9: the Fig. 3 mutator-overhead programs per engine, collection
// disabled (capacity 0), with steps and allocation from the server's
// statistics.
func remoteE9(t *remoteTarget) {
	const (
		warmup   = 2
		requests = 12
	)
	fmt.Println("program  | engine | λGC steps | puts | p50 | p90 | p99")
	for _, p := range e9Progs {
		for _, eng := range []string{"env", "subst"} {
			cp := 0 // disables collection, as in the local table
			lat, last, err := t.sample(remoteRunRequest{
				Source: p.src, Collector: "basic", Engine: eng, Capacity: &cp,
			}, warmup, requests, nil)
			if err != nil {
				log.Fatalf("remote e9: %v", err)
			}
			p50, p90, p99 := pcts(lat)
			fmt.Printf("%-8s | %-6s | %9d | %4d | %7.3f | %7.3f | %7.3f\n",
				p.name, eng, last.Stats.Steps, last.Stats.Puts, p50, p90, p99)
		}
	}
}

// remoteVsGate measures the E1 workload against one backend directly and
// through the gate, then prints the gate's own routing counters. The gate
// overhead column is the p50 difference: consistent-hash lookup plus one
// proxied hop.
func remoteVsGate(directURL, gateURL string) {
	const (
		warmup   = 2
		requests = 20
		capacity = 32
	)
	want, err := psgc.Interpret(allocHeavy)
	if err != nil {
		log.Fatal(err)
	}
	direct, via := newRemoteTarget(directURL), newRemoteTarget(gateURL)
	fmt.Printf("== remote vs gate: E1 workload, %d requests per row ==\n", requests)
	fmt.Printf("direct %s | gate %s\n", directURL, gateURL)
	fmt.Println("collector    | engine | direct p50 | p99 | gate p50 | p99 | gate overhead p50")
	check := func(rr remoteRunResponse) error {
		if rr.Value != want {
			return fmt.Errorf("value %d, want %d", rr.Value, want)
		}
		return nil
	}
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		for _, eng := range []string{"env", "subst"} {
			cp := capacity
			req := remoteRunRequest{Source: allocHeavy, Collector: col.String(), Engine: eng, Capacity: &cp}
			dl, _, err := direct.sample(req, warmup, requests, check)
			if err != nil {
				log.Fatalf("direct: %v", err)
			}
			gl, _, err := via.sample(req, warmup, requests, check)
			if err != nil {
				log.Fatalf("gate: %v", err)
			}
			d50, _, d99 := pcts(dl)
			g50, _, g99 := pcts(gl)
			fmt.Printf("%-12s | %-6s | %10.3f | %7.3f | %8.3f | %7.3f | %+.3f\n",
				col, eng, d50, d99, g50, g99, g50-d50)
		}
	}
	snap, err := gateMetricsJSON(gateURL)
	if err != nil {
		log.Printf("gate metrics unavailable: %v", err)
		return
	}
	var m struct {
		Retries   int64 `json:"retries"`
		Rebal     int64 `json:"ring_rebalances"`
		PeerCache struct {
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"peer_cache"`
		BackendRequests map[string]int64 `json:"backend_requests"`
	}
	if err := json.Unmarshal(snap, &m); err != nil {
		log.Printf("gate metrics: %v", err)
		return
	}
	fmt.Printf("gate counters: retries %d | ring rebalances %d | peer cache %d/%d (hit ratio %.2f)\n",
		m.Retries, m.Rebal, m.PeerCache.Hits, m.PeerCache.Hits+m.PeerCache.Misses, m.PeerCache.HitRatio)
	keys := make([]string, 0, len(m.BackendRequests))
	for k := range m.BackendRequests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  backend %s: %d requests\n", k, m.BackendRequests[k])
	}
}

// gateMetricsJSON fetches a gate's /metrics snapshot as raw JSON.
func gateMetricsJSON(gateURL string) (json.RawMessage, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(gateURL + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

// fleetRow is one collector × engine configuration of the fleet snapshot:
// end-to-end latency percentiles through the fleet front.
type fleetRow struct {
	Collector string  `json:"collector"`
	Engine    string  `json:"engine"`
	Backend   string  `json:"backend"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	ResultOK  bool    `json:"result_ok"`
}

type fleetSnapshotFile struct {
	Experiment string     `json:"experiment"`
	Target     string     `json:"target"`
	Workload   string     `json:"workload"`
	Requests   int        `json:"requests_per_row"`
	Rows       []fleetRow `json:"rows"`
	// GateMetrics embeds the gate's /metrics snapshot (routing counters,
	// peer cache tier) when the snapshot target is a psgc-gate front.
	GateMetrics json.RawMessage `json:"gate_metrics,omitempty"`
}

// writeFleetSnapshot drives the E1 workload through target (a psgc-gate
// front or a bare backend) and writes the BENCH_6.json artifact: latency
// percentiles per collector × engine, plus the gate's own counters when
// gateURL is set.
func writeFleetSnapshot(target, gateURL, path string) error {
	const (
		warmup   = 2
		requests = 20
		capacity = 32
	)
	want, err := psgc.Interpret(allocHeavy)
	if err != nil {
		return err
	}
	t := newRemoteTarget(target)
	snap := fleetSnapshotFile{
		Experiment: "e1-fleet",
		Target:     target,
		Workload:   "allocHeavy (build 60)",
		Requests:   requests,
	}
	// Rows alternate the memory backend so the fleet path exercises the
	// arena substrate end to end, not just the map default.
	fleetBackends := []string{"map", "arena"}
	row := 0
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		for _, eng := range []string{"env", "subst"} {
			cp := capacity
			be := fleetBackends[row%len(fleetBackends)]
			row++
			ok := true
			lat, _, err := t.sample(remoteRunRequest{
				Source: allocHeavy, Collector: col.String(), Engine: eng, Backend: be, Capacity: &cp,
			}, warmup, requests, func(rr remoteRunResponse) error {
				ok = ok && rr.Value == want && rr.Engine == eng && rr.Backend == be
				return nil
			})
			if err != nil {
				return fmt.Errorf("fleet snapshot %s/%s: %w", col, eng, err)
			}
			p50, p90, p99 := pcts(lat)
			snap.Rows = append(snap.Rows, fleetRow{
				Collector: col.String(), Engine: eng, Backend: be,
				P50Ms: p50, P90Ms: p90, P99Ms: p99, ResultOK: ok,
			})
		}
	}
	if gateURL != "" {
		gm, err := gateMetricsJSON(gateURL)
		if err != nil {
			return fmt.Errorf("gate metrics: %w", err)
		}
		snap.GateMetrics = gm
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	worst := 0.0
	for _, row := range snap.Rows {
		if row.P99Ms > worst {
			worst = row.P99Ms
		}
	}
	fmt.Printf("wrote %s: %d rows through %s, worst p99 %.3f ms\n", path, len(snap.Rows), target, worst)
	return nil
}

// backendRow is one E1 configuration measured on one memory backend
// (environment engine, best of three).
type backendRow struct {
	Capacity    int     `json:"capacity"`
	Collector   string  `json:"collector"`
	Backend     string  `json:"backend"`
	Value       int     `json:"value"`
	ResultOK    bool    `json:"result_ok"`
	Steps       int     `json:"steps"`
	Collections int     `json:"collections"`
	Puts        int     `json:"puts"`
	Reclaimed   int     `json:"reclaimed"`
	MaxLive     int     `json:"max_live"`
	RunMs       float64 `json:"run_ms"`
}

// replayRow is the substrate-isolated comparison for one collector: the
// E1 run's exact op sequence, recorded once, replayed on a fresh store of
// each backend. Replay time is pure store cost — no machine
// interpretation — so this is where the substrate difference shows up
// undiluted.
type replayRow struct {
	Collector  string  `json:"collector"`
	Ops        int     `json:"ops"`
	MapP50Ms   float64 `json:"map_p50_ms"`
	ArenaP50Ms float64 `json:"arena_p50_ms"`
	ArenaVsMap float64 `json:"arena_vs_map"`
}

type backendSnapshotFile struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	// IdentitiesOK reports that every whole-run row pair agrees bit for
	// bit across backends — value, steps, collections, and the full Stats
	// counters — and that every timed rep reproduced its configuration's
	// first rep.
	IdentitiesOK bool `json:"identities_ok"`
	// CoCheckOK reports that one co-checked arena run per collector
	// finished without diverging from the map-substrate oracle.
	CoCheckOK bool `json:"cocheck_ok"`
	// ArenaVsMapOpGeomean is the geometric mean over collectors of
	// map-p50 / arena-p50 on the replayed op trace. Both backends intern
	// region names to dense ids, so the two land close together and this
	// hovers near 1.
	ArenaVsMapOpGeomean float64 `json:"arena_vs_map_op_speedup_geomean"`
	// ArenaRunSpeedupGeomean is the whole-run arena/map ratio for
	// honesty's sake: store ops are a small fraction of end-to-end machine
	// time (value resolution and host allocation dominate), so this
	// hovers near 1.
	ArenaRunSpeedupGeomean float64      `json:"arena_run_speedup_geomean"`
	Rows                   []backendRow `json:"rows"`
	Replay                 []replayRow  `json:"replay"`
}

// writeBackendSnapshot runs the E1 workload on both memory backends and
// writes the BENCH_7.json artifact: whole-run rows with counter
// identities, a co-check verification of the arena, and the op-trace
// replay that measures the substrate in isolation.
func writeBackendSnapshot(path string) error {
	want, err := psgc.Interpret(allocHeavy)
	if err != nil {
		return err
	}
	snap := backendSnapshotFile{
		Experiment:   "e1-backend",
		Workload:     "allocHeavy (build 60)",
		IdentitiesOK: true,
		CoCheckOK:    true,
	}
	backends := []regions.Backend{regions.BackendMap, regions.BackendArena}

	// Whole-run rows: best-of-3 per capacity x collector x backend on the
	// env engine, asserting the counter identities along the way. Every
	// rep is checked, not just the one the row reports: each must return
	// the reference value and reproduce its configuration's first rep.
	runLogSum, runLogN := 0.0, 0
	for _, capacity := range []int{16, 32, 64, 128} {
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
			c, err := psgc.Compile(allocHeavy, col)
			if err != nil {
				return err
			}
			var pair [2]float64 // best-of-3 ms, indexed by backend
			var results [2]psgc.Result
			for _, be := range backends {
				best := math.Inf(1)
				var first psgc.Result
				resultOK := true
				for rep := 0; rep < 3; rep++ {
					t0 := time.Now()
					res, err := c.Run(psgc.RunOptions{Capacity: capacity, Backend: be})
					if err != nil {
						return err
					}
					if ms := float64(time.Since(t0)) / float64(time.Millisecond); ms < best {
						best = ms
					}
					if rep == 0 {
						first = res
					}
					resultOK = resultOK && res.Value == want
					if res != first {
						snap.IdentitiesOK = false
						fmt.Printf("IDENTITY VIOLATION between reps at capacity %d, %s, %s:\n  rep 0 %+v\n  rep %d %+v\n",
							capacity, col, be, first, rep, res)
					}
				}
				res := first
				pair[be], results[be] = best, res
				snap.Rows = append(snap.Rows, backendRow{
					Capacity: capacity, Collector: col.String(), Backend: be.String(),
					Value: res.Value, ResultOK: resultOK,
					Steps: res.Steps, Collections: res.Collections,
					Puts: res.Stats.Puts, Reclaimed: res.Stats.CellsReclaimed,
					MaxLive: res.Stats.MaxLiveCells, RunMs: best,
				})
			}
			if results[regions.BackendMap] != results[regions.BackendArena] {
				snap.IdentitiesOK = false
				fmt.Printf("IDENTITY VIOLATION at capacity %d, %s:\n  map   %+v\n  arena %+v\n",
					capacity, col, results[regions.BackendMap], results[regions.BackendArena])
			}
			if pair[regions.BackendArena] > 0 {
				runLogSum += math.Log(pair[regions.BackendMap] / pair[regions.BackendArena])
				runLogN++
			}
		}
	}
	if runLogN > 0 {
		snap.ArenaRunSpeedupGeomean = math.Exp(runLogSum / float64(runLogN))
	}

	// Substrate-isolated replay plus the co-check verification, per
	// collector: record the op trace from one arena run under the map
	// oracle, then replay the identical sequence on fresh stores.
	const replayCapacity, replayReps = 32, 25
	mapLogSum, opLogN := 0.0, 0
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		c, err := psgc.Compile(allocHeavy, col)
		if err != nil {
			return err
		}
		var tr *regions.Trace[gclang.Cell]
		diverged := false
		_, err = c.Run(psgc.RunOptions{
			Capacity:     replayCapacity,
			Backend:      regions.BackendArena,
			CoCheck:      true,
			OnDivergence: func(psgc.Divergence) { diverged = true },
			WrapStore: func(s regions.Store[gclang.Cell]) regions.Store[gclang.Cell] {
				tr = regions.NewTrace(s)
				return tr
			},
		})
		if err != nil {
			return fmt.Errorf("co-checked trace run (%s): %w", col, err)
		}
		if diverged {
			snap.CoCheckOK = false
			fmt.Printf("CO-CHECK DIVERGENCE on the arena backend (%s)\n", col)
		}
		// The machine loads its code into cd during construction, before
		// the trace wrapper attaches, so the recorded ops assume a
		// populated cd. Re-seed it (untimed) before each replay.
		cdSize := tr.Inner.Size(regions.CD)
		seedCD := func(s regions.Store[gclang.Cell]) {
			for off := 0; off < cdSize; off++ {
				if v, ok := tr.Inner.Peek(regions.Addr{Region: regions.CD, Off: off}); ok {
					s.Put(regions.CD, v)
				}
			}
		}
		oneReplay := func(be regions.Backend) (float64, error) {
			s := regions.NewStore[gclang.Cell](be, replayCapacity)
			s.SetAutoGrow(true)
			seedCD(s)
			t0 := time.Now()
			if err := regions.Replay(tr.Ops, s); err != nil {
				return 0, fmt.Errorf("replay on %s (%s): %w", be, col, err)
			}
			return float64(time.Since(t0)) / float64(time.Millisecond), nil
		}
		// The reps interleave the backends so host-GC drift over the
		// measurement window biases neither side; the first (warmup) round
		// is discarded and the p50 is taken per backend.
		times := map[regions.Backend][]float64{}
		for rep := 0; rep < replayReps+1; rep++ {
			for _, be := range backends {
				ms, err := oneReplay(be)
				if err != nil {
					return err
				}
				if rep > 0 {
					times[be] = append(times[be], ms)
				}
			}
		}
		p50 := func(be regions.Backend) float64 {
			ts := times[be]
			sort.Float64s(ts)
			return ts[len(ts)/2]
		}
		mapMs, arenaMs := p50(regions.BackendMap), p50(regions.BackendArena)
		vsMap := 0.0
		if arenaMs > 0 {
			vsMap = mapMs / arenaMs
			mapLogSum += math.Log(vsMap)
			opLogN++
		}
		snap.Replay = append(snap.Replay, replayRow{
			Collector: col.String(), Ops: len(tr.Ops),
			MapP50Ms: mapMs, ArenaP50Ms: arenaMs, ArenaVsMap: vsMap,
		})
	}
	if opLogN > 0 {
		snap.ArenaVsMapOpGeomean = math.Exp(mapLogSum / float64(opLogN))
	}

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d rows, identities %v, cocheck %v, arena op speedup vs map backend (geomean) %.2fx, whole-run %.2fx\n",
		path, len(snap.Rows), snap.IdentitiesOK, snap.CoCheckOK,
		snap.ArenaVsMapOpGeomean, snap.ArenaRunSpeedupGeomean)
	return nil
}

// policyRow is one (workload, variant) measurement for BENCH_8: the three
// static collectors plus the adaptive policy, every run carrying the
// always-on profiler the service attaches, timed over interleaved reps.
type policyRow struct {
	Workload    string  `json:"workload"`
	Variant     string  `json:"variant"` // "basic"/"forwarding"/"generational"/"adaptive"
	Collector   string  `json:"collector"`
	Capacity    int     `json:"capacity"`
	Value       int     `json:"value"`
	ResultOK    bool    `json:"result_ok"`
	Collections int     `json:"collections"`
	P50Ms       float64 `json:"p50_ms"`
	// Reason is the decision rationale, adaptive rows only.
	Reason string `json:"reason,omitempty"`
}

type policySnapshotFile struct {
	Experiment string `json:"experiment"`
	// SamplingOverheadE1 is profiled-p50 / plain-p50 for the E1 workload
	// under the basic collector: the cost of leaving the event hook and
	// profiler on for every request. CI gates this at <= 1.02.
	SamplingOverheadE1 float64 `json:"sampling_overhead_e1"`
	PlainP50Ms         float64 `json:"plain_p50_ms"`
	ProfiledP50Ms      float64 `json:"profiled_p50_ms"`
	// AdaptiveVsBestStaticGeomean is the geometric mean over workloads of
	// best-static-p50 / adaptive-p50. 1.0 means adaptive ties the best
	// static choice per workload; CI gates this at >= 0.95. The adaptive
	// rows use the decided collector AND capacity — capacity sizing is part
	// of the policy's job — while statics run at the bench capacity.
	AdaptiveVsBestStaticGeomean float64 `json:"adaptive_vs_best_static_geomean"`
	// IdentitiesOK reports that per-run profile totals agree exactly with
	// the machine counters on every profiled measurement run (steps,
	// collections, allocs+copies vs puts-code, forwards vs sets, and
	// cells freed vs reclaimed) and that every timed rep reproduced its
	// variant's first rep.
	IdentitiesOK bool `json:"identities_ok"`
	// CoCheckOK reports that one co-checked adaptive run per workload
	// finished with the oracle's value and no divergence.
	CoCheckOK bool        `json:"cocheck_ok"`
	Rows      []policyRow `json:"rows"`
}

// profiledRun times one run with a fresh profiler attached and folds the
// profile/counter identity check into the measurement.
func profiledRun(c *psgc.Compiled, opts psgc.RunOptions, identitiesOK *bool) (psgc.Result, float64, error) {
	prof := c.Profiler()
	opts.Profiler = prof
	t0 := time.Now()
	res, err := c.Run(opts)
	if err != nil {
		return res, 0, err
	}
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	rp := prof.Profile()
	codePuts := len(c.Prog.Code)
	if rp.Steps != res.Steps ||
		rp.Collections != res.Collections ||
		rp.Allocs+rp.Copies != res.Stats.Puts-codePuts ||
		rp.Forwards != res.Stats.Sets ||
		rp.CellsFreed != res.Stats.CellsReclaimed {
		*identitiesOK = false
		fmt.Printf("PROFILE IDENTITY VIOLATION: profile %+v vs stats %+v\n", rp, res.Stats)
	}
	return res, ms, nil
}

// writePolicySnapshot measures the two BENCH_8 claims in process: the
// always-on profiler is cheap enough to leave on (interleaved profiled vs
// plain E1 reps), and the adaptive policy's choice of collector and
// capacity matches or beats every static collector per workload.
func writePolicySnapshot(path string) error {
	const benchCapacity = 32
	snap := policySnapshotFile{
		Experiment:   "e10-policy",
		IdentitiesOK: true,
		CoCheckOK:    true,
	}

	// Part 1: sampling overhead on E1. Plain and profiled runs interleave
	// so host-GC drift biases neither side; first round is warmup.
	c, err := psgc.Compile(allocHeavy, psgc.Basic)
	if err != nil {
		return err
	}
	const overheadReps = 30
	var plain, profiled []float64
	for rep := 0; rep < overheadReps+1; rep++ {
		t0 := time.Now()
		if _, err := c.Run(psgc.RunOptions{Capacity: benchCapacity}); err != nil {
			return err
		}
		plainMs := float64(time.Since(t0)) / float64(time.Millisecond)
		_, profMs, err := profiledRun(c, psgc.RunOptions{Capacity: benchCapacity}, &snap.IdentitiesOK)
		if err != nil {
			return err
		}
		if rep > 0 {
			plain = append(plain, plainMs)
			profiled = append(profiled, profMs)
		}
	}
	p50 := func(ts []float64) float64 {
		sort.Float64s(ts)
		return ts[len(ts)/2]
	}
	snap.PlainP50Ms, snap.ProfiledP50Ms = p50(plain), p50(profiled)
	if snap.PlainP50Ms > 0 {
		snap.SamplingOverheadE1 = snap.ProfiledP50Ms / snap.PlainP50Ms
	}

	// Part 2: adaptive vs every static, per workload. The statics also
	// serve as the profile warm-up the decision reads, mirroring a service
	// node that has seen the program before.
	workloads := []struct {
		name string
		src  string
	}{
		{"alloc-heavy (build 60)", allocHeavy},
		{"shared-dag (churn 60)", workload.SharedDAGSrc(60)},
	}
	statics := []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}
	const policyReps = 11
	logSum, logN := 0.0, 0
	for _, wl := range workloads {
		want, err := psgc.Interpret(wl.src)
		if err != nil {
			return err
		}
		eng := policy.NewEngine(obs.NewProfileStore(4))
		compiled := map[string]*psgc.Compiled{}
		for _, col := range statics {
			cc, err := psgc.Compile(wl.src, col)
			if err != nil {
				return err
			}
			compiled[col.String()] = cc
			// Warm the profile store (untimed).
			prof := cc.Profiler()
			if _, err := cc.Run(psgc.RunOptions{Capacity: benchCapacity, Profiler: prof}); err != nil {
				return err
			}
			eng.Observe(wl.name, col.String(), prof.Profile())
		}
		d := eng.Decide(wl.name, psgc.Basic.String(), benchCapacity)
		adaptive := compiled[d.Collector]
		adaptiveOpts := psgc.RunOptions{
			Capacity: d.Capacity, Decision: &d,
		}

		// Co-check the adaptive configuration against the oracle once.
		diverged := false
		cocheckOpts := adaptiveOpts
		cocheckOpts.CoCheck = true
		cocheckOpts.OnDivergence = func(psgc.Divergence) { diverged = true }
		res, err := adaptive.Run(cocheckOpts)
		if err != nil || diverged || res.Value != want {
			snap.CoCheckOK = false
			fmt.Printf("CO-CHECK FAILURE under adaptive policy on %s: err=%v diverged=%v value=%d want=%d\n",
				wl.name, err, diverged, res.Value, want)
		}

		// Timed reps, all variants interleaved, every run profiled. Every
		// rep is checked: it must return the reference value and reproduce
		// its variant's first rep exactly.
		times := map[string][]float64{}
		values := map[string]psgc.Result{} // each variant's first rep
		resultOK := map[string]bool{}
		record := func(variant string, rep int, res psgc.Result, ms float64) {
			if rep == 0 {
				values[variant], resultOK[variant] = res, true
			} else {
				times[variant] = append(times[variant], ms)
			}
			resultOK[variant] = resultOK[variant] && res.Value == want
			if res != values[variant] {
				snap.IdentitiesOK = false
				fmt.Printf("IDENTITY VIOLATION between reps on %s, %s:\n  rep 0 %+v\n  rep %d %+v\n",
					wl.name, variant, values[variant], rep, res)
			}
		}
		for rep := 0; rep < policyReps+1; rep++ {
			for _, col := range statics {
				res, ms, err := profiledRun(compiled[col.String()], psgc.RunOptions{Capacity: benchCapacity}, &snap.IdentitiesOK)
				if err != nil {
					return err
				}
				record(col.String(), rep, res, ms)
			}
			res, ms, err := profiledRun(adaptive, adaptiveOpts, &snap.IdentitiesOK)
			if err != nil {
				return err
			}
			record("adaptive", rep, res, ms)
		}
		bestStatic := math.Inf(1)
		for _, col := range statics {
			ms := p50(times[col.String()])
			if ms < bestStatic {
				bestStatic = ms
			}
			res := values[col.String()]
			snap.Rows = append(snap.Rows, policyRow{
				Workload: wl.name, Variant: col.String(), Collector: col.String(),
				Capacity: benchCapacity, Value: res.Value, ResultOK: resultOK[col.String()],
				Collections: res.Collections, P50Ms: ms,
			})
		}
		adaptiveMs := p50(times["adaptive"])
		resA := values["adaptive"]
		snap.Rows = append(snap.Rows, policyRow{
			Workload: wl.name, Variant: "adaptive", Collector: d.Collector,
			Capacity: d.Capacity, Value: resA.Value, ResultOK: resultOK["adaptive"],
			Collections: resA.Collections, P50Ms: adaptiveMs, Reason: d.Reason,
		})
		if adaptiveMs > 0 {
			logSum += math.Log(bestStatic / adaptiveMs)
			logN++
		}
	}
	if logN > 0 {
		snap.AdaptiveVsBestStaticGeomean = math.Exp(logSum / float64(logN))
	}

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d rows, sampling overhead %.3fx, adaptive vs best static (geomean) %.3fx, identities %v, cocheck %v\n",
		path, len(snap.Rows), snap.SamplingOverheadE1, snap.AdaptiveVsBestStaticGeomean,
		snap.IdentitiesOK, snap.CoCheckOK)
	return nil
}
