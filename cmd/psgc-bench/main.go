// Command psgc-bench regenerates the per-experiment tables of DESIGN.md
// (E1–E9): the behavioural claims of "Principled Scavenging" measured on
// this reproduction. Run with no arguments for every experiment, or pass
// experiment ids (e1 … e9) to select.
//
// Additional modes:
//
//	-engine env|subst     execution engine for in-process experiments (default env)
//	-backend map|arena    memory substrate for in-process experiments (default map)
//	-snapshot-policy PATH  write a JSON snapshot of the always-on profiling
//	                      overhead on E1 and the adaptive policy measured
//	                      against every static collector on the mixed
//	                      workloads (the CI BENCH_8.json artifact) and exit
//
// The repository's performance benchmark is perfbench, not this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
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
	policySnapshot := flag.String("snapshot-policy", "", "write a JSON snapshot of profiling overhead and adaptive-vs-static policy to this path and exit")
	flag.Parse()
	var err error
	if runEngine, err = psgc.ParseEngine(*engineName); err != nil {
		log.Fatal(err)
	}
	if runBackend, err = regions.ParseBackend(*backendName); err != nil {
		log.Fatal(err)
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

// e9Progs are the Fig. 3 mutator-overhead programs.
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
