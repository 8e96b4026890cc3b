package psgc

import (
	"fmt"
	"math/rand"
	"testing"

	"psgc/internal/gclang"
	"psgc/internal/gen"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/workload"
)

// runBoth executes a compiled program on both memory backends with
// otherwise identical options and asserts the observable outcomes —
// value, step count, collection count, the full Stats counters, and live
// cells — are identical. The counter identities PR 2's timeline checks
// rest on must hold bit for bit across backends.
func runBoth(t *testing.T, c *Compiled, opts RunOptions) Result {
	t.Helper()
	opts.Backend = regions.BackendMap
	mapRes, mapErr := c.Run(opts)
	opts.Backend = regions.BackendArena
	arenaRes, arenaErr := c.Run(opts)
	if (mapErr == nil) != (arenaErr == nil) {
		t.Fatalf("error divergence: map %v arena %v", mapErr, arenaErr)
	}
	if mapRes != arenaRes {
		t.Fatalf("result divergence:\n  map   %+v\n  arena %+v", mapRes, arenaRes)
	}
	return arenaRes
}

// TestBackendsAgreeOnESuiteWorkloads runs the E-suite surface workloads —
// the allocation-heavy E1 program and the sharing DAG churn — across all
// collectors on both backends, each backend twice: all four Results must
// be identical and carry the reference value. The "e1" input is E1's own
// grid (build 60 at every E1 capacity, env engine), so the counter
// identities the E1 table reports are pinned here.
func TestBackendsAgreeOnESuiteWorkloads(t *testing.T) {
	both := []Engine{EngineEnv, EngineSubst}
	e1Capacities := []int{16, 32, 64, 128}
	if testing.Short() {
		e1Capacities = []int{16, 128}
	}
	inputs := []struct {
		name       string
		src        string
		capacities []int
		engines    []Engine
	}{
		{"allocHeavy", workload.AllocHeavySrc(40), []int{32}, both},
		{"sharedDAG", workload.SharedDAGSrc(12), []int{32}, both},
		{"e1", workload.AllocHeavySrc(60), e1Capacities, []Engine{EngineEnv}},
	}
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			want, err := Interpret(in.src)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, col := range allCollectors {
				c, err := Compile(in.src, col)
				if err != nil {
					t.Fatalf("%s: compile: %v", col, err)
				}
				for _, eng := range in.engines {
					for _, capacity := range in.capacities {
						opts := RunOptions{Capacity: capacity, Engine: eng}
						res := runBoth(t, c, opts)
						if again := runBoth(t, c, opts); again != res {
							t.Fatalf("%s/%v/capacity %d: repeat run differs:\n  first  %+v\n  second %+v",
								col, eng, capacity, res, again)
						}
						if res.Value != want {
							t.Errorf("%s/%v/capacity %d: value %d, reference %d", col, eng, capacity, res.Value, want)
						}
						if res.Collections == 0 {
							t.Errorf("%s/%v/capacity %d: should force collections", col, eng, capacity)
						}
					}
				}
			}
		})
	}
}

// TestBackendsAgreeOnGenPopulations drives randomly generated well-typed
// programs through every collector on both backends.
func TestBackendsAgreeOnGenPopulations(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	want := 12
	if testing.Short() {
		want = 4
	}
	ran := 0
	for attempts := 0; ran < want && attempts < 200; attempts++ {
		p := gen.Program(r, gen.DefaultConfig)
		ev := source.Evaluator{Fuel: 2_000_000}
		ref, err := ev.RunInt(p)
		if err != nil {
			continue
		}
		ran++
		for _, col := range allCollectors {
			c, err := CompileProgram(p, col)
			if err != nil {
				t.Fatalf("population %d (%s): compile: %v", ran, col, err)
			}
			res := runBoth(t, c, RunOptions{Capacity: 16})
			if res.Value != ref {
				t.Errorf("population %d (%s): value %d, reference %d", ran, col, res.Value, ref)
			}
		}
	}
	if ran < want {
		t.Fatalf("only %d/%d generated programs terminated", ran, want)
	}
}

// TestCoCheckValidatesArena runs the arena backend under the co-checker:
// the substitution oracle stays on the map backend, so every step's
// counters and the full final heap of the arena are compared cell by cell
// against the reference substrate.
func TestCoCheckValidatesArena(t *testing.T) {
	for _, n := range coCheckBuildSizes {
		src := workload.AllocHeavySrc(n)
		for _, col := range allCollectors {
			c, err := Compile(src, col)
			if err != nil {
				t.Fatalf("%s/build %d: compile: %v", col, n, err)
			}
			res, err := c.Run(RunOptions{
				Capacity: 32,
				Backend:  regions.BackendArena,
				Engine:   EngineCoChecked,
			})
			if err != nil {
				t.Fatalf("%s/build %d: run: %v", col, n, err)
			}
			if res.Divergence != nil {
				t.Fatalf("%s/build %d: arena diverged from map oracle: %v", col, n, *res.Divergence)
			}
			plain, err := c.Run(RunOptions{Capacity: 32, Backend: regions.BackendArena})
			if err != nil {
				t.Fatalf("%s/build %d: plain run: %v", col, n, err)
			}
			if res != plain {
				t.Errorf("%s/build %d: co-checked result %+v, plain arena %+v", col, n, res, plain)
			}
		}
	}
}

// coCheckBuildSizes are the AllocHeavySrc sizes the arena co-check tests
// run: a quick one and E1's own build 60.
var coCheckBuildSizes = []int{30, 60}

// TestTracedCoCheckedRunReplays pins the traced-run contract the
// benchmark harnesses rely on: a co-checked arena run with WrapStore
// interposing regions.NewTrace stays clean and returns the plain arena
// run's Result, only the arena machine's store is wrapped (never the map
// oracle's), and the recorded op sequence replays without error on fresh
// map and arena stores — cd re-seeded first, since the machine loads its
// code before the wrapper attaches — which both end with the recorded
// store's Stats. The trace's reads are exactly the Result's Gets.
func TestTracedCoCheckedRunReplays(t *testing.T) {
	const capacity = 32
	for _, n := range coCheckBuildSizes {
		for _, col := range allCollectors {
			cfg := fmt.Sprintf("%s/build %d", col, n)
			c, err := Compile(workload.AllocHeavySrc(n), col)
			if err != nil {
				t.Fatalf("%s: compile: %v", cfg, err)
			}
			var tr *regions.Trace[gclang.Cell]
			var wrapped []regions.Backend
			res, err := c.Run(RunOptions{
				Capacity: capacity,
				Backend:  regions.BackendArena,
				Engine:   EngineCoChecked,
				WrapStore: func(s regions.Store[gclang.Cell]) regions.Store[gclang.Cell] {
					wrapped = append(wrapped, s.Backend())
					tr = regions.NewTrace(s)
					return tr
				},
			})
			if err != nil {
				t.Fatalf("%s: traced run: %v", cfg, err)
			}
			if res.Divergence != nil {
				t.Fatalf("%s: traced arena diverged from map oracle: %v", cfg, *res.Divergence)
			}
			plain, err := c.Run(RunOptions{Capacity: capacity, Backend: regions.BackendArena})
			if err != nil {
				t.Fatalf("%s: plain run: %v", cfg, err)
			}
			if res != plain {
				t.Errorf("%s: traced co-checked result %+v, plain arena %+v", cfg, res, plain)
			}
			if len(wrapped) != 1 || wrapped[0] != regions.BackendArena {
				t.Fatalf("%s: WrapStore wrapped stores on %v; want only the arena machine's", cfg, wrapped)
			}
			if len(tr.Ops) == 0 {
				t.Fatalf("%s: trace recorded no ops", cfg)
			}

			cdSize := tr.Inner.Size(regions.CD)
			var stats []regions.Stats
			for _, be := range regions.Backends() {
				s := regions.NewStore[gclang.Cell](be, capacity)
				s.SetAutoGrow(true)
				for off := 0; off < cdSize; off++ {
					if v, ok := tr.Inner.Peek(regions.Addr{Region: regions.CD, Off: off}); ok {
						s.Put(regions.CD, v)
					}
				}
				if err := regions.Replay(tr.Ops, s); err != nil {
					t.Fatalf("%s: replay on %s: %v", cfg, be, err)
				}
				stats = append(stats, s.Stats())
			}
			if stats[0] != stats[1] {
				t.Errorf("%s: replayed stats differ:\n  map   %+v\n  arena %+v", cfg, stats[0], stats[1])
			}
			if want := tr.Inner.Stats(); stats[0] != want {
				t.Errorf("%s: replayed stats %+v, recorded store %+v", cfg, stats[0], want)
			}
			// The co-checker's halt-time heap walk reads through Peek, so the
			// trace holds the mutator's and collector's reads and nothing else.
			gets := 0
			for _, op := range tr.Ops {
				if op.Kind == regions.OpGet {
					gets++
				}
			}
			if gets != res.Stats.Gets {
				t.Errorf("%s: trace recorded %d gets, result counts %d", cfg, gets, res.Stats.Gets)
			}
		}
	}
}
