package psgc

import (
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
// collectors and both engines on both backends.
func TestBackendsAgreeOnESuiteWorkloads(t *testing.T) {
	srcs := map[string]string{
		"allocHeavy": workload.AllocHeavySrc(40),
		"sharedDAG":  workload.SharedDAGSrc(12),
	}
	for name, src := range srcs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			want, err := Interpret(src)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, col := range allCollectors {
				for _, eng := range []Engine{EngineEnv, EngineSubst} {
					c, err := Compile(src, col)
					if err != nil {
						t.Fatalf("%s: compile: %v", col, err)
					}
					res := runBoth(t, c, RunOptions{Capacity: 32, Engine: eng})
					if res.Value != want {
						t.Errorf("%s/%v: value %d, reference %d", col, eng, res.Value, want)
					}
					if res.Collections == 0 {
						t.Errorf("%s/%v: capacity 32 should force collections", col, eng)
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
	for _, col := range allCollectors {
		c, err := Compile(workload.AllocHeavySrc(30), col)
		if err != nil {
			t.Fatalf("%s: compile: %v", col, err)
		}
		var div *Divergence
		res, err := c.Run(RunOptions{
			Capacity: 32,
			Backend:  regions.BackendArena,
			CoCheck:  true,
			OnDivergence: func(d Divergence) {
				if div == nil {
					div = &d
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: run: %v", col, err)
		}
		if div != nil {
			t.Fatalf("%s: arena diverged from map oracle: %v", col, *div)
		}
		plain, err := c.Run(RunOptions{Capacity: 32, Backend: regions.BackendArena})
		if err != nil {
			t.Fatalf("%s: plain run: %v", col, err)
		}
		if res != plain {
			t.Errorf("%s: co-checked result %+v, plain arena %+v", col, res, plain)
		}
	}
}

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
	for _, col := range allCollectors {
		c, err := Compile(workload.AllocHeavySrc(30), col)
		if err != nil {
			t.Fatalf("%s: compile: %v", col, err)
		}
		var tr *regions.Trace[gclang.Cell]
		var wrapped []regions.Backend
		var div *Divergence
		res, err := c.Run(RunOptions{
			Capacity: capacity,
			Backend:  regions.BackendArena,
			CoCheck:  true,
			OnDivergence: func(d Divergence) {
				if div == nil {
					div = &d
				}
			},
			WrapStore: func(s regions.Store[gclang.Cell]) regions.Store[gclang.Cell] {
				wrapped = append(wrapped, s.Backend())
				tr = regions.NewTrace(s)
				return tr
			},
		})
		if err != nil {
			t.Fatalf("%s: traced run: %v", col, err)
		}
		if div != nil {
			t.Fatalf("%s: traced arena diverged from map oracle: %v", col, *div)
		}
		plain, err := c.Run(RunOptions{Capacity: capacity, Backend: regions.BackendArena})
		if err != nil {
			t.Fatalf("%s: plain run: %v", col, err)
		}
		if res != plain {
			t.Errorf("%s: traced co-checked result %+v, plain arena %+v", col, res, plain)
		}
		if len(wrapped) != 1 || wrapped[0] != regions.BackendArena {
			t.Fatalf("%s: WrapStore wrapped stores on %v; want only the arena machine's", col, wrapped)
		}
		if len(tr.Ops) == 0 {
			t.Fatalf("%s: trace recorded no ops", col)
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
				t.Fatalf("%s: replay on %s: %v", col, be, err)
			}
			stats = append(stats, s.Stats())
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: replayed stats differ:\n  map   %+v\n  arena %+v", col, stats[0], stats[1])
		}
		if want := tr.Inner.Stats(); stats[0] != want {
			t.Errorf("%s: replayed stats %+v, recorded store %+v", col, stats[0], want)
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
			t.Errorf("%s: trace recorded %d gets, result counts %d", col, gets, res.Stats.Gets)
		}
	}
}
