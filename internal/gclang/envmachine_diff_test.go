package gclang_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/gen"
	"psgc/internal/source"
	"psgc/internal/workload"
)

// coStep drives both machines in lockstep, comparing the pending call,
// step count, memory counters, and emitted step event at every step, and
// the final result plus the entire memory contents at halt. StepEvents are
// fixed-size comparable structs, so the comparison is exact: both engines
// must classify every transition identically (same kind, same address,
// same word count, same step number — or no event at all). With
// closedCtrl, the env machine's control term closed over its frames
// (ClosedCtrl, the view Image and RestoreOracle are built on) must also
// print exactly as the substitution machine's term at every step.
func coStep(t *testing.T, sm *gclang.Machine, em *gclang.EnvMachine, fuel int, closedCtrl bool) {
	t.Helper()
	var sEv, eEv gclang.StepEvent
	sPrev, ePrev := sm.Event, em.Event
	sm.Event = func(ev gclang.StepEvent) {
		sEv = ev
		if sPrev != nil {
			sPrev(ev)
		}
	}
	em.Event = func(ev gclang.StepEvent) {
		eEv = ev
		if ePrev != nil {
			ePrev(ev)
		}
	}
	checkCtrl := func() {
		if !closedCtrl {
			return
		}
		if sc, ec := sm.Term.String(), em.ClosedCtrl().String(); sc != ec {
			t.Fatalf("step %d: control terms:\n  subst: %s\n  env:   %s", sm.Steps, sc, ec)
		}
	}
	checkCtrl()
	for !sm.Halted {
		if fuel <= 0 {
			t.Fatalf("out of fuel at step %d", sm.Steps)
		}
		fuel--
		sa, sok := sm.PendingCall()
		ea, eok := em.PendingCall()
		if sok != eok || sa != ea {
			t.Fatalf("step %d: PendingCall: subst %v,%v env %v,%v", sm.Steps, sa, sok, ea, eok)
		}
		sEv, eEv = gclang.StepEvent{}, gclang.StepEvent{}
		if err := sm.Step(); err != nil {
			t.Fatalf("subst step %d: %v", sm.Steps, err)
		}
		if err := em.Step(); err != nil {
			t.Fatalf("env step %d: %v", em.Steps, err)
		}
		if sm.Steps != em.Steps || sm.Halted != em.Halted {
			t.Fatalf("diverged: subst step %d halted %v, env step %d halted %v",
				sm.Steps, sm.Halted, em.Steps, em.Halted)
		}
		if sm.Mem.Stats() != em.Mem.Stats() {
			t.Fatalf("step %d: stats: subst %+v env %+v", sm.Steps, sm.Mem.Stats(), em.Mem.Stats())
		}
		if sEv != eEv {
			t.Fatalf("step %d: step event:\n  subst: %+v\n  env:   %+v", sm.Steps, sEv, eEv)
		}
		checkCtrl()
	}
	if !em.Halted {
		t.Fatal("env machine not halted when subst machine is")
	}
	if sm.Result.String() != em.Result.String() {
		t.Fatalf("results: subst %s env %s", sm.Result, em.Result)
	}
	sc, ec := sm.Mem.Cells(), em.Mem.Cells()
	if len(sc) != len(ec) {
		t.Fatalf("cell counts: subst %d env %d", len(sc), len(ec))
	}
	for i := range sc {
		if sc[i] != ec[i] {
			t.Fatalf("cell %d: addr %s vs %s", i, sc[i], ec[i])
		}
		sv, _ := sm.Mem.Get(sc[i])
		ev, _ := em.Mem.Get(ec[i])
		// Pool handles are machine-local: compare through each machine's
		// own pools.
		if ss, es := sm.Pool.Decode(sv).String(), em.Pool.Decode(ev).String(); ss != es {
			t.Fatalf("cell %s: subst %s env %s", sc[i], ss, es)
		}
	}
}

func newEnginePair(d gclang.Dialect, p gclang.Program, capacity int) (*gclang.Machine, *gclang.EnvMachine) {
	sm := gclang.NewMachine(d, p, capacity)
	sm.Mem.SetAutoGrow(true)
	em := gclang.NewEnvMachine(d, p, capacity)
	em.Mem.SetAutoGrow(true)
	return sm, em
}

// TestEnvMachineAgreesWithSubst co-steps the environment machine against
// the substitution machine over every dialect's certified collector and a
// randomized population of generated source programs, requiring identical
// traces, step counts, memory counters, results, and final heaps.
func TestEnvMachineAgreesWithSubst(t *testing.T) {
	t.Run("collectors", func(t *testing.T) {
		for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
			for _, tc := range []struct {
				shape workload.Shape
				size  int
			}{{workload.List, 24}, {workload.Tree, 4}, {workload.DAG, 4}} {
				t.Run(fmt.Sprintf("%s/%s/%d", d, tc.shape, tc.size), func(t *testing.T) {
					c, err := workload.BuildCollectOnce(d, tc.shape, tc.size)
					if err != nil {
						t.Fatal(err)
					}
					sm, em := newEnginePair(d, c.Prog, 0)
					coStep(t, sm, em, 2_000_000, true)
				})
			}
		}
	})

	t.Run("populations", func(t *testing.T) {
		collectors := []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}
		r := rand.New(rand.NewSource(11))
		want := 25
		if testing.Short() {
			want = 8
		}
		ran := 0
		for attempts := 0; ran < want && attempts < 300; attempts++ {
			p := gen.Program(r, gen.DefaultConfig)
			ev := source.Evaluator{Fuel: 2_000_000}
			if _, err := ev.RunInt(p); err != nil {
				continue
			}
			ran++
			for _, col := range collectors {
				c, err := psgc.CompileProgram(p, col)
				if err != nil {
					t.Fatalf("program %d (%s): compile: %v", ran, col, err)
				}
				sm, em := newEnginePair(col.Dialect(), c.Prog, 16)
				// Attach a GC-event recorder to each engine: the timelines
				// (collection spans, alloc/copy/forward/scan/region_free
				// events) must also be identical.
				rs, re := c.Recorder(), c.Recorder()
				rs.Attach(sm)
				re.Attach(em)
				// No per-step control-term compare here: printing both terms
				// every step would cost the population sweep 7×.
				coStep(t, sm, em, 40_000_000, false)
				tls, tle := rs.Timeline(), re.Timeline()
				if !reflect.DeepEqual(tls, tle) {
					t.Fatalf("program %d (%s): timelines diverged:\nsubst: %+v\nenv:   %+v",
						ran, col, tls, tle)
				}
			}
		}
		if ran < want {
			t.Fatalf("only %d/%d generated programs terminated", ran, want)
		}
	})
}
