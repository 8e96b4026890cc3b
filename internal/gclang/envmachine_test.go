package gclang

import (
	"strings"
	"testing"

	"psgc/internal/kinds"
	"psgc/internal/tags"
)

// compareEngines runs a program on both machines in lockstep, requiring
// identical step counts, memory counters, final results, and final memory
// contents. It returns the (shared) result value. Programs are run
// unelaborated: the machines don't need annotations outside ghost mode.
func compareEngines(t *testing.T, d Dialect, p Program, capacity, fuel int) Value {
	t.Helper()
	sm := NewMachine(d, p, capacity)
	em := NewEnvMachine(d, p, capacity)
	for !sm.Halted {
		if fuel <= 0 {
			t.Fatalf("out of fuel at step %d", sm.Steps)
		}
		fuel--
		if err := sm.Step(); err != nil {
			t.Fatalf("subst step %d: %v", sm.Steps, err)
		}
		if err := em.Step(); err != nil {
			t.Fatalf("env step %d: %v", em.Steps, err)
		}
		if sm.Steps != em.Steps || sm.Halted != em.Halted {
			t.Fatalf("machines diverged: subst step %d halted %v, env step %d halted %v",
				sm.Steps, sm.Halted, em.Steps, em.Halted)
		}
		if sm.Mem.Stats() != em.Mem.Stats() {
			t.Fatalf("step %d: stats diverged: subst %+v env %+v", sm.Steps, sm.Mem.Stats(), em.Mem.Stats())
		}
	}
	if !em.Halted {
		t.Fatalf("env machine not halted when subst machine is")
	}
	if sm.Result.String() != em.Result.String() {
		t.Fatalf("results diverged: subst %s env %s", sm.Result, em.Result)
	}
	sc, ec := sm.Mem.Cells(), em.Mem.Cells()
	if len(sc) != len(ec) {
		t.Fatalf("cell counts diverged: subst %d env %d", len(sc), len(ec))
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
	return em.Result
}

func TestEnvMachinePairAllocation(t *testing.T) {
	prog := Program{Main: LetRegionT{R: "r", Body: LetT{
		X: "p", Op: PutOp{R: RVar{Name: "r"}, V: PairV{L: Num{N: 1}, R: Num{N: 2}}},
		Body: LetT{X: "x", Op: GetOp{V: Var{Name: "p"}},
			Body: LetT{X: "a", Op: ProjOp{I: 1, V: Var{Name: "x"}},
				Body: LetT{X: "b", Op: ProjOp{I: 2, V: Var{Name: "x"}},
					Body: LetT{X: "s", Op: ArithOp{Kind: Add, L: Var{Name: "a"}, R: Var{Name: "b"}},
						Body: HaltT{V: Var{Name: "s"}}}}}}}}}
	v := compareEngines(t, Base, prog, 0, 100)
	if n, ok := v.(Num); !ok || n.N != 3 {
		t.Fatalf("result = %s, want 3", v)
	}
}

func TestEnvMachineCallClearsFrame(t *testing.T) {
	// The call must reset the environment: g's body references only its own
	// parameter, and a stale binding for "x" from main must not leak in.
	g := LamV{RParams: []nameN{"r"}, Params: []Param{{Name: "x", Ty: IntT{}}},
		Body: HaltT{V: Var{Name: "x"}}}
	prog := Program{
		Code: []NamedFun{{Name: "g", Fun: g}},
		Main: LetRegionT{R: "r", Body: LetT{X: "x", Op: ValOp{V: Num{N: 7}},
			Body: AppT{Fn: CodeAddr(0), Rs: []Region{RVar{Name: "r"}}, Args: []Value{Num{N: 42}}}}},
	}
	v := compareEngines(t, Base, prog, 0, 100)
	if n := v.(Num); n.N != 42 {
		t.Fatalf("result = %d, want 42 (stale frame leaked)", n.N)
	}
}

func TestEnvMachineShadowingRebinds(t *testing.T) {
	// Successive lets rebind the same name; each op must resolve against
	// the binding in force before its own bind takes effect.
	prog := Program{Main: LetT{X: "x", Op: ValOp{V: Num{N: 1}},
		Body: LetT{X: "x", Op: ArithOp{Kind: Add, L: Var{Name: "x"}, R: Num{N: 1}},
			Body: LetT{X: "x", Op: ArithOp{Kind: Add, L: Var{Name: "x"}, R: Var{Name: "x"}},
				Body: HaltT{V: Var{Name: "x"}}}}}}
	v := compareEngines(t, Base, prog, 0, 100)
	if n := v.(Num); n.N != 4 {
		t.Fatalf("result = %d, want 4", n.N)
	}
}

func TestEnvMachineTypecase(t *testing.T) {
	analyze := LamV{
		TParams: []TParam{{Name: "t", Kind: kinds.Omega{}}},
		RParams: []nameN{"r"},
		Params:  []Param{{Name: "x", Ty: IntT{}}},
		Body: TypecaseT{
			Tag:    tags.Var{Name: "t"},
			IntArm: HaltT{V: Num{N: 1}},
			TL:     "tl",
			LamArm: HaltT{V: Num{N: 2}},
			T1:     "t1", T2: "t2", ProdArm: HaltT{V: Num{N: 3}},
			Te: "te", ExistArm: HaltT{V: Num{N: 4}},
		},
	}
	cases := []struct {
		tag  tags.Tag
		want int
	}{
		{tags.Int{}, 1},
		{tags.Code{Args: []tags.Tag{tags.Int{}}}, 2},
		{tags.Prod{L: tags.Int{}, R: tags.Int{}}, 3},
		{tags.Exist{Bound: "u", Body: tags.Var{Name: "u"}}, 4},
	}
	for _, cse := range cases {
		prog := Program{
			Code: []NamedFun{{Name: "analyze", Fun: analyze}},
			Main: LetRegionT{R: "r", Body: AppT{Fn: CodeAddr(0), Tags: []tags.Tag{cse.tag}, Rs: []Region{RVar{Name: "r"}}, Args: []Value{Num{N: 0}}}},
		}
		v := compareEngines(t, Base, prog, 0, 100)
		if n := v.(Num); n.N != cse.want {
			t.Errorf("typecase %s = %d, want %d", cse.tag, n.N, cse.want)
		}
	}
}

func TestEnvMachinePackShadowsTagBinder(t *testing.T) {
	// Inside f, the environment binds t := Int. The packed value's Tag field
	// mentions t (resolved to Int), while its Body mentions t under the
	// pack's own binder t (shadowed — must stay a variable). After open, a
	// typecase on the opened tag observes which resolution happened.
	f := LamV{
		TParams: []TParam{{Name: "t", Kind: kinds.Omega{}}},
		RParams: []nameN{"r"},
		Params:  []Param{{Name: "x", Ty: IntT{}}},
		Body: LetT{X: "q", Op: ValOp{V: PackTag{
			Bound: "t", Kind: kinds.Omega{}, Tag: tags.Var{Name: "t"}, Val: Num{N: 5},
			Body: MT{Rs: []Region{RVar{Name: "r"}}, Tag: tags.Var{Name: "t"}},
		}},
			Body: OpenTagT{V: Var{Name: "q"}, T: "u", X: "y",
				Body: TypecaseT{
					Tag:    tags.Var{Name: "u"},
					IntArm: HaltT{V: Num{N: 1}},
					TL:     "tl", LamArm: HaltT{V: Num{N: 2}},
					T1: "t1", T2: "t2", ProdArm: HaltT{V: Num{N: 3}},
					Te: "te", ExistArm: HaltT{V: Num{N: 4}},
				}}},
	}
	prog := Program{
		Code: []NamedFun{{Name: "f", Fun: f}},
		Main: LetRegionT{R: "r", Body: AppT{Fn: CodeAddr(0), Tags: []tags.Tag{tags.Int{}},
			Rs: []Region{RVar{Name: "r"}}, Args: []Value{Num{N: 0}}}},
	}
	v := compareEngines(t, Base, prog, 0, 100)
	if n := v.(Num); n.N != 1 {
		t.Fatalf("opened tag dispatched to arm %d, want 1 (int): pack Tag field mis-resolved", n.N)
	}
}

func TestEnvMachineGenConstructs(t *testing.T) {
	body := LetT{
		X: "p", Op: PutOp{R: RVar{Name: "ry"}, V: PairV{L: Num{N: 1}, R: Num{N: 2}}},
		Body: LetT{X: "q", Op: ValOp{V: PackRegion{
			Bound: "r", Delta: []Region{RVar{Name: "ry"}, RVar{Name: "ro"}}, R: RVar{Name: "ry"},
			Val:  Var{Name: "p"},
			Body: ProdT{L: IntT{}, R: IntT{}},
		}},
			Body: OpenRegionT{V: Var{Name: "q"}, R: "r'", X: "x",
				Body: IfRegT{R1: RVar{Name: "r'"}, R2: RVar{Name: "ro"},
					Then: HaltT{V: Num{N: 1}},
					Else: HaltT{V: Num{N: 2}}}}}}
	prog := Program{Main: LetRegionT{R: "ry", Body: LetRegionT{R: "ro", Body: body}}}
	v := compareEngines(t, Gen, prog, 0, 200)
	if n := v.(Num); n.N != 2 {
		t.Fatalf("ifreg: young region compared equal to old")
	}
}

func TestEnvMachineForwConstructs(t *testing.T) {
	prog := Program{Main: LetRegionT{R: "r", Body: LetT{
		X: "p", Op: PutOp{R: RVar{Name: "r"}, V: InlV{Val: PairV{L: Num{N: 4}, R: Num{N: 5}}}},
		Body: LetT{X: "y", Op: GetOp{V: Var{Name: "p"}},
			Body: LetT{X: "s", Op: StripOp{V: Var{Name: "y"}},
				Body: LetT{X: "a", Op: ProjOp{I: 2, V: Var{Name: "s"}},
					Body: HaltT{V: Var{Name: "a"}}}}}}}}
	if v := compareEngines(t, Forw, prog, 0, 100); v.(Num).N != 5 {
		t.Errorf("strip/proj failed")
	}
}

func TestEnvMachineOnlyReclaims(t *testing.T) {
	prog := Program{Main: LetRegionT{R: "r1", Body: LetRegionT{R: "r2",
		Body: LetT{X: "p", Op: PutOp{R: RVar{Name: "r1"}, V: PairV{L: Num{N: 1}, R: Num{N: 2}}},
			Body: OnlyT{Delta: []Region{RVar{Name: "r2"}}, Body: HaltT{V: Num{N: 0}}}}}}}
	em := NewEnvMachine(Base, prog, 0)
	if _, err := em.Run(100); err != nil {
		t.Fatal(err)
	}
	if em.Mem.Stats().RegionsReclaimed != 1 || em.Mem.Stats().CellsReclaimed != 1 {
		t.Errorf("stats = %+v", em.Mem.Stats())
	}
}

func TestEnvMachinePendingCall(t *testing.T) {
	f := LamV{RParams: []nameN{"r"}, Params: []Param{{Name: "x", Ty: IntT{}}},
		Body: HaltT{V: Var{Name: "x"}}}
	// The call head is a let-bound variable, so PendingCall must look
	// through the environment.
	prog := Program{
		Code: []NamedFun{{Name: "f", Fun: f}},
		Main: LetRegionT{R: "r", Body: LetT{X: "g", Op: ValOp{V: CodeAddr(0)},
			Body: AppT{Fn: Var{Name: "g"}, Rs: []Region{RVar{Name: "r"}}, Args: []Value{Num{N: 1}}}}},
	}
	em := NewEnvMachine(Base, prog, 0)
	sm := NewMachine(Base, prog, 0)
	sawEnv, sawSubst := false, false
	for !sm.Halted {
		ea, eok := em.PendingCall()
		sa, sok := sm.PendingCall()
		if eok != sok || ea != sa {
			t.Fatalf("step %d: PendingCall disagrees: env %v,%v subst %v,%v", sm.Steps, ea, eok, sa, sok)
		}
		if eok {
			sawEnv = true
			if ea != CodeAddr(0).Addr {
				t.Fatalf("PendingCall = %v, want cd.0", ea)
			}
		}
		if sok {
			sawSubst = true
		}
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
		if err := em.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawEnv || !sawSubst {
		t.Fatalf("PendingCall never fired (env %v subst %v)", sawEnv, sawSubst)
	}
}

// TestGhostPutErrorLeavesStateConsistent is the regression test for the
// error-path bug: a ghost-mode put with a missing annotation used to apply
// the memory effect before failing, leaving the Puts counter ahead of the
// (unchanged) term and event stream.
func TestGhostPutErrorLeavesStateConsistent(t *testing.T) {
	// Built by hand, not via the checker, so the PutOp has no annotation.
	prog := Program{Main: LetRegionT{R: "r", Body: LetT{
		X: "p", Op: PutOp{R: RVar{Name: "r"}, V: Num{N: 1}},
		Body: HaltT{V: Num{N: 0}}}}}
	m := NewMachine(Base, prog, 0)
	m.Ghost = true
	var events []StepKind
	m.Event = func(ev StepEvent) { events = append(events, ev.Kind) }
	if err := m.Step(); err != nil { // let region: fine
		t.Fatal(err)
	}
	termBefore := m.Term
	stepsBefore := m.Steps
	putsBefore := m.Mem.Stats().Puts
	err := m.Step() // the unannotated put must fail...
	if err == nil || !strings.Contains(err.Error(), "annotation") {
		t.Fatalf("expected missing-annotation error, got %v", err)
	}
	// ...without any partial effect.
	if m.Mem.Stats().Puts != putsBefore {
		t.Errorf("puts = %d, want %d (effect applied on error path)", m.Mem.Stats().Puts, putsBefore)
	}
	if m.Steps != stepsBefore {
		t.Errorf("steps advanced to %d on a failed step", m.Steps)
	}
	if m.Term != termBefore {
		t.Errorf("term rewritten on a failed step")
	}
	if len(events) != 1 || events[0] != StepNewRegion {
		t.Errorf("events %v, want only the let-region step's (failed steps emit none)", events)
	}
}

func TestProgramSize(t *testing.T) {
	prog := Program{Main: LetRegionT{R: "r", Body: LetT{
		X: "p", Op: PutOp{R: RVar{Name: "r"}, V: PairV{L: Num{N: 1}, R: Num{N: 2}}},
		Body: HaltT{V: Var{Name: "p"}}}}}
	// letregion(1) + let(1) + put(1) + pair(1)+nums(2) + halt(1) + var(1) = 8
	if got := ProgramSize(prog); got != 8 {
		t.Fatalf("ProgramSize = %d, want 8", got)
	}
	withCode := Program{
		Code: []NamedFun{{Name: "f", Fun: LamV{Params: []Param{{Name: "x", Ty: IntT{}}},
			Body: HaltT{V: Var{Name: "x"}}}}},
		Main: prog.Main,
	}
	// lam(1) + param(1) + halt(1) + var(1) = 4 more
	if got := ProgramSize(withCode); got != 12 {
		t.Fatalf("ProgramSize with code = %d, want 12", got)
	}
}

func TestEnvMachineCallsPooledLiteralBlock(t *testing.T) {
	// A literal code block the program stores itself is not one of the
	// program's lowered blocks: the machine lowers it on its first call and
	// reuses that lowering when the block calls itself again.
	g := LamV{RParams: []nameN{"r"}, Params: []Param{{Name: "x", Ty: IntT{}}, {Name: "k", Ty: IntT{}}},
		Body: If0T{V: Var{Name: "x"}, Then: HaltT{V: Num{N: 9}},
			Else: LetT{X: "y", Op: ArithOp{Kind: Sub, L: Var{Name: "x"}, R: Num{N: 1}},
				Body: AppT{Fn: Var{Name: "k"}, Rs: []Region{RVar{Name: "r"}},
					Args: []Value{Var{Name: "y"}, Var{Name: "k"}}}}}}
	prog := Program{Main: LetRegionT{R: "r", Body: LetT{
		X: "f", Op: PutOp{R: CDRegion, V: g},
		Body: AppT{Fn: Var{Name: "f"}, Rs: []Region{RVar{Name: "r"}},
			Args: []Value{Num{N: 3}, Var{Name: "f"}}}}}}
	if v := compareEngines(t, Base, prog, 0, 100); v.(Num).N != 9 {
		t.Fatalf("result = %s, want 9", v)
	}
}
