package tags

import (
	"testing"

	"psgc/internal/kinds"
	"psgc/internal/names"
)

func tv(n string) Tag { return Var{Name: names.Name(n)} }

func TestFreeVars(t *testing.T) {
	// λt. (t × s) has free variable s only.
	tag := Lam{Param: "t", Body: Prod{L: tv("t"), R: tv("s")}}
	fv := FreeVars(tag)
	if fv.Has("t") {
		t.Errorf("bound variable t reported free")
	}
	if !fv.Has("s") {
		t.Errorf("free variable s not reported")
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	// ∃t.(t × t') where the outer use of t is free.
	tag := Prod{L: tv("t"), R: Exist{Bound: "t", Body: tv("t")}}
	fv := FreeVars(tag)
	if !fv.Has("t") {
		t.Errorf("outer t should be free")
	}
	if len(fv) != 1 {
		t.Errorf("free vars = %v, want {t}", fv)
	}
}

func TestSubstBasic(t *testing.T) {
	got := Subst(Prod{L: tv("t"), R: Int{}}, "t", Int{})
	want := Prod{L: Int{}, R: Int{}}
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
}

func TestSubstShadowed(t *testing.T) {
	// (λt.t)[Int/t] must not substitute under the binder.
	got := Subst(Lam{Param: "t", Body: tv("t")}, "t", Int{})
	if !Equal(got, Lam{Param: "t", Body: tv("t")}) {
		t.Errorf("substitution crossed a shadowing binder: %s", got)
	}
}

func TestSubstCaptureAvoiding(t *testing.T) {
	// (λs. t)[s/t] must not capture: result must be λs'. s (α-equiv).
	got := Subst(Lam{Param: "s", Body: tv("t")}, "t", tv("s"))
	want := Lam{Param: "z", Body: tv("s")}
	if !Equal(got, want) {
		t.Errorf("capture-avoidance failed: got %s", got)
	}
}

func TestAlphaEqual(t *testing.T) {
	a := Exist{Bound: "t", Body: Prod{L: tv("t"), R: Int{}}}
	b := Exist{Bound: "u", Body: Prod{L: tv("u"), R: Int{}}}
	if !Equal(a, b) {
		t.Errorf("%s and %s should be α-equal", a, b)
	}
	c := Exist{Bound: "u", Body: Prod{L: Int{}, R: tv("u")}}
	if Equal(a, c) {
		t.Errorf("%s and %s should differ", a, c)
	}
}

func TestAlphaEqualFreeVsBound(t *testing.T) {
	// λt.t vs λt.s: not equal.
	if Equal(Lam{Param: "t", Body: tv("t")}, Lam{Param: "t", Body: tv("s")}) {
		t.Errorf("bound and free bodies compared equal")
	}
	// Free variables must match by name.
	if Equal(tv("a"), tv("b")) {
		t.Errorf("distinct free variables compared equal")
	}
}

func TestNormalizeBeta(t *testing.T) {
	// (λt. t×t) Int  ⇒  Int×Int
	app := App{Fn: Lam{Param: "t", Body: Prod{L: tv("t"), R: tv("t")}}, Arg: Int{}}
	nf, err := Normalize(app)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(nf, Prod{L: Int{}, R: Int{}}) {
		t.Errorf("normal form = %s", nf)
	}
}

func TestNormalizeUnderBinder(t *testing.T) {
	// λs. (λt.t) s  ⇒  λs.s
	inner := App{Fn: Lam{Param: "t", Body: tv("t")}, Arg: tv("s")}
	nf, err := Normalize(Lam{Param: "s", Body: inner})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(nf, Lam{Param: "s", Body: tv("s")}) {
		t.Errorf("normal form = %s", nf)
	}
}

// TestNormalizeSharesNormalSubtrees pins that normalizing a tag with a
// redex in one component does not rebuild the others: the large normal
// component must come back shared, so the whole normalization allocates at
// most one node (the new Prod) beyond normalizing the redex alone.
func TestNormalizeSharesNormalSubtrees(t *testing.T) {
	var n Tag = Int{}
	for i := 0; i < 64; i++ {
		n = Prod{L: Code{Args: []Tag{n}}, R: Exist{Bound: "u", Body: Prod{L: tv("u"), R: Int{}}}}
	}
	r := App{Fn: Lam{Param: "t", Body: Prod{L: tv("t"), R: tv("t")}}, Arg: Int{}}
	var whole Tag = Prod{L: n, R: r}
	var redex Tag = r
	base := testing.AllocsPerRun(100, func() { MustNormalize(redex) })
	got := testing.AllocsPerRun(100, func() { MustNormalize(whole) })
	if got > base+1 {
		t.Fatalf("Normalize(Prod{normal, redex}) made %.0f allocs, Normalize(redex) %.0f: normal subtree rebuilt", got, base)
	}
	nf := MustNormalize(whole).(Prod)
	if !Equal(nf.L, n) || !Equal(nf.R, Prod{L: Int{}, R: Int{}}) {
		t.Fatalf("normal form %s", nf)
	}
}

func TestNormalizeDivergent(t *testing.T) {
	// ω ω where ω = λt. t t — ill-kinded, must exhaust fuel, not hang.
	omega := Lam{Param: "t", Body: App{Fn: tv("t"), Arg: tv("t")}}
	_, err := Normalize(App{Fn: omega, Arg: omega})
	if err == nil {
		t.Fatalf("expected fuel exhaustion for Ω-combinator")
	}
}

func TestEqualNF(t *testing.T) {
	a := App{Fn: Lam{Param: "t", Body: tv("t")}, Arg: Int{}}
	ok, err := EqualNF(a, Int{})
	if err != nil || !ok {
		t.Errorf("EqualNF((λt.t)Int, Int) = %v, %v", ok, err)
	}
}

func TestStepLeftmostOutermost(t *testing.T) {
	id := Lam{Param: "t", Body: tv("t")}
	// (id Int) × (id Int): first step reduces the left redex.
	tag := Prod{L: App{Fn: id, Arg: Int{}}, R: App{Fn: id, Arg: Int{}}}
	s1, ok := Step(tag)
	if !ok {
		t.Fatalf("no step found")
	}
	want := Prod{L: Int{}, R: App{Fn: id, Arg: Int{}}}
	if !Equal(s1, want) {
		t.Errorf("first step = %s, want %s", s1, want)
	}
	s2, ok := Step(s1)
	if !ok {
		t.Fatalf("no second step")
	}
	if !Equal(s2, Prod{L: Int{}, R: Int{}}) {
		t.Errorf("second step = %s", s2)
	}
	if _, ok := Step(s2); ok {
		t.Errorf("normal form still steps")
	}
}

func TestKindCheck(t *testing.T) {
	env := KindEnv{"t": kinds.Omega{}, "te": kinds.OmegaToOmega}
	cases := []struct {
		tag  Tag
		want kinds.Kind
	}{
		{Int{}, kinds.Omega{}},
		{tv("t"), kinds.Omega{}},
		{tv("te"), kinds.OmegaToOmega},
		{Prod{L: Int{}, R: tv("t")}, kinds.Omega{}},
		{Code{Args: []Tag{Int{}, tv("t")}}, kinds.Omega{}},
		{Exist{Bound: "u", Body: tv("u")}, kinds.Omega{}},
		{Lam{Param: "u", Body: Prod{L: tv("u"), R: tv("u")}}, kinds.OmegaToOmega},
		{App{Fn: tv("te"), Arg: Int{}}, kinds.Omega{}},
	}
	for _, c := range cases {
		got, err := Check(env, c.tag)
		if err != nil {
			t.Errorf("Check(%s): %v", c.tag, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Check(%s) = %s, want %s", c.tag, got, c.want)
		}
	}
}

func TestKindCheckErrors(t *testing.T) {
	env := KindEnv{"te": kinds.OmegaToOmega}
	bad := []Tag{
		tv("unbound"),
		Prod{L: tv("te"), R: Int{}},                             // Ω→Ω where Ω wanted
		App{Fn: Int{}, Arg: Int{}},                              // non-arrow head
		App{Fn: tv("te"), Arg: tv("te")},                        // argument kind mismatch
		Exist{Bound: "u", Body: Lam{Param: "v", Body: tv("v")}}, // body not Ω
	}
	for _, b := range bad {
		if _, err := Check(env, b); err == nil {
			t.Errorf("Check(%s) succeeded, want error", b)
		}
	}
}

func TestWellKinded(t *testing.T) {
	if !WellKinded(nil, Int{}) {
		t.Errorf("Int should be well-kinded")
	}
	if WellKinded(nil, tv("t")) {
		t.Errorf("unbound variable should not be well-kinded")
	}
}

func TestSize(t *testing.T) {
	tag := Prod{L: Int{}, R: Exist{Bound: "t", Body: tv("t")}}
	if got := Size(tag); got != 4 {
		t.Errorf("Size = %d, want 4", got)
	}
}
