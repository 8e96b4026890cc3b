package cps

import (
	"testing"

	"psgc/internal/names"
	"psgc/internal/source"
	"psgc/internal/tags"
)

// convertAndRun converts a source program and runs both the reference
// evaluator and the CPS machine, asserting they agree.
func convertAndRun(t *testing.T, src string) int {
	t.Helper()
	p := source.MustParse(src)
	var ev source.Evaluator
	want, err := ev.RunInt(p)
	if err != nil {
		t.Fatalf("source eval: %v", err)
	}
	cp, err := Convert(p, new(names.Supply))
	if err != nil {
		t.Fatalf("cps convert: %v", err)
	}
	got, err := Run(cp, 10_000_000)
	if err != nil {
		t.Fatalf("cps eval: %v", err)
	}
	if got != want {
		t.Fatalf("cps result %d differs from source result %d", got, want)
	}
	return got
}

func TestConvertPreservesSemantics(t *testing.T) {
	cases := []string{
		"1 + 2 * 3",
		"let x = 21 in x + x",
		"if0 0 then 1 else 2",
		"fst (1, 2) + snd (3, 4)",
		"(fn (x : int) => x * x) 6",
		"let f = fn (x : int) => x + 1 in f (f 40)",
		"let a = 100 in let add = fn (x : int) => fn (y : int) => x + y in (add a) 23",
		"fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\ndo fact 6",
		"fun even (n : int) : int = if0 n then 1 else odd (n - 1)\nfun odd (n : int) : int = if0 n then 0 else even (n - 1)\ndo even 10 + odd 10 * 100",
		"fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\ndo (twice (fn (y : int) => y + 3)) 10",
		"fun f (x : int) : int = x + 1\ndo let f = fn (x : int) => x * 10 in f 4", // shadowing
		"let p = (fn (x : int) => x + 1, fn (x : int) => x * 2) in (fst p) ((snd p) 10)",
	}
	for _, src := range cases {
		convertAndRun(t, src)
	}
}

func TestConvertType(t *testing.T) {
	// ⟦int→int⟧ = ((Int × (Int)→0))→0
	got := ConvertType(source.FnT{Dom: source.IntT{}, Cod: source.IntT{}})
	want := tags.Code{Args: []tags.Tag{tags.Prod{
		L: tags.Int{},
		R: tags.Code{Args: []tags.Tag{tags.Int{}}},
	}}}
	if !tags.Equal(got, want) {
		t.Errorf("ConvertType = %s, want %s", got, want)
	}
}

func TestConvertRejectsNonIntMain(t *testing.T) {
	p := source.MustParse("(1, 2)")
	if _, err := Convert(p, new(names.Supply)); err == nil {
		t.Errorf("Convert accepted a pair-typed main")
	}
}

func TestConvertRejectsIllTyped(t *testing.T) {
	p := source.MustParse("1 1")
	if _, err := Convert(p, new(names.Supply)); err == nil {
		t.Errorf("Convert accepted an ill-typed program")
	}
}

func TestAllCallsAreTailCalls(t *testing.T) {
	// Structural CPS invariant: App never appears under LetVal rhs etc. —
	// terms are in A-normal form with tail calls only, by construction.
	// We verify no Lam body ends without reaching App/Halt/If0 chains by
	// simply walking the structure.
	p := source.MustParse("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\ndo fact 5")
	cp := MustConvert(p, new(names.Supply))
	var checkTerm func(Term)
	var checkValue func(Value)
	checkValue = func(v Value) {
		switch v := v.(type) {
		case Pair:
			checkValue(v.L)
			checkValue(v.R)
		case Lam:
			checkTerm(v.Body)
		}
	}
	checkTerm = func(e Term) {
		switch e := e.(type) {
		case LetVal:
			checkValue(e.V)
			checkTerm(e.Body)
		case LetProj:
			checkValue(e.V)
			checkTerm(e.Body)
		case LetArith:
			checkValue(e.L)
			checkValue(e.R)
			checkTerm(e.Body)
		case If0:
			checkValue(e.V)
			checkTerm(e.Then)
			checkTerm(e.Else)
		case App:
			checkValue(e.Fn)
			checkValue(e.Arg)
		case Halt:
			checkValue(e.V)
		default:
			t.Fatalf("unexpected term %T", e)
		}
	}
	for _, f := range cp.Funs {
		checkTerm(f.Body)
	}
	checkTerm(cp.Main)
}

func TestFuel(t *testing.T) {
	p := source.MustParse("fun loop (n : int) : int = loop n\ndo loop 0")
	cp := MustConvert(p, new(names.Supply))
	if _, err := Run(cp, 1000); err != ErrFuel {
		t.Errorf("expected ErrFuel, got %v", err)
	}
}

// TestTailCallsPassTheContinuationOn pins proper tail recursion: in a
// function whose calls are all in tail position, every call passes the
// function's own continuation on and every if0 returns straight to it, so
// the converted body binds no continuation (kv) and no join point (join)
// and holds no Lam at all.
func TestTailCallsPassTheContinuationOn(t *testing.T) {
	cases := []string{
		"fun loop (n : int) : int = if0 n then 0 else let p = (n, (n, n)) in loop (n - 1)\ndo loop 100",
		"fun g (n : int) : int = n * 2\nfun f (n : int) : int = if0 n then g n else g (n - 1)\ndo f 3",
		"fun even (n : int) : int = if0 n then 1 else odd (n - 1)\nfun odd (n : int) : int = if0 n then 0 else even (n - 1)\ndo even 10",
	}
	for _, src := range cases {
		convertAndRun(t, src)
		cp := MustConvert(source.MustParse(src), new(names.Supply))
		for _, f := range cp.Funs {
			if lams := countLams(f.Body); lams != 0 {
				t.Errorf("%s: body holds %d Lam(s), want none:\n%s", f.Name, lams, f.Body)
			}
		}
	}
}

// countLams counts the Lam values anywhere in e.
func countLams(e Term) int {
	var value func(Value) int
	value = func(v Value) int {
		switch v := v.(type) {
		case Pair:
			return value(v.L) + value(v.R)
		case Lam:
			return 1 + countLams(v.Body)
		}
		return 0
	}
	switch e := e.(type) {
	case LetVal:
		return value(e.V) + countLams(e.Body)
	case LetProj:
		return value(e.V) + countLams(e.Body)
	case LetArith:
		return value(e.L) + value(e.R) + countLams(e.Body)
	case If0:
		return value(e.V) + countLams(e.Then) + countLams(e.Else)
	case App:
		return value(e.Fn) + value(e.Arg)
	case Halt:
		return value(e.V)
	}
	return 0
}
