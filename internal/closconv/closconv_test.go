package closconv

import (
	"testing"

	"psgc/internal/clos"
	"psgc/internal/cps"
	"psgc/internal/names"
	"psgc/internal/source"
	"psgc/internal/tags"
)

// pipelineRun runs source → CPS → λCLOS and checks all three agree, and
// that the λCLOS program typechecks.
func pipelineRun(t *testing.T, src string) int {
	t.Helper()
	p := source.MustParse(src)
	var ev source.Evaluator
	want, err := ev.RunInt(p)
	if err != nil {
		t.Fatalf("source eval: %v", err)
	}
	var supply names.Supply
	cp, err := cps.Convert(p, &supply)
	if err != nil {
		t.Fatalf("cps: %v", err)
	}
	lp, err := Convert(cp, &supply)
	if err != nil {
		t.Fatalf("closconv: %v", err)
	}
	if err := clos.CheckProgram(lp); err != nil {
		t.Fatalf("λCLOS does not typecheck: %v\nprogram:\n%s", err, lp)
	}
	got, _, err := clos.Run(lp, 10_000_000)
	if err != nil {
		t.Fatalf("λCLOS eval: %v", err)
	}
	if got != want {
		t.Fatalf("λCLOS result %d differs from source result %d", got, want)
	}
	return got
}

func TestPipelinePreservesSemantics(t *testing.T) {
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
		"fun apply (f : int -> int) : int = f 5\ndo apply (fn (x : int) => x * 8) + 2",
		"let p = (fn (x : int) => x + 1, fn (x : int) => x * 2) in (fst p) ((snd p) 10)",
		// Three free variables in one closure exercises the env tuple.
		"let a = 1 in let b = 2 in let c = 39 in (fn (x : int) => a + b + c + x) 0",
	}
	for _, src := range cases {
		pipelineRun(t, src)
	}
}

func TestConvertType(t *testing.T) {
	// ⟦(Int)→0⟧ = ∃tenv.(((tenv × Int)→0) × tenv)
	got := ConvertType(tags.Code{Args: []tags.Tag{tags.Int{}}})
	want := tags.Exist{Bound: "tenv", Body: tags.Prod{
		L: tags.Code{Args: []tags.Tag{tags.Prod{L: tags.Var{Name: "tenv"}, R: tags.Int{}}}},
		R: tags.Var{Name: "tenv"},
	}}
	if !tags.Equal(got, want) {
		t.Errorf("ConvertType = %s, want %s", got, want)
	}
}

func TestAllFunctionsAreClosed(t *testing.T) {
	// Every λCLOS function body must reference only its parameter, its
	// locals, and letrec names: re-checking the program (whose checker
	// types bodies closed) enforces it, but we also walk for stray vars.
	src := "let a = 1 in let b = 2 in (fn (x : int) => a + b + x) 39"
	p := source.MustParse(src)
	var supply names.Supply
	lp := MustConvert(cps.MustConvert(p, &supply), &supply)
	if err := clos.CheckProgram(lp); err != nil {
		t.Fatalf("not closed: %v", err)
	}
	if len(lp.Funs) == 0 {
		t.Fatalf("expected lifted code blocks")
	}
}
