// Package gen generates random well-typed source programs for the
// empirical soundness experiments (DESIGN.md E7) and the benchmark
// workloads. Generated programs always terminate: recursion is confined
// to top-level functions that structurally decrease an integer counter.
package gen

import (
	"fmt"
	"math/rand"

	"psgc/internal/names"
	"psgc/internal/source"
)

// Config tunes the generator.
type Config struct {
	// MaxDepth bounds expression nesting.
	MaxDepth int
	// MaxFuns bounds the number of recursive top-level functions.
	MaxFuns int
	// Recursion bounds the counter each recursive function starts from.
	Recursion int
}

// DefaultConfig is a moderate workload.
var DefaultConfig = Config{MaxDepth: 5, MaxFuns: 3, Recursion: 6}

// Program generates a random well-typed source program whose main
// expression has type int. The program is guaranteed to terminate.
func Program(r *rand.Rand, cfg Config) source.Program {
	g := &generator{r: r, cfg: cfg}
	return g.program()
}

type generator struct {
	r       *rand.Rand
	cfg     Config
	supply  names.Supply
	binders int
	funs    []source.FunDef
}

// binder returns a fresh binder name. Its stem cycles through the
// compile passes' stems, so generated programs meet the passes' own
// binders on the same stems, where a capture between passes would show.
func (g *generator) binder() names.Name {
	stem := names.PassStems[g.binders%len(names.PassStems)]
	g.binders++
	return g.supply.Fresh(stem)
}

// typ generates a random type of bounded depth. Function types are kept
// shallow so applications stay plentiful but closures stay small.
func (g *generator) typ(depth int) source.Type {
	if depth <= 0 {
		return source.IntT{}
	}
	switch g.r.Intn(5) {
	case 0, 1:
		return source.IntT{}
	case 2:
		return source.ProdT{L: g.typ(depth - 1), R: g.typ(depth - 1)}
	default:
		return source.FnT{Dom: g.typ(depth - 1), Cod: g.typ(depth - 1)}
	}
}

func (g *generator) program() source.Program {
	nfuns := 1 + g.r.Intn(g.cfg.MaxFuns)
	// Pre-declare the functions so bodies can call any of them
	// (mutual recursion through the shared counter argument).
	sigs := make([]source.FunDef, nfuns)
	for i := range sigs {
		sigs[i] = source.FunDef{
			Name:      names.Name(fmt.Sprintf("f%d", i)),
			Param:     "n",
			ParamType: source.IntT{},
			Result:    g.typ(2),
		}
	}
	g.funs = sigs
	for i := range sigs {
		g.funs[i].Body = g.funBody(sigs[i])
	}
	// Main: call a function on a bounded counter and reduce the result
	// to an int.
	env := g.topEnv()
	target := sigs[g.r.Intn(len(sigs))]
	call := source.App{
		Fn:  source.Var{Name: target.Name},
		Arg: source.IntLit{N: 1 + g.r.Intn(g.cfg.Recursion)},
	}
	main := g.reduceToInt(env, call, target.Result, g.cfg.MaxDepth)
	return source.Program{Funs: g.funs, Main: main}
}

func (g *generator) topEnv() source.Env {
	env := source.Env{}
	for _, f := range g.funs {
		env[f.Name] = f.Type()
	}
	return env
}

// funBody builds if0 n then <base> else <recursive>, where recursive
// subterms may call any top-level function at n-1.
func (g *generator) funBody(f source.FunDef) source.Expr {
	env := g.topEnv().Extend(f.Param, source.IntT{})
	base := g.expr(env, f.Result, g.cfg.MaxDepth, false)
	rec := g.expr(env, f.Result, g.cfg.MaxDepth, true)
	return source.If0{Cond: source.Var{Name: f.Param}, Then: base, Else: rec}
}

// reduceToInt wraps an expression of an arbitrary type into an int-typed
// observation of it (projections for pairs, application for functions).
func (g *generator) reduceToInt(env source.Env, e source.Expr, t source.Type, depth int) source.Expr {
	switch t := t.(type) {
	case source.IntT:
		return e
	case source.ProdT:
		i := 1 + g.r.Intn(2)
		inner := t.L
		if i == 2 {
			inner = t.R
		}
		return g.reduceToInt(env, source.Proj{I: i, E: e}, inner, depth)
	case source.FnT:
		arg := g.expr(env, t.Dom, depth-1, false)
		return g.reduceToInt(env, source.App{Fn: e, Arg: arg}, t.Cod, depth)
	default:
		panic("gen: unknown type")
	}
}

// expr generates an expression of exactly the requested type. When rec is
// true, top-level calls use n-1 as the counter (we are under the non-zero
// branch of a function body); otherwise top-level calls use literal
// counters, which keeps termination trivially well-founded only if they
// never appear — so non-rec contexts never call top-level functions.
func (g *generator) expr(env source.Env, t source.Type, depth int, rec bool) source.Expr {
	if depth <= 0 {
		return g.atom(env, t, rec)
	}
	// A few generic constructions available at every type.
	switch g.r.Intn(8) {
	case 0:
		x := g.binder()
		rhsTy := g.typ(1)
		rhs := g.expr(env, rhsTy, depth-1, rec)
		body := g.expr(env.Extend(x, rhsTy), t, depth-1, rec)
		return source.Let{X: x, Rhs: rhs, Body: body}
	case 1:
		cond := g.expr(env, source.IntT{}, depth-1, rec)
		thn := g.expr(env, t, depth-1, rec)
		els := g.expr(env, t, depth-1, rec)
		return source.If0{Cond: cond, Then: thn, Else: els}
	case 2:
		// Project from a generated pair.
		other := g.typ(1)
		if g.r.Intn(2) == 0 {
			pair := g.expr(env, source.ProdT{L: t, R: other}, depth-1, rec)
			return source.Proj{I: 1, E: pair}
		}
		pair := g.expr(env, source.ProdT{L: other, R: t}, depth-1, rec)
		return source.Proj{I: 2, E: pair}
	case 3:
		// Apply a generated function.
		dom := g.typ(1)
		fn := g.expr(env, source.FnT{Dom: dom, Cod: t}, depth-1, rec)
		arg := g.expr(env, dom, depth-1, rec)
		return source.App{Fn: fn, Arg: arg}
	}
	// Type-directed constructions.
	switch t := t.(type) {
	case source.IntT:
		if rec && g.r.Intn(3) == 0 {
			// Recursive call, observed at int.
			f := g.funs[g.r.Intn(len(g.funs))]
			call := source.App{Fn: source.Var{Name: f.Name},
				Arg: source.Bin{Op: source.OpSub, L: source.Var{Name: "n"}, R: source.IntLit{N: 1}}}
			return g.reduceToInt(env, call, f.Result, depth-1)
		}
		op := []source.BinOp{source.OpAdd, source.OpSub, source.OpMul}[g.r.Intn(3)]
		return source.Bin{Op: op,
			L: g.expr(env, source.IntT{}, depth-1, rec),
			R: g.expr(env, source.IntT{}, depth-1, rec)}
	case source.ProdT:
		return source.Pair{
			L: g.expr(env, t.L, depth-1, rec),
			R: g.expr(env, t.R, depth-1, rec)}
	case source.FnT:
		x := g.binder()
		body := g.expr(env.Extend(x, t.Dom), t.Cod, depth-1, rec)
		return source.Lam{Param: x, ParamType: t.Dom, Body: body}
	default:
		panic("gen: unknown type")
	}
}

// atom generates a smallest expression of the requested type: a variable
// from the environment when one fits, otherwise a canonical literal.
func (g *generator) atom(env source.Env, t source.Type, rec bool) source.Expr {
	// Top-level function names are excluded: referencing one here would
	// let a base-case body restart the recursion with a fresh counter,
	// destroying the termination argument. Recursive calls are generated
	// only by the dedicated rec case in expr, always at counter n-1.
	topNames := names.NewSet()
	for _, f := range g.funs {
		topNames.Add(f.Name)
	}
	var candidates []names.Name
	for x, xt := range env {
		if !topNames.Has(x) && source.TypeEqual(xt, t) {
			candidates = append(candidates, x)
		}
	}
	if len(candidates) > 0 && g.r.Intn(3) != 0 {
		// Deterministic order before choosing (map iteration is random).
		best := candidates[0]
		for _, c := range candidates {
			if c < best {
				best = c
			}
		}
		return source.Var{Name: best}
	}
	switch t := t.(type) {
	case source.IntT:
		return source.IntLit{N: g.r.Intn(9)}
	case source.ProdT:
		return source.Pair{L: g.atom(env, t.L, rec), R: g.atom(env, t.R, rec)}
	case source.FnT:
		x := g.binder()
		return source.Lam{Param: x, ParamType: t.Dom, Body: g.atom(env.Extend(x, t.Dom), t.Cod, rec)}
	default:
		panic("gen: unknown type")
	}
}
