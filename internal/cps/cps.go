// Package cps implements the continuation-passing-style intermediate form
// between the source language and λCLOS, together with the call-by-value
// CPS transformation (§3, citing Danvy/Filinski).
//
// After CPS conversion every function call is a tail call: source
// functions of type τ1 → τ2 become code expecting a pair of the argument
// and a return continuation, (⟦τ1⟧ × (⟦τ2⟧)→0) → 0. Types are expressed
// directly as tags (package tags), anticipating the λGC tag language.
//
// As in Danvy–Filinski, the conversion is properly tail recursive: a call
// in tail position passes the caller's continuation on rather than
// reifying a new one, and an if0 in tail position hands it to both
// branches rather than reifying a join point. A tail-recursive source
// loop therefore runs in constant live data.
package cps

import (
	"fmt"
	"strings"

	"psgc/internal/names"
	"psgc/internal/source"
	"psgc/internal/tags"
)

// Value is a CPS value. Lambdas may still be nested and open: closure
// conversion (package closconv) eliminates them.
type Value interface {
	isValue()
	String() string
}

// Var references a variable.
type Var struct {
	Name names.Name
}

// Num is an integer literal.
type Num struct {
	N int
}

// Pair is (v1, v2).
type Pair struct {
	L, R Value
}

// FunRef references a top-level function.
type FunRef struct {
	Name names.Name
}

// Lam is an anonymous (possibly open) unary code abstraction λ(x:τ).e.
type Lam struct {
	Param     names.Name
	ParamType tags.Tag
	Body      Term
}

func (Var) isValue()    {}
func (Num) isValue()    {}
func (Pair) isValue()   {}
func (FunRef) isValue() {}
func (Lam) isValue()    {}

func (v Var) String() string    { return v.Name.String() }
func (v Num) String() string    { return fmt.Sprintf("%d", v.N) }
func (v Pair) String() string   { return fmt.Sprintf("(%s, %s)", v.L, v.R) }
func (v FunRef) String() string { return "&" + v.Name.String() }
func (v Lam) String() string {
	return fmt.Sprintf("λ(%s:%s). %s", v.Param, v.ParamType, v.Body)
}

// Term is a CPS term; control never returns.
type Term interface {
	isTerm()
	String() string
}

// LetVal binds a value.
type LetVal struct {
	X    names.Name
	V    Value
	Body Term
}

// LetProj binds a pair projection (I is 1 or 2).
type LetProj struct {
	X    names.Name
	I    int
	V    Value
	Body Term
}

// LetArith binds an arithmetic result.
type LetArith struct {
	X    names.Name
	Op   source.BinOp
	L, R Value
	Body Term
}

// App is the tail call v1(v2).
type App struct {
	Fn, Arg Value
}

// If0 branches on zero.
type If0 struct {
	V          Value
	Then, Else Term
}

// Halt ends the program with an integer.
type Halt struct {
	V Value
}

func (LetVal) isTerm()   {}
func (LetProj) isTerm()  {}
func (LetArith) isTerm() {}
func (App) isTerm()      {}
func (If0) isTerm()      {}
func (Halt) isTerm()     {}

func (e LetVal) String() string {
	return fmt.Sprintf("let %s = %s in\n%s", e.X, e.V, e.Body)
}

func (e LetProj) String() string {
	return fmt.Sprintf("let %s = π%d %s in\n%s", e.X, e.I, e.V, e.Body)
}

func (e LetArith) String() string {
	return fmt.Sprintf("let %s = %s %s %s in\n%s", e.X, e.L, e.Op, e.R, e.Body)
}

func (e App) String() string  { return fmt.Sprintf("%s(%s)", e.Fn, e.Arg) }
func (e Halt) String() string { return fmt.Sprintf("halt %s", e.V) }

func (e If0) String() string {
	return fmt.Sprintf("if0 %s (%s) (%s)", e.V, e.Then, e.Else)
}

// FunDef is a top-level CPS function. The parameter is the (argument,
// continuation) pair of the source function it came from.
type FunDef struct {
	Name      names.Name
	Param     names.Name
	ParamType tags.Tag
	Body      Term
}

// Program is a CPS program.
type Program struct {
	Funs []FunDef
	Main Term
}

// String renders the program.
func (p Program) String() string {
	var b strings.Builder
	for _, f := range p.Funs {
		fmt.Fprintf(&b, "fun %s(%s : %s) =\n%s\n", f.Name, f.Param, f.ParamType, f.Body)
	}
	b.WriteString(p.Main.String())
	return b.String()
}

// ConvertType translates a source type to its CPS tag:
// ⟦int⟧ = Int, ⟦τ1×τ2⟧ = ⟦τ1⟧×⟦τ2⟧, ⟦τ1→τ2⟧ = ((⟦τ1⟧ × (⟦τ2⟧)→0))→0.
func ConvertType(t source.Type) tags.Tag {
	switch t := t.(type) {
	case source.IntT:
		return tags.Int{}
	case source.ProdT:
		return tags.Prod{L: ConvertType(t.L), R: ConvertType(t.R)}
	case source.FnT:
		arg := ConvertType(t.Dom)
		cont := tags.Code{Args: []tags.Tag{ConvertType(t.Cod)}}
		return tags.Code{Args: []tags.Tag{tags.Prod{L: arg, R: cont}}}
	default:
		panic(fmt.Sprintf("cps: unknown source type %T", t))
	}
}

// Convert CPS-converts a typechecked source program whose main expression
// has type int. Every binder it introduces, renamed source binders
// included, is drawn from s; the later passes draw from the same supply
// so that no binder they introduce can capture one introduced here.
func Convert(p source.Program, s *names.Supply) (Program, error) {
	mainTy, err := source.CheckProgram(p)
	if err != nil {
		return Program{}, err
	}
	if !source.TypeEqual(mainTy, source.IntT{}) {
		return Program{}, fmt.Errorf("cps: program result type is %s, want int", mainTy)
	}
	c := &converter{supply: s, topFuns: make(names.Set)}
	for _, f := range p.Funs {
		c.topFuns.Add(f.Name)
	}
	// Rename all local binders apart so that a local can never collide
	// with (and hence shadow) a top-level function name; after renaming,
	// any variable occurrence of a top-level name is a FunRef.
	p = c.renameProgram(p)
	top := make(source.Env, len(p.Funs))
	for _, f := range p.Funs {
		top[f.Name] = f.Type()
	}
	out := Program{}
	for _, f := range p.Funs {
		body, err := c.convertFunBody(top, f)
		if err != nil {
			return Program{}, err
		}
		out.Funs = append(out.Funs, body)
	}
	main, err := c.convert(top, p.Main, func(v Value) (Term, error) {
		return Halt{V: v}, nil
	})
	if err != nil {
		return Program{}, err
	}
	out.Main = main
	return out, nil
}

// MustConvert is Convert for programs known to be well-typed.
func MustConvert(p source.Program, s *names.Supply) Program {
	out, err := Convert(p, s)
	if err != nil {
		panic(err)
	}
	return out
}

type converter struct {
	supply  *names.Supply
	topFuns names.Set
}

// renameProgram freshens every local binder in the source program.
func (c *converter) renameProgram(p source.Program) source.Program {
	out := source.Program{Funs: make([]source.FunDef, len(p.Funs))}
	for i, f := range p.Funs {
		np := c.fresh(f.Param)
		out.Funs[i] = source.FunDef{
			Name: f.Name, Param: np, ParamType: f.ParamType, Result: f.Result,
			Body: c.renameExpr(f.Body, map[names.Name]names.Name{f.Param: np}),
		}
	}
	out.Main = c.renameExpr(p.Main, map[names.Name]names.Name{})
	return out
}

func (c *converter) renameExpr(e source.Expr, sub map[names.Name]names.Name) source.Expr {
	switch e := e.(type) {
	case source.Var:
		if n, ok := sub[e.Name]; ok {
			return source.Var{Name: n}
		}
		return e
	case source.IntLit:
		return e
	case source.Lam:
		np := c.fresh(e.Param)
		inner := extendRename(sub, e.Param, np)
		return source.Lam{Param: np, ParamType: e.ParamType, Body: c.renameExpr(e.Body, inner)}
	case source.App:
		return source.App{Fn: c.renameExpr(e.Fn, sub), Arg: c.renameExpr(e.Arg, sub)}
	case source.Pair:
		return source.Pair{L: c.renameExpr(e.L, sub), R: c.renameExpr(e.R, sub)}
	case source.Proj:
		return source.Proj{I: e.I, E: c.renameExpr(e.E, sub)}
	case source.Let:
		nx := c.fresh(e.X)
		inner := extendRename(sub, e.X, nx)
		return source.Let{X: nx, Rhs: c.renameExpr(e.Rhs, sub), Body: c.renameExpr(e.Body, inner)}
	case source.If0:
		return source.If0{Cond: c.renameExpr(e.Cond, sub), Then: c.renameExpr(e.Then, sub), Else: c.renameExpr(e.Else, sub)}
	case source.Bin:
		return source.Bin{Op: e.Op, L: c.renameExpr(e.L, sub), R: c.renameExpr(e.R, sub)}
	default:
		panic(fmt.Sprintf("cps: unknown expr %T", e))
	}
}

func extendRename(sub map[names.Name]names.Name, old, new names.Name) map[names.Name]names.Name {
	out := make(map[names.Name]names.Name, len(sub)+1)
	for k, v := range sub {
		out[k] = v
	}
	out[old] = new
	return out
}

// metaK is the compile-time continuation: it receives the value of the
// expression just converted and produces the rest of the term.
type metaK func(Value) (Term, error)

func (c *converter) fresh(base names.Name) names.Name { return c.supply.Fresh(base) }

func (c *converter) convertFunBody(top source.Env, f source.FunDef) (FunDef, error) {
	// f(x:τ1):τ2 = e  ⇒  f(p : ⟦τ1⟧ × (⟦τ2⟧)→0) =
	//   let x = π1 p in let k = π2 p in ⟦e⟧ₜ k
	p := c.fresh("p")
	k := c.fresh("k")
	env := top.Extend(f.Param, f.ParamType)
	body, err := c.convertTail(env, f.Body, Var{Name: k})
	if err != nil {
		return FunDef{}, fmt.Errorf("in function %s: %w", f.Name, err)
	}
	paramTag := tags.Prod{
		L: ConvertType(f.ParamType),
		R: tags.Code{Args: []tags.Tag{ConvertType(f.Result)}},
	}
	return FunDef{
		Name:      f.Name,
		Param:     p,
		ParamType: paramTag,
		Body: LetProj{X: f.Param, I: 1, V: Var{Name: p},
			Body: LetProj{X: k, I: 2, V: Var{Name: p}, Body: body}},
	}, nil
}

func (c *converter) convert(env source.Env, e source.Expr, k metaK) (Term, error) {
	switch e := e.(type) {
	case source.Var:
		if c.topFuns.Has(e.Name) {
			return k(FunRef{Name: e.Name})
		}
		return k(Var{Name: e.Name})
	case source.IntLit:
		return k(Num{N: e.N})
	case source.Lam:
		lam, err := c.convertLam(env, e)
		if err != nil {
			return nil, err
		}
		return k(lam)
	case source.App:
		return c.convert(env, e.Fn, func(fn Value) (Term, error) {
			return c.convert(env, e.Arg, func(arg Value) (Term, error) {
				// Reify the rest of the computation as a continuation.
				resTy, err := source.Infer(env, e)
				if err != nil {
					return nil, err
				}
				r := c.fresh("r")
				rest, err := k(Var{Name: r})
				if err != nil {
					return nil, err
				}
				cont := Lam{Param: r, ParamType: ConvertType(resTy), Body: rest}
				kv := c.fresh("kv")
				pa := c.fresh("pa")
				return LetVal{X: kv, V: cont,
					Body: LetVal{X: pa, V: Pair{L: arg, R: Var{Name: kv}},
						Body: App{Fn: fn, Arg: Var{Name: pa}}}}, nil
			})
		})
	case source.Pair:
		return c.convert(env, e.L, func(l Value) (Term, error) {
			return c.convert(env, e.R, func(r Value) (Term, error) {
				x := c.fresh("pr")
				rest, err := k(Var{Name: x})
				if err != nil {
					return nil, err
				}
				return LetVal{X: x, V: Pair{L: l, R: r}, Body: rest}, nil
			})
		})
	case source.Proj:
		return c.convert(env, e.E, func(v Value) (Term, error) {
			x := c.fresh("pj")
			rest, err := k(Var{Name: x})
			if err != nil {
				return nil, err
			}
			return LetProj{X: x, I: e.I, V: v, Body: rest}, nil
		})
	case source.Let:
		return c.convert(env, e.Rhs, func(v Value) (Term, error) {
			rhsTy, err := source.Infer(env, e.Rhs)
			if err != nil {
				return nil, err
			}
			rest, err := c.convert(env.Extend(e.X, rhsTy), e.Body, k)
			if err != nil {
				return nil, err
			}
			return LetVal{X: e.X, V: v, Body: rest}, nil
		})
	case source.If0:
		return c.convert(env, e.Cond, func(v Value) (Term, error) {
			// Reify the join point so k is not duplicated.
			resTy, err := source.Infer(env, e.Then)
			if err != nil {
				return nil, err
			}
			r := c.fresh("jr")
			rest, err := k(Var{Name: r})
			if err != nil {
				return nil, err
			}
			j := c.fresh("join")
			callJoin := func(rv Value) (Term, error) {
				return App{Fn: Var{Name: j}, Arg: rv}, nil
			}
			thn, err := c.convert(env, e.Then, callJoin)
			if err != nil {
				return nil, err
			}
			els, err := c.convert(env, e.Else, callJoin)
			if err != nil {
				return nil, err
			}
			join := Lam{Param: r, ParamType: ConvertType(resTy), Body: rest}
			return LetVal{X: j, V: join, Body: If0{V: v, Then: thn, Else: els}}, nil
		})
	case source.Bin:
		return c.convert(env, e.L, func(l Value) (Term, error) {
			return c.convert(env, e.R, func(r Value) (Term, error) {
				x := c.fresh("ar")
				rest, err := k(Var{Name: x})
				if err != nil {
					return nil, err
				}
				return LetArith{X: x, Op: e.Op, L: l, R: r, Body: rest}, nil
			})
		})
	default:
		panic(fmt.Sprintf("cps: unknown expr %T", e))
	}
}

// convertTail converts e in tail position, ⟦e⟧ₜ kv: its value goes to
// the continuation variable kv. A call passes kv on as its return
// continuation and both branches of an if0 return to kv, so neither
// allocates a continuation; every other expression is converted by
// convert and its value applied to kv.
func (c *converter) convertTail(env source.Env, e source.Expr, kv Value) (Term, error) {
	switch e := e.(type) {
	case source.App:
		return c.convert(env, e.Fn, func(fn Value) (Term, error) {
			return c.convert(env, e.Arg, func(arg Value) (Term, error) {
				pa := c.fresh("pa")
				return LetVal{X: pa, V: Pair{L: arg, R: kv},
					Body: App{Fn: fn, Arg: Var{Name: pa}}}, nil
			})
		})
	case source.Let:
		return c.convert(env, e.Rhs, func(v Value) (Term, error) {
			rhsTy, err := source.Infer(env, e.Rhs)
			if err != nil {
				return nil, err
			}
			rest, err := c.convertTail(env.Extend(e.X, rhsTy), e.Body, kv)
			if err != nil {
				return nil, err
			}
			return LetVal{X: e.X, V: v, Body: rest}, nil
		})
	case source.If0:
		return c.convert(env, e.Cond, func(v Value) (Term, error) {
			thn, err := c.convertTail(env, e.Then, kv)
			if err != nil {
				return nil, err
			}
			els, err := c.convertTail(env, e.Else, kv)
			if err != nil {
				return nil, err
			}
			return If0{V: v, Then: thn, Else: els}, nil
		})
	default:
		return c.convert(env, e, func(v Value) (Term, error) {
			return App{Fn: kv, Arg: v}, nil
		})
	}
}

func (c *converter) convertLam(env source.Env, e source.Lam) (Value, error) {
	resTy, err := source.Infer(env.Extend(e.Param, e.ParamType), e.Body)
	if err != nil {
		return Lam{}, err
	}
	p := c.fresh("p")
	k := c.fresh("k")
	body, err := c.convertTail(env.Extend(e.Param, e.ParamType), e.Body, Var{Name: k})
	if err != nil {
		return Lam{}, err
	}
	paramTag := tags.Prod{
		L: ConvertType(e.ParamType),
		R: tags.Code{Args: []tags.Tag{ConvertType(resTy)}},
	}
	return Lam{Param: p, ParamType: paramTag,
		Body: LetProj{X: e.Param, I: 1, V: Var{Name: p},
			Body: LetProj{X: k, I: 2, V: Var{Name: p}, Body: body}}}, nil
}
