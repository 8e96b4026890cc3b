// Package closconv implements typed closure conversion from the CPS form
// into λCLOS (§3, citing Minamide/Morrisett/Harper): every function value
// becomes an existential package ⟨t = τenv, (code, env) : ((t × τarg)→0 × t)⟩
// hiding its environment type, and every call opens the package and jumps
// through the code pointer. This is precisely the closure representation
// the paper's collector must be able to trace via intensional type
// analysis — the representation Wang and Appel's earlier monomorphization
// approach could not support without whole-program analysis (§2.1).
package closconv

import (
	"fmt"
	"sort"

	"psgc/internal/clos"
	"psgc/internal/cps"
	"psgc/internal/names"
	"psgc/internal/tags"
)

// envBinder is the canonical existential binder for closure environments.
const envBinder = names.Name("tenv")

// ConvertType maps a CPS type to its λCLOS closure-converted form:
// every code type (σ)→0 becomes ∃t.(((t × ⟦σ⟧)→0) × t).
func ConvertType(t tags.Tag) tags.Tag {
	switch t := t.(type) {
	case tags.Int:
		return t
	case tags.Var:
		return t
	case tags.Prod:
		return tags.Prod{L: ConvertType(t.L), R: ConvertType(t.R)}
	case tags.Code:
		if len(t.Args) != 1 {
			panic("closconv: CPS code types are unary")
		}
		arg := ConvertType(t.Args[0])
		return tags.Exist{Bound: envBinder, Body: closurePairBody(arg)}
	default:
		panic(fmt.Sprintf("closconv: unexpected CPS type %T", t))
	}
}

// closurePairBody is ((tenv × arg)→0 × tenv), the body under the
// existential binder.
func closurePairBody(arg tags.Tag) tags.Tag {
	tv := tags.Var{Name: envBinder}
	return tags.Prod{
		L: tags.Code{Args: []tags.Tag{tags.Prod{L: tv, R: arg}}},
		R: tv,
	}
}

// Convert closure-converts a CPS program into λCLOS, drawing fresh binders
// from s: pass the supply cps.Convert drew from.
func Convert(p cps.Program, s *names.Supply) (clos.Program, error) {
	c := &converter{
		supply:        s,
		funParamTypes: map[names.Name]tags.Tag{},
	}
	for _, f := range p.Funs {
		c.funParamTypes[f.Name] = f.ParamType
	}
	// Top-level functions adopt the uniform closure calling convention:
	// f(q : int × ⟦σ⟧) = let x = π2 q in body. Their closures use the
	// trivial environment 0 : int.
	for _, f := range p.Funs {
		q := c.supply.Fresh("q")
		env := map[names.Name]tags.Tag{f.Param: f.ParamType}
		body, err := c.term(env, f.Body)
		if err != nil {
			return clos.Program{}, fmt.Errorf("closconv: in %s: %w", f.Name, err)
		}
		c.out = append(c.out, clos.FunDef{
			Name:      f.Name,
			Param:     q,
			ParamType: tags.Prod{L: tags.Int{}, R: ConvertType(f.ParamType)},
			Body:      clos.LetProj{X: f.Param, I: 2, V: clos.Var{Name: q}, Body: body},
		})
	}
	main, err := c.term(map[names.Name]tags.Tag{}, p.Main)
	if err != nil {
		return clos.Program{}, fmt.Errorf("closconv: in main: %w", err)
	}
	return clos.Program{Funs: c.out, Main: main}, nil
}

// MustConvert is Convert for programs known to be well-formed.
func MustConvert(p cps.Program, s *names.Supply) clos.Program {
	out, err := Convert(p, s)
	if err != nil {
		panic(err)
	}
	return out
}

type converter struct {
	supply        *names.Supply
	funParamTypes map[names.Name]tags.Tag
	out           []clos.FunDef
}

// value converts a CPS value, returning the λCLOS value and the value's
// CPS type (pre-conversion).
func (c *converter) value(env map[names.Name]tags.Tag, v cps.Value) (clos.Value, tags.Tag, error) {
	switch v := v.(type) {
	case cps.Num:
		return clos.Num{N: v.N}, tags.Int{}, nil
	case cps.Var:
		t, ok := env[v.Name]
		if !ok {
			return nil, nil, fmt.Errorf("unbound variable %s", v.Name)
		}
		return clos.Var{Name: v.Name}, t, nil
	case cps.Pair:
		l, lt, err := c.value(env, v.L)
		if err != nil {
			return nil, nil, err
		}
		r, rt, err := c.value(env, v.R)
		if err != nil {
			return nil, nil, err
		}
		return clos.PairV{L: l, R: r}, tags.Prod{L: lt, R: rt}, nil
	case cps.FunRef:
		pt, ok := c.funParamTypes[v.Name]
		if !ok {
			return nil, nil, fmt.Errorf("unknown function %s", v.Name)
		}
		arg := ConvertType(pt)
		pk := clos.Pack{
			Bound:   envBinder,
			Witness: tags.Int{},
			Val:     clos.PairV{L: clos.FunV{Name: v.Name}, R: clos.Num{N: 0}},
			Body:    closurePairBody(arg),
		}
		return pk, tags.Code{Args: []tags.Tag{pt}}, nil
	case cps.Lam:
		return c.lambda(env, v)
	default:
		panic(fmt.Sprintf("closconv: unknown value %T", v))
	}
}

// lambda lifts an anonymous CPS abstraction to a fresh top-level code
// block and returns its closure package.
func (c *converter) lambda(env map[names.Name]tags.Tag, v cps.Lam) (clos.Value, tags.Tag, error) {
	fv := freeVars(v)
	// Deterministic environment layout: sorted free-variable names.
	var fvNames []names.Name
	for n := range fv {
		if _, bound := env[n]; !bound {
			return nil, nil, fmt.Errorf("free variable %s of λ not in scope", n)
		}
		fvNames = append(fvNames, n)
	}
	sort.Slice(fvNames, func(i, j int) bool { return fvNames[i] < fvNames[j] })

	// Environment tuple: 0 cells → 0:int; 1 → the value; n → right-nested
	// pairs.
	var envVal clos.Value
	var envTy tags.Tag // already closure-converted
	switch len(fvNames) {
	case 0:
		envVal, envTy = clos.Num{N: 0}, tags.Int{}
	case 1:
		envVal = clos.Var{Name: fvNames[0]}
		envTy = ConvertType(env[fvNames[0]])
	default:
		last := len(fvNames) - 1
		envVal = clos.Var{Name: fvNames[last]}
		envTy = ConvertType(env[fvNames[last]])
		for i := last - 1; i >= 0; i-- {
			envVal = clos.PairV{L: clos.Var{Name: fvNames[i]}, R: envVal}
			envTy = tags.Prod{L: ConvertType(env[fvNames[i]]), R: envTy}
		}
	}

	// Code block: code(q : envTy × ⟦param⟧) = unpack env; bind param; body.
	q := c.supply.Fresh("q")
	envv := c.supply.Fresh("env")
	innerEnv := map[names.Name]tags.Tag{v.Param: v.ParamType}
	for _, n := range fvNames {
		innerEnv[n] = env[n]
	}
	body, err := c.term(innerEnv, v.Body)
	if err != nil {
		return nil, nil, err
	}
	// Unpack the right-nested environment tuple into its variables.
	switch len(fvNames) {
	case 0:
		// nothing to bind
	case 1:
		body = clos.LetVal{X: fvNames[0], V: clos.Var{Name: envv}, Body: body}
	default:
		type binding struct {
			x    names.Name
			i    int
			from names.Name
		}
		var bs []binding
		cursor := envv
		for i := 0; i < len(fvNames)-1; i++ {
			bs = append(bs, binding{fvNames[i], 1, cursor})
			if i == len(fvNames)-2 {
				bs = append(bs, binding{fvNames[i+1], 2, cursor})
			} else {
				rest := c.supply.Fresh("rest")
				bs = append(bs, binding{rest, 2, cursor})
				cursor = rest
			}
		}
		for j := len(bs) - 1; j >= 0; j-- {
			body = clos.LetProj{X: bs[j].x, I: bs[j].i, V: clos.Var{Name: bs[j].from}, Body: body}
		}
	}
	name := c.supply.Fresh("clo")
	c.out = append(c.out, clos.FunDef{
		Name:      name,
		Param:     q,
		ParamType: tags.Prod{L: envTy, R: ConvertType(v.ParamType)},
		Body: clos.LetProj{X: envv, I: 1, V: clos.Var{Name: q},
			Body: clos.LetProj{X: v.Param, I: 2, V: clos.Var{Name: q}, Body: body}},
	})

	arg := ConvertType(v.ParamType)
	pk := clos.Pack{
		Bound:   envBinder,
		Witness: envTy,
		Val:     clos.PairV{L: clos.FunV{Name: name}, R: envVal},
		Body:    closurePairBody(arg),
	}
	return pk, tags.Code{Args: []tags.Tag{v.ParamType}}, nil
}

// term converts a CPS term.
func (c *converter) term(env map[names.Name]tags.Tag, e cps.Term) (clos.Term, error) {
	switch e := e.(type) {
	case cps.LetVal:
		v, t, err := c.value(env, e.V)
		if err != nil {
			return nil, err
		}
		body, err := c.term(extend(env, e.X, t), e.Body)
		if err != nil {
			return nil, err
		}
		return clos.LetVal{X: e.X, V: v, Body: body}, nil
	case cps.LetProj:
		v, t, err := c.value(env, e.V)
		if err != nil {
			return nil, err
		}
		p, ok := t.(tags.Prod)
		if !ok {
			return nil, fmt.Errorf("projection from non-pair type %s", t)
		}
		picked := p.L
		if e.I == 2 {
			picked = p.R
		}
		body, err := c.term(extend(env, e.X, picked), e.Body)
		if err != nil {
			return nil, err
		}
		return clos.LetProj{X: e.X, I: e.I, V: v, Body: body}, nil
	case cps.LetArith:
		l, _, err := c.value(env, e.L)
		if err != nil {
			return nil, err
		}
		r, _, err := c.value(env, e.R)
		if err != nil {
			return nil, err
		}
		body, err := c.term(extend(env, e.X, tags.Int{}), e.Body)
		if err != nil {
			return nil, err
		}
		return clos.LetArith{X: e.X, Op: e.Op, L: l, R: r, Body: body}, nil
	case cps.If0:
		v, _, err := c.value(env, e.V)
		if err != nil {
			return nil, err
		}
		thn, err := c.term(env, e.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.term(env, e.Else)
		if err != nil {
			return nil, err
		}
		return clos.If0{V: v, Then: thn, Else: els}, nil
	case cps.Halt:
		v, _, err := c.value(env, e.V)
		if err != nil {
			return nil, err
		}
		return clos.Halt{V: v}, nil
	case cps.App:
		fn, _, err := c.value(env, e.Fn)
		if err != nil {
			return nil, err
		}
		arg, _, err := c.value(env, e.Arg)
		if err != nil {
			return nil, err
		}
		// open fn as ⟨t, w⟩ in let cptr = π1 w in let cenv = π2 w in
		// let pa = (cenv, arg) in cptr(pa)
		tvar := c.supply.Fresh("t")
		w := c.supply.Fresh("w")
		cptr := c.supply.Fresh("cptr")
		cenv := c.supply.Fresh("cenv")
		pa := c.supply.Fresh("pa")
		return clos.Open{V: fn, T: tvar, X: w,
			Body: clos.LetProj{X: cptr, I: 1, V: clos.Var{Name: w},
				Body: clos.LetProj{X: cenv, I: 2, V: clos.Var{Name: w},
					Body: clos.LetVal{X: pa, V: clos.PairV{L: clos.Var{Name: cenv}, R: arg},
						Body: clos.App{Fn: clos.Var{Name: cptr}, Arg: clos.Var{Name: pa}}}}}}, nil
	default:
		panic(fmt.Sprintf("closconv: unknown term %T", e))
	}
}

func extend(env map[names.Name]tags.Tag, x names.Name, t tags.Tag) map[names.Name]tags.Tag {
	out := make(map[names.Name]tags.Tag, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	out[x] = t
	return out
}

// freeVars computes the free term variables of a CPS value (FunRefs are
// not variables).
func freeVars(v cps.Value) names.Set {
	out := make(names.Set)
	valueFree(v, make(names.Set), out)
	return out
}

func valueFree(v cps.Value, bound, out names.Set) {
	switch v := v.(type) {
	case cps.Num, cps.FunRef:
	case cps.Var:
		if !bound.Has(v.Name) {
			out.Add(v.Name)
		}
	case cps.Pair:
		valueFree(v.L, bound, out)
		valueFree(v.R, bound, out)
	case cps.Lam:
		had := bound.Has(v.Param)
		bound.Add(v.Param)
		termFree(v.Body, bound, out)
		if !had {
			bound.Remove(v.Param)
		}
	default:
		panic(fmt.Sprintf("closconv: unknown value %T", v))
	}
}

func termFree(e cps.Term, bound, out names.Set) {
	under := func(n names.Name, f func()) {
		had := bound.Has(n)
		bound.Add(n)
		f()
		if !had {
			bound.Remove(n)
		}
	}
	switch e := e.(type) {
	case cps.LetVal:
		valueFree(e.V, bound, out)
		under(e.X, func() { termFree(e.Body, bound, out) })
	case cps.LetProj:
		valueFree(e.V, bound, out)
		under(e.X, func() { termFree(e.Body, bound, out) })
	case cps.LetArith:
		valueFree(e.L, bound, out)
		valueFree(e.R, bound, out)
		under(e.X, func() { termFree(e.Body, bound, out) })
	case cps.If0:
		valueFree(e.V, bound, out)
		termFree(e.Then, bound, out)
		termFree(e.Else, bound, out)
	case cps.App:
		valueFree(e.Fn, bound, out)
		valueFree(e.Arg, bound, out)
	case cps.Halt:
		valueFree(e.V, bound, out)
	default:
		panic(fmt.Sprintf("closconv: unknown term %T", e))
	}
}
