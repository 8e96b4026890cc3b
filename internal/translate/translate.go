// Package translate implements the λCLOS → λGC translation of Fig. 3 and
// its §7/§8 variants: every data operation is rewritten to allocate into /
// fetch from the current region, and every function begins with an ifgc
// check that hands the function itself and its argument — the complete
// root set, thanks to CPS and closure conversion — to the collector.
//
// The dialect selects the data representation the M operator imposes:
//
//	Base: pairs and packages are plain region cells.
//	Forw: every boxed object carries an inl tag bit, reserving the
//	      distinguishing bit the collector needs for forwarding pointers.
//	Gen:  every boxed object is wrapped in a bounded region existential
//	      ∃r∈{ry,ro}, and allocation always targets the nursery.
package translate

import (
	"fmt"

	"psgc/internal/clos"
	"psgc/internal/collector"
	"psgc/internal/gclang"
	"psgc/internal/kinds"
	"psgc/internal/names"
	"psgc/internal/source"
	"psgc/internal/tags"
)

// Options configures a translation.
type Options struct {
	Dialect gclang.Dialect

	// Layout receives the translated mutator functions; it must already
	// contain the collector for the dialect. Entry addresses:
	GC    gclang.AddrV // base/forw collector entry
	Minor gclang.AddrV // gen: minor collection entry
	Major gclang.AddrV // gen: major collection entry
}

// Translate compiles a λCLOS program to λGC. The mutator's code blocks
// are appended to opts.Layout and the returned program's Code is the
// layout's full block list (collector first, mutator after). Fresh
// binders come from s, which must be the supply the earlier passes drew
// from.
func Translate(p clos.Program, l *collector.Layout, opts Options, s *names.Supply) (gclang.Program, error) {
	if err := clos.CheckProgram(p); err != nil {
		return gclang.Program{}, fmt.Errorf("translate: input: %w", err)
	}
	tr := &translator{opts: opts, layout: l, supply: s,
		funs: map[names.Name]tags.Tag{}}
	for _, f := range p.Funs {
		tr.funs[f.Name] = tags.Code{Args: []tags.Tag{f.ParamType}}
	}
	// Reserve offsets for all mutator functions first (mutual recursion).
	for _, f := range p.Funs {
		l.Add(f.Name, gclang.LamV{})
	}
	for _, f := range p.Funs {
		fun, err := tr.fun(f)
		if err != nil {
			return gclang.Program{}, fmt.Errorf("translate: in %s: %w", f.Name, err)
		}
		l.Funs[l.Offset(f.Name)].Fun = fun
	}
	main, err := tr.main(p.Main)
	if err != nil {
		return gclang.Program{}, fmt.Errorf("translate: in main: %w", err)
	}
	return gclang.Program{Code: l.Funs, Main: main}, nil
}

type translator struct {
	opts   Options
	layout *collector.Layout
	funs   map[names.Name]tags.Tag
	supply *names.Supply
}

// regionNames returns the mutator's region parameter names for the
// dialect ("r" for base/forw, "ry"/"ro" for gen).
func (tr *translator) regionNames() []names.Name {
	if tr.opts.Dialect == gclang.Gen {
		return []names.Name{"ry", "ro"}
	}
	return []names.Name{"r"}
}

func (tr *translator) regions() []gclang.Region {
	ns := tr.regionNames()
	out := make([]gclang.Region, len(ns))
	for i, n := range ns {
		out[i] = gclang.RVar{Name: n}
	}
	return out
}

// allocRegion is where the mutator allocates: the current region, or the
// nursery in the generational dialect.
func (tr *translator) allocRegion() gclang.Region { return tr.regions()[0] }

// mType is the dialect's M type for a tag at the mutator's regions.
func (tr *translator) mType(tag tags.Tag) gclang.Type {
	return gclang.MT{Rs: tr.regions(), Tag: tag}
}

// ctx carries the λCLOS typing environment through the translation; the
// generational representation needs component tags at allocation sites.
type ctx struct {
	env *clos.Env
}

func (tr *translator) newCtx(gamma map[names.Name]tags.Tag) *ctx {
	g := make(map[names.Name]tags.Tag, len(gamma))
	for k, v := range gamma {
		g[k] = v
	}
	return &ctx{env: &clos.Env{Theta: tags.KindEnv{}, Gamma: g, Funs: tr.funs}}
}

// wrap is a term-building prefix accumulated while translating values.
type wrap func(gclang.Term) gclang.Term

func idWrap(e gclang.Term) gclang.Term { return e }

func compose(a, b wrap) wrap {
	return func(e gclang.Term) gclang.Term { return a(b(e)) }
}

// value translates a λCLOS value, returning a binding prefix, the λGC
// value, and the value's λCLOS type (tag).
func (tr *translator) value(c *ctx, v clos.Value) (wrap, gclang.Value, tags.Tag, error) {
	switch v := v.(type) {
	case clos.Num:
		return idWrap, gclang.Num{N: v.N}, tags.Int{}, nil
	case clos.Var:
		t, ok := c.env.Gamma[v.Name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("unbound variable %s", v.Name)
		}
		return idWrap, gclang.Var{Name: v.Name}, t, nil
	case clos.FunV:
		t, ok := tr.funs[v.Name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("unknown function %s", v.Name)
		}
		return idWrap, tr.layout.Addr(v.Name), t, nil
	case clos.PairV:
		w1, g1, t1, err := tr.value(c, v.L)
		if err != nil {
			return nil, nil, nil, err
		}
		w2, g2, t2, err := tr.value(c, v.R)
		if err != nil {
			return nil, nil, nil, err
		}
		pre := compose(w1, w2)
		raw := gclang.Value(gclang.PairV{L: g1, R: g2})
		tag := tags.Tag(tags.Prod{L: t1, R: t2})
		w, gv := tr.alloc(pre, raw, tr.boxBody(tag))
		return w, gv, tag, nil
	case clos.Pack:
		wv, gv, _, err := tr.value(c, v.Val)
		if err != nil {
			return nil, nil, nil, err
		}
		tag := tags.Tag(tags.Exist{Bound: v.Bound, Body: v.Body})
		pk := gclang.PackTag{
			Bound: v.Bound, Kind: kinds.Omega{}, Tag: v.Witness, Val: gv,
			Body: tr.packBodyType(v.Body),
		}
		w, out := tr.alloc(wv, pk, tr.boxBody(tag))
		return w, out, tag, nil
	default:
		panic(fmt.Sprintf("translate: unknown value %T", v))
	}
}

// packBodyType is the type annotation of a translated existential
// package's payload: M at the current regions of the (open) body tag.
// In the gen dialect the cell is allocated in the nursery, so the young
// index is the nursery region itself.
func (tr *translator) packBodyType(body tags.Tag) gclang.Type {
	return tr.mType(body)
}

// boxBody returns, for the gen dialect, the region-existential body type
// of a boxed object of the given tag; nil in other dialects.
func (tr *translator) boxBody(tag tags.Tag) gclang.Type {
	if tr.opts.Dialect != gclang.Gen {
		return nil
	}
	rp := gclang.Region(gclang.RVar{Name: "rp"})
	ro := tr.regions()[1]
	switch t := tags.MustNormalize(tag).(type) {
	case tags.Prod:
		return gclang.ProdT{
			L: gclang.MT{Rs: []gclang.Region{rp, ro}, Tag: t.L},
			R: gclang.MT{Rs: []gclang.Region{rp, ro}, Tag: t.R},
		}
	case tags.Exist:
		return gclang.ExistT{Bound: t.Bound, Kind: kinds.Omega{},
			Body: gclang.MT{Rs: []gclang.Region{rp, ro}, Tag: t.Body}}
	default:
		panic(fmt.Sprintf("translate: boxBody on unboxed tag %s", tag))
	}
}

// alloc emits the dialect-specific allocation of a boxed object.
func (tr *translator) alloc(pre wrap, raw gclang.Value, genBody gclang.Type) (wrap, gclang.Value) {
	x := tr.supply.Fresh("h")
	switch tr.opts.Dialect {
	case gclang.Forw:
		raw = gclang.InlV{Val: raw}
	}
	if tr.opts.Dialect == gclang.Gen {
		pkName := tr.supply.Fresh("hp")
		w := func(e gclang.Term) gclang.Term {
			return pre(gclang.LetT{X: x, Op: gclang.PutOp{R: tr.allocRegion(), V: raw},
				Body: gclang.LetT{X: pkName, Op: gclang.ValOp{V: gclang.PackRegion{
					Bound: "rp", Delta: tr.regions(), R: tr.allocRegion(),
					Val: gclang.Var{Name: x}, Body: genBody,
				}}, Body: e}})
		}
		return w, gclang.Var{Name: pkName}
	}
	w := func(e gclang.Term) gclang.Term {
		return pre(gclang.LetT{X: x, Op: gclang.PutOp{R: tr.allocRegion(), V: raw}, Body: e})
	}
	return w, gclang.Var{Name: x}
}

// deref emits the dialect-specific fetch of a boxed object, binding the
// raw (pair or package) content to a fresh name passed to k.
func (tr *translator) deref(gv gclang.Value, k func(raw gclang.Value) gclang.Term) gclang.Term {
	y := tr.supply.Fresh("d")
	switch tr.opts.Dialect {
	case gclang.Base:
		return gclang.LetT{X: y, Op: gclang.GetOp{V: gv}, Body: k(gclang.Var{Name: y})}
	case gclang.Forw:
		s := tr.supply.Fresh("s")
		return gclang.LetT{X: y, Op: gclang.GetOp{V: gv},
			Body: gclang.LetT{X: s, Op: gclang.StripOp{V: gclang.Var{Name: y}},
				Body: k(gclang.Var{Name: s})}}
	default: // Gen
		rx := tr.supply.Fresh("rx")
		xp := tr.supply.Fresh("xp")
		return gclang.OpenRegionT{V: gv, R: rx, X: xp,
			Body: gclang.LetT{X: y, Op: gclang.GetOp{V: gclang.Var{Name: xp}},
				Body: k(gclang.Var{Name: y})}}
	}
}

// term translates a λCLOS term.
func (tr *translator) term(c *ctx, e clos.Term) (gclang.Term, error) {
	switch e := e.(type) {
	case clos.LetVal:
		w, gv, t, err := tr.value(c, e.V)
		if err != nil {
			return nil, err
		}
		c.env.Gamma[e.X] = t
		body, err := tr.term(c, e.Body)
		delete(c.env.Gamma, e.X)
		if err != nil {
			return nil, err
		}
		return w(gclang.LetT{X: e.X, Op: gclang.ValOp{V: gv}, Body: body}), nil
	case clos.LetProj:
		w, gv, t, err := tr.value(c, e.V)
		if err != nil {
			return nil, err
		}
		nf, err := tags.Normalize(t)
		if err != nil {
			return nil, err
		}
		p, ok := nf.(tags.Prod)
		if !ok {
			return nil, fmt.Errorf("projection from non-pair tag %s", nf)
		}
		picked := p.L
		if e.I == 2 {
			picked = p.R
		}
		c.env.Gamma[e.X] = picked
		body, err := tr.term(c, e.Body)
		delete(c.env.Gamma, e.X)
		if err != nil {
			return nil, err
		}
		return w(tr.deref(gv, func(raw gclang.Value) gclang.Term {
			return gclang.LetT{X: e.X, Op: gclang.ProjOp{I: e.I, V: raw}, Body: body}
		})), nil
	case clos.LetArith:
		wl, gl, _, err := tr.value(c, e.L)
		if err != nil {
			return nil, err
		}
		wr, gr, _, err := tr.value(c, e.R)
		if err != nil {
			return nil, err
		}
		c.env.Gamma[e.X] = tags.Int{}
		body, err := tr.term(c, e.Body)
		delete(c.env.Gamma, e.X)
		if err != nil {
			return nil, err
		}
		var kind gclang.ArithKind
		switch e.Op {
		case source.OpAdd:
			kind = gclang.Add
		case source.OpSub:
			kind = gclang.Sub
		case source.OpMul:
			kind = gclang.Mul
		}
		return compose(wl, wr)(gclang.LetT{X: e.X,
			Op: gclang.ArithOp{Kind: kind, L: gl, R: gr}, Body: body}), nil
	case clos.App:
		wf, gf, _, err := tr.value(c, e.Fn)
		if err != nil {
			return nil, err
		}
		wa, ga, _, err := tr.value(c, e.Arg)
		if err != nil {
			return nil, err
		}
		return compose(wf, wa)(gclang.AppT{Fn: gf, Rs: tr.regions(), Args: []gclang.Value{ga}}), nil
	case clos.Open:
		w, gv, t, err := tr.value(c, e.V)
		if err != nil {
			return nil, err
		}
		nf, err := tags.Normalize(t)
		if err != nil {
			return nil, err
		}
		ex, ok := nf.(tags.Exist)
		if !ok {
			return nil, fmt.Errorf("open of non-existential tag %s", nf)
		}
		c.env.Theta[e.T] = kinds.Omega{}
		c.env.Gamma[e.X] = tags.Subst(ex.Body, ex.Bound, tags.Var{Name: e.T})
		body, err := tr.term(c, e.Body)
		delete(c.env.Gamma, e.X)
		delete(c.env.Theta, e.T)
		if err != nil {
			return nil, err
		}
		return w(tr.deref(gv, func(raw gclang.Value) gclang.Term {
			return gclang.OpenTagT{V: raw, T: e.T, X: e.X, Body: body}
		})), nil
	case clos.If0:
		w, gv, _, err := tr.value(c, e.V)
		if err != nil {
			return nil, err
		}
		thn, err := tr.term(c, e.Then)
		if err != nil {
			return nil, err
		}
		els, err := tr.term(c, e.Else)
		if err != nil {
			return nil, err
		}
		return w(gclang.If0T{V: gv, Then: thn, Else: els}), nil
	case clos.Halt:
		w, gv, _, err := tr.value(c, e.V)
		if err != nil {
			return nil, err
		}
		return w(gclang.HaltT{V: gv}), nil
	default:
		panic(fmt.Sprintf("translate: unknown term %T", e))
	}
}

// fun translates a λCLOS function, inserting the ifgc collection check of
// Fig. 3: if the allocation region is full, call the collector with this
// very function as the return continuation and the argument as the root.
func (tr *translator) fun(f clos.FunDef) (gclang.LamV, error) {
	c := tr.newCtx(map[names.Name]tags.Tag{f.Param: f.ParamType})
	body, err := tr.term(c, f.Body)
	if err != nil {
		return gclang.LamV{}, err
	}
	self := tr.layout.Addr(f.Name)
	x := gclang.Var{Name: f.Param}
	var checked gclang.Term
	switch tr.opts.Dialect {
	case gclang.Gen:
		minor := gclang.AppT{Fn: tr.opts.Minor, Tags: []tags.Tag{f.ParamType},
			Rs: tr.regions(), Args: []gclang.Value{self, x}}
		major := gclang.AppT{Fn: tr.opts.Major, Tags: []tags.Tag{f.ParamType},
			Rs: tr.regions(), Args: []gclang.Value{self, x}}
		checked = gclang.IfGCT{R: tr.regions()[1], Full: major,
			Else: gclang.IfGCT{R: tr.regions()[0], Full: minor, Else: body}}
	default:
		gcCall := gclang.AppT{Fn: tr.opts.GC, Tags: []tags.Tag{f.ParamType},
			Rs: tr.regions(), Args: []gclang.Value{self, x}}
		checked = gclang.IfGCT{R: tr.regions()[0], Full: gcCall, Else: body}
	}
	return gclang.LamV{
		RParams: tr.regionNames(),
		Params:  []gclang.Param{{Name: f.Param, Ty: tr.mType(f.ParamType)}},
		Body:    checked,
	}, nil
}

// main translates the main term, allocating the initial region(s).
func (tr *translator) main(e clos.Term) (gclang.Term, error) {
	c := tr.newCtx(nil)
	body, err := tr.term(c, e)
	if err != nil {
		return nil, err
	}
	if tr.opts.Dialect == gclang.Gen {
		return gclang.LetRegionT{R: "ry", Body: gclang.LetRegionT{R: "ro", Body: body}}, nil
	}
	return gclang.LetRegionT{R: "r", Body: body}, nil
}
