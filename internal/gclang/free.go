package gclang

import (
	"fmt"

	"psgc/internal/names"
	"psgc/internal/tags"
)

// scopes tracks the bound names of each namespace during a free-variable
// traversal.
type scopes struct {
	vals, tagvs, regs, types names.Set
}

func newScopes() *scopes {
	return &scopes{
		vals:  make(names.Set),
		tagvs: make(names.Set),
		regs:  make(names.Set),
		types: make(names.Set),
	}
}

func (sc *scopes) with(set names.Set, ns []names.Name, f func()) {
	added := make([]names.Name, 0, len(ns))
	for _, n := range ns {
		if !set.Has(n) {
			set.Add(n)
			added = append(added, n)
		}
	}
	f()
	for _, n := range added {
		set.Remove(n)
	}
}

func newFreeSets() *freeSets {
	return &freeSets{
		vals:  make(names.Set),
		tagvs: make(names.Set),
		regs:  make(names.Set),
		types: make(names.Set),
	}
}

// freeAcc accumulates the free names of λGC syntax into a freeSets.
type freeAcc struct {
	out *freeSets
}

// FreeNames returns the free names of a term in all four namespaces:
// term variables, tag variables, region variables, and type variables.
func FreeNames(e Term) (vals, tagvs, regs, types names.Set) {
	fs := newFreeSets()
	acc := &freeAcc{out: fs}
	acc.term(e, newScopes())
	return fs.vals, fs.tagvs, fs.regs, fs.types
}

// FreeValueNames returns the free names of a value in all four namespaces.
func FreeValueNames(v Value) (vals, tagvs, regs, types names.Set) {
	fs := newFreeSets()
	acc := &freeAcc{out: fs}
	acc.value(v, newScopes())
	return fs.vals, fs.tagvs, fs.regs, fs.types
}

func (a *freeAcc) tag(t tags.Tag, sc *scopes) {
	for n := range tags.FreeVars(t) {
		if !sc.tagvs.Has(n) {
			a.out.tagvs.Add(n)
		}
	}
}

func (a *freeAcc) tagList(ts []tags.Tag, sc *scopes) {
	for _, t := range ts {
		a.tag(t, sc)
	}
}

func (a *freeAcc) region(r Region, sc *scopes) {
	if rv, ok := r.(RVar); ok {
		if !sc.regs.Has(rv.Name) {
			a.out.regs.Add(rv.Name)
		}
	}
}

func (a *freeAcc) regionList(rs []Region, sc *scopes) {
	for _, r := range rs {
		a.region(r, sc)
	}
}

func (a *freeAcc) typ(t Type, sc *scopes) {
	switch t := t.(type) {
	case IntT:
	case ProdT:
		a.typ(t.L, sc)
		a.typ(t.R, sc)
	case CodeT:
		sc.with(sc.tagvs, tparamNames(t.TParams), func() {
			sc.with(sc.regs, t.RParams, func() {
				for _, p := range t.Params {
					a.typ(p, sc)
				}
			})
		})
	case ExistT:
		sc.with(sc.tagvs, []names.Name{t.Bound}, func() { a.typ(t.Body, sc) })
	case AtT:
		a.typ(t.Body, sc)
		a.region(t.R, sc)
	case MT:
		a.regionList(t.Rs, sc)
		a.tag(t.Tag, sc)
	case CT:
		a.region(t.From, sc)
		a.region(t.To, sc)
		a.tag(t.Tag, sc)
	case AlphaT:
		if !sc.types.Has(t.Name) {
			a.out.types.Add(t.Name)
		}
	case ExistAlphaT:
		a.regionList(t.Delta, sc)
		sc.with(sc.types, []names.Name{t.Bound}, func() { a.typ(t.Body, sc) })
	case TransT:
		a.tagList(t.Tags, sc)
		a.region(t.R, sc)
		a.regionList(t.Rs, sc)
		for _, p := range t.Params {
			a.typ(p, sc)
		}
	case LeftT:
		a.typ(t.Body, sc)
	case RightT:
		a.typ(t.Body, sc)
	case SumT:
		a.typ(t.L, sc)
		a.typ(t.R, sc)
	case ExistRT:
		a.regionList(t.Delta, sc)
		sc.with(sc.regs, []names.Name{t.Bound}, func() { a.typ(t.Body, sc) })
	default:
		panic(fmt.Sprintf("gclang: unknown type %T", t))
	}
}

func (a *freeAcc) value(v Value, sc *scopes) {
	switch v := v.(type) {
	case Num, AddrV:
	case Var:
		if !sc.vals.Has(v.Name) {
			a.out.vals.Add(v.Name)
		}
	case PairV:
		a.value(v.L, sc)
		a.value(v.R, sc)
	case PackTag:
		a.tag(v.Tag, sc)
		a.value(v.Val, sc)
		sc.with(sc.tagvs, []names.Name{v.Bound}, func() { a.typ(v.Body, sc) })
	case PackAlpha:
		a.regionList(v.Delta, sc)
		a.typ(v.Hidden, sc)
		a.value(v.Val, sc)
		sc.with(sc.types, []names.Name{v.Bound}, func() { a.typ(v.Body, sc) })
	case PackRegion:
		a.regionList(v.Delta, sc)
		a.region(v.R, sc)
		a.value(v.Val, sc)
		sc.with(sc.regs, []names.Name{v.Bound}, func() { a.typ(v.Body, sc) })
	case TAppV:
		a.value(v.Val, sc)
		a.tagList(v.Tags, sc)
		a.regionList(v.Rs, sc)
	case LamV:
		sc.with(sc.tagvs, tparamNames(v.TParams), func() {
			sc.with(sc.regs, v.RParams, func() {
				pnames := make([]names.Name, len(v.Params))
				for i, p := range v.Params {
					pnames[i] = p.Name
					a.typ(p.Ty, sc)
				}
				sc.with(sc.vals, pnames, func() { a.term(v.Body, sc) })
			})
		})
	case InlV:
		a.value(v.Val, sc)
	case InrV:
		a.value(v.Val, sc)
	default:
		panic(fmt.Sprintf("gclang: unknown value %T", v))
	}
}

func (a *freeAcc) op(o Op, sc *scopes) {
	switch o := o.(type) {
	case ValOp:
		a.value(o.V, sc)
	case ProjOp:
		a.value(o.V, sc)
	case PutOp:
		a.region(o.R, sc)
		a.value(o.V, sc)
		if o.Anno != nil {
			a.typ(o.Anno, sc)
		}
	case GetOp:
		a.value(o.V, sc)
	case StripOp:
		a.value(o.V, sc)
	case ArithOp:
		a.value(o.L, sc)
		a.value(o.R, sc)
	default:
		panic(fmt.Sprintf("gclang: unknown op %T", o))
	}
}

func (a *freeAcc) term(e Term, sc *scopes) {
	switch e := e.(type) {
	case AppT:
		a.value(e.Fn, sc)
		a.tagList(e.Tags, sc)
		a.regionList(e.Rs, sc)
		for _, v := range e.Args {
			a.value(v, sc)
		}
	case LetT:
		a.op(e.Op, sc)
		sc.with(sc.vals, []names.Name{e.X}, func() { a.term(e.Body, sc) })
	case HaltT:
		a.value(e.V, sc)
	case IfGCT:
		a.region(e.R, sc)
		a.term(e.Full, sc)
		a.term(e.Else, sc)
	case OpenTagT:
		a.value(e.V, sc)
		sc.with(sc.tagvs, []names.Name{e.T}, func() {
			sc.with(sc.vals, []names.Name{e.X}, func() { a.term(e.Body, sc) })
		})
	case OpenAlphaT:
		a.value(e.V, sc)
		sc.with(sc.types, []names.Name{e.A}, func() {
			sc.with(sc.vals, []names.Name{e.X}, func() { a.term(e.Body, sc) })
		})
	case LetRegionT:
		sc.with(sc.regs, []names.Name{e.R}, func() { a.term(e.Body, sc) })
	case OnlyT:
		a.regionList(e.Delta, sc)
		a.term(e.Body, sc)
	case TypecaseT:
		a.tag(e.Tag, sc)
		a.term(e.IntArm, sc)
		sc.with(sc.tagvs, []names.Name{e.TL}, func() { a.term(e.LamArm, sc) })
		sc.with(sc.tagvs, []names.Name{e.T1, e.T2}, func() { a.term(e.ProdArm, sc) })
		sc.with(sc.tagvs, []names.Name{e.Te}, func() { a.term(e.ExistArm, sc) })
	case IfLeftT:
		a.value(e.V, sc)
		sc.with(sc.vals, []names.Name{e.X}, func() {
			a.term(e.L, sc)
			a.term(e.R, sc)
		})
	case SetT:
		a.value(e.Dst, sc)
		a.value(e.Src, sc)
		a.term(e.Body, sc)
	case WidenT:
		a.value(e.V, sc)
		a.region(e.To, sc)
		if e.From != nil {
			a.region(e.From, sc)
		}
		a.tag(e.Tag, sc)
		sc.with(sc.vals, []names.Name{e.X}, func() { a.term(e.Body, sc) })
	case OpenRegionT:
		a.value(e.V, sc)
		sc.with(sc.regs, []names.Name{e.R}, func() {
			sc.with(sc.vals, []names.Name{e.X}, func() { a.term(e.Body, sc) })
		})
	case IfRegT:
		a.region(e.R1, sc)
		a.region(e.R2, sc)
		a.term(e.Then, sc)
		a.term(e.Else, sc)
	case If0T:
		a.value(e.V, sc)
		a.term(e.Then, sc)
		a.term(e.Else, sc)
	default:
		panic(fmt.Sprintf("gclang: unknown term %T", e))
	}
}
