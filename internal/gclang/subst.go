package gclang

import (
	"fmt"

	"psgc/internal/names"
	"psgc/internal/tags"
)

// Subst is a simultaneous substitution over λGC's four namespaces: term
// variables (values), tag variables, region variables, and type variables
// α. The machine substitutes closed payloads; the typechecker substitutes
// possibly open tags and regions (typecase refinement, ifreg unification),
// so substitution is capture-avoiding in every namespace.
type Subst struct {
	Vals  map[names.Name]Value
	Tags  map[names.Name]tags.Tag
	Regs  map[names.Name]Region
	Types map[names.Name]Type

	// Closed declares every replacement payload closed (no free names in
	// any namespace), as is always the case for the abstract machine's
	// substitutions: binders then only shadow and are never renamed, and
	// no free-variable scans are needed.
	Closed bool

	// Free names of the replacement payloads, per namespace, computed on
	// first use; binders matching these sets trigger α-renaming.
	avoid *freeSets
}

type freeSets struct {
	vals, tagvs, regs, types names.Set
}

// SubstVals builds a term-variable substitution.
func SubstVals(m map[names.Name]Value) *Subst { return &Subst{Vals: m} }

// SubstTags builds a tag-variable substitution.
func SubstTags(m map[names.Name]tags.Tag) *Subst { return &Subst{Tags: m} }

// SubstRegs builds a region-variable substitution.
func SubstRegs(m map[names.Name]Region) *Subst { return &Subst{Regs: m} }

// SubstTypes builds a type-variable (α) substitution.
func SubstTypes(m map[names.Name]Type) *Subst { return &Subst{Types: m} }

// Subst1Val substitutes a single value for x.
func Subst1Val(x names.Name, v Value) *Subst {
	return SubstVals(map[names.Name]Value{x: v})
}

// Subst1Tag substitutes a single tag for t.
func Subst1Tag(t names.Name, tg tags.Tag) *Subst {
	return SubstTags(map[names.Name]tags.Tag{t: tg})
}

// Subst1Reg substitutes a single region for r.
func Subst1Reg(r names.Name, rg Region) *Subst {
	return SubstRegs(map[names.Name]Region{r: rg})
}

// Subst1Type substitutes a single type for α.
func Subst1Type(a names.Name, ty Type) *Subst {
	return SubstTypes(map[names.Name]Type{a: ty})
}

func (s *Subst) empty() bool {
	return len(s.Vals) == 0 && len(s.Tags) == 0 && len(s.Regs) == 0 && len(s.Types) == 0
}

func (s *Subst) freeSets() *freeSets {
	if s.avoid != nil {
		return s.avoid
	}
	fs := newFreeSets()
	if s.Closed {
		s.avoid = fs
		return fs
	}
	acc := &freeAcc{out: fs}
	for _, v := range s.Vals {
		acc.value(v, newScopes())
	}
	for _, t := range s.Tags {
		for n := range tags.FreeVars(t) {
			fs.tagvs.Add(n)
		}
	}
	for _, r := range s.Regs {
		acc.region(r, newScopes())
	}
	for _, ty := range s.Types {
		acc.typ(ty, newScopes())
	}
	s.avoid = fs
	return fs
}

// namespace identifies one of the four binder namespaces.
type namespace int

const (
	nsVal namespace = iota
	nsTag
	nsReg
	nsType
)

func (s *Subst) has(ns namespace, n names.Name) bool {
	switch ns {
	case nsVal:
		_, ok := s.Vals[n]
		return ok
	case nsTag:
		_, ok := s.Tags[n]
		return ok
	case nsReg:
		_, ok := s.Regs[n]
		return ok
	default:
		_, ok := s.Types[n]
		return ok
	}
}

func (s *Subst) avoidSet(ns namespace) names.Set {
	fs := s.freeSets()
	switch ns {
	case nsVal:
		return fs.vals
	case nsTag:
		return fs.tagvs
	case nsReg:
		return fs.regs
	default:
		return fs.types
	}
}

// drop returns a substitution identical to s but without entries for the
// given names in namespace ns (used when a binder shadows).
func (s *Subst) drop(ns namespace, ns2 ...names.Name) *Subst {
	needs := false
	for _, n := range ns2 {
		if s.has(ns, n) {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := &Subst{Vals: s.Vals, Tags: s.Tags, Regs: s.Regs, Types: s.Types, Closed: s.Closed}
	switch ns {
	case nsVal:
		out.Vals = copyMapWithout(s.Vals, ns2)
	case nsTag:
		out.Tags = copyMapWithout(s.Tags, ns2)
	case nsReg:
		out.Regs = copyMapWithout(s.Regs, ns2)
	default:
		out.Types = copyMapWithout(s.Types, ns2)
	}
	return out
}

func copyMapWithout[V any](m map[names.Name]V, drop []names.Name) map[names.Name]V {
	out := make(map[names.Name]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	for _, n := range drop {
		delete(out, n)
	}
	return out
}

// binder processes one binder in namespace ns: it narrows the substitution,
// and if the binder name would capture a free name of a replacement, it
// renames the binder, returning the (possibly fresh) name, the narrowed
// substitution, and a pre-substitution to apply to the binder's scope
// (nil when no renaming is needed).
func (s *Subst) binder(ns namespace, n names.Name) (names.Name, *Subst, *Subst) {
	inner := s.drop(ns, n)
	if inner.empty() {
		return n, inner, nil
	}
	if !inner.avoidSet(ns).Has(n) {
		return n, inner, nil
	}
	fresh := n
	avoid := inner.avoidSet(ns)
	for avoid.Has(fresh) {
		fresh += "'"
	}
	var pre *Subst
	switch ns {
	case nsVal:
		pre = Subst1Val(n, Var{Name: fresh})
	case nsTag:
		pre = Subst1Tag(n, tags.Var{Name: fresh})
	case nsReg:
		pre = Subst1Reg(n, RVar{Name: fresh})
	default:
		pre = Subst1Type(n, AlphaT{Name: fresh})
	}
	return fresh, inner, pre
}

// binders processes a list of binders in one namespace, returning the new
// names, the narrowed substitution, and the composed pre-substitution
// (applied to the scope before the narrowed substitution).
func (s *Subst) binders(ns namespace, list []names.Name) ([]names.Name, *Subst, *Subst) {
	out := append([]names.Name(nil), list...)
	inner := s.drop(ns, list...)
	if inner.empty() {
		return out, inner, nil
	}
	avoid := inner.avoidSet(ns)
	var pre *Subst
	for i, n := range list {
		if !avoid.Has(n) {
			continue
		}
		fresh := n
		for avoid.Has(fresh) {
			fresh += "'"
		}
		out[i] = fresh
		if pre == nil {
			pre = &Subst{}
		}
		switch ns {
		case nsVal:
			if pre.Vals == nil {
				pre.Vals = map[names.Name]Value{}
			}
			pre.Vals[n] = Var{Name: fresh}
		case nsTag:
			if pre.Tags == nil {
				pre.Tags = map[names.Name]tags.Tag{}
			}
			pre.Tags[n] = tags.Var{Name: fresh}
		case nsReg:
			if pre.Regs == nil {
				pre.Regs = map[names.Name]Region{}
			}
			pre.Regs[n] = RVar{Name: fresh}
		default:
			if pre.Types == nil {
				pre.Types = map[names.Name]Type{}
			}
			pre.Types[n] = AlphaT{Name: fresh}
		}
	}
	return out, inner, pre
}

// Tag applies the substitution to a tag.
func (s *Subst) Tag(t tags.Tag) tags.Tag {
	if len(s.Tags) == 0 {
		return t
	}
	if s.Closed {
		return tags.SubstAllClosed(t, s.Tags)
	}
	return tags.SubstAll(t, s.Tags)
}

// TagList applies the substitution to a tag list.
func (s *Subst) TagList(ts []tags.Tag) []tags.Tag {
	if len(s.Tags) == 0 {
		return ts
	}
	out := make([]tags.Tag, len(ts))
	for i, t := range ts {
		out[i] = s.Tag(t)
	}
	return out
}

// Region applies the substitution to a region expression.
func (s *Subst) Region(r Region) Region {
	if rv, ok := r.(RVar); ok {
		if repl, ok := s.Regs[rv.Name]; ok {
			return repl
		}
	}
	return r
}

// RegionList applies the substitution to a region list.
func (s *Subst) RegionList(rs []Region) []Region {
	out := make([]Region, len(rs))
	for i, r := range rs {
		out[i] = s.Region(r)
	}
	return out
}

// Type applies the substitution to a type. Term variables cannot occur in
// types, so a value-only substitution returns the type unchanged — this
// short-circuit matters: the machine substitutes values at every let, and
// rebuilding every annotation each step would make execution cubic.
func (s *Subst) Type(t Type) Type {
	if len(s.Tags) == 0 && len(s.Regs) == 0 && len(s.Types) == 0 {
		return t
	}
	switch t := t.(type) {
	case IntT:
		return t
	case ProdT:
		return ProdT{L: s.Type(t.L), R: s.Type(t.R)}
	case CodeT:
		// Code types are fully closed except for their own binders; the
		// tag binders scope over Params, region binders likewise.
		inner := s.drop(nsTag, tparamNames(t.TParams)...)
		rps, inner2, pre := inner.binders(nsReg, t.RParams)
		params := t.Params
		if pre != nil {
			params = applyTypes(pre, params)
		}
		return CodeT{TParams: t.TParams, RParams: rps, Params: applyTypes(inner2, params)}
	case ExistT:
		b, inner, pre := s.binder(nsTag, t.Bound)
		body := t.Body
		if pre != nil {
			body = pre.Type(body)
		}
		return ExistT{Bound: b, Kind: t.Kind, Body: inner.Type(body)}
	case AtT:
		return AtT{Body: s.Type(t.Body), R: s.Region(t.R)}
	case MT:
		return MT{Rs: s.RegionList(t.Rs), Tag: s.Tag(t.Tag)}
	case CT:
		return CT{From: s.Region(t.From), To: s.Region(t.To), Tag: s.Tag(t.Tag)}
	case AlphaT:
		if repl, ok := s.Types[t.Name]; ok {
			return repl
		}
		return t
	case ExistAlphaT:
		b, inner, pre := s.binder(nsType, t.Bound)
		body := t.Body
		if pre != nil {
			body = pre.Type(body)
		}
		return ExistAlphaT{Bound: b, Delta: s.RegionList(t.Delta), Body: inner.Type(body)}
	case TransT:
		return TransT{Tags: s.TagList(t.Tags), Rs: s.RegionList(t.Rs), Params: applyTypes(s, t.Params), R: s.Region(t.R)}
	case LeftT:
		return LeftT{Body: s.Type(t.Body)}
	case RightT:
		return RightT{Body: s.Type(t.Body)}
	case SumT:
		return SumT{L: s.Type(t.L), R: s.Type(t.R)}
	case ExistRT:
		b, inner, pre := s.binder(nsReg, t.Bound)
		body := t.Body
		if pre != nil {
			body = pre.Type(body)
		}
		return ExistRT{Bound: b, Delta: s.RegionList(t.Delta), Body: inner.Type(body)}
	default:
		panic(fmt.Sprintf("gclang: unknown type %T", t))
	}
}

func applyTypes(s *Subst, ts []Type) []Type {
	out := make([]Type, len(ts))
	for i, t := range ts {
		out[i] = s.Type(t)
	}
	return out
}

func tparamNames(tps []TParam) []names.Name {
	out := make([]names.Name, len(tps))
	for i, tp := range tps {
		out[i] = tp.Name
	}
	return out
}

// Value applies the substitution to a value.
func (s *Subst) Value(v Value) Value {
	if s.empty() {
		return v
	}
	switch v := v.(type) {
	case Num, AddrV:
		return v
	case Var:
		if repl, ok := s.Vals[v.Name]; ok {
			return repl
		}
		return v
	case PairV:
		return PairV{L: s.Value(v.L), R: s.Value(v.R)}
	case PackTag:
		b, inner, pre := s.binder(nsTag, v.Bound)
		body := v.Body
		if pre != nil {
			body = pre.Type(body)
		}
		return PackTag{Bound: b, Kind: v.Kind, Tag: s.Tag(v.Tag), Val: s.Value(v.Val), Body: inner.Type(body)}
	case PackAlpha:
		b, inner, pre := s.binder(nsType, v.Bound)
		body := v.Body
		if pre != nil {
			body = pre.Type(body)
		}
		return PackAlpha{Bound: b, Delta: s.RegionList(v.Delta), Hidden: s.Type(v.Hidden),
			Val: s.Value(v.Val), Body: inner.Type(body)}
	case PackRegion:
		b, inner, pre := s.binder(nsReg, v.Bound)
		body := v.Body
		if pre != nil {
			body = pre.Type(body)
		}
		return PackRegion{Bound: b, Delta: s.RegionList(v.Delta), R: s.Region(v.R),
			Val: s.Value(v.Val), Body: inner.Type(body)}
	case TAppV:
		return TAppV{Val: s.Value(v.Val), Tags: s.TagList(v.Tags), Rs: s.RegionList(v.Rs)}
	case LamV:
		// λ[t:κ][r](x:σ).e binds tags, regions and params over both the
		// parameter types and the body.
		innerT := s.drop(nsTag, tparamNames(v.TParams)...)
		rps, innerR, preR := innerT.binders(nsReg, v.RParams)
		params := v.Params
		body := v.Body
		if preR != nil {
			params = applyParams(preR, params)
			body = preR.Term(body)
		}
		pnames := make([]names.Name, len(params))
		for i, p := range params {
			pnames[i] = p.Name
		}
		pns, innerV, preV := innerR.binders(nsVal, pnames)
		if preV != nil {
			body = preV.Term(body)
		}
		outParams := make([]Param, len(params))
		for i, p := range params {
			outParams[i] = Param{Name: pns[i], Ty: innerR.Type(p.Ty)}
		}
		return LamV{TParams: v.TParams, RParams: rps, Params: outParams, Body: innerV.Term(body)}
	case InlV:
		return InlV{Val: s.Value(v.Val)}
	case InrV:
		return InrV{Val: s.Value(v.Val)}
	default:
		panic(fmt.Sprintf("gclang: unknown value %T", v))
	}
}

func applyParams(s *Subst, ps []Param) []Param {
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = Param{Name: p.Name, Ty: s.Type(p.Ty)}
	}
	return out
}

// Op applies the substitution to an operation.
func (s *Subst) Op(o Op) Op {
	switch o := o.(type) {
	case ValOp:
		return ValOp{V: s.Value(o.V)}
	case ProjOp:
		return ProjOp{I: o.I, V: s.Value(o.V)}
	case PutOp:
		var anno Type
		if o.Anno != nil {
			anno = s.Type(o.Anno)
		}
		return PutOp{R: s.Region(o.R), V: s.Value(o.V), Anno: anno}
	case GetOp:
		return GetOp{V: s.Value(o.V)}
	case StripOp:
		return StripOp{V: s.Value(o.V)}
	case ArithOp:
		return ArithOp{Kind: o.Kind, L: s.Value(o.L), R: s.Value(o.R)}
	default:
		panic(fmt.Sprintf("gclang: unknown op %T", o))
	}
}

// Term applies the substitution to a term.
func (s *Subst) Term(e Term) Term {
	if s.empty() {
		return e
	}
	switch e := e.(type) {
	case AppT:
		return AppT{Fn: s.Value(e.Fn), Tags: s.TagList(e.Tags), Rs: s.RegionList(e.Rs), Args: s.values(e.Args)}
	case LetT:
		op := s.Op(e.Op)
		x, inner, pre := s.binder(nsVal, e.X)
		body := e.Body
		if pre != nil {
			body = pre.Term(body)
		}
		return LetT{X: x, Op: op, Body: inner.Term(body)}
	case HaltT:
		return HaltT{V: s.Value(e.V)}
	case IfGCT:
		return IfGCT{R: s.Region(e.R), Full: s.Term(e.Full), Else: s.Term(e.Else)}
	case OpenTagT:
		v := s.Value(e.V)
		t, innerT, preT := s.binder(nsTag, e.T)
		body := e.Body
		if preT != nil {
			body = preT.Term(body)
		}
		x, innerV, preV := innerT.binder(nsVal, e.X)
		if preV != nil {
			body = preV.Term(body)
		}
		return OpenTagT{V: v, T: t, X: x, Body: innerV.Term(body)}
	case OpenAlphaT:
		v := s.Value(e.V)
		a, innerA, preA := s.binder(nsType, e.A)
		body := e.Body
		if preA != nil {
			body = preA.Term(body)
		}
		x, innerV, preV := innerA.binder(nsVal, e.X)
		if preV != nil {
			body = preV.Term(body)
		}
		return OpenAlphaT{V: v, A: a, X: x, Body: innerV.Term(body)}
	case LetRegionT:
		r, inner, pre := s.binder(nsReg, e.R)
		body := e.Body
		if pre != nil {
			body = pre.Term(body)
		}
		return LetRegionT{R: r, Body: inner.Term(body)}
	case OnlyT:
		return OnlyT{Delta: s.RegionList(e.Delta), Body: s.Term(e.Body)}
	case TypecaseT:
		tag := s.Tag(e.Tag)
		intArm := s.Term(e.IntArm)
		tl, innerL, preL := s.binder(nsTag, e.TL)
		lamArm := e.LamArm
		if preL != nil {
			lamArm = preL.Term(lamArm)
		}
		lamArm = innerL.Term(lamArm)
		prodBinders, innerP, preP := s.binders(nsTag, []names.Name{e.T1, e.T2})
		prodArm := e.ProdArm
		if preP != nil {
			prodArm = preP.Term(prodArm)
		}
		prodArm = innerP.Term(prodArm)
		te, innerE, preE := s.binder(nsTag, e.Te)
		existArm := e.ExistArm
		if preE != nil {
			existArm = preE.Term(existArm)
		}
		existArm = innerE.Term(existArm)
		return TypecaseT{Tag: tag, IntArm: intArm, TL: tl, LamArm: lamArm,
			T1: prodBinders[0], T2: prodBinders[1], ProdArm: prodArm,
			Te: te, ExistArm: existArm}
	case IfLeftT:
		v := s.Value(e.V)
		x, inner, pre := s.binder(nsVal, e.X)
		l, r := e.L, e.R
		if pre != nil {
			l = pre.Term(l)
			r = pre.Term(r)
		}
		return IfLeftT{X: x, V: v, L: inner.Term(l), R: inner.Term(r)}
	case SetT:
		return SetT{Dst: s.Value(e.Dst), Src: s.Value(e.Src), Body: s.Term(e.Body)}
	case WidenT:
		v := s.Value(e.V)
		var from Region
		if e.From != nil {
			from = s.Region(e.From)
		}
		x, inner, pre := s.binder(nsVal, e.X)
		body := e.Body
		if pre != nil {
			body = pre.Term(body)
		}
		return WidenT{X: x, To: s.Region(e.To), Tag: s.Tag(e.Tag), V: v,
			Body: inner.Term(body), From: from}
	case OpenRegionT:
		v := s.Value(e.V)
		r, innerR, preR := s.binder(nsReg, e.R)
		body := e.Body
		if preR != nil {
			body = preR.Term(body)
		}
		x, innerV, preV := innerR.binder(nsVal, e.X)
		if preV != nil {
			body = preV.Term(body)
		}
		return OpenRegionT{V: v, R: r, X: x, Body: innerV.Term(body)}
	case IfRegT:
		return IfRegT{R1: s.Region(e.R1), R2: s.Region(e.R2), Then: s.Term(e.Then), Else: s.Term(e.Else)}
	case If0T:
		return If0T{V: s.Value(e.V), Then: s.Term(e.Then), Else: s.Term(e.Else)}
	default:
		panic(fmt.Sprintf("gclang: unknown term %T", e))
	}
}

func (s *Subst) values(vs []Value) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = s.Value(v)
	}
	return out
}
