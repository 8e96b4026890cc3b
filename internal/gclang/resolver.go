package gclang

import (
	"fmt"

	"psgc/internal/names"
	"psgc/internal/tags"
)

// resolver holds the EnvMachine's tag, region, and type frames and
// resolves syntax against them. Every method returns the resolved syntax
// plus a changed flag; unchanged syntax is returned as the very interface
// value passed in, so resolving closed syntax allocates nothing.
// Resolution is the environment-based reading of the machine's closed
// substitutions: innermost binding wins, binders under which we descend
// only shadow (Subst with Closed set never renames). Value resolution
// resolves straight into cells, so it lives with the machine (cellOf).
//
// A frame slot is bound when its generation stamp equals gen. A call
// bumps gen and writes only its parameters, which unbinds every other
// slot at once (see EnvMachine.enter).
type resolver struct {
	gen  uint32
	tags []slot[tags.Tag]
	regs []slot[Region]
	typs []slot[Type]

	// sc is the scope of the syntax being resolved: the frame slots of its
	// free variables (see lower.go). Names outside it resolve to
	// themselves.
	sc *scope

	// Shadow stacks for binders crossed while resolving inside tags, types,
	// and pack bodies (resolution walks under binders without extending the
	// environment).
	shTags []names.Name
	shRegs []names.Name
	shTyps []names.Name
}

// slot is one frame entry: a binding and the generation that wrote it.
type slot[T any] struct {
	v   T
	gen uint32
}

func lookup[T any](f []slot[T], i int32, gen uint32) (T, bool) {
	if s := &f[i]; s.gen == gen {
		return s.v, true
	}
	var zero T
	return zero, false
}

func shadowed(stack []names.Name, n names.Name) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == n {
			return true
		}
	}
	return false
}

func find(fvs []fvSlot, n names.Name) int32 {
	for _, f := range fvs {
		if f.name == n {
			return f.slot
		}
	}
	return -1
}

// resolveTag resolves a lowered tag occurrence: a bare variable reads its
// slot, a closed tag is returned as is, and only compound tags with free
// variables are walked.
func (m *resolver) resolveTag(t *ltag) tags.Tag {
	if t.slot >= 0 {
		if v, ok := lookup(m.tags, t.slot, m.gen); ok {
			return v
		}
		return t.src
	}
	if t.sc == nil {
		return t.src
	}
	m.sc = t.sc
	out, _ := m.tag1(t.src)
	return out
}

func (m *resolver) tag(t tags.Tag) (tags.Tag, bool) {
	if len(m.sc.tags) == 0 {
		return t, false
	}
	return m.tag1(t)
}

func (m *resolver) tag1(t tags.Tag) (tags.Tag, bool) {
	switch tt := t.(type) {
	case tags.Int:
		return t, false
	case tags.Var:
		if shadowed(m.shTags, tt.Name) {
			return t, false
		}
		if s := find(m.sc.tags, tt.Name); s >= 0 {
			if r, ok := lookup(m.tags, s, m.gen); ok {
				return r, true
			}
		}
		return t, false
	case tags.Prod:
		l, cl := m.tag1(tt.L)
		r, cr := m.tag1(tt.R)
		if !cl && !cr {
			return t, false
		}
		return tags.Prod{L: l, R: r}, true
	case tags.Code:
		args, ca := m.tagSlice1(tt.Args)
		if !ca {
			return t, false
		}
		return tags.Code{Args: args}, true
	case tags.Exist:
		m.shTags = append(m.shTags, tt.Bound)
		body, cb := m.tag1(tt.Body)
		m.shTags = m.shTags[:len(m.shTags)-1]
		if !cb {
			return t, false
		}
		return tags.Exist{Bound: tt.Bound, Body: body}, true
	case tags.Lam:
		m.shTags = append(m.shTags, tt.Param)
		body, cb := m.tag1(tt.Body)
		m.shTags = m.shTags[:len(m.shTags)-1]
		if !cb {
			return t, false
		}
		return tags.Lam{Param: tt.Param, Body: body}, true
	case tags.App:
		fn, cf := m.tag1(tt.Fn)
		arg, ca := m.tag1(tt.Arg)
		if !cf && !ca {
			return t, false
		}
		return tags.App{Fn: fn, Arg: arg}, true
	default:
		panic(fmt.Sprintf("gclang: unknown tag %T", t))
	}
}

func (m *resolver) region(r Region) (Region, bool) {
	if rv, ok := r.(RVar); ok {
		if shadowed(m.shRegs, rv.Name) {
			return r, false
		}
		if s := find(m.sc.regs, rv.Name); s >= 0 {
			if repl, ok := lookup(m.regs, s, m.gen); ok {
				return repl, true
			}
		}
	}
	return r, false
}

// typ resolves a type. Term variables cannot occur in types, so a type
// whose scope lists no tag, region, or type variable is unchanged — the
// same short-circuit Subst.Type relies on, and just as load-bearing here.
func (m *resolver) typ(t Type) (Type, bool) {
	if m.sc.empty() {
		return t, false
	}
	return m.typ1(t)
}

func (m *resolver) typ1(t Type) (Type, bool) {
	switch tt := t.(type) {
	case IntT:
		return t, false
	case ProdT:
		l, cl := m.typ1(tt.L)
		r, cr := m.typ1(tt.R)
		if !cl && !cr {
			return t, false
		}
		return ProdT{L: l, R: r}, true
	case CodeT:
		// The tag and region binders scope over Params.
		for _, tp := range tt.TParams {
			m.shTags = append(m.shTags, tp.Name)
		}
		m.shRegs = append(m.shRegs, tt.RParams...)
		params, cp := m.typeSlice1(tt.Params)
		m.shRegs = m.shRegs[:len(m.shRegs)-len(tt.RParams)]
		m.shTags = m.shTags[:len(m.shTags)-len(tt.TParams)]
		if !cp {
			return t, false
		}
		return CodeT{TParams: tt.TParams, RParams: tt.RParams, Params: params}, true
	case ExistT:
		m.shTags = append(m.shTags, tt.Bound)
		body, cb := m.typ1(tt.Body)
		m.shTags = m.shTags[:len(m.shTags)-1]
		if !cb {
			return t, false
		}
		return ExistT{Bound: tt.Bound, Kind: tt.Kind, Body: body}, true
	case AtT:
		body, cb := m.typ1(tt.Body)
		r, cr := m.region(tt.R)
		if !cb && !cr {
			return t, false
		}
		return AtT{Body: body, R: r}, true
	case MT:
		rs, cr := m.regionSlice(tt.Rs)
		tg, ct := m.tag(tt.Tag)
		if !cr && !ct {
			return t, false
		}
		return MT{Rs: rs, Tag: tg}, true
	case CT:
		from, cf := m.region(tt.From)
		to, ct := m.region(tt.To)
		tg, cg := m.tag(tt.Tag)
		if !cf && !ct && !cg {
			return t, false
		}
		return CT{From: from, To: to, Tag: tg}, true
	case AlphaT:
		if shadowed(m.shTyps, tt.Name) {
			return t, false
		}
		if s := find(m.sc.typs, tt.Name); s >= 0 {
			if repl, ok := lookup(m.typs, s, m.gen); ok {
				return repl, true
			}
		}
		return t, false
	case ExistAlphaT:
		delta, cd := m.regionSlice(tt.Delta)
		m.shTyps = append(m.shTyps, tt.Bound)
		body, cb := m.typ1(tt.Body)
		m.shTyps = m.shTyps[:len(m.shTyps)-1]
		if !cd && !cb {
			return t, false
		}
		return ExistAlphaT{Bound: tt.Bound, Delta: delta, Body: body}, true
	case TransT:
		ts, ct := m.tagSlice(tt.Tags)
		rs, cr := m.regionSlice(tt.Rs)
		params, cp := m.typeSlice1(tt.Params)
		r, c0 := m.region(tt.R)
		if !ct && !cr && !cp && !c0 {
			return t, false
		}
		return TransT{Tags: ts, Rs: rs, Params: params, R: r}, true
	case LeftT:
		body, cb := m.typ1(tt.Body)
		if !cb {
			return t, false
		}
		return LeftT{Body: body}, true
	case RightT:
		body, cb := m.typ1(tt.Body)
		if !cb {
			return t, false
		}
		return RightT{Body: body}, true
	case SumT:
		l, cl := m.typ1(tt.L)
		r, cr := m.typ1(tt.R)
		if !cl && !cr {
			return t, false
		}
		return SumT{L: l, R: r}, true
	case ExistRT:
		delta, cd := m.regionSlice(tt.Delta)
		m.shRegs = append(m.shRegs, tt.Bound)
		body, cb := m.typ1(tt.Body)
		m.shRegs = m.shRegs[:len(m.shRegs)-1]
		if !cd && !cb {
			return t, false
		}
		return ExistRT{Bound: tt.Bound, Delta: delta, Body: body}, true
	default:
		panic(fmt.Sprintf("gclang: unknown type %T", t))
	}
}

func (m *resolver) tagSlice(ts []tags.Tag) ([]tags.Tag, bool) {
	if len(m.sc.tags) == 0 {
		return ts, false
	}
	return m.tagSlice1(ts)
}

func (m *resolver) tagSlice1(ts []tags.Tag) ([]tags.Tag, bool) {
	var out []tags.Tag
	for i, t := range ts {
		rt, ct := m.tag1(t)
		if ct && out == nil {
			out = append([]tags.Tag(nil), ts...)
		}
		if out != nil {
			out[i] = rt
		}
	}
	if out == nil {
		return ts, false
	}
	return out, true
}

func (m *resolver) regionSlice(rs []Region) ([]Region, bool) {
	var out []Region
	for i, r := range rs {
		rr, cr := m.region(r)
		if cr && out == nil {
			out = append([]Region(nil), rs...)
		}
		if out != nil {
			out[i] = rr
		}
	}
	if out == nil {
		return rs, false
	}
	return out, true
}

func (m *resolver) typeSlice1(ts []Type) ([]Type, bool) {
	var out []Type
	for i, t := range ts {
		rt, ct := m.typ1(t)
		if ct && out == nil {
			out = append([]Type(nil), ts...)
		}
		if out != nil {
			out[i] = rt
		}
	}
	if out == nil {
		return ts, false
	}
	return out, true
}
