package gclang

import (
	"fmt"

	"psgc/internal/names"
	"psgc/internal/tags"
)

// resolver is the EnvMachine's tag/region/type resolution layer:
// environment lookup with shadow tracking for the three syntax namespaces.
// Every method returns the resolved syntax plus a changed flag; unchanged
// subtrees are returned as-is, so resolving closed syntax allocates
// nothing. Resolution is the environment-based reading of the machine's
// closed substitutions: innermost binding wins, binders under which we
// descend only shadow (Subst with Closed set never renames). Value
// resolution resolves straight into cells, so it lives with the machine
// (cellOf).
type resolver struct {
	// The three syntax binder namespaces. Overwrite-on-shadow is sound
	// because CPS control never returns to an outer scope (see the
	// EnvMachine type comment).
	envTags map[names.Name]tags.Tag
	envRegs map[names.Name]Region
	envTyps map[names.Name]Type

	// Shadow stacks for binders crossed while resolving inside tags, types,
	// and pack bodies (resolution walks under binders without extending the
	// environment).
	shTags []names.Name
	shRegs []names.Name
	shTyps []names.Name
}

func (m *resolver) initResolver() {
	m.envTags = map[names.Name]tags.Tag{}
	m.envRegs = map[names.Name]Region{}
	m.envTyps = map[names.Name]Type{}
}

func shadowed(stack []names.Name, n names.Name) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == n {
			return true
		}
	}
	return false
}

func (m *resolver) resolveTag(t tags.Tag) tags.Tag {
	out, _ := m.tag(t)
	return out
}

func (m *resolver) resolveRegion(r Region) Region {
	out, _ := m.region(r)
	return out
}

func (m *resolver) tag(t tags.Tag) (tags.Tag, bool) {
	if len(m.envTags) == 0 {
		return t, false
	}
	return m.tag1(t)
}

func (m *resolver) tag1(t tags.Tag) (tags.Tag, bool) {
	switch t := t.(type) {
	case tags.Int:
		return t, false
	case tags.Var:
		if shadowed(m.shTags, t.Name) {
			return t, false
		}
		if r, ok := m.envTags[t.Name]; ok {
			return r, true
		}
		return t, false
	case tags.Prod:
		l, cl := m.tag1(t.L)
		r, cr := m.tag1(t.R)
		if !cl && !cr {
			return t, false
		}
		return tags.Prod{L: l, R: r}, true
	case tags.Code:
		args, ca := m.tagSlice1(t.Args)
		if !ca {
			return t, false
		}
		return tags.Code{Args: args}, true
	case tags.Exist:
		m.shTags = append(m.shTags, t.Bound)
		body, cb := m.tag1(t.Body)
		m.shTags = m.shTags[:len(m.shTags)-1]
		if !cb {
			return t, false
		}
		return tags.Exist{Bound: t.Bound, Body: body}, true
	case tags.Lam:
		m.shTags = append(m.shTags, t.Param)
		body, cb := m.tag1(t.Body)
		m.shTags = m.shTags[:len(m.shTags)-1]
		if !cb {
			return t, false
		}
		return tags.Lam{Param: t.Param, Body: body}, true
	case tags.App:
		fn, cf := m.tag1(t.Fn)
		arg, ca := m.tag1(t.Arg)
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
		if repl, ok := m.envRegs[rv.Name]; ok {
			return repl, true
		}
	}
	return r, false
}

// typ resolves a type. Term variables cannot occur in types, so when the
// environment binds only values the type is unchanged — the same
// short-circuit Subst.Type relies on, and just as load-bearing here.
func (m *resolver) typ(t Type) (Type, bool) {
	if len(m.envTags) == 0 && len(m.envRegs) == 0 && len(m.envTyps) == 0 {
		return t, false
	}
	return m.typ1(t)
}

func (m *resolver) typ1(t Type) (Type, bool) {
	switch t := t.(type) {
	case IntT:
		return t, false
	case ProdT:
		l, cl := m.typ1(t.L)
		r, cr := m.typ1(t.R)
		if !cl && !cr {
			return t, false
		}
		return ProdT{L: l, R: r}, true
	case CodeT:
		// The tag and region binders scope over Params.
		for _, tp := range t.TParams {
			m.shTags = append(m.shTags, tp.Name)
		}
		m.shRegs = append(m.shRegs, t.RParams...)
		params, cp := m.typeSlice1(t.Params)
		m.shRegs = m.shRegs[:len(m.shRegs)-len(t.RParams)]
		m.shTags = m.shTags[:len(m.shTags)-len(t.TParams)]
		if !cp {
			return t, false
		}
		return CodeT{TParams: t.TParams, RParams: t.RParams, Params: params}, true
	case ExistT:
		m.shTags = append(m.shTags, t.Bound)
		body, cb := m.typ1(t.Body)
		m.shTags = m.shTags[:len(m.shTags)-1]
		if !cb {
			return t, false
		}
		return ExistT{Bound: t.Bound, Kind: t.Kind, Body: body}, true
	case AtT:
		body, cb := m.typ1(t.Body)
		r, cr := m.region(t.R)
		if !cb && !cr {
			return t, false
		}
		return AtT{Body: body, R: r}, true
	case MT:
		rs, cr := m.regionSlice(t.Rs)
		tg, ct := m.tag(t.Tag)
		if !cr && !ct {
			return t, false
		}
		return MT{Rs: rs, Tag: tg}, true
	case CT:
		from, cf := m.region(t.From)
		to, ct := m.region(t.To)
		tg, cg := m.tag(t.Tag)
		if !cf && !ct && !cg {
			return t, false
		}
		return CT{From: from, To: to, Tag: tg}, true
	case AlphaT:
		if shadowed(m.shTyps, t.Name) {
			return t, false
		}
		if repl, ok := m.envTyps[t.Name]; ok {
			return repl, true
		}
		return t, false
	case ExistAlphaT:
		delta, cd := m.regionSlice(t.Delta)
		m.shTyps = append(m.shTyps, t.Bound)
		body, cb := m.typ1(t.Body)
		m.shTyps = m.shTyps[:len(m.shTyps)-1]
		if !cd && !cb {
			return t, false
		}
		return ExistAlphaT{Bound: t.Bound, Delta: delta, Body: body}, true
	case TransT:
		ts, ct := m.tagSlice(t.Tags)
		rs, cr := m.regionSlice(t.Rs)
		params, cp := m.typeSlice1(t.Params)
		r, c0 := m.region(t.R)
		if !ct && !cr && !cp && !c0 {
			return t, false
		}
		return TransT{Tags: ts, Rs: rs, Params: params, R: r}, true
	case LeftT:
		body, cb := m.typ1(t.Body)
		if !cb {
			return t, false
		}
		return LeftT{Body: body}, true
	case RightT:
		body, cb := m.typ1(t.Body)
		if !cb {
			return t, false
		}
		return RightT{Body: body}, true
	case SumT:
		l, cl := m.typ1(t.L)
		r, cr := m.typ1(t.R)
		if !cl && !cr {
			return t, false
		}
		return SumT{L: l, R: r}, true
	case ExistRT:
		delta, cd := m.regionSlice(t.Delta)
		m.shRegs = append(m.shRegs, t.Bound)
		body, cb := m.typ1(t.Body)
		m.shRegs = m.shRegs[:len(m.shRegs)-1]
		if !cd && !cb {
			return t, false
		}
		return ExistRT{Bound: t.Bound, Delta: delta, Body: body}, true
	default:
		panic(fmt.Sprintf("gclang: unknown type %T", t))
	}
}

func (m *resolver) tagSlice(ts []tags.Tag) ([]tags.Tag, bool) {
	if len(m.envTags) == 0 {
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
