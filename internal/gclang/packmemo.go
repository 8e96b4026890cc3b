package gclang

import (
	"fmt"

	"psgc/internal/names"
	"psgc/internal/tags"
)

// Descriptor memoization for the packed machine's hot path.
//
// A collector loop mints thousands of packages per collection, and each
// one used to re-resolve its type annotation (witness tag, existential
// body) against the environment and append a fresh pool entry — profiles
// showed that resolution, not mutator work, dominating whole-run time on
// the packed machine. But a descriptor (see cell.go) depends on exactly
// two things: the pack literal in the program text and the bindings of
// its annotation's free variables. Both recur: the literal is fixed
// syntax, and a copy loop re-enters its code block with the same handful
// of region and tag bindings for every cell it copies. So the machine
// keeps, per pack literal, a small cache of (free-variable bindings →
// descriptor index); a hit skips resolution and pool growth entirely,
// which is what lets a collection's packages share one descriptor.
//
// The lowering pass (lower.go) numbers the pack literals of a program
// densely and records, per literal, the frame slots of its annotation's
// free variables — computed by a syntax walk that mirrors the resolver's
// shadow discipline. The memo is therefore a per-machine slice indexed by
// literal number, and validity is checked by value: an entry records what
// those slots held (nil for unbound) when the descriptor was resolved,
// and a hit requires the current slots to hold the same. Resolution only
// ever consults the free variables of what it resolves, so comparing
// exactly those slots is as sound as comparing the whole environment and
// far cheaper. Equality is structural identity (stricter than
// α-equivalence) — a false negative costs one redundant resolution, never
// correctness. The term-variable frame is irrelevant: term variables
// cannot occur in types, the same fact resolver.typ's short-circuit rests
// on.

// memoCap bounds the environments remembered per pack literal. A copy
// loop cycles through one environment per (from, to, tag) combination —
// a handful — while each new collection's fresh to-region retires the
// previous collection's entries; replace-oldest keeps the window tight.
const memoCap = 16

// memoEntry is one resolved descriptor together with what the literal's
// free-variable slots held when it was resolved, in scope order.
type memoEntry struct {
	regs []Region
	tags []tags.Tag
	typs []Type
	desc uint64
}

// litMemo is one literal's cache: a replace-oldest ring of entries, and
// the entry that hit last, which is probed first.
type litMemo struct {
	entries []memoEntry
	next    int
	last    int
}

// memoLookup finds a descriptor for the pack literal valid under the
// current frames.
func (m *EnvMachine) memoLookup(p *lpack) (uint64, bool) {
	lm := &m.memo[p.lit]
	n := len(lm.entries)
	for i, j := 0, lm.last; i < n; i, j = i+1, j+1 {
		if j == n {
			j = 0
		}
		if m.memoValid(&p.sc, &lm.entries[j]) {
			lm.last = j
			return lm.entries[j].desc, true
		}
	}
	return 0, false
}

// memoStore records a freshly resolved descriptor under a snapshot of the
// literal's free-variable slots.
func (m *EnvMachine) memoStore(p *lpack, desc uint64) {
	sc := &p.sc
	e := memoEntry{desc: desc}
	if n := len(sc.regs); n > 0 {
		e.regs = make([]Region, n)
		for i, f := range sc.regs {
			e.regs[i], _ = lookup(m.regs, f.slot, m.gen)
		}
	}
	if n := len(sc.tags); n > 0 {
		e.tags = make([]tags.Tag, n)
		for i, f := range sc.tags {
			e.tags[i], _ = lookup(m.tags, f.slot, m.gen)
		}
	}
	if n := len(sc.typs); n > 0 {
		e.typs = make([]Type, n)
		for i, f := range sc.typs {
			e.typs[i], _ = lookup(m.typs, f.slot, m.gen)
		}
	}
	lm := &m.memo[p.lit]
	if len(lm.entries) < memoCap {
		lm.last = len(lm.entries)
		lm.entries = append(lm.entries, e)
		return
	}
	lm.entries[lm.next] = e
	lm.last = lm.next
	lm.next = (lm.next + 1) % memoCap
}

// memoValid reports whether the entry's recorded slots match the current
// frames — bound slots must carry structurally identical values, unbound
// ones must still be unbound.
func (m *EnvMachine) memoValid(sc *scope, e *memoEntry) bool {
	for i, f := range sc.regs {
		if r, _ := lookup(m.regs, f.slot, m.gen); r != e.regs[i] {
			return false
		}
	}
	for i, f := range sc.tags {
		t, ok := lookup(m.tags, f.slot, m.gen)
		if ok != (e.tags[i] != nil) || (ok && !tagIdentical(t, e.tags[i])) {
			return false
		}
	}
	for i, f := range sc.typs {
		t, ok := lookup(m.typs, f.slot, m.gen)
		if ok != (e.typs[i] != nil) || (ok && !typeIdentical(t, e.typs[i])) {
			return false
		}
	}
	return true
}

// freeVars holds the free variables of a piece of annotation syntax, split
// by namespace and deduplicated; order is irrelevant.
type freeVars struct {
	tags []names.Name
	regs []names.Name
	typs []names.Name
}

// fvWalker accumulates the free variables of annotation syntax under the
// same shadow discipline the resolver uses (see tag1/typ1 in
// resolver.go): a name is free exactly when the resolver would consult
// the environment for it. Unknown syntax forms panic, as they do in the
// resolver — silently skipping one would under-approximate the free set
// and let a stale descriptor validate.
type fvWalker struct {
	fv     freeVars
	shTags []names.Name
	shRegs []names.Name
	shTyps []names.Name
}

func appendName(ns []names.Name, n names.Name) []names.Name {
	for _, have := range ns {
		if have == n {
			return ns
		}
	}
	return append(ns, n)
}

func (w *fvWalker) tag(t tags.Tag) {
	switch t := t.(type) {
	case tags.Int:
	case tags.Var:
		if !shadowed(w.shTags, t.Name) {
			w.fv.tags = appendName(w.fv.tags, t.Name)
		}
	case tags.Prod:
		w.tag(t.L)
		w.tag(t.R)
	case tags.Code:
		for _, a := range t.Args {
			w.tag(a)
		}
	case tags.Exist:
		w.shTags = append(w.shTags, t.Bound)
		w.tag(t.Body)
		w.shTags = w.shTags[:len(w.shTags)-1]
	case tags.Lam:
		w.shTags = append(w.shTags, t.Param)
		w.tag(t.Body)
		w.shTags = w.shTags[:len(w.shTags)-1]
	case tags.App:
		w.tag(t.Fn)
		w.tag(t.Arg)
	default:
		panic(fmt.Sprintf("gclang: unknown tag %T", t))
	}
}

func (w *fvWalker) region(r Region) {
	if rv, ok := r.(RVar); ok && !shadowed(w.shRegs, rv.Name) {
		w.fv.regs = appendName(w.fv.regs, rv.Name)
	}
}

func (w *fvWalker) regions(rs []Region) {
	for _, r := range rs {
		w.region(r)
	}
}

func (w *fvWalker) typ(t Type) {
	switch t := t.(type) {
	case IntT:
	case ProdT:
		w.typ(t.L)
		w.typ(t.R)
	case CodeT:
		for _, tp := range t.TParams {
			w.shTags = append(w.shTags, tp.Name)
		}
		w.shRegs = append(w.shRegs, t.RParams...)
		for _, p := range t.Params {
			w.typ(p)
		}
		w.shRegs = w.shRegs[:len(w.shRegs)-len(t.RParams)]
		w.shTags = w.shTags[:len(w.shTags)-len(t.TParams)]
	case ExistT:
		w.shTags = append(w.shTags, t.Bound)
		w.typ(t.Body)
		w.shTags = w.shTags[:len(w.shTags)-1]
	case AtT:
		w.typ(t.Body)
		w.region(t.R)
	case MT:
		w.regions(t.Rs)
		w.tag(t.Tag)
	case CT:
		w.region(t.From)
		w.region(t.To)
		w.tag(t.Tag)
	case AlphaT:
		if !shadowed(w.shTyps, t.Name) {
			w.fv.typs = appendName(w.fv.typs, t.Name)
		}
	case ExistAlphaT:
		w.regions(t.Delta)
		w.shTyps = append(w.shTyps, t.Bound)
		w.typ(t.Body)
		w.shTyps = w.shTyps[:len(w.shTyps)-1]
	case TransT:
		for _, tg := range t.Tags {
			w.tag(tg)
		}
		w.regions(t.Rs)
		for _, p := range t.Params {
			w.typ(p)
		}
		w.region(t.R)
	case LeftT:
		w.typ(t.Body)
	case RightT:
		w.typ(t.Body)
	case SumT:
		w.typ(t.L)
		w.typ(t.R)
	case ExistRT:
		w.regions(t.Delta)
		w.shRegs = append(w.shRegs, t.Bound)
		w.typ(t.Body)
		w.shRegs = w.shRegs[:len(w.shRegs)-1]
	default:
		panic(fmt.Sprintf("gclang: unknown type %T", t))
	}
}

// packFreeVars computes the free variables of a pack literal's annotation
// — exactly the names cellOf's miss path can ask the frames for,
// with the pack's own binder shadowed over the part it scopes (mirroring
// the shadow pushes in cellOf).
func packFreeVars(v Value) freeVars {
	var w fvWalker
	switch v := v.(type) {
	case PackTag:
		w.tag(v.Tag)
		w.shTags = append(w.shTags, v.Bound)
		w.typ(v.Body)
	case PackAlpha:
		w.regions(v.Delta)
		w.typ(v.Hidden)
		w.shTyps = append(w.shTyps, v.Bound)
		w.typ(v.Body)
	case PackRegion:
		w.regions(v.Delta)
		w.region(v.R)
		w.shRegs = append(w.shRegs, v.Bound)
		w.typ(v.Body)
	case TAppV:
		for _, t := range v.Tags {
			w.tag(t)
		}
		w.regions(v.Rs)
	default:
		panic(fmt.Sprintf("gclang: free variables of non-pack value %T", v))
	}
	return w.fv
}

// tagIdentical is allocation-free structural identity on tags — stricter
// than tags.Equal's α-equivalence, which is fine for cache validity:
// mistaking identical for different costs a re-resolution, nothing more.
func tagIdentical(a, b tags.Tag) bool {
	switch a := a.(type) {
	case tags.Int:
		_, ok := b.(tags.Int)
		return ok
	case tags.Var:
		bb, ok := b.(tags.Var)
		return ok && a.Name == bb.Name
	case tags.Prod:
		bb, ok := b.(tags.Prod)
		return ok && tagIdentical(a.L, bb.L) && tagIdentical(a.R, bb.R)
	case tags.Code:
		bb, ok := b.(tags.Code)
		return ok && tagsIdentical(a.Args, bb.Args)
	case tags.Exist:
		bb, ok := b.(tags.Exist)
		return ok && a.Bound == bb.Bound && tagIdentical(a.Body, bb.Body)
	case tags.Lam:
		bb, ok := b.(tags.Lam)
		return ok && a.Param == bb.Param && tagIdentical(a.Body, bb.Body)
	case tags.App:
		bb, ok := b.(tags.App)
		return ok && tagIdentical(a.Fn, bb.Fn) && tagIdentical(a.Arg, bb.Arg)
	default:
		return false
	}
}

func tagsIdentical(a, b []tags.Tag) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tagIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

func regionsIdentical(a, b []Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func typesIdentical(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !typeIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// typeIdentical is allocation-free structural identity on types.
func typeIdentical(a, b Type) bool {
	switch a := a.(type) {
	case IntT:
		_, ok := b.(IntT)
		return ok
	case ProdT:
		bb, ok := b.(ProdT)
		return ok && typeIdentical(a.L, bb.L) && typeIdentical(a.R, bb.R)
	case CodeT:
		bb, ok := b.(CodeT)
		if !ok || len(a.TParams) != len(bb.TParams) || len(a.RParams) != len(bb.RParams) {
			return false
		}
		for i := range a.TParams {
			if a.TParams[i].Name != bb.TParams[i].Name || !a.TParams[i].Kind.Equal(bb.TParams[i].Kind) {
				return false
			}
		}
		for i := range a.RParams {
			if a.RParams[i] != bb.RParams[i] {
				return false
			}
		}
		return typesIdentical(a.Params, bb.Params)
	case ExistT:
		bb, ok := b.(ExistT)
		return ok && a.Bound == bb.Bound && a.Kind.Equal(bb.Kind) && typeIdentical(a.Body, bb.Body)
	case AtT:
		bb, ok := b.(AtT)
		return ok && a.R == bb.R && typeIdentical(a.Body, bb.Body)
	case MT:
		bb, ok := b.(MT)
		return ok && regionsIdentical(a.Rs, bb.Rs) && tagIdentical(a.Tag, bb.Tag)
	case CT:
		bb, ok := b.(CT)
		return ok && a.From == bb.From && a.To == bb.To && tagIdentical(a.Tag, bb.Tag)
	case AlphaT:
		bb, ok := b.(AlphaT)
		return ok && a.Name == bb.Name
	case ExistAlphaT:
		bb, ok := b.(ExistAlphaT)
		return ok && a.Bound == bb.Bound && regionsIdentical(a.Delta, bb.Delta) && typeIdentical(a.Body, bb.Body)
	case TransT:
		bb, ok := b.(TransT)
		return ok && a.R == bb.R && tagsIdentical(a.Tags, bb.Tags) &&
			regionsIdentical(a.Rs, bb.Rs) && typesIdentical(a.Params, bb.Params)
	case LeftT:
		bb, ok := b.(LeftT)
		return ok && typeIdentical(a.Body, bb.Body)
	case RightT:
		bb, ok := b.(RightT)
		return ok && typeIdentical(a.Body, bb.Body)
	case SumT:
		bb, ok := b.(SumT)
		return ok && typeIdentical(a.L, bb.L) && typeIdentical(a.R, bb.R)
	case ExistRT:
		bb, ok := b.(ExistRT)
		return ok && a.Bound == bb.Bound && regionsIdentical(a.Delta, bb.Delta) && typeIdentical(a.Body, bb.Body)
	default:
		return false
	}
}
