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
// by namespace and deduplicated.
type freeVars struct {
	tags []names.Name
	regs []names.Name
	typs []names.Name
}

// packFreeVars computes the free variables of a pack literal's annotation
// — exactly the names cellOf's miss path can ask the frames for, with the
// pack's own binder scoping its body as in cellOf. The payload is not
// annotation: it is lowered as an operand of its own. freeAcc panics on a
// syntax form it does not know, as the resolver does, so the set is never
// under-approximated (which would let a stale descriptor validate). Each
// namespace's names come sorted, so lowering is deterministic.
func packFreeVars(v Value) freeVars {
	fs, sc := newFreeSets(), newScopes()
	a := &freeAcc{out: fs}
	switch v := v.(type) {
	case PackTag:
		a.tag(v.Tag, sc)
		sc.with(sc.tagvs, []names.Name{v.Bound}, func() { a.typ(v.Body, sc) })
	case PackAlpha:
		a.regionList(v.Delta, sc)
		a.typ(v.Hidden, sc)
		sc.with(sc.types, []names.Name{v.Bound}, func() { a.typ(v.Body, sc) })
	case PackRegion:
		a.regionList(v.Delta, sc)
		a.region(v.R, sc)
		sc.with(sc.regs, []names.Name{v.Bound}, func() { a.typ(v.Body, sc) })
	case TAppV:
		a.tagList(v.Tags, sc)
		a.regionList(v.Rs, sc)
	default:
		panic(fmt.Sprintf("gclang: free variables of non-pack value %T", v))
	}
	return freeVars{tags: sortedNames(fs.tagvs), regs: sortedNames(fs.regs), typs: sortedNames(fs.types)}
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
