package collector

import (
	"fmt"
	"sync"
	"sync/atomic"

	"psgc/internal/gclang"
	"psgc/internal/names"
	"psgc/internal/regions"
)

// Verified is a dialect's collector after the paper's headline theorem has
// been checked: the code blocks are built, typechecked, and elaborated.
// A Verified is immutable and shared by every compile in the process — the
// typechecker run that certifies the collector is a once-per-process cost,
// not a per-compile one.
type Verified struct {
	Dialect gclang.Dialect
	// Funs are the elaborated collector code blocks, occupying cd offsets
	// 0..len(Funs)-1 in every program linked against this collector.
	Funs []gclang.NamedFun
	// GC is the collection entry point (base/forw dialects).
	GC gclang.AddrV
	// Minor and Major are the two entry points of the generational
	// collector (gen dialect).
	Minor, Major gclang.AddrV
	// Entries lists every entry-point address (gc, or minor+major).
	Entries []regions.Addr
	// Code is Funs lowered for the environment machine, once per process
	// like the certification; every program linked against this collector
	// lowers only its own blocks on top of it (gclang.LowerOnto).
	Code *gclang.Code
}

// NewLayout returns a fresh Layout seeded with the verified collector's
// blocks; mutator code added afterwards lands at the offsets the
// collector's addresses expect. The seeded prefix is shared (collector
// terms are immutable); the returned Layout itself is not safe for
// concurrent use, like any Layout.
func (v *Verified) NewLayout() *Layout {
	l := &Layout{
		Funs:  make([]gclang.NamedFun, len(v.Funs)),
		index: make(map[names.Name]int, len(v.Funs)),
	}
	copy(l.Funs, v.Funs)
	for i, nf := range v.Funs {
		l.index[nf.Name] = i
	}
	return l
}

// cached holds the per-dialect build-and-verify result. Indexed by
// gclang.Dialect (Base, Forw, Gen).
var cached [3]struct {
	once sync.Once
	v    *Verified
	err  error
}

// typechecks counts, per dialect, how many times a collector has been
// built and typechecked in this process. The cache keeps it at one; tests
// and the service's /metrics endpoint observe it.
var typechecks [3]atomic.Int64

// Load returns the verified collector for the dialect, building and
// typechecking it exactly once per process. Concurrent callers share one
// build. An error (impossible unless the collectors themselves are broken)
// is sticky: every Load for the dialect reports it.
func Load(d gclang.Dialect) (*Verified, error) {
	if d < 0 || int(d) >= len(cached) {
		return nil, fmt.Errorf("collector: unknown dialect %v", d)
	}
	s := &cached[d]
	s.once.Do(func() { s.v, s.err = build(d) })
	return s.v, s.err
}

// Typechecks reports how many collector build-and-verify runs have
// happened for the dialect in this process (the cache invariant is 1).
func Typechecks(d gclang.Dialect) int64 {
	if d < 0 || int(d) >= len(typechecks) {
		return 0
	}
	return typechecks[d].Load()
}

// build constructs the dialect's collector and runs the λGC typechecker
// over its blocks — the certification the cache amortizes.
func build(d gclang.Dialect) (*Verified, error) {
	l := &Layout{}
	v := &Verified{Dialect: d}
	switch d {
	case gclang.Base:
		b := BuildBasic(l)
		v.GC = l.Addr(b.GC)
		v.Entries = []regions.Addr{v.GC.Addr}
	case gclang.Forw:
		f := BuildForw(l)
		v.GC = l.Addr(f.GC)
		v.Entries = []regions.Addr{v.GC.Addr}
	case gclang.Gen:
		g := BuildGen(l)
		v.Minor = l.Addr(g.Minor)
		v.Major = l.Addr(g.Major)
		v.Entries = []regions.Addr{v.Minor.Addr, v.Major.Addr}
	default:
		return nil, fmt.Errorf("collector: unknown dialect %v", d)
	}
	typechecks[d].Add(1)
	checker := &gclang.Checker{Dialect: d}
	elab, _, err := checker.CheckProgram(gclang.Program{
		Code: l.Funs,
		Main: gclang.HaltT{V: gclang.Num{N: 0}},
	})
	if err != nil {
		return nil, fmt.Errorf("collector: %s collector does not typecheck: %w", d, err)
	}
	v.Funs = elab.Code
	v.Code = gclang.Lower(elab)
	return v, nil
}
