package gclang

import (
	"fmt"
	"sort"

	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// This file is the environment machine's load-time pass. It lowers every
// code block (and main) into a flat array of nodes that mirrors the λGC
// syntax but reads its variables by frame slot instead of by name.
//
// A block is closed, so its frame holds exactly the names the block itself
// binds: its parameters and the binders of its body. The pass gives each
// such name one slot per namespace (term variables, tags, regions, types).
// Rebinding a name rewrites its slot, which is the overwrite-on-shadow
// discipline the machine relies on anyway (see the EnvMachine type
// comment). Every occurrence the step rules read — term variables, region
// variables, bare tag variables — records its slot; compound tags and the
// annotations of pack literals record the slots of their free variables
// (a scope). Each pack literal also gets a dense index into the machine's
// descriptor memo (packmemo.go). A name that nothing in the block binds
// still gets a slot; the slot is never written, so the name stays unbound
// and resolves to itself (an unbound term variable to Pool.VarCell).
//
// A compiled-program cache holds lowered code for every program it keeps,
// so the representation is compact: a block's terms are one array of
// pointer-free nodes, numbered in pre-order, whose children are array
// indices; values are 8-byte operands indexing small side tables. Nothing
// the step loop does not read is stored. The source term of a node and the
// names of a frame's slots are recomputed from the block's source when an
// image, ClosedCtrl or an error message needs them (sourceAt, names).
//
// Lowered code is immutable: one Code is shared by every machine that
// runs the program, from any number of goroutines. Machines keep their
// frames, generation stamps and memos to themselves.

// The four binder namespaces of a frame.
const (
	nsCells = iota
	nsTags
	nsRegs
	nsTyps
	numNS
)

// tappHeadSlot is the term-variable slot every layout reserves for the
// head of a translucent call (see stepApp); tappHeadName is the name the
// slot carries in images, which no program can bind ('#' never survives
// the pipeline).
const (
	tappHeadSlot int32      = 0
	tappHeadName names.Name = "#tapp-head"
)

type termKind uint8

const (
	tHalt termKind = iota
	tApp
	tLet
	tIfGC
	tOpenTag
	tOpenAlpha
	tLetRegion
	tOnly
	tTypecase
	tIfLeft
	tSet
	tWiden
	tOpenRegion
	tIfReg
	tIf0
)

type opKind uint8

const (
	opVal opKind = iota
	opProj
	opPut
	opGet
	opStrip
	opArith
)

// lnode is one lowered term. Nodes are numbered in pre-order, so a node's
// first subterm (a let's body, a branch's then-arm) is always the next
// node; alt holds the second arm of a two-way branch. Which fields a kind
// uses:
//
//	tHalt       a
//	tApp        a (head), r (index into apps)
//	tLet        op, aux (projection index or ArithKind), x, a, b (arith),
//	            r (put region)
//	tIfGC       r, alt (else)
//	tOpenTag    a, x, r (the tag binder's slot) — tOpenAlpha and
//	            tOpenRegion alike, r binding a type or a region
//	tLetRegion  x (the region binder's slot)
//	tOnly       r, x (count of regions from r)
//	tTypecase   r (index into cases)
//	tIfLeft     x, a, alt (right arm)
//	tSet        a (destination), b (source)
//	tWiden      x, a
//	tIfReg      r (and r+1), alt (else)
//	tIf0        a, alt (else)
//
// x is a frame slot; r indexes the table's regs (or apps, cases) or is a
// slot, as listed.
type lnode struct {
	kind termKind
	op   opKind
	aux  uint8
	x    int32
	a, b operand
	r    int32
	alt  int32
}

type valKind uint8

const (
	vVar     valKind = iota // idx: frame slot
	vConst                  // idx: consts (Num and AddrV, packed at load time)
	vPair                   // idx: pairs
	vInl                    // idx: pairs, first component
	vInr                    // idx: pairs, first component
	vPackTag                // idx: packs
	vPackAlpha
	vPackRegion
	vTApp
	vLam // idx: lams
)

// operand is a value occurrence: a kind in the top four bits and an index
// (a frame slot or a table index, per kind) in the rest.
type operand uint32

const operandIdxBits = 28

func mkOperand(k valKind, idx int) operand {
	if idx >= 1<<operandIdxBits {
		panic("gclang: lowered block too large")
	}
	return operand(uint32(k)<<operandIdxBits | uint32(idx))
}

func (o operand) kind() valKind { return valKind(o >> operandIdxBits) }
func (o operand) idx() int32    { return int32(o & (1<<operandIdxBits - 1)) }

// lreg is a region occurrence: a region variable's frame slot (≥ 0), or
// ^i for the region name rnames[i].
type lreg int32

// ltag is a tag occurrence: a bare variable reads its slot; a compound
// tag with free variables resolves through its scope; a closed tag is
// its own resolution.
type ltag struct {
	src  tags.Tag
	slot int32
	sc   *scope
}

// scope lists the free variables of one piece of syntax with their frame
// slots. Resolution consults it only for the names it lists; a name not in
// it resolves to itself.
type scope struct {
	tags, regs, typs []fvSlot
}

type fvSlot struct {
	name names.Name
	slot int32
}

func (s *scope) empty() bool { return len(s.tags)+len(s.regs)+len(s.typs) == 0 }

// lpack is a pack or tapp literal: its dense memo index, its payload, the
// free variables of its annotation, and the literal itself.
type lpack struct {
	lit int32
	val operand
	sc  scope
	src Value
}

// lapp is a call's tag arguments, region arguments (rs entries of the
// table's regs from r0) and value arguments.
type lapp struct {
	tags   []ltag
	r0, rs int32
	args   []operand
}

// lcase is a typecase: the scrutinee, the four arms (int, λ, ×, ∃), and
// the tag slots the λ, × and ∃ arms bind.
type lcase struct {
	tag            ltag
	arms           [4]int32
	tl, t1, t2, te int32
}

// ltab holds the lowered terms of every block one lowering pass produced,
// and the side tables their nodes index.
type ltab struct {
	nodes  []lnode
	consts []Cell
	pairs  [][2]operand
	packs  []lpack
	lams   []Value
	regs   []lreg
	rnames []Region
	apps   []lapp
	cases  []lcase
}

// lblock is a lowered code block (or main, or a restored control term):
// where its body starts in its table, the slots its parameters bind (tag
// parameters, then region parameters, then term parameters), and its
// frame's width per namespace. lam and seed are what it was lowered from.
type lblock struct {
	tab          *ltab
	root         int32
	params       []int32
	ntags, nregs int32
	width        [numNS]int32
	lam          *LamV
	seed         *[numNS][]names.Name
}

func (b *lblock) tparams() []int32 { return b.params[:b.ntags] }
func (b *lblock) rparams() []int32 { return b.params[b.ntags : b.ntags+b.nregs] }
func (b *lblock) vparams() []int32 { return b.params[b.ntags+b.nregs:] }

// sourceAt returns the term node pc was lowered from: node pc is the
// (pc-root)-th term of the block body in pre-order, the order the lowering
// numbers nodes in.
func (b *lblock) sourceAt(pc int32) Term {
	n := b.root
	var walk func(t Term) Term
	walk = func(t Term) Term {
		if n == pc {
			return t
		}
		n++
		for _, k := range subterms(t) {
			if s := walk(k); s != nil {
				return s
			}
		}
		return nil
	}
	return walk(b.lam.Body)
}

// names recomputes the block's frame layout — slot to name, per
// namespace — by lowering it again: the pass is deterministic.
func (b *lblock) names() [numNS][]names.Name {
	l := newLowerer(0)
	l.block(b.lam, b.seed)
	return l.names
}

// subterms lists a term's immediate subterms in the order the lowering
// visits them.
func subterms(e Term) []Term {
	switch t := e.(type) {
	case HaltT, AppT:
		return nil
	case LetT:
		return []Term{t.Body}
	case IfGCT:
		return []Term{t.Full, t.Else}
	case OpenTagT:
		return []Term{t.Body}
	case OpenAlphaT:
		return []Term{t.Body}
	case LetRegionT:
		return []Term{t.Body}
	case OnlyT:
		return []Term{t.Body}
	case TypecaseT:
		return []Term{t.IntArm, t.LamArm, t.ProdArm, t.ExistArm}
	case IfLeftT:
		return []Term{t.L, t.R}
	case SetT:
		return []Term{t.Body}
	case WidenT:
		return []Term{t.Body}
	case OpenRegionT:
		return []Term{t.Body}
	case IfRegT:
		return []Term{t.Then, t.Else}
	case If0T:
		return []Term{t.Then, t.Else}
	default:
		panic(fmt.Sprintf("gclang: unknown term %T", e))
	}
}

// Code is a program lowered for the environment machine. It is immutable
// and safe to share between goroutines; psgc builds one per compiled
// program, reusing the verified collector's lowered prefix.
type Code struct {
	prog   Program
	blocks []*lblock
	main   *lblock
	lits   int
	width  [numNS]int32
}

// Lower lowers a whole program.
func Lower(p Program) *Code { return LowerOnto(nil, p) }

// LowerOnto lowers p, sharing the lowered blocks of prefix for p's first
// code blocks: those must be prefix's program's blocks, as a program
// linked against a verified collector starts with the collector's. Only
// p's remaining blocks and its main term are lowered here.
func LowerOnto(prefix *Code, p Program) *Code {
	c := &Code{prog: p, blocks: make([]*lblock, len(p.Code))}
	shared := 0
	if prefix != nil {
		shared = len(prefix.blocks)
		if shared > len(p.Code) {
			panic("gclang: lowered prefix is longer than the program")
		}
		for i := 0; i < shared; i++ {
			if p.Code[i].Name != prefix.prog.Code[i].Name {
				panic(fmt.Sprintf("gclang: code block %d (%s) is not the lowered prefix's %s",
					i, p.Code[i].Name, prefix.prog.Code[i].Name))
			}
		}
		copy(c.blocks, prefix.blocks)
		c.lits = prefix.lits
	}
	l := newLowerer(c.lits)
	for i := shared; i < len(p.Code); i++ {
		c.blocks[i] = l.block(&p.Code[i].Fun, nil)
	}
	c.main = l.block(&LamV{Body: p.Main}, nil)
	l.finish()
	c.lits = l.lits
	c.width = c.main.width
	for _, b := range c.blocks {
		for ns := range c.width {
			c.width[ns] = max(c.width[ns], b.width[ns])
		}
	}
	return c
}

// lowerer lowers blocks one at a time into one table, numbering pack
// literals across all of them.
type lowerer struct {
	tab    *ltab
	consts map[Cell]int32
	lits   int

	// The layout of the block being lowered.
	index [numNS]map[names.Name]int32
	names [numNS][]names.Name
}

func newLowerer(lits int) *lowerer {
	return &lowerer{tab: &ltab{}, consts: map[Cell]int32{}, lits: lits}
}

func (l *lowerer) slot(ns int, n names.Name) int32 {
	if s, ok := l.index[ns][n]; ok {
		return s
	}
	s := int32(len(l.names[ns]))
	l.names[ns] = append(l.names[ns], n)
	l.index[ns][n] = s
	return s
}

// block lowers f in a fresh frame whose first slots are the reserved
// translucent-head slot and then, if seed is set, seed's names.
func (l *lowerer) block(f *LamV, seed *[numNS][]names.Name) *lblock {
	b := &lblock{tab: l.tab, lam: f, seed: seed}
	l.names = [numNS][]names.Name{}
	for ns := range l.index {
		l.index[ns] = map[names.Name]int32{}
	}
	l.slot(nsCells, tappHeadName)
	if seed != nil {
		for ns, ids := range seed {
			for _, n := range ids {
				l.slot(ns, n)
			}
		}
	}
	b.params = make([]int32, 0, len(f.TParams)+len(f.RParams)+len(f.Params))
	for _, tp := range f.TParams {
		b.params = append(b.params, l.slot(nsTags, tp.Name))
	}
	for _, r := range f.RParams {
		b.params = append(b.params, l.slot(nsRegs, r))
	}
	for _, p := range f.Params {
		b.params = append(b.params, l.slot(nsCells, p.Name))
	}
	b.ntags, b.nregs = int32(len(f.TParams)), int32(len(f.RParams))
	b.root = l.term(f.Body)
	for ns := range b.width {
		b.width[ns] = int32(len(l.names[ns]))
	}
	return b
}

// finish drops the tables' spare capacity: they grew by appending, and a
// compiled-program cache keeps them for good.
func (l *lowerer) finish() {
	t := l.tab
	t.nodes = clip(t.nodes)
	t.consts = clip(t.consts)
	t.pairs = clip(t.pairs)
	t.packs = clip(t.packs)
	t.lams = clip(t.lams)
	t.regs = clip(t.regs)
	t.rnames = clip(t.rnames)
	t.apps = clip(t.apps)
	t.cases = clip(t.cases)
}

// clip copies s into a slice without spare capacity.
func clip[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// restored lowers a restored control term in a frame whose slots start
// with the image's bound names, in sorted order so the layout does not
// depend on map iteration.
func (l *lowerer) restored(img *MachineImage) *lblock {
	seed := &[numNS][]names.Name{
		sortedNames(img.EnvCells), sortedNames(img.EnvTags),
		sortedNames(img.EnvRegs), sortedNames(img.EnvTyps),
	}
	return l.block(&LamV{Body: img.Ctrl}, seed)
}

func sortedNames[T any](m map[names.Name]T) []names.Name {
	out := make([]names.Name, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// term lowers e and its subterms in pre-order, returning e's node index.
// Operands are lowered before the binders of the node: an operation reads
// the binding in force before its own takes effect.
func (l *lowerer) term(e Term) int32 {
	t := l.tab
	pc := int32(len(t.nodes))
	t.nodes = append(t.nodes, lnode{})
	var n lnode
	switch e := e.(type) {
	case HaltT:
		n = lnode{kind: tHalt, a: l.val(e.V)}
	case AppT:
		app := lapp{tags: make([]ltag, len(e.Tags)), args: make([]operand, len(e.Args))}
		for i, tg := range e.Tags {
			app.tags[i] = l.tag(tg)
		}
		app.r0, app.rs = l.regs(e.Rs...)
		for i, v := range e.Args {
			app.args[i] = l.val(v)
		}
		n = lnode{kind: tApp, a: l.val(e.Fn), r: int32(len(t.apps))}
		t.apps = append(t.apps, app)
	case LetT:
		n = l.op(e.Op)
		n.kind = tLet
		n.x = l.slot(nsCells, e.X)
	case IfGCT:
		n = lnode{kind: tIfGC}
		n.r, _ = l.regs(e.R)
	case OpenTagT:
		n = lnode{kind: tOpenTag, a: l.val(e.V), r: l.slot(nsTags, e.T), x: l.slot(nsCells, e.X)}
	case OpenAlphaT:
		n = lnode{kind: tOpenAlpha, a: l.val(e.V), r: l.slot(nsTyps, e.A), x: l.slot(nsCells, e.X)}
	case LetRegionT:
		n = lnode{kind: tLetRegion, x: l.slot(nsRegs, e.R)}
	case OnlyT:
		n = lnode{kind: tOnly}
		n.r, n.x = l.regs(e.Delta...)
	case TypecaseT:
		n = lnode{kind: tTypecase, r: int32(len(t.cases))}
		t.cases = append(t.cases, lcase{
			tag: l.tag(e.Tag),
			tl:  l.slot(nsTags, e.TL), t1: l.slot(nsTags, e.T1), t2: l.slot(nsTags, e.T2),
			te: l.slot(nsTags, e.Te),
		})
	case IfLeftT:
		n = lnode{kind: tIfLeft, a: l.val(e.V), x: l.slot(nsCells, e.X)}
	case SetT:
		n = lnode{kind: tSet, a: l.val(e.Dst), b: l.val(e.Src)}
	case WidenT:
		n = lnode{kind: tWiden, a: l.val(e.V), x: l.slot(nsCells, e.X)}
	case OpenRegionT:
		n = lnode{kind: tOpenRegion, a: l.val(e.V), r: l.slot(nsRegs, e.R), x: l.slot(nsCells, e.X)}
	case IfRegT:
		n = lnode{kind: tIfReg}
		n.r, _ = l.regs(e.R1, e.R2)
	case If0T:
		n = lnode{kind: tIf0, a: l.val(e.V)}
	default:
		panic(fmt.Sprintf("gclang: unknown term %T", e))
	}
	// Pre-order: the first subterm lands at pc+1.
	for i, k := range subterms(e) {
		at := l.term(k)
		switch {
		case n.kind == tTypecase:
			t.cases[n.r].arms[i] = at
		case i == 1:
			n.alt = at
		}
	}
	t.nodes[pc] = n
	return pc
}

func (l *lowerer) op(o Op) lnode {
	switch o := o.(type) {
	case ValOp:
		return lnode{op: opVal, a: l.val(o.V)}
	case ProjOp:
		return lnode{op: opProj, aux: uint8(o.I), a: l.val(o.V)}
	case PutOp:
		n := lnode{op: opPut, a: l.val(o.V)}
		n.r, _ = l.regs(o.R)
		return n
	case GetOp:
		return lnode{op: opGet, a: l.val(o.V)}
	case StripOp:
		return lnode{op: opStrip, a: l.val(o.V)}
	case ArithOp:
		return lnode{op: opArith, aux: uint8(o.Kind), a: l.val(o.L), b: l.val(o.R)}
	default:
		panic(fmt.Sprintf("gclang: unknown op %T", o))
	}
}

func (l *lowerer) val(v Value) operand {
	t := l.tab
	switch v := v.(type) {
	case Num:
		return l.constant(NumCell(v.N))
	case AddrV:
		return l.constant(AddrCell(v.Addr))
	case Var:
		return mkOperand(vVar, int(l.slot(nsCells, v.Name)))
	case PairV:
		pair := [2]operand{l.val(v.L), l.val(v.R)}
		t.pairs = append(t.pairs, pair)
		return mkOperand(vPair, len(t.pairs)-1)
	case InlV:
		t.pairs = append(t.pairs, [2]operand{l.val(v.Val)})
		return mkOperand(vInl, len(t.pairs)-1)
	case InrV:
		t.pairs = append(t.pairs, [2]operand{l.val(v.Val)})
		return mkOperand(vInr, len(t.pairs)-1)
	case PackTag:
		return l.pack(vPackTag, v, v.Val)
	case PackAlpha:
		return l.pack(vPackAlpha, v, v.Val)
	case PackRegion:
		return l.pack(vPackRegion, v, v.Val)
	case TAppV:
		return l.pack(vTApp, v, v.Val)
	case LamV:
		// A literal code block in a value position resolves through the
		// substitution oracle (see cellOf); its body is lowered only if it
		// is ever called.
		t.lams = append(t.lams, v)
		return mkOperand(vLam, len(t.lams)-1)
	default:
		panic(fmt.Sprintf("gclang: unknown value %T", v))
	}
}

// constant shares one consts entry among a table's equal literals.
func (l *lowerer) constant(c Cell) operand {
	i, ok := l.consts[c]
	if !ok {
		i = int32(len(l.tab.consts))
		l.tab.consts = append(l.tab.consts, c)
		l.consts[c] = i
	}
	return mkOperand(vConst, int(i))
}

func (l *lowerer) pack(kind valKind, v, payload Value) operand {
	p := lpack{lit: int32(l.lits), val: l.val(payload), sc: l.scope(packFreeVars(v)), src: v}
	l.lits++
	l.tab.packs = append(l.tab.packs, p)
	return mkOperand(kind, len(l.tab.packs)-1)
}

func (l *lowerer) scope(fv freeVars) scope {
	var sc scope
	for _, n := range fv.tags {
		sc.tags = append(sc.tags, fvSlot{name: n, slot: l.slot(nsTags, n)})
	}
	for _, n := range fv.regs {
		sc.regs = append(sc.regs, fvSlot{name: n, slot: l.slot(nsRegs, n)})
	}
	for _, n := range fv.typs {
		sc.typs = append(sc.typs, fvSlot{name: n, slot: l.slot(nsTyps, n)})
	}
	return sc
}

func (l *lowerer) tag(t tags.Tag) ltag {
	if v, ok := t.(tags.Var); ok {
		return ltag{src: t, slot: l.slot(nsTags, v.Name)}
	}
	fv := tags.FreeVars(t)
	if len(fv) == 0 {
		return ltag{src: t, slot: -1}
	}
	sc := l.scope(freeVars{tags: sortedNames(fv)})
	return ltag{src: t, slot: -1, sc: &sc}
}

// regs appends region occurrences to the table's regs, returning the index
// of the first and the count.
func (l *lowerer) regs(rs ...Region) (int32, int32) {
	t := l.tab
	first := int32(len(t.regs))
	for _, r := range rs {
		if v, ok := r.(RVar); ok {
			t.regs = append(t.regs, lreg(l.slot(nsRegs, v.Name)))
			continue
		}
		t.regs = append(t.regs, ^lreg(len(t.rnames)))
		t.rnames = append(t.rnames, r)
	}
	return first, int32(len(rs))
}

// NewEnvMachine loads the lowered program into a fresh environment
// machine over the selected memory backend, installing code blocks in the
// cd region at offsets matching their indices exactly as NewMachine does.
func (c *Code) NewEnvMachine(b regions.Backend, d Dialect, capacity int) *EnvMachine {
	m := c.newMachine(d, regions.NewStore[Cell](b, capacity), NewPools())
	for i, nf := range c.prog.Code {
		addr, err := m.Mem.Put(regions.CD, m.Pool.LamCell(nf.Fun))
		if err != nil || addr.Off != i {
			panic(fmt.Sprintf("gclang: code install failed: %v", err))
		}
	}
	m.enterAt(c.main)
	return m
}

func (c *Code) newMachine(d Dialect, mem regions.Store[Cell], pool *Pools) *EnvMachine {
	m := &EnvMachine{
		Core:  Core{Dialect: d, Mem: mem, Pool: pool},
		code:  c,
		cells: make([]slot[Cell], c.width[nsCells]),
		memo:  make([]litMemo, c.lits),
	}
	m.gen = 1
	m.tags = make([]slot[tags.Tag], c.width[nsTags])
	m.regs = make([]slot[Region], c.width[nsRegs])
	m.typs = make([]slot[Type], c.width[nsTyps])
	return m
}
