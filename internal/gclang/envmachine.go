package gclang

import (
	"errors"
	"fmt"

	"psgc/internal/fault"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// EnvMachine executes λGC terms under the same allocation semantics as
// Machine, but resolves variables through environments instead of rewriting
// the term with a substitution at every transition.
//
// The design exploits two facts about λGC:
//
//   - Terms never return (the language is CPS): control only descends into
//     subterms or jumps to a code block, so no binding made inside a block
//     is ever needed after control leaves its scope. The machine therefore
//     needs no continuation stack, and shadowing can overwrite: once a
//     binder rebinds a name, the outer binding is dead.
//
//   - The machine only ever substitutes closed payloads (Subst.Closed):
//     values, tags, regions, and types flowing through the environment have
//     no free names, so sequential substitution coincides with environment
//     lookup (innermost wins) and no capture is possible.
//
// The machine runs lowered code (lower.go): a load-time pass gives every
// code block a frame layout with one slot per binder name and namespace,
// and records in every variable occurrence the slot it reads. The
// environment is four flat slot frames — term variables, tags, regions,
// types — each slot stamped with the generation that wrote it. Code blocks
// are closed, so a call bumps the generation (unbinding every slot at
// once) and writes only its parameters: its cost follows the parameter
// count, and no step looks a name up in a map.
//
// The machine is cell-native: memory is regions.Store[Cell] and the
// term-variable frame holds packed cells, not boxed Values (see cell.go).
// Values appear only at the term boundary — number and address literals
// are packed at load time, compound literals when the step that reads
// them runs, and the halt result is unpacked once. This is
// what lets the flat arena's contiguity show end-to-end: a steady-state
// step touches no host-GC-visible allocation at all, where a heap of
// interface-boxed Values would pay one box per Put.
//
// Bindings are resolved eagerly: every value, tag, region, or type entering
// a frame is fully resolved against the current frames first, so stored
// payloads are always closed. Only term bodies stay unresolved — they are
// the typechecked artifact; closures exist only at machine level.
//
// The EnvMachine is observationally equivalent to Machine: same memory
// effects in the same order, same step counts, same regions.Memory counters
// (TestEnvMachineAgreesWithSubst co-steps both). Ghost mode (Ψ maintenance)
// is not supported here; ghost runs use the substitution machine, which
// remains the semantic oracle.
type EnvMachine struct {
	Core

	// code is the lowered program. The control term is node pc of block
	// blk (main's, a code block's, or a restored control term's), whose
	// nodes live in tab; or, when pc is tcallPC, the call a translucent
	// head was just rewritten to.
	code  *Code
	blk   *lblock
	tab   *ltab
	pc    int32
	tcall tcall

	// cells is the term-variable frame. The syntax frames, the generation
	// stamp, and the resolution state live in the embedded resolver.
	cells []slot[Cell]

	resolver

	// memo caches resolved pack descriptors per pack literal, indexed by
	// the literal's number (see packmemo.go).
	memo []litMemo

	// dyn holds blocks lowered at run time: code called from the Lams pool
	// beyond the program's own blocks (a literal code block a program put
	// into memory itself).
	dyn map[uint64]*lblock

	// Scratch buffers reused across calls for pre-entry operand resolution.
	scratchTags  []tags.Tag
	scratchRegs  []Region
	scratchCells []Cell
	scratchNames []regions.Name
}

// tcallPC marks the control term as the machine's translucent call.
const tcallPC int32 = -1

// tcall is the call a translucent head rewrites to: the head sits in
// tappHeadSlot, the recorded tags and regions are already resolved, and
// the value arguments are still those of the rewritten call (node app).
type tcall struct {
	app  int32
	tags []tags.Tag
	rs   []Region
}

// NewEnvMachine loads a program into a fresh map-backed memory with the
// given region capacity, installing code blocks in the cd region at
// offsets matching their indices exactly as NewMachine does.
func NewEnvMachine(d Dialect, p Program, capacity int) *EnvMachine {
	return NewEnvMachineOn(regions.BackendMap, d, p, capacity)
}

// NewEnvMachineOn is NewEnvMachine over the selected memory backend. It
// lowers p first; callers that run one program many times lower it once
// (Lower) and use Code.NewEnvMachine.
func NewEnvMachineOn(b regions.Backend, d Dialect, p Program, capacity int) *EnvMachine {
	return Lower(p).NewEnvMachine(b, d, capacity)
}

// Run steps the machine until halt, an error, or the fuel limit.
func (m *EnvMachine) Run(fuel int) (Value, error) { return Run(m, fuel) }

// RunInt runs the machine and requires an integer result.
func (m *EnvMachine) RunInt(fuel int) (int, error) { return RunInt(m, fuel) }

// PendingCall reports the code address about to be invoked when the control
// term is a call whose head is (or is bound to) an address. It allocates
// nothing; run loops use it to count collector entries.
func (m *EnvMachine) PendingCall() (regions.Addr, bool) {
	var c Cell
	if m.pc == tcallPC {
		c, _ = lookup(m.cells, tappHeadSlot, m.gen)
	} else if n := &m.tab.nodes[m.pc]; n.kind == tApp {
		switch n.a.kind() {
		case vConst:
			c = m.tab.consts[n.a.idx()]
		case vVar:
			c, _ = lookup(m.cells, n.a.idx(), m.gen)
		}
	}
	if c.Tag == CellAddr {
		return c.Addr(), true
	}
	return regions.Addr{}, false
}

// Step performs one machine transition. Like Machine.Step, an error leaves
// the machine state unchanged: rules validate their side conditions before
// applying memory effects.
func (m *EnvMachine) Step() error {
	if m.Halted {
		return errors.New("gclang: step after halt")
	}
	if r := fault.Installed(); r != nil {
		if err := m.injectFaults(r); err != nil {
			return err
		}
	}
	if m.Event != nil {
		m.ev.Kind = StepNone
	}
	if err := m.step(); err != nil {
		return err
	}
	m.Steps++
	if m.Event != nil && m.ev.Kind != StepNone {
		m.ev.Step = m.Steps
		m.Event(m.ev)
	}
	return nil
}

// bindCell, bindTag, bindRegion and bindType write a slot of the current
// generation.
func (m *EnvMachine) bindCell(s int32, c Cell)     { m.cells[s] = slot[Cell]{v: c, gen: m.gen} }
func (m *EnvMachine) bindTag(s int32, t tags.Tag)  { m.tags[s] = slot[tags.Tag]{v: t, gen: m.gen} }
func (m *EnvMachine) bindRegion(s int32, r Region) { m.regs[s] = slot[Region]{v: r, gen: m.gen} }
func (m *EnvMachine) bindType(s int32, t Type)     { m.typs[s] = slot[Type]{v: t, gen: m.gen} }

// source returns the current control term as syntax: the term the
// substitution machine would be holding, before substitution.
func (m *EnvMachine) source() Term {
	if m.pc == tcallPC {
		app := m.blk.sourceAt(m.tcall.app).(AppT)
		return AppT{Fn: Var{Name: tappHeadName}, Tags: m.tcall.tags, Rs: m.tcall.rs, Args: app.Args}
	}
	return m.blk.sourceAt(m.pc)
}

// stuck reports a stuck control term; formatting it is the cold path.
func (m *EnvMachine) stuck(format string, args ...any) error {
	return stuck(m.source(), format, args...)
}

// step performs the transition out of the current control term, moving pc.
func (m *EnvMachine) step() error {
	if m.pc == tcallPC {
		return m.stepTCall()
	}
	t := m.tab
	n := &t.nodes[m.pc]
	switch n.kind {
	case tHalt:
		c := m.cellOf(n.a)
		m.Halted = true
		m.Result = m.Pool.Decode(c)
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepHalt}
		}
		return nil
	case tApp:
		return m.stepApp(n)
	case tLet:
		c, err := m.stepOp(n)
		if err != nil {
			return fmt.Errorf("%w: in %s", err, m.source().(LetT).Op)
		}
		m.bindCell(n.x, c)
	case tIfGC:
		r := m.resolveRegion(t.regs[n.r])
		rn, ok := r.(RName)
		if !ok {
			return m.stuck("ifgc on region variable %s", r)
		}
		if !m.Mem.Full(rn.Name) {
			m.pc = n.alt
			return nil
		}
	case tOpenTag:
		c := m.cellOf(n.a)
		pk, ok := PackTagDesc{}, false
		if c.Tag == CellPackTag {
			pk, ok = m.Pool.packTagAt(c.A)
		}
		if !ok {
			return m.stuck("open of non-package %s", m.source().(OpenTagT).V)
		}
		m.bindTag(n.r, pk.Tag)
		m.bindCell(n.x, m.Pool.cellOfWord(c.B))
	case tOpenAlpha:
		c := m.cellOf(n.a)
		pk, ok := PackAlphaDesc{}, false
		if c.Tag == CellPackAlpha {
			pk, ok = m.Pool.packAlphaAt(c.A)
		}
		if !ok {
			return m.stuck("open of non-package %s", m.source().(OpenAlphaT).V)
		}
		m.bindType(n.r, pk.Hidden)
		m.bindCell(n.x, m.Pool.cellOfWord(c.B))
	case tLetRegion:
		nu := m.Mem.NewRegion()
		m.bindRegion(n.x, RName{Name: nu})
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepNewRegion, Addr: regions.Addr{Region: nu}}
		}
	case tOnly:
		keep := m.scratchNames[:0]
		for _, lr := range t.regs[n.r : n.r+n.x] {
			r := m.resolveRegion(lr)
			rn, ok := r.(RName)
			if !ok {
				return m.stuck("only with region variable %s", r)
			}
			keep = append(keep, rn.Name)
		}
		m.scratchNames = keep
		if err := m.Mem.Only(keep); err != nil {
			return m.stuck("%v", err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepOnly}
		}
	case tTypecase:
		return m.stepTypecase(&t.cases[n.r])
	case tIfLeft:
		c := m.cellOf(n.a)
		switch c.Tag {
		case CellInl:
			m.bindCell(n.x, c)
		case CellInr:
			m.bindCell(n.x, c)
			m.pc = n.alt
			return nil
		default:
			return m.stuck("ifleft on untagged value %s", m.source().(IfLeftT).V)
		}
	case tSet:
		dst := m.cellOf(n.a)
		if dst.Tag != CellAddr {
			return m.stuck("set destination %s is not an address", m.source().(SetT).Dst)
		}
		src := m.cellOf(n.b)
		if err := m.Mem.Set(dst.Addr(), src); err != nil {
			return m.stuck("%v", err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepSet, Addr: dst.Addr()}
		}
	case tWiden:
		// Operationally a no-op (§7.1): the cast re-views memory. Ghost Ψ
		// maintenance lives in the substitution machine only.
		m.bindCell(n.x, m.cellOf(n.a))
	case tOpenRegion:
		c := m.cellOf(n.a)
		pk, ok := PackRegionDesc{}, false
		if c.Tag == CellPackRegion {
			pk, ok = m.Pool.packRegionAt(c.A)
		}
		if !ok {
			return m.stuck("open of non-region-package %s", m.source().(OpenRegionT).V)
		}
		m.bindRegion(n.r, pk.R)
		m.bindCell(n.x, m.Pool.cellOfWord(c.B))
	case tIfReg:
		n1, ok1 := m.resolveRegion(t.regs[n.r]).(RName)
		n2, ok2 := m.resolveRegion(t.regs[n.r+1]).(RName)
		if !ok1 || !ok2 {
			return m.stuck("ifreg on region variables")
		}
		if n1 != n2 {
			m.pc = n.alt
			return nil
		}
	case tIf0:
		c := m.cellOf(n.a)
		if c.Tag != CellNum {
			return m.stuck("if0 on non-integer %s", m.source().(If0T).V)
		}
		if c.Num() != 0 {
			m.pc = n.alt
			return nil
		}
	default:
		return m.stuck("no rule for node kind %d", n.kind)
	}
	m.pc++
	return nil
}

// stepApp mirrors Machine.stepApp: translucent heads first restore their
// recorded tags in a step of their own, then the code block is fetched from
// memory and its binders are instantiated. The call protocol resolves every
// operand against the current frames first, then starts the callee's
// frame and binds the parameters — code blocks are closed, so nothing
// else can be referenced from the body.
func (m *EnvMachine) stepApp(n *lnode) error {
	app := &m.tab.apps[n.r]
	fc := m.cellOf(n.a)
	if fc.Tag == CellTApp {
		if len(app.tags) != 0 || app.rs != 0 {
			return m.stuck("translucent call with extra tags or regions")
		}
		return m.rewriteTApp(m.pc, fc)
	}
	callTags := m.scratchTags[:0]
	for i := range app.tags {
		callTags = append(callTags, m.resolveTag(&app.tags[i]))
	}
	callRegs := m.scratchRegs[:0]
	for _, lr := range m.tab.regs[app.r0 : app.r0+app.rs] {
		callRegs = append(callRegs, m.resolveRegion(lr))
	}
	m.scratchTags, m.scratchRegs = callTags, callRegs
	return m.call(fc, callTags, callRegs, app.args)
}

// stepTCall performs the call a translucent rewrite left in control. Its
// tags and regions were resolved when the handle was pooled.
func (m *EnvMachine) stepTCall() error {
	fc, _ := lookup(m.cells, tappHeadSlot, m.gen)
	if fc.Tag == CellTApp {
		if len(m.tcall.tags) != 0 || len(m.tcall.rs) != 0 {
			return m.stuck("translucent call with extra tags or regions")
		}
		return m.rewriteTApp(m.tcall.app, fc)
	}
	return m.call(fc, m.tcall.tags, m.tcall.rs, m.tab.apps[m.tab.nodes[m.tcall.app].r].args)
}

// rewriteTApp unwraps a translucent head for the call at node app. The
// pooled head is fully resolved; the arguments are left in the rewritten
// call for the next step to resolve — the frames cannot change between the
// rewrite and the call, so the lazy resolution coincides with an eager one.
// The head stays a cell, parked in the reserved tappHeadSlot, so the
// rewrite allocates nothing.
func (m *EnvMachine) rewriteTApp(app int32, fc Cell) error {
	ta, ok := m.Pool.tappAt(fc.A)
	if !ok {
		return m.stuck("call through corrupted translucent handle")
	}
	m.bindCell(tappHeadSlot, m.Pool.cellOfWord(fc.B))
	m.tcall = tcall{app: app, tags: ta.Tags, rs: ta.Rs}
	m.pc = tcallPC
	return nil
}

// call enters the code block fc points to with already resolved tags and
// regions; the value arguments are resolved here, after the checks.
func (m *EnvMachine) call(fc Cell, callTags []tags.Tag, callRegs []Region, args []operand) error {
	if fc.Tag != CellAddr {
		return m.stuck("call of non-address %s", m.Pool.Decode(fc))
	}
	addr := fc.Addr()
	cc, err := m.Mem.Get(addr)
	if err != nil {
		return m.stuck("%v", err)
	}
	var blk *lblock
	if cc.Tag == CellLam {
		blk = m.block(cc.A)
	}
	if blk == nil {
		return m.stuck("call of non-code cell %s", addr)
	}
	if len(callTags) != int(blk.ntags) || len(callRegs) != int(blk.nregs) || len(args) != len(blk.vparams()) {
		return m.stuck("arity mismatch calling %s", addr)
	}
	if m.Event != nil {
		m.ev = StepEvent{Kind: StepCall, Addr: addr}
	}
	callCells := m.scratchCells[:0]
	for _, a := range args {
		callCells = append(callCells, m.cellOf(a))
	}
	m.scratchCells = callCells
	m.enter(blk)
	for i, s := range blk.tparams() {
		m.bindTag(s, callTags[i])
	}
	for i, s := range blk.rparams() {
		m.bindRegion(s, callRegs[i])
	}
	for i, s := range blk.vparams() {
		m.bindCell(s, callCells[i])
	}
	return nil
}

// enter starts blk's frame: bumping the generation unbinds every slot of
// every frame at once. On the (once in 2^32 calls) wrap-around the stamps
// are cleared, so no stale stamp can ever match again.
func (m *EnvMachine) enter(blk *lblock) {
	m.gen++
	if m.gen == 0 {
		clear(m.cells)
		clear(m.tags)
		clear(m.regs)
		clear(m.typs)
		m.gen = 1
	}
	m.enterAt(blk)
}

// enterAt moves control to the start of blk's body.
func (m *EnvMachine) enterAt(blk *lblock) {
	m.blk, m.tab, m.pc = blk, blk.tab, blk.root
}

// block returns the lowered code block for a Lams pool index. The program's
// own blocks were lowered at load time; a literal block the program pooled
// itself is lowered on its first call.
func (m *EnvMachine) block(idx uint64) *lblock {
	if idx < uint64(len(m.code.blocks)) {
		return m.code.blocks[idx]
	}
	lam, ok := m.Pool.lamAt(idx)
	if !ok {
		return nil
	}
	if blk := m.dyn[idx]; blk != nil {
		return blk
	}
	l := newLowerer(len(m.memo))
	blk := l.block(&lam, nil)
	m.adopt(l, blk)
	if m.dyn == nil {
		m.dyn = map[uint64]*lblock{}
	}
	m.dyn[idx] = blk
	return blk
}

// adopt sizes the memo for the literals l numbered and the frames for blk.
func (m *EnvMachine) adopt(l *lowerer, blk *lblock) {
	m.memo = append(m.memo, make([]litMemo, l.lits-len(m.memo))...)
	m.cells = grow(m.cells, blk.width[nsCells])
	m.tags = grow(m.tags, blk.width[nsTags])
	m.regs = grow(m.regs, blk.width[nsRegs])
	m.typs = grow(m.typs, blk.width[nsTyps])
}

func grow[T any](f []slot[T], n int32) []slot[T] {
	if int(n) > len(f) {
		f = append(f, make([]slot[T], int(n)-len(f))...)
	}
	return f
}

// stepOp evaluates a let-bound operation, returning the bound cell.
func (m *EnvMachine) stepOp(n *lnode) (Cell, error) {
	switch n.op {
	case opVal:
		return m.cellOf(n.a), nil
	case opProj:
		c := m.cellOf(n.a)
		if c.Tag != CellPair {
			return Cell{}, fmt.Errorf("%w: projection from non-pair %s", ErrStuck, m.Pool.Decode(c))
		}
		if n.aux == 1 {
			return m.Pool.cellOfWord(c.A), nil
		}
		return m.Pool.cellOfWord(c.B), nil
	case opPut:
		r := m.resolveRegion(m.tab.regs[n.r])
		rn, ok := r.(RName)
		if !ok {
			return Cell{}, fmt.Errorf("%w: put into region variable %s", ErrStuck, r)
		}
		c := m.cellOf(n.a)
		addr, err := m.Mem.Put(rn.Name, c)
		if err != nil {
			return Cell{}, fmt.Errorf("%w: %v", ErrStuck, err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepPut, Addr: addr, Words: m.Pool.CellWords(c)}
		}
		return AddrCell(addr), nil
	case opGet:
		c := m.cellOf(n.a)
		if c.Tag != CellAddr {
			return Cell{}, fmt.Errorf("%w: get from non-address %s", ErrStuck, m.Pool.Decode(c))
		}
		a := c.Addr()
		cell, err := m.Mem.Get(a)
		if err != nil {
			return Cell{}, err
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepGet, Addr: a}
		}
		return cell, nil
	case opStrip:
		c := m.cellOf(n.a)
		switch c.Tag {
		case CellInl, CellInr:
			return m.Pool.cellOfWord(c.A), nil
		default:
			return Cell{}, fmt.Errorf("%w: strip of untagged value %s", ErrStuck, m.Pool.Decode(c))
		}
	case opArith:
		l := m.cellOf(n.a)
		r := m.cellOf(n.b)
		if l.Tag != CellNum || r.Tag != CellNum {
			return Cell{}, fmt.Errorf("%w: arithmetic on non-integers", ErrStuck)
		}
		switch ArithKind(n.aux) {
		case Add:
			return NumCell(l.Num() + r.Num()), nil
		case Sub:
			return NumCell(l.Num() - r.Num()), nil
		case Mul:
			return NumCell(l.Num() * r.Num()), nil
		default:
			return Cell{}, fmt.Errorf("%w: unknown operator", ErrStuck)
		}
	default:
		return Cell{}, fmt.Errorf("%w: unknown op kind %d", ErrStuck, n.op)
	}
}

// stepTypecase dispatches on the β-normal form of the resolved scrutinee,
// exactly as Machine.stepTypecase does on the substituted one.
func (m *EnvMachine) stepTypecase(tc *lcase) error {
	nf, err := tags.Normalize(m.resolveTag(&tc.tag))
	if err != nil {
		return m.stuck("%v", err)
	}
	switch t := nf.(type) {
	case tags.Int:
		m.pc = tc.arms[0]
	case tags.Code:
		if len(t.Args) != 1 {
			return m.stuck("typecase on %d-ary code tag %s", len(t.Args), nf)
		}
		m.bindTag(tc.tl, t.Args[0])
		m.pc = tc.arms[1]
	case tags.Prod:
		m.bindTag(tc.t1, t.L)
		m.bindTag(tc.t2, t.R)
		m.pc = tc.arms[2]
	case tags.Exist:
		m.bindTag(tc.te, tags.Lam{Param: t.Bound, Body: t.Body})
		m.pc = tc.arms[3]
	default:
		return m.stuck("typecase on open tag %s", nf)
	}
	return nil
}

// resolveRegion resolves a lowered region occurrence. An unbound variable
// resolves to itself, which only a stuck program ever reads.
func (m *EnvMachine) resolveRegion(r lreg) Region {
	if r < 0 {
		return m.tab.rnames[^r]
	}
	if v, ok := lookup(m.regs, int32(r), m.gen); ok {
		return v
	}
	return RVar{Name: m.blk.names()[nsRegs][r]}
}

// cellOf resolves a term-position value against the frames and packs it:
// term variables come straight out of their slot (already packed, already
// closed), number and address literals were packed at load time, and the
// syntax-bearing forms resolve their tag/region/type components through
// the shared resolver before pooling. Steady-state steps (variables, small
// literals) allocate nothing.
func (m *EnvMachine) cellOf(o operand) Cell {
	t := m.tab
	switch o.kind() {
	case vVar:
		if s := &m.cells[o.idx()]; s.gen == m.gen {
			return s.v
		}
		return m.Pool.VarCell(m.blk.names()[nsCells][o.idx()])
	case vConst:
		return t.consts[o.idx()]
	case vPair:
		p := &t.pairs[o.idx()]
		l := m.cellOf(p[0])
		r := m.cellOf(p[1])
		return Cell{Tag: CellPair, A: m.Pool.wordOf(l), B: m.Pool.wordOf(r)}
	case vInl:
		return Cell{Tag: CellInl, A: m.Pool.wordOf(m.cellOf(t.pairs[o.idx()][0]))}
	case vInr:
		return Cell{Tag: CellInr, A: m.Pool.wordOf(m.cellOf(t.pairs[o.idx()][0]))}
	// In the pack cases the payload is packed first (it may spill into the
	// cells pool) and the descriptor second, memoized per literal: on a
	// hit the annotation is not re-resolved and the pool does not grow.
	case vPackTag:
		p := &t.packs[o.idx()]
		val := m.cellOf(p.val)
		desc, hit := m.memoLookup(p)
		if !hit {
			src := p.src.(PackTag)
			m.sc = &p.sc
			tg, _ := m.tag(src.Tag)
			m.shTags = append(m.shTags, src.Bound)
			body, _ := m.typ(src.Body)
			m.shTags = m.shTags[:len(m.shTags)-1]
			desc = uint64(len(m.Pool.packTags))
			m.Pool.packTags = append(m.Pool.packTags, PackTagDesc{
				Bound: src.Bound, Kind: src.Kind, Tag: tg, Body: body,
			})
			m.memoStore(p, desc)
		}
		return Cell{Tag: CellPackTag, A: desc, B: m.Pool.wordOf(val)}
	case vPackAlpha:
		p := &t.packs[o.idx()]
		val := m.cellOf(p.val)
		desc, hit := m.memoLookup(p)
		if !hit {
			src := p.src.(PackAlpha)
			m.sc = &p.sc
			delta, _ := m.regionSlice(src.Delta)
			hidden, _ := m.typ(src.Hidden)
			m.shTyps = append(m.shTyps, src.Bound)
			body, _ := m.typ(src.Body)
			m.shTyps = m.shTyps[:len(m.shTyps)-1]
			desc = uint64(len(m.Pool.packAlphas))
			m.Pool.packAlphas = append(m.Pool.packAlphas, PackAlphaDesc{
				Bound: src.Bound, Delta: delta, Hidden: hidden, Body: body,
			})
			m.memoStore(p, desc)
		}
		return Cell{Tag: CellPackAlpha, A: desc, B: m.Pool.wordOf(val)}
	case vPackRegion:
		p := &t.packs[o.idx()]
		val := m.cellOf(p.val)
		desc, hit := m.memoLookup(p)
		if !hit {
			src := p.src.(PackRegion)
			m.sc = &p.sc
			delta, _ := m.regionSlice(src.Delta)
			r, _ := m.region(src.R)
			m.shRegs = append(m.shRegs, src.Bound)
			body, _ := m.typ(src.Body)
			m.shRegs = m.shRegs[:len(m.shRegs)-1]
			desc = uint64(len(m.Pool.packRegions))
			m.Pool.packRegions = append(m.Pool.packRegions, PackRegionDesc{
				Bound: src.Bound, Delta: delta, R: r, Body: body,
			})
			m.memoStore(p, desc)
		}
		return Cell{Tag: CellPackRegion, A: desc, B: m.Pool.wordOf(val)}
	case vTApp:
		p := &t.packs[o.idx()]
		val := m.cellOf(p.val)
		desc, hit := m.memoLookup(p)
		if !hit {
			src := p.src.(TAppV)
			m.sc = &p.sc
			ts, _ := m.tagSlice(src.Tags)
			rs, _ := m.regionSlice(src.Rs)
			desc = uint64(len(m.Pool.tapps))
			m.Pool.tapps = append(m.Pool.tapps, TAppDesc{Tags: ts, Rs: rs})
			m.memoStore(p, desc)
		}
		return Cell{Tag: CellTApp, A: desc, B: m.Pool.wordOf(val)}
	case vLam:
		// Rare: code blocks live in cd and are closed; a literal block only
		// flows through the environment when a program embeds one in a value
		// position. Delegate its binder structure to the oracle substitution.
		resolved, ok := m.substView().Value(t.lams[o.idx()]).(LamV)
		if !ok {
			panic("gclang: lam resolution changed value form")
		}
		return m.Pool.LamCell(resolved)
	default:
		panic(fmt.Sprintf("gclang: unknown value kind %d", o.kind()))
	}
}

// substView exposes the current frames as a closed simultaneous
// substitution, naming each bound slot through the running block's layout.
// It serves the rare LamV case and ClosedCtrl; the term-variable frame is
// decoded into a fresh map — an allocation those paths can afford.
func (m *EnvMachine) substView() *Subst {
	if len(m.shTags) != 0 || len(m.shRegs) != 0 || len(m.shTyps) != 0 {
		// Values never occur inside types, so a LamV is never resolved under
		// a shadowing binder; see the resolver ordering in cellOf().
		panic("gclang: lam resolution under binder")
	}
	ns := m.blk.names()
	vals := map[names.Name]Value{}
	for n, c := range frameMap(ns[nsCells], m.cells, m.gen) {
		vals[n] = m.Pool.Decode(c)
	}
	return &Subst{
		Vals:   vals,
		Tags:   frameMap(ns[nsTags], m.tags, m.gen),
		Regs:   frameMap(ns[nsRegs], m.regs, m.gen),
		Types:  frameMap(ns[nsTyps], m.typs, m.gen),
		Closed: true,
	}
}

// frameMap names the bound slots of one frame through a layout.
func frameMap[T any](ns []names.Name, f []slot[T], gen uint32) map[names.Name]T {
	out := make(map[names.Name]T, len(ns))
	for i, n := range ns {
		if f[i].gen == gen {
			out[n] = f[i].v
		}
	}
	return out
}
