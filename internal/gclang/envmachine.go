package gclang

import (
	"errors"
	"fmt"
	"unsafe"

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
// The machine is cell-native: memory is regions.Store[Cell] and the
// term-variable environment binds packed cells, not boxed Values (see
// cell.go). Values appear only at the term boundary — literals in the
// control term are packed on first resolution, and the halt result is
// unpacked once. This is what lets the flat arena's contiguity show
// end-to-end: a steady-state step touches no host-GC-visible allocation at
// all, where a heap of interface-boxed Values would pay one box per Put.
//
// Bindings are resolved eagerly: every value, tag, region, or type entering
// the environment is fully resolved against the current environment first,
// so stored payloads are always closed. Only term bodies stay unresolved —
// they are the typechecked artifact; closures exist only at machine level.
//
// Code blocks are closed, so a call resets the environment to exactly the
// call's bindings: the maps are cleared (retaining their buckets) and the
// parameters rebound, giving steady-state allocation-free stepping.
//
// The EnvMachine is observationally equivalent to Machine: same memory
// effects in the same order, same step counts, same regions.Memory counters
// (TestEnvMachineAgreesWithSubst co-steps both). Ghost mode (Ψ maintenance)
// is not supported here; ghost runs use the substitution machine, which
// remains the semantic oracle.
type EnvMachine struct {
	Dialect Dialect
	Mem     regions.Store[Cell]

	// Pool holds the typed side pools this machine's packed cells index
	// into. Pool handles are machine-local: cells from one machine are
	// meaningless under another machine's pools.
	Pool *Pools

	// Ctrl is the current control term: a subterm of the loaded program (or
	// of a code block), interpreted relative to the environment.
	Ctrl Term

	// Steps counts machine transitions taken so far.
	Steps int

	// Halted and Result are set once the program reaches halt v. Result is
	// the decoded (boxed) value — the one place a finished run pays a
	// decode.
	Halted bool
	Result Value

	// Event, if non-nil, is called after every classified step with a
	// fixed-size StepEvent, exactly as Machine.Event is (see events.go).
	// This replaces the old Trace hook, which synthesized a resolved
	// pre-step term per step — an allocation cost that made tracing
	// opt-in. Emitting a StepEvent allocates nothing, so the hook stays
	// installed on every request.
	Event func(StepEvent)

	// ev is the scratch event the step rules fill when Event is set.
	ev StepEvent

	// envCells is the term-variable namespace, binding packed cells. The
	// syntax namespaces and shadow stacks live in the embedded resolver.
	// Overwrite-on-shadow is sound because CPS control never returns to an
	// outer scope (see the type comment).
	envCells map[names.Name]Cell

	resolver

	// packMemo caches resolved pack descriptors per pack literal in the
	// program text (see packmemo.go): a collector loop re-packs under the
	// same type-level environment thousands of times, and a hit skips
	// both annotation resolution and pool growth.
	packMemo map[unsafe.Pointer]*nodeMemo

	// Scratch buffers reused across calls for pre-clear operand resolution.
	scratchTags  []tags.Tag
	scratchRegs  []Region
	scratchCells []Cell
	scratchNames []regions.Name
}

// NewEnvMachine loads a program into a fresh map-backed memory with the
// given region capacity, installing code blocks in the cd region at
// offsets matching their indices exactly as NewMachine does.
func NewEnvMachine(d Dialect, p Program, capacity int) *EnvMachine {
	return NewEnvMachineOn(regions.BackendMap, d, p, capacity)
}

// NewEnvMachineOn is NewEnvMachine over the selected memory backend.
func NewEnvMachineOn(b regions.Backend, d Dialect, p Program, capacity int) *EnvMachine {
	m := &EnvMachine{
		Dialect:  d,
		Mem:      regions.NewStore[Cell](b, capacity),
		Pool:     NewPools(),
		Ctrl:     p.Main,
		envCells: map[names.Name]Cell{},
		packMemo: map[unsafe.Pointer]*nodeMemo{},
	}
	m.initResolver()
	for i, nf := range p.Code {
		addr, err := m.Mem.Put(regions.CD, m.Pool.LamCell(nf.Fun))
		if err != nil || addr.Off != i {
			panic(fmt.Sprintf("gclang: code install failed: %v", err))
		}
	}
	return m
}

// Run steps the machine until halt, an error, or the fuel limit.
func (m *EnvMachine) Run(fuel int) (Value, error) {
	for !m.Halted {
		if fuel <= 0 {
			return nil, ErrFuel
		}
		fuel--
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.Result, nil
}

// RunInt runs the machine and requires an integer result.
func (m *EnvMachine) RunInt(fuel int) (int, error) {
	v, err := m.Run(fuel)
	if err != nil {
		return 0, err
	}
	n, ok := v.(Num)
	if !ok {
		return 0, fmt.Errorf("gclang: halt with non-integer %s", v)
	}
	return n.N, nil
}

// PendingCall reports the code address about to be invoked when the control
// term is a call whose head is (or is bound to) an address. It allocates
// nothing; run loops use it to count collector entries.
func (m *EnvMachine) PendingCall() (regions.Addr, bool) {
	app, ok := m.Ctrl.(AppT)
	if !ok {
		return regions.Addr{}, false
	}
	switch fn := app.Fn.(type) {
	case Var:
		if c, ok := m.envCells[fn.Name]; ok && c.Tag == CellAddr {
			return c.Addr(), true
		}
	case AddrV:
		return fn.Addr, true
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
	next, err := m.step(m.Ctrl)
	if err != nil {
		return err
	}
	m.Ctrl = next
	m.Steps++
	if m.Event != nil && m.ev.Kind != StepNone {
		m.ev.Step = m.Steps
		m.Event(m.ev)
	}
	return nil
}

// step returns the next control term.
func (m *EnvMachine) step(e Term) (Term, error) {
	switch e := e.(type) {
	case HaltT:
		c := m.cellOf(e.V)
		m.Halted = true
		m.Result = m.Pool.Decode(c)
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepHalt}
		}
		return e, nil
	case AppT:
		return m.stepApp(e)
	case LetT:
		c, err := m.stepOp(e.Op)
		if err != nil {
			return nil, fmt.Errorf("%w: in %s", err, e.Op)
		}
		m.envCells[e.X] = c
		return e.Body, nil
	case IfGCT:
		rn, ok := m.resolveRegion(e.R).(RName)
		if !ok {
			return nil, stuck(e, "ifgc on region variable %s", e.R)
		}
		if m.Mem.Full(rn.Name) {
			return e.Full, nil
		}
		return e.Else, nil
	case OpenTagT:
		c := m.cellOf(e.V)
		pk, ok := PackTagDesc{}, false
		if c.Tag == CellPackTag {
			pk, ok = m.Pool.packTagAt(c.A)
		}
		if !ok {
			return nil, stuck(e, "open of non-package %s", e.V)
		}
		m.envTags[e.T] = pk.Tag
		m.envCells[e.X] = m.Pool.cellOfWord(c.B)
		return e.Body, nil
	case OpenAlphaT:
		c := m.cellOf(e.V)
		pk, ok := PackAlphaDesc{}, false
		if c.Tag == CellPackAlpha {
			pk, ok = m.Pool.packAlphaAt(c.A)
		}
		if !ok {
			return nil, stuck(e, "open of non-package %s", e.V)
		}
		m.envTyps[e.A] = pk.Hidden
		m.envCells[e.X] = m.Pool.cellOfWord(c.B)
		return e.Body, nil
	case LetRegionT:
		nu := m.Mem.NewRegion()
		m.envRegs[e.R] = RName{Name: nu}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepNewRegion, Addr: regions.Addr{Region: nu}}
		}
		return e.Body, nil
	case OnlyT:
		delta, _ := m.regionSlice(e.Delta)
		keep := m.scratchNames[:0]
		for _, r := range delta {
			rn, ok := r.(RName)
			if !ok {
				return nil, stuck(e, "only with region variable %s", r)
			}
			keep = append(keep, rn.Name)
		}
		m.scratchNames = keep
		if err := m.Mem.Only(keep); err != nil {
			return nil, stuck(e, "%v", err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepOnly}
		}
		return e.Body, nil
	case TypecaseT:
		return m.stepTypecase(e)
	case IfLeftT:
		c := m.cellOf(e.V)
		switch c.Tag {
		case CellInl:
			m.envCells[e.X] = c
			return e.L, nil
		case CellInr:
			m.envCells[e.X] = c
			return e.R, nil
		default:
			return nil, stuck(e, "ifleft on untagged value %s", e.V)
		}
	case SetT:
		dst := m.cellOf(e.Dst)
		if dst.Tag != CellAddr {
			return nil, stuck(e, "set destination %s is not an address", e.Dst)
		}
		src := m.cellOf(e.Src)
		if err := m.Mem.Set(dst.Addr(), src); err != nil {
			return nil, stuck(e, "%v", err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepSet, Addr: dst.Addr()}
		}
		return e.Body, nil
	case WidenT:
		// Operationally a no-op (§7.1): the cast re-views memory. Ghost Ψ
		// maintenance lives in the substitution machine only.
		m.envCells[e.X] = m.cellOf(e.V)
		return e.Body, nil
	case OpenRegionT:
		c := m.cellOf(e.V)
		pk, ok := PackRegionDesc{}, false
		if c.Tag == CellPackRegion {
			pk, ok = m.Pool.packRegionAt(c.A)
		}
		if !ok {
			return nil, stuck(e, "open of non-region-package %s", e.V)
		}
		m.envRegs[e.R] = pk.R
		m.envCells[e.X] = m.Pool.cellOfWord(c.B)
		return e.Body, nil
	case IfRegT:
		n1, ok1 := m.resolveRegion(e.R1).(RName)
		n2, ok2 := m.resolveRegion(e.R2).(RName)
		if !ok1 || !ok2 {
			return nil, stuck(e, "ifreg on region variables")
		}
		if n1 == n2 {
			return e.Then, nil
		}
		return e.Else, nil
	case If0T:
		c := m.cellOf(e.V)
		if c.Tag != CellNum {
			return nil, stuck(e, "if0 on non-integer %s", e.V)
		}
		if c.Num() == 0 {
			return e.Then, nil
		}
		return e.Else, nil
	default:
		return nil, stuck(e, "no rule for %T", e)
	}
}

// tappHeadName is the reserved binding a translucent-call rewrite parks
// the unwrapped head cell under for the immediately following call step.
const tappHeadName names.Name = "#tapp-head"

// stepApp mirrors Machine.stepApp: translucent heads first restore their
// recorded tags in a step of their own, then the code block is fetched from
// memory and its binders are instantiated. The call protocol resolves every
// operand against the current environment first, then clears the
// environment and binds the parameters — code blocks are closed, so nothing
// else can be referenced from the body.
func (m *EnvMachine) stepApp(e AppT) (Term, error) {
	fc := m.cellOf(e.Fn)
	if fc.Tag == CellTApp {
		if len(e.Tags) != 0 || len(e.Rs) != 0 {
			return nil, stuck(e, "translucent call with extra tags or regions")
		}
		ta, ok := m.Pool.tappAt(fc.A)
		if !ok {
			return nil, stuck(e, "call through corrupted translucent handle")
		}
		// The pooled head is fully resolved; the arguments are left in the
		// rewritten call for the next step to resolve — the environment
		// cannot change between the rewrite and the call, so the lazy
		// resolution coincides with an eager one. The head
		// itself stays a cell, bound under a reserved name no program can
		// shadow ('#' never survives the pipeline): decoding it to a Value
		// would hand cellOf a dynamically built value, and the descriptor
		// memo's identity keying relies on only seeing program-tree nodes.
		m.envCells[tappHeadName] = m.Pool.cellOfWord(fc.B)
		return AppT{Fn: Var{Name: tappHeadName}, Tags: ta.Tags, Rs: ta.Rs, Args: e.Args}, nil
	}
	if fc.Tag != CellAddr {
		return nil, stuck(e, "call of non-address %s", m.Pool.Decode(fc))
	}
	addr := fc.Addr()
	cc, err := m.Mem.Get(addr)
	if err != nil {
		return nil, stuck(e, "%v", err)
	}
	lam, ok := LamV{}, false
	if cc.Tag == CellLam {
		lam, ok = m.Pool.lamAt(cc.A)
	}
	if !ok {
		return nil, stuck(e, "call of non-code cell %s", addr)
	}
	if len(e.Tags) != len(lam.TParams) || len(e.Rs) != len(lam.RParams) || len(e.Args) != len(lam.Params) {
		return nil, stuck(e, "arity mismatch calling %s", addr)
	}
	if m.Event != nil {
		m.ev = StepEvent{Kind: StepCall, Addr: addr}
	}
	callTags := m.scratchTags[:0]
	for _, t := range e.Tags {
		rt, _ := m.tag(t)
		callTags = append(callTags, rt)
	}
	callRegs := m.scratchRegs[:0]
	for _, r := range e.Rs {
		rr, _ := m.region(r)
		callRegs = append(callRegs, rr)
	}
	callCells := m.scratchCells[:0]
	for _, a := range e.Args {
		callCells = append(callCells, m.cellOf(a))
	}
	m.scratchTags, m.scratchRegs, m.scratchCells = callTags, callRegs, callCells
	clear(m.envCells)
	clear(m.envTags)
	clear(m.envRegs)
	clear(m.envTyps)
	for i, tp := range lam.TParams {
		m.envTags[tp.Name] = callTags[i]
	}
	for i, r := range lam.RParams {
		m.envRegs[r] = callRegs[i]
	}
	for i, p := range lam.Params {
		m.envCells[p.Name] = callCells[i]
	}
	return lam.Body, nil
}

// stepOp evaluates a let-bound operation, returning the bound cell.
func (m *EnvMachine) stepOp(op Op) (Cell, error) {
	switch op := op.(type) {
	case ValOp:
		return m.cellOf(op.V), nil
	case ProjOp:
		c := m.cellOf(op.V)
		if c.Tag != CellPair {
			return Cell{}, fmt.Errorf("%w: projection from non-pair %s", ErrStuck, m.Pool.Decode(c))
		}
		if op.I == 1 {
			return m.Pool.cellOfWord(c.A), nil
		}
		return m.Pool.cellOfWord(c.B), nil
	case PutOp:
		rn, ok := m.resolveRegion(op.R).(RName)
		if !ok {
			return Cell{}, fmt.Errorf("%w: put into region variable %s", ErrStuck, op.R)
		}
		c := m.cellOf(op.V)
		addr, err := m.Mem.Put(rn.Name, c)
		if err != nil {
			return Cell{}, fmt.Errorf("%w: %v", ErrStuck, err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepPut, Addr: addr, Words: m.Pool.CellWords(c)}
		}
		return AddrCell(addr), nil
	case GetOp:
		c := m.cellOf(op.V)
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
	case StripOp:
		c := m.cellOf(op.V)
		switch c.Tag {
		case CellInl, CellInr:
			return m.Pool.cellOfWord(c.A), nil
		default:
			return Cell{}, fmt.Errorf("%w: strip of untagged value %s", ErrStuck, m.Pool.Decode(c))
		}
	case ArithOp:
		l := m.cellOf(op.L)
		r := m.cellOf(op.R)
		if l.Tag != CellNum || r.Tag != CellNum {
			return Cell{}, fmt.Errorf("%w: arithmetic on non-integers", ErrStuck)
		}
		switch op.Kind {
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
		return Cell{}, fmt.Errorf("%w: unknown op %T", ErrStuck, op)
	}
}

// stepTypecase dispatches on the β-normal form of the resolved scrutinee,
// exactly as Machine.stepTypecase does on the substituted one.
func (m *EnvMachine) stepTypecase(e TypecaseT) (Term, error) {
	nf, err := tags.Normalize(m.resolveTag(e.Tag))
	if err != nil {
		return nil, stuck(e, "%v", err)
	}
	switch t := nf.(type) {
	case tags.Int:
		return e.IntArm, nil
	case tags.Code:
		if len(t.Args) != 1 {
			return nil, stuck(e, "typecase on %d-ary code tag %s", len(t.Args), nf)
		}
		m.envTags[e.TL] = t.Args[0]
		return e.LamArm, nil
	case tags.Prod:
		m.envTags[e.T1] = t.L
		m.envTags[e.T2] = t.R
		return e.ProdArm, nil
	case tags.Exist:
		m.envTags[e.Te] = tags.Lam{Param: t.Bound, Body: t.Body}
		return e.ExistArm, nil
	default:
		return nil, stuck(e, "typecase on open tag %s", nf)
	}
}

// cellOf resolves a term-position value against the environment and packs
// it: term variables come straight out of envCells (already packed, already
// closed), literals pack inline when they fit, and the syntax-bearing
// forms resolve their tag/region/type components through the shared
// resolver before pooling. Steady-state steps (variables, small literals)
// allocate nothing.
func (m *EnvMachine) cellOf(v Value) Cell {
	// The interface data pointer identifies the syntax node v was read
	// from; the pack cases key their descriptor memo on it.
	key := ifaceData(v)
	switch v := v.(type) {
	case Num:
		return NumCell(v.N)
	case AddrV:
		return AddrCell(v.Addr)
	case Var:
		// Term-variable binders never occur inside values (LamV resolves
		// through substView), so no shadow stack exists for this namespace.
		if c, ok := m.envCells[v.Name]; ok {
			return c
		}
		return m.Pool.VarCell(v.Name)
	case PairV:
		l := m.cellOf(v.L)
		r := m.cellOf(v.R)
		return Cell{Tag: CellPair, A: m.Pool.wordOf(l), B: m.Pool.wordOf(r)}
	case InlV:
		return Cell{Tag: CellInl, A: m.Pool.wordOf(m.cellOf(v.Val))}
	case InrV:
		return Cell{Tag: CellInr, A: m.Pool.wordOf(m.cellOf(v.Val))}
	// In the pack cases the payload is packed first (it may spill into the
	// cells pool) and the descriptor second, memoized per literal: on a
	// hit the annotation is not re-resolved and the pool does not grow.
	case PackTag:
		val := m.cellOf(v.Val)
		desc, nm, hit := m.memoLookup(key, CellPackTag, v.Bound)
		if !hit {
			tg, _ := m.tag(v.Tag)
			m.shTags = append(m.shTags, v.Bound)
			body, _ := m.typ(v.Body)
			m.shTags = m.shTags[:len(m.shTags)-1]
			desc = uint64(len(m.Pool.packTags))
			m.Pool.packTags = append(m.Pool.packTags, PackTagDesc{
				Bound: v.Bound, Kind: v.Kind, Tag: tg, Body: body,
			})
			m.memoStore(nm, desc, v)
		}
		return Cell{Tag: CellPackTag, A: desc, B: m.Pool.wordOf(val)}
	case PackAlpha:
		val := m.cellOf(v.Val)
		desc, nm, hit := m.memoLookup(key, CellPackAlpha, v.Bound)
		if !hit {
			delta, _ := m.regionSlice(v.Delta)
			hidden, _ := m.typ(v.Hidden)
			m.shTyps = append(m.shTyps, v.Bound)
			body, _ := m.typ(v.Body)
			m.shTyps = m.shTyps[:len(m.shTyps)-1]
			desc = uint64(len(m.Pool.packAlphas))
			m.Pool.packAlphas = append(m.Pool.packAlphas, PackAlphaDesc{
				Bound: v.Bound, Delta: delta, Hidden: hidden, Body: body,
			})
			m.memoStore(nm, desc, v)
		}
		return Cell{Tag: CellPackAlpha, A: desc, B: m.Pool.wordOf(val)}
	case PackRegion:
		val := m.cellOf(v.Val)
		desc, nm, hit := m.memoLookup(key, CellPackRegion, v.Bound)
		if !hit {
			delta, _ := m.regionSlice(v.Delta)
			r, _ := m.region(v.R)
			m.shRegs = append(m.shRegs, v.Bound)
			body, _ := m.typ(v.Body)
			m.shRegs = m.shRegs[:len(m.shRegs)-1]
			desc = uint64(len(m.Pool.packRegions))
			m.Pool.packRegions = append(m.Pool.packRegions, PackRegionDesc{
				Bound: v.Bound, Delta: delta, R: r, Body: body,
			})
			m.memoStore(nm, desc, v)
		}
		return Cell{Tag: CellPackRegion, A: desc, B: m.Pool.wordOf(val)}
	case TAppV:
		val := m.cellOf(v.Val)
		desc, nm, hit := m.memoLookup(key, CellTApp, "")
		if !hit {
			ts, _ := m.tagSlice(v.Tags)
			rs, _ := m.regionSlice(v.Rs)
			desc = uint64(len(m.Pool.tapps))
			m.Pool.tapps = append(m.Pool.tapps, TAppDesc{Tags: ts, Rs: rs})
			m.memoStore(nm, desc, v)
		}
		return Cell{Tag: CellTApp, A: desc, B: m.Pool.wordOf(val)}
	case LamV:
		// Rare: code blocks live in cd and are closed; a literal block only
		// flows through the environment when a program embeds one in a value
		// position. Delegate its binder structure to the oracle substitution.
		resolved, ok := m.substView().Value(v).(LamV)
		if !ok {
			panic("gclang: lam resolution changed value form")
		}
		return m.Pool.LamCell(resolved)
	default:
		panic(fmt.Sprintf("gclang: unknown value %T", v))
	}
}

// substView exposes the current environment as a closed simultaneous
// substitution for the rare LamV case. The term-variable namespace is
// decoded into a fresh map — an allocation the literal-code-block path can
// afford (it never executes in pipeline-compiled programs).
func (m *EnvMachine) substView() *Subst {
	if len(m.shTags) != 0 || len(m.shRegs) != 0 || len(m.shTyps) != 0 {
		// Values never occur inside types, so a LamV is never resolved under
		// a shadowing binder; see the resolver ordering in cellOf().
		panic("gclang: lam resolution under binder")
	}
	vals := make(map[names.Name]Value, len(m.envCells))
	for n, c := range m.envCells {
		vals[n] = m.Pool.Decode(c)
	}
	return &Subst{Vals: vals, Tags: m.envTags, Regs: m.envRegs, Types: m.envTyps, Closed: true}
}
