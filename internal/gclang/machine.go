package gclang

import (
	"errors"
	"fmt"

	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// Machine executes λGC terms under the allocation semantics of Fig. 5
// (extended with the §7/§8 rules and the workload extension).
//
// When Ghost is enabled the machine maintains the memory type Ψ alongside
// the memory — recording each put's elaborated annotation, restricting Ψ at
// only, and applying the T operator of the widen soundness proof (§7.1) at
// widen — so that every intermediate state can be re-checked for
// well-formedness. This is the executable counterpart of the paper's
// preservation proofs; see DESIGN.md.
type Machine struct {
	Core
	Term Term

	// Ghost enables Ψ maintenance. Programs must have been elaborated by
	// the checker (put annotations present) for ghost mode to work.
	Ghost bool
	Psi   MemType
}

// Core is the state both machines share: the dialect, the packed memory
// and its side pools, the step count, the halt result, and the event hook.
// Machine and EnvMachine embed it, so m.Steps, m.Halted and m.Result read
// the same on either; Stepper.Shared hands it to code that drives both.
type Core struct {
	Dialect Dialect
	Mem     regions.Store[Cell]

	// Pool holds the typed side pools backing the packed cells in Mem.
	// Pool handles are machine-local: cells from one machine are
	// meaningless under another machine's pools. The substitution machine
	// rewrites terms over boxed Values internally — that is what makes it
	// the readable oracle — and encodes/decodes at its memory boundary.
	Pool *Pools

	// Steps counts machine transitions taken so far.
	Steps int

	// Halted and Result are set once the program reaches halt v. Result is
	// the decoded (boxed) value.
	Halted bool
	Result Value

	// Event, if non-nil, is called after every classified step with a
	// fixed-size StepEvent (see events.go). Emitting one allocates
	// nothing, so the hook is cheap enough to stay installed on every
	// run — it is how internal/obs builds timelines and profiles.
	Event func(StepEvent)

	// ev is the scratch event the step rules fill when Event is set.
	ev StepEvent
}

// Shared returns the machine's shared state.
func (c *Core) Shared() *Core { return c }

// Stepper is a machine a run loop can drive: *Machine, *EnvMachine, or a
// wrapper that steps several machines as one.
type Stepper interface {
	// Step performs one transition; see Machine.Step.
	Step() error
	// PendingCall reports the code address the next step invokes, if any.
	PendingCall() (regions.Addr, bool)
	// Image captures the state at the current step boundary.
	Image() (MachineImage, error)
	// Shared returns the state the loop reads: steps, halt, memory.
	Shared() *Core
}

// Run steps m until halt, an error, or the fuel limit.
func Run(m Stepper, fuel int) (Value, error) {
	c := m.Shared()
	for !c.Halted {
		if fuel <= 0 {
			return nil, ErrFuel
		}
		fuel--
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return c.Result, nil
}

// RunInt runs m and requires an integer result.
func RunInt(m Stepper, fuel int) (int, error) {
	v, err := Run(m, fuel)
	if err != nil {
		return 0, err
	}
	n, ok := v.(Num)
	if !ok {
		return 0, fmt.Errorf("gclang: halt with non-integer %s", v)
	}
	return n.N, nil
}

// ErrStuck is returned when no reduction applies — a progress violation
// for well-typed programs.
var ErrStuck = errors.New("gclang: machine stuck")

// ErrFuel is returned by Run when the step budget is exhausted.
var ErrFuel = errors.New("gclang: out of fuel")

// NewMachine loads a program into a fresh map-backed memory with the given
// region capacity (the ifgc fullness threshold). Code blocks are installed
// in the cd region at offsets matching their indices, as the paper's
// translation assumes.
func NewMachine(d Dialect, p Program, capacity int) *Machine {
	return NewMachineOn(regions.BackendMap, d, p, capacity)
}

// NewMachineOn is NewMachine over the selected memory backend.
func NewMachineOn(b regions.Backend, d Dialect, p Program, capacity int) *Machine {
	m := &Machine{
		Core: Core{Dialect: d, Mem: regions.NewStore[Cell](b, capacity), Pool: NewPools()},
		Term: p.Main,
		Psi:  MemType{},
	}
	for i, nf := range p.Code {
		addr, err := m.Mem.Put(regions.CD, m.Pool.LamCell(nf.Fun))
		if err != nil || addr.Off != i {
			panic(fmt.Sprintf("gclang: code install failed: %v", err))
		}
		params := make([]Type, len(nf.Fun.Params))
		for j, prm := range nf.Fun.Params {
			params[j] = prm.Ty
		}
		m.Psi[addr] = CodeT{TParams: nf.Fun.TParams, RParams: nf.Fun.RParams, Params: params}
	}
	return m
}

// Run steps the machine until halt, an error, or the fuel limit.
func (m *Machine) Run(fuel int) (Value, error) { return Run(m, fuel) }

// RunInt runs the machine and requires an integer result.
func (m *Machine) RunInt(fuel int) (int, error) { return RunInt(m, fuel) }

func stuck(e Term, format string, args ...any) error {
	return fmt.Errorf("%w: %s: in %s", ErrStuck, fmt.Sprintf(format, args...), e)
}

// PendingCall reports the code address about to be invoked when the current
// term is a call whose head is an address. It allocates nothing; run loops
// use it to count collector entries.
func (m *Machine) PendingCall() (regions.Addr, bool) {
	if app, ok := m.Term.(AppT); ok {
		if a, ok := app.Fn.(AddrV); ok {
			return a.Addr, true
		}
	}
	return regions.Addr{}, false
}

// Step performs one machine transition. An error leaves the machine state
// unchanged: rules validate their side conditions before applying memory
// effects, so m.Term, m.Steps, and the event stream stay consistent. (The only
// bookkeeping touched before an error can surface is the Gets counter on a
// call whose fetched cell then fails validation.)
func (m *Machine) Step() error {
	if m.Halted {
		return errors.New("gclang: step after halt")
	}
	if m.Event != nil {
		m.ev.Kind = StepNone
	}
	next, err := m.step(m.Term)
	if err != nil {
		return err
	}
	m.Term = next
	m.Steps++
	if m.Event != nil && m.ev.Kind != StepNone {
		m.ev.Step = m.Steps
		m.Event(m.ev)
	}
	return nil
}

func (m *Machine) step(e Term) (Term, error) {
	switch e := e.(type) {
	case HaltT:
		m.Halted = true
		m.Result = e.V
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepHalt}
		}
		return e, nil
	case AppT:
		return m.stepApp(e)
	case LetT:
		v, err := m.stepOp(e.Op)
		if err != nil {
			return nil, fmt.Errorf("%w: in %s", err, e.Op)
		}
		return (&Subst{Vals: map[names.Name]Value{e.X: v}, Closed: true}).Term(e.Body), nil
	case IfGCT:
		rn, ok := e.R.(RName)
		if !ok {
			return nil, stuck(e, "ifgc on region variable %s", e.R)
		}
		if m.Mem.Full(rn.Name) {
			return e.Full, nil
		}
		return e.Else, nil
	case OpenTagT:
		pk, ok := e.V.(PackTag)
		if !ok {
			return nil, stuck(e, "open of non-package %s", e.V)
		}
		s := &Subst{
			Tags:   map[names.Name]tags.Tag{e.T: pk.Tag},
			Vals:   map[names.Name]Value{e.X: pk.Val},
			Closed: true,
		}
		return s.Term(e.Body), nil
	case OpenAlphaT:
		pk, ok := e.V.(PackAlpha)
		if !ok {
			return nil, stuck(e, "open of non-package %s", e.V)
		}
		s := &Subst{
			Types:  map[names.Name]Type{e.A: pk.Hidden},
			Vals:   map[names.Name]Value{e.X: pk.Val},
			Closed: true,
		}
		return s.Term(e.Body), nil
	case LetRegionT:
		nu := m.Mem.NewRegion()
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepNewRegion, Addr: regions.Addr{Region: nu}}
		}
		return (&Subst{Regs: map[names.Name]Region{e.R: RName{Name: nu}}, Closed: true}).Term(e.Body), nil
	case OnlyT:
		keep := make([]regions.Name, 0, len(e.Delta))
		keepSet := map[regions.Name]bool{}
		for _, r := range e.Delta {
			rn, ok := r.(RName)
			if !ok {
				return nil, stuck(e, "only with region variable %s", r)
			}
			keep = append(keep, rn.Name)
			keepSet[rn.Name] = true
		}
		if err := m.Mem.Only(keep); err != nil {
			return nil, stuck(e, "%v", err)
		}
		if m.Ghost {
			m.Psi = m.Psi.Restrict(keepSet)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepOnly}
		}
		return e.Body, nil
	case TypecaseT:
		return m.stepTypecase(e)
	case IfLeftT:
		switch v := e.V.(type) {
		case InlV:
			return (&Subst{Vals: map[names.Name]Value{e.X: v}, Closed: true}).Term(e.L), nil
		case InrV:
			// Note: Fig. 5's printed rule sends inr to e_l; that is a typo
			// in the paper (the typing rule gives x type σ2 in e_r).
			return (&Subst{Vals: map[names.Name]Value{e.X: v}, Closed: true}).Term(e.R), nil
		default:
			return nil, stuck(e, "ifleft on untagged value %s", e.V)
		}
	case SetT:
		dst, ok := e.Dst.(AddrV)
		if !ok {
			return nil, stuck(e, "set destination %s is not an address", e.Dst)
		}
		if err := m.Mem.Set(dst.Addr, m.Pool.Encode(e.Src)); err != nil {
			return nil, stuck(e, "%v", err)
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepSet, Addr: dst.Addr}
		}
		return e.Body, nil
	case WidenT:
		// Operationally a no-op (§7.1): the cast re-views memory.
		if m.Ghost {
			from, ok1 := e.From.(RName)
			to, ok2 := e.To.(RName)
			if !ok1 || !ok2 {
				return nil, stuck(e, "widen with unresolved regions")
			}
			if err := m.widenGhost(from.Name, to.Name); err != nil {
				return nil, err
			}
		}
		return (&Subst{Vals: map[names.Name]Value{e.X: e.V}, Closed: true}).Term(e.Body), nil
	case OpenRegionT:
		pk, ok := e.V.(PackRegion)
		if !ok {
			return nil, stuck(e, "open of non-region-package %s", e.V)
		}
		s := &Subst{
			Regs:   map[names.Name]Region{e.R: pk.R},
			Vals:   map[names.Name]Value{e.X: pk.Val},
			Closed: true,
		}
		return s.Term(e.Body), nil
	case IfRegT:
		n1, ok1 := e.R1.(RName)
		n2, ok2 := e.R2.(RName)
		if !ok1 || !ok2 {
			return nil, stuck(e, "ifreg on region variables")
		}
		if n1 == n2 {
			return e.Then, nil
		}
		return e.Else, nil
	case If0T:
		n, ok := e.V.(Num)
		if !ok {
			return nil, stuck(e, "if0 on non-integer %s", e.V)
		}
		if n.N == 0 {
			return e.Then, nil
		}
		return e.Else, nil
	default:
		return nil, stuck(e, "no rule for %T", e)
	}
}

// stepApp implements function invocation: translucent heads first restore
// their recorded tags, then the code block is fetched from memory and its
// binders are instantiated.
func (m *Machine) stepApp(e AppT) (Term, error) {
	if ta, ok := e.Fn.(TAppV); ok {
		if len(e.Tags) != 0 || len(e.Rs) != 0 {
			return nil, stuck(e, "translucent call with extra tags or regions")
		}
		return AppT{Fn: ta.Val, Tags: ta.Tags, Rs: ta.Rs, Args: e.Args}, nil
	}
	addr, ok := e.Fn.(AddrV)
	if !ok {
		return nil, stuck(e, "call of non-address %s", e.Fn)
	}
	cell, err := m.Mem.Get(addr.Addr)
	if err != nil {
		return nil, stuck(e, "%v", err)
	}
	lam, ok := LamV{}, false
	if cell.Tag == CellLam {
		lam, ok = m.Pool.lamAt(cell.A)
	}
	if !ok {
		return nil, stuck(e, "call of non-code cell %s", addr.Addr)
	}
	if len(e.Tags) != len(lam.TParams) || len(e.Rs) != len(lam.RParams) || len(e.Args) != len(lam.Params) {
		return nil, stuck(e, "arity mismatch calling %s", addr.Addr)
	}
	if m.Event != nil {
		m.ev = StepEvent{Kind: StepCall, Addr: addr.Addr}
	}
	s := &Subst{
		Tags:   map[names.Name]tags.Tag{},
		Regs:   map[names.Name]Region{},
		Vals:   map[names.Name]Value{},
		Closed: true,
	}
	for i, tp := range lam.TParams {
		s.Tags[tp.Name] = e.Tags[i]
	}
	for i, r := range lam.RParams {
		s.Regs[r] = e.Rs[i]
	}
	for i, p := range lam.Params {
		s.Vals[p.Name] = e.Args[i]
	}
	return s.Term(lam.Body), nil
}

func (m *Machine) stepOp(op Op) (Value, error) {
	switch op := op.(type) {
	case ValOp:
		return op.V, nil
	case ProjOp:
		p, ok := op.V.(PairV)
		if !ok {
			return nil, fmt.Errorf("%w: projection from non-pair %s", ErrStuck, op.V)
		}
		if op.I == 1 {
			return p.L, nil
		}
		return p.R, nil
	case PutOp:
		rn, ok := op.R.(RName)
		if !ok {
			return nil, fmt.Errorf("%w: put into region variable %s", ErrStuck, op.R)
		}
		if m.Ghost && op.Anno == nil {
			// Validated before the Put: an erroring step must not leave a
			// partial memory effect behind (no step is counted and no event
			// fires, so m.Term and the counters must stay untouched).
			return nil, fmt.Errorf("gclang: ghost mode requires elaborated puts (missing annotation)")
		}
		addr, err := m.Mem.Put(rn.Name, m.Pool.Encode(op.V))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStuck, err)
		}
		if m.Ghost {
			m.Psi[addr] = op.Anno
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepPut, Addr: addr, Words: ValueWords(op.V)}
		}
		return AddrV{Addr: addr}, nil
	case GetOp:
		a, ok := op.V.(AddrV)
		if !ok {
			return nil, fmt.Errorf("%w: get from non-address %s", ErrStuck, op.V)
		}
		cell, err := m.Mem.Get(a.Addr)
		if err != nil {
			return nil, err
		}
		if m.Event != nil {
			m.ev = StepEvent{Kind: StepGet, Addr: a.Addr}
		}
		return m.Pool.Decode(cell), nil
	case StripOp:
		switch v := op.V.(type) {
		case InlV:
			return v.Val, nil
		case InrV:
			return v.Val, nil
		default:
			return nil, fmt.Errorf("%w: strip of untagged value %s", ErrStuck, op.V)
		}
	case ArithOp:
		l, lok := op.L.(Num)
		r, rok := op.R.(Num)
		if !lok || !rok {
			return nil, fmt.Errorf("%w: arithmetic on non-integers", ErrStuck)
		}
		switch op.Kind {
		case Add:
			return Num{N: l.N + r.N}, nil
		case Sub:
			return Num{N: l.N - r.N}, nil
		case Mul:
			return Num{N: l.N * r.N}, nil
		default:
			return nil, fmt.Errorf("%w: unknown operator", ErrStuck)
		}
	default:
		return nil, fmt.Errorf("%w: unknown op %T", ErrStuck, op)
	}
}

// stepTypecase dispatches on the β-normal form of the scrutinee tag
// (Fig. 5's typecase rules collapse tag reduction into one step here).
func (m *Machine) stepTypecase(e TypecaseT) (Term, error) {
	nf, err := tags.Normalize(e.Tag)
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
		return (&Subst{Tags: map[names.Name]tags.Tag{e.TL: t.Args[0]}, Closed: true}).Term(e.LamArm), nil
	case tags.Prod:
		return (&Subst{Tags: map[names.Name]tags.Tag{e.T1: t.L, e.T2: t.R}, Closed: true}).Term(e.ProdArm), nil
	case tags.Exist:
		return (&Subst{Tags: map[names.Name]tags.Tag{e.Te: tags.Lam{Param: t.Bound, Body: t.Body}}, Closed: true}).Term(e.ExistArm), nil
	default:
		return nil, stuck(e, "typecase on open tag %s", nf)
	}
}
