// Package psgc is a Go reproduction of "Principled Scavenging" (Monnier,
// Saha, Shao; PLDI 2001): provably type-safe stop-and-copy garbage
// collectors built from a region calculus plus intensional type analysis.
//
// The package compiles a simply-typed functional source language through
// CPS conversion and typed closure conversion into λCLOS, then translates
// it into the region-and-tag language λGC, linking it against one of three
// collectors written as λGC terms and verified by λGC's own typechecker:
//
//	Basic        — the stop-and-copy collector of Fig. 12
//	Forwarding   — the sharing-preserving collector of Fig. 9 (λGCforw)
//	Generational — the minor/major collector pair of Fig. 11/§8 (λGCgen)
//
// Programs run on an abstract machine implementing the paper's allocation
// semantics over explicit regions; Run reports the observable result plus
// memory and collection statistics. Ghost mode additionally maintains the
// memory type Ψ and re-checks machine-state well-formedness after every
// step — the executable counterpart of the paper's type-preservation
// theorem.
package psgc

import (
	"errors"
	"fmt"

	"psgc/internal/clos"
	"psgc/internal/closconv"
	"psgc/internal/collector"
	"psgc/internal/cps"
	"psgc/internal/fault"
	"psgc/internal/gclang"
	"psgc/internal/names"
	"psgc/internal/obs"
	"psgc/internal/policy"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/translate"
)

// Collector selects which type-safe collector the program is linked with.
type Collector int

// The three collectors of the paper.
const (
	Basic Collector = iota
	Forwarding
	Generational
)

func (c Collector) String() string {
	switch c {
	case Basic:
		return "basic"
	case Forwarding:
		return "forwarding"
	case Generational:
		return "generational"
	default:
		return fmt.Sprintf("Collector(%d)", int(c))
	}
}

// Dialect returns the λGC dialect the collector is written in.
func (c Collector) Dialect() gclang.Dialect {
	switch c {
	case Forwarding:
		return gclang.Forw
	case Generational:
		return gclang.Gen
	default:
		return gclang.Base
	}
}

// Compiled is a λGC program linked with a collector, ready to run.
//
// A Compiled is immutable after CompileProgram returns: Run loads the
// program into a fresh machine with its own memory, so one Compiled may be
// run from many goroutines concurrently (the service's compiled-program
// cache relies on this).
type Compiled struct {
	Collector Collector
	// Prog is the elaborated (typechecked) λGC program.
	Prog gclang.Program
	// Source and Clos expose the intermediate programs for inspection.
	Source source.Program
	Clos   clos.Program

	// entries lists the collector entry points: a call to one is a
	// collection.
	entries []regions.Addr
	// entryNames names each entry point ("gc", or "minor"/"major") and
	// collectorFuns is the cd prefix holding the certified collector code;
	// both seed the GC-event Recorder.
	entryNames    map[regions.Addr]string
	collectorFuns int
	// code is Prog lowered for the environment machine, built once here
	// and shared by every run (the collector prefix is the verified
	// collector's own lowered code).
	code *gclang.Code
}

// Compile parses, typechecks and compiles a source program, linking it
// with the chosen collector. The resulting λGC program — collector
// included — is verified by the λGC typechecker; a failure there is a bug
// in this library, never in the user program.
func Compile(src string, col Collector) (*Compiled, error) {
	c, _, err := CompileTraced(src, col)
	return c, err
}

// CompileTraced is Compile with per-phase wall-clock spans: parse, cps,
// closconv, collector (the verified-collector cache lookup), translate,
// and typecheck. Spans are returned even when compilation fails, covering
// the phases that ran.
func CompileTraced(src string, col Collector) (*Compiled, []obs.PhaseSpan, error) {
	pl := obs.NewPipeline()
	end := pl.Phase("parse")
	p, err := source.Parse(src)
	end()
	if err != nil {
		return nil, pl.Spans(), err
	}
	c, err := compileProgram(p, col, pl)
	return c, pl.Spans(), err
}

// CompileProgram is Compile for an already parsed source program.
//
// The collector the program is linked against comes from the process-wide
// verified-collector cache: each dialect's collector terms are built and
// certified by the λGC typechecker exactly once per process (collector.Load)
// and shared by every compile, so only the mutator's own code blocks are
// checked here. CompileProgram is safe for concurrent use.
func CompileProgram(p source.Program, col Collector) (*Compiled, error) {
	return compileProgram(p, col, nil)
}

// CompileProgramTraced is CompileProgram with per-phase spans (everything
// after parsing; see CompileTraced).
func CompileProgramTraced(p source.Program, col Collector) (*Compiled, []obs.PhaseSpan, error) {
	pl := obs.NewPipeline()
	c, err := compileProgram(p, col, pl)
	return c, pl.Spans(), err
}

func compileProgram(p source.Program, col Collector, pl *obs.Pipeline) (*Compiled, error) {
	if fault.Should(fault.CompileParse) {
		return nil, fmt.Errorf("psgc: %w in compile pipeline", fault.ErrInjected)
	}
	if col < Basic || col > Generational {
		return nil, fmt.Errorf("psgc: unknown collector %v", col)
	}
	// One supply for every pass: a binder translate introduces must not
	// capture one that cps or closconv introduced.
	var supply names.Supply
	end := pl.Phase("cps")
	cp, err := cps.Convert(p, &supply)
	end()
	if err != nil {
		return nil, err
	}
	end = pl.Phase("closconv")
	lp, err := closconv.Convert(cp, &supply)
	end()
	if err != nil {
		return nil, err
	}
	end = pl.Phase("collector")
	v, err := collector.Load(col.Dialect())
	end()
	if err != nil {
		return nil, fmt.Errorf("psgc: internal error: %w", err)
	}
	l := v.NewLayout()
	opts := translate.Options{Dialect: col.Dialect(), GC: v.GC, Minor: v.Minor, Major: v.Major}
	entryNames := map[regions.Addr]string{}
	if col == Generational {
		entryNames[v.Minor.Addr] = "minor"
		entryNames[v.Major.Addr] = "major"
	} else {
		entryNames[v.GC.Addr] = "gc"
	}
	end = pl.Phase("translate")
	gp, err := translate.Translate(lp, l, opts, &supply)
	end()
	if err != nil {
		return nil, err
	}
	end = pl.Phase("typecheck")
	checker := &gclang.Checker{Dialect: col.Dialect()}
	elab, _, err := checker.CheckProgramPrefix(gp, len(v.Funs))
	end()
	if err != nil {
		return nil, fmt.Errorf("psgc: internal error: compiled program does not typecheck: %w", err)
	}
	return &Compiled{
		Collector: col, Prog: elab, Source: p, Clos: lp,
		entries: v.Entries, entryNames: entryNames, collectorFuns: len(v.Funs),
		code: gclang.LowerOnto(v.Code, elab),
	}, nil
}

// compileProgramCold is the uncached compile path: it rebuilds and
// re-typechecks the collector alongside the mutator, exactly as every
// compile did before the verified-collector cache existed. It is kept as
// the baseline for BenchmarkCompileCold and the cache-equivalence test.
func compileProgramCold(p source.Program, col Collector) (*Compiled, error) {
	var supply names.Supply
	cp, err := cps.Convert(p, &supply)
	if err != nil {
		return nil, err
	}
	lp, err := closconv.Convert(cp, &supply)
	if err != nil {
		return nil, err
	}
	l := &collector.Layout{}
	opts := translate.Options{Dialect: col.Dialect()}
	var entries []regions.Addr
	entryNames := map[regions.Addr]string{}
	switch col {
	case Basic:
		b := collector.BuildBasic(l)
		opts.GC = l.Addr(b.GC)
		entries = []regions.Addr{opts.GC.Addr}
		entryNames[opts.GC.Addr] = "gc"
	case Forwarding:
		f := collector.BuildForw(l)
		opts.GC = l.Addr(f.GC)
		entries = []regions.Addr{opts.GC.Addr}
		entryNames[opts.GC.Addr] = "gc"
	case Generational:
		g := collector.BuildGen(l)
		opts.Minor = l.Addr(g.Minor)
		opts.Major = l.Addr(g.Major)
		entries = []regions.Addr{opts.Minor.Addr, opts.Major.Addr}
		entryNames[opts.Minor.Addr] = "minor"
		entryNames[opts.Major.Addr] = "major"
	default:
		return nil, fmt.Errorf("psgc: unknown collector %v", col)
	}
	collectorFuns := len(l.Funs)
	gp, err := translate.Translate(lp, l, opts, &supply)
	if err != nil {
		return nil, err
	}
	checker := &gclang.Checker{Dialect: col.Dialect()}
	elab, _, err := checker.CheckProgram(gp)
	if err != nil {
		return nil, fmt.Errorf("psgc: internal error: compiled program does not typecheck: %w", err)
	}
	return &Compiled{
		Collector: col, Prog: elab, Source: p, Clos: lp,
		entries: entries, entryNames: entryNames, collectorFuns: collectorFuns,
		code: gclang.Lower(elab),
	}, nil
}

// Engine selects which λGC abstract machine Run uses. Both machines are
// observationally equivalent — same results, step counts, memory effects,
// and trace classification (internal/gclang's differential test co-steps
// them) — but the environment machine avoids the substitution machine's
// per-step term rewriting and is several times faster.
type Engine int

const (
	// EngineEnv is the environment-based machine (gclang.EnvMachine), the
	// default: variables resolve through environments and stepping is
	// allocation-free in the steady state.
	EngineEnv Engine = iota
	// EngineSubst is the substitution-based machine of Fig. 5
	// (gclang.Machine), kept as the semantic oracle. CheckEveryStep always
	// runs on it: the ghost memory type Ψ lives there.
	EngineSubst
)

func (e Engine) String() string {
	switch e {
	case EngineEnv:
		return "env"
	case EngineSubst:
		return "subst"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name: "env" (or empty) and "subst".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "env":
		return EngineEnv, nil
	case "subst":
		return EngineSubst, nil
	default:
		return 0, fmt.Errorf("psgc: unknown engine %q (want env or subst)", s)
	}
}

// RunOptions configures an execution.
type RunOptions struct {
	// Capacity is the per-region cell count at which ifgc reports a
	// region full and a collection is triggered. Zero disables collection
	// entirely (regions never fill).
	Capacity int
	// FixedCapacity disables the survivor-driven heap growth policy.
	// With a fixed capacity, a program whose live set reaches the
	// capacity collects at every function entry and may never finish —
	// useful only for experiments that control live size.
	FixedCapacity bool
	// Fuel bounds the number of machine steps (default 50 million).
	Fuel int
	// CheckEveryStep runs the substitution machine in ghost mode, which
	// maintains the memory type Ψ, and re-verifies machine-state
	// well-formedness after every transition. Very slow; used by the
	// soundness test-suite.
	CheckEveryStep bool
	// Recorder, if non-nil, captures a structured GC-event timeline
	// during the run (create one with Compiled.Recorder; read it with
	// Recorder.Timeline afterwards). One Recorder serves one run.
	Recorder *obs.Recorder
	// Profiler, if non-nil, accumulates an allocation-free run profile
	// (create one with Compiled.Profiler; read it with Profiler.Profile
	// afterwards). Unlike the Recorder it is cheap enough to leave on for
	// every run. One Profiler serves one run. Under CoCheck it observes
	// the oracle, whose result is the one served.
	Profiler *obs.Profiler
	// Decision, if non-nil, is the adaptive policy decision that chose
	// this run's collector and capacity. Run cross-checks the compiled-in
	// collector against it (catching callers that decide one collector and
	// compile another) and adopts its capacity when Capacity is zero.
	Decision *policy.Decision
	// Progress, if non-nil, is called every ProgressEvery steps and at
	// every collector entry. Returning false cancels the run: Run returns
	// ErrCanceled with the partial Result.
	Progress func(Progress) bool
	// ProgressEvery is the Progress cadence in machine steps
	// (default DefaultProgressEvery).
	ProgressEvery int
	// Engine selects the abstract machine (default EngineEnv).
	// CheckEveryStep forces EngineSubst regardless.
	Engine Engine
	// CoCheck steps the environment machine in lockstep with the
	// substitution oracle, comparing pending collector calls, step counts,
	// memory counters every step, and the final value plus the full heap at
	// halt. On a disagreement OnDivergence fires and the run falls back to
	// the oracle alone; the returned Result is always the oracle's, so a
	// co-checked run is never wrong — only slower. Ignored when the run is
	// already on the substitution machine (EngineSubst/CheckEveryStep).
	CoCheck bool
	// OnDivergence, if non-nil, is invoked at most once per co-checked run
	// with the first observed divergence.
	OnDivergence func(Divergence)
	// Backend selects the memory substrate (default regions.BackendMap).
	// The co-checker's substitution oracle always runs on the map backend
	// regardless, so a co-checked arena run validates the arena cell by
	// cell against the reference implementation.
	Backend regions.Backend
	// WrapStore, if non-nil, replaces the machine's memory substrate with
	// its return value just after construction. The benchmark harness uses
	// it to interpose regions.NewTrace and record the run's exact op
	// sequence; the wrapper must preserve observable store behavior. The
	// co-checker's oracle is never wrapped.
	WrapStore func(regions.Store[gclang.Cell]) regions.Store[gclang.Cell]
	// CheckpointEvery, if > 0, captures a checkpoint every CheckpointEvery
	// machine steps and hands it to OnCheckpoint (which is then required).
	// Checkpoints are only ever taken at step boundaries — never
	// mid-transition, so never mid-scavenge: a collection in flight simply
	// finishes its current step like any other.
	CheckpointEvery int
	// OnCheckpoint receives periodic checkpoints (see CheckpointEvery).
	// Returning false stops the run: Run returns ErrCheckpointed with the
	// partial Result. Returning true continues it.
	OnCheckpoint func(*Checkpoint) bool
	// Checkpointer, if non-nil, lets another goroutine pause this run on
	// demand: after Checkpointer.Request the run captures a checkpoint at
	// its next step boundary, delivers it on Checkpointer.Checkpoints, and
	// stops with ErrCheckpointed.
	Checkpointer *Checkpointer
	// CheckpointMeta is stamped into every checkpoint captured from this
	// run (it does not affect execution).
	CheckpointMeta CheckpointMeta
}

// Progress is a point-in-time execution snapshot delivered to
// RunOptions.Progress (and streamed over SSE by the service).
type Progress struct {
	Steps       int `json:"steps"`
	Collections int `json:"collections"`
	LiveCells   int `json:"live_cells"`
}

// DefaultProgressEvery is the default Progress cadence in machine steps.
const DefaultProgressEvery = 50_000

// Result reports an execution's outcome.
type Result struct {
	// Value is the program's integer result.
	Value int
	// Steps is the number of machine transitions taken.
	Steps int
	// Collections is the number of collector invocations (minor and
	// major both count for the generational collector).
	Collections int
	// Stats are the memory-traffic counters.
	Stats regions.Stats
	// LiveCells is the number of live non-code cells at halt.
	LiveCells int
}

// DefaultFuel is the default machine step budget.
const DefaultFuel = 50_000_000

// ErrOutOfFuel is returned (wrapped) by Run when the step budget is
// exhausted before the program halts. The accompanying Result is still
// populated with the partial execution's steps, collections, and memory
// statistics, so callers enforcing deadlines via fuel budgets can report
// what the program did before it was cut off.
var ErrOutOfFuel = errors.New("psgc: out of fuel")

// ErrCanceled is returned (wrapped) by Run when a Progress callback
// returns false. The accompanying Result carries the partial execution's
// statistics, like ErrOutOfFuel.
var ErrCanceled = errors.New("psgc: run canceled")

// NewMachine loads the compiled program into a fresh machine. Most
// callers want Run; NewMachine is for stepping or inspecting states (set
// the machine's Ghost to maintain Ψ while stepping).
func (c *Compiled) NewMachine(opts RunOptions) *gclang.Machine {
	m := gclang.NewMachineOn(opts.Backend, c.Collector.Dialect(), c.Prog, opts.Capacity)
	m.Mem.SetAutoGrow(!opts.FixedCapacity)
	if opts.WrapStore != nil {
		m.Mem = opts.WrapStore(m.Mem)
	}
	m.Ghost = opts.CheckEveryStep
	return m
}

// NewEnvMachine loads the compiled program into a fresh environment
// machine (the default Run engine). Ghost mode is not available on it; use
// NewMachine for stepping with Ψ.
func (c *Compiled) NewEnvMachine(opts RunOptions) *gclang.EnvMachine {
	m := c.code.NewEnvMachine(opts.Backend, c.Collector.Dialect(), opts.Capacity)
	m.Mem.SetAutoGrow(!opts.FixedCapacity)
	if opts.WrapStore != nil {
		m.Mem = opts.WrapStore(m.Mem)
	}
	return m
}

// Recorder returns a GC-event recorder wired to this program's collector
// entry points and certified code prefix. Pass it in RunOptions.Recorder
// (one recorder per run) and read Recorder.Timeline after Run returns.
func (c *Compiled) Recorder() *obs.Recorder {
	return obs.NewRecorder(c.entryNames, c.collectorFuns)
}

// Profiler returns an allocation-free run profiler wired to this program's
// collector entry points and certified code prefix. Pass it in
// RunOptions.Profiler (one profiler per run) and read Profiler.Profile
// after Run returns.
func (c *Compiled) Profiler() *obs.Profiler {
	return obs.NewProfiler(c.entryNames, c.collectorFuns)
}

// applyDecision cross-checks an adaptive decision against the compiled
// collector and adopts the decided capacity.
func (c *Compiled) applyDecision(opts *RunOptions) error {
	d := opts.Decision
	if d == nil {
		return nil
	}
	if d.Collector != "" && d.Collector != c.Collector.String() {
		return fmt.Errorf("psgc: adaptive decision chose collector %q but program is compiled with %q",
			d.Collector, c.Collector)
	}
	if opts.Capacity == 0 && d.Capacity > 0 {
		opts.Capacity = d.Capacity
	}
	return nil
}

// Run executes the compiled program. If the fuel budget runs out the
// returned error wraps ErrOutOfFuel and the Result still carries the
// partial execution's statistics.
//
// The engine is opts.Engine (environment machine by default);
// CheckEveryStep forces the substitution machine, which carries the ghost
// Ψ, and CoCheck steps the environment machine in lockstep with it.
func (c *Compiled) Run(opts RunOptions) (Result, error) {
	return c.run(opts, nil)
}

// run drives one execution, fresh or resumed from a checkpoint. Whatever
// the engine, one loop steps it: fuel, checkpoints, Progress and the
// collection count live here and nowhere else.
func (c *Compiled) run(opts RunOptions, from *Checkpoint) (Result, error) {
	if err := c.applyDecision(&opts); err != nil {
		return Result{}, err
	}
	if opts.CheckpointEvery > 0 && opts.OnCheckpoint == nil {
		return Result{}, errors.New("psgc: CheckpointEvery requires OnCheckpoint")
	}
	if (opts.CheckpointEvery > 0 || opts.Checkpointer != nil) && opts.CheckEveryStep {
		return Result{}, errors.New("psgc: checkpointing is not supported in ghost mode")
	}
	m, err := c.load(&opts, from)
	if err != nil {
		return Result{}, err
	}
	collections := 0
	if from != nil {
		collections = from.Collections
	}
	if opts.Recorder != nil {
		opts.Recorder.Attach(m)
	}
	if opts.Profiler != nil {
		if from != nil && from.profiler != nil {
			// The resumed profile, reservoir sampler included, continues
			// where the checkpointed run left off.
			if err := opts.Profiler.Restore(*from.profiler); err != nil {
				return Result{}, fmt.Errorf("psgc: resume profiler: %w", err)
			}
		}
		opts.Profiler.Attach(m)
	}
	var ghost *gclang.Machine
	if opts.CheckEveryStep {
		ghost = m.(*gclang.Machine)
	}
	s := m.Shared()
	fuel, every := runBudgets(opts)
	lastCk := s.Steps
	for !s.Halted {
		if opts.Checkpointer != nil && opts.Checkpointer.take() {
			ck, err := c.capture(m, &opts, collections, fuel)
			if err != nil {
				return Result{}, err
			}
			opts.Checkpointer.deliver(ck)
			return partialResult(s, collections), fmt.Errorf("%w at step %d", ErrCheckpointed, s.Steps)
		}
		if opts.CheckpointEvery > 0 && s.Steps != lastCk && s.Steps%opts.CheckpointEvery == 0 {
			lastCk = s.Steps
			ck, err := c.capture(m, &opts, collections, fuel)
			if err != nil {
				return Result{}, err
			}
			if !opts.OnCheckpoint(ck) {
				return partialResult(s, collections), fmt.Errorf("%w at step %d", ErrCheckpointed, s.Steps)
			}
		}
		if fuel <= 0 {
			return partialResult(s, collections), fmt.Errorf("%w after %d steps", ErrOutOfFuel, s.Steps)
		}
		fuel--
		// A term about to invoke a collector entry point is a collection.
		collected := false
		if a, ok := m.PendingCall(); ok {
			for _, e := range c.entries {
				if a == e {
					collections++
					collected = true
				}
			}
		}
		if err := m.Step(); err != nil {
			return Result{}, err
		}
		if ghost != nil {
			if err := ghost.CheckState(); err != nil {
				return Result{}, err
			}
		}
		if opts.Progress != nil && (collected || s.Steps%every == 0) {
			ok := opts.Progress(Progress{
				Steps:       s.Steps,
				Collections: collections,
				LiveCells:   s.Mem.LiveCells(),
			})
			if !ok {
				return partialResult(s, collections), fmt.Errorf("%w after %d steps", ErrCanceled, s.Steps)
			}
		}
	}
	n, ok := s.Result.(gclang.Num)
	if !ok {
		return Result{}, fmt.Errorf("psgc: program halted with non-integer %s", s.Result)
	}
	res := partialResult(s, collections)
	res.Value = n.N
	return res, nil
}

// load builds the machine a run drives, choosing the engine once: the
// substitution machine for EngineSubst and CheckEveryStep, the co-check
// lockstep pair for CoCheck, the environment machine otherwise. A resumed
// run takes its engine from the checkpoint and its state from the image,
// on opts.Backend.
func (c *Compiled) load(opts *RunOptions, from *Checkpoint) (gclang.Stepper, error) {
	engine := opts.Engine
	if opts.CheckEveryStep {
		engine = EngineSubst
	}
	if from != nil {
		engine = from.Engine
	}
	d := c.Collector.Dialect()
	switch {
	case engine == EngineSubst && from == nil:
		return c.NewMachine(*opts), nil
	case engine == EngineSubst:
		m, err := gclang.RestoreMachine(opts.Backend, d, c.Prog, from.image)
		if err != nil {
			return nil, fmt.Errorf("psgc: resume: %w", err)
		}
		return m, nil
	case opts.CoCheck:
		p, err := c.newLockstep(opts, from)
		if err != nil {
			return nil, err
		}
		return p, nil
	case from == nil:
		return c.NewEnvMachine(*opts), nil
	default:
		m, err := c.code.RestoreEnvMachine(opts.Backend, d, from.image)
		if err != nil {
			return nil, fmt.Errorf("psgc: resume: %w", err)
		}
		return m, nil
	}
}

func runBudgets(opts RunOptions) (fuel, every int) {
	fuel = opts.Fuel
	if fuel == 0 {
		fuel = DefaultFuel
	}
	every = opts.ProgressEvery
	if every <= 0 {
		every = DefaultProgressEvery
	}
	return fuel, every
}

// partialResult snapshots an execution's observable statistics.
func partialResult(s *gclang.Core, collections int) Result {
	return Result{
		Steps:       s.Steps,
		Collections: collections,
		Stats:       s.Mem.Stats(),
		LiveCells:   s.Mem.LiveCells(),
	}
}

// Interpret runs the source program directly on the reference evaluator
// (no regions, no collector) — the semantics the compiled pipeline must
// preserve.
func Interpret(src string) (int, error) {
	p, err := source.Parse(src)
	if err != nil {
		return 0, err
	}
	if _, err := source.CheckProgram(p); err != nil {
		return 0, err
	}
	var ev source.Evaluator
	return ev.RunInt(p)
}
