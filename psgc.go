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

	entries map[regions.Addr]bool
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
	end := pl.Phase("cps")
	cp, err := cps.Convert(p)
	end()
	if err != nil {
		return nil, err
	}
	end = pl.Phase("closconv")
	lp, err := closconv.Convert(cp)
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
	entries := map[regions.Addr]bool{}
	for _, a := range v.Entries {
		entries[a] = true
	}
	entryNames := map[regions.Addr]string{}
	if col == Generational {
		entryNames[v.Minor.Addr] = "minor"
		entryNames[v.Major.Addr] = "major"
	} else {
		entryNames[v.GC.Addr] = "gc"
	}
	end = pl.Phase("translate")
	gp, err := translate.Translate(lp, l, opts)
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
		entries: entries, entryNames: entryNames, collectorFuns: len(v.Funs),
		code: gclang.LowerOnto(v.Code, elab),
	}, nil
}

// compileProgramCold is the uncached compile path: it rebuilds and
// re-typechecks the collector alongside the mutator, exactly as every
// compile did before the verified-collector cache existed. It is kept as
// the baseline for BenchmarkCompileCold and the cache-equivalence test.
func compileProgramCold(p source.Program, col Collector) (*Compiled, error) {
	cp, err := cps.Convert(p)
	if err != nil {
		return nil, err
	}
	lp, err := closconv.Convert(cp)
	if err != nil {
		return nil, err
	}
	l := &collector.Layout{}
	opts := translate.Options{Dialect: col.Dialect()}
	entries := map[regions.Addr]bool{}
	entryNames := map[regions.Addr]string{}
	switch col {
	case Basic:
		b := collector.BuildBasic(l)
		opts.GC = l.Addr(b.GC)
		entries[opts.GC.Addr] = true
		entryNames[opts.GC.Addr] = "gc"
	case Forwarding:
		f := collector.BuildForw(l)
		opts.GC = l.Addr(f.GC)
		entries[opts.GC.Addr] = true
		entryNames[opts.GC.Addr] = "gc"
	case Generational:
		g := collector.BuildGen(l)
		opts.Minor = l.Addr(g.Minor)
		opts.Major = l.Addr(g.Major)
		entries[opts.Minor.Addr] = true
		entries[opts.Major.Addr] = true
		entryNames[opts.Minor.Addr] = "minor"
		entryNames[opts.Major.Addr] = "major"
	default:
		return nil, fmt.Errorf("psgc: unknown collector %v", col)
	}
	collectorFuns := len(l.Funs)
	gp, err := translate.Translate(lp, l, opts)
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
	// (gclang.Machine), kept as the semantic oracle. Ghost mode and
	// CheckEveryStep always run on it: the ghost memory type Ψ lives there.
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
	// Ghost maintains the memory type Ψ during execution, enabling
	// CheckEveryStep and post-mortem state inspection. Slower.
	Ghost bool
	// CheckEveryStep re-verifies machine-state well-formedness after
	// every transition (requires Ghost). Very slow; used by the
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
	// Policy names the selection policy that configured this run: "" or
	// policy.Static for an explicit collector and capacity, policy.Adaptive
	// when the profile-driven engine chose them. With policy.Adaptive and a
	// non-nil Decision, Run cross-checks the compiled-in collector against
	// the decision (catching callers that decide one collector and compile
	// another) and adopts the decision's capacity when Capacity is zero.
	// Unknown names are an error.
	Policy string
	// Decision is the policy decision backing Policy == policy.Adaptive.
	Decision *policy.Decision
	// Progress, if non-nil, is called every ProgressEvery steps and at
	// every collector entry. Returning false cancels the run: Run returns
	// ErrCanceled with the partial Result.
	Progress func(Progress) bool
	// ProgressEvery is the Progress cadence in machine steps
	// (default DefaultProgressEvery).
	ProgressEvery int
	// Engine selects the abstract machine (default EngineEnv). Ghost and
	// CheckEveryStep force EngineSubst regardless.
	Engine Engine
	// CoCheck steps the environment machine in lockstep with the
	// substitution oracle, comparing pending collector calls, step counts,
	// memory counters every step, and the final value plus the full heap at
	// halt. On a disagreement OnDivergence fires and the run falls back to
	// the oracle alone; the returned Result is always the oracle's, so a
	// co-checked run is never wrong — only slower. Ignored when the run is
	// already on the substitution machine (EngineSubst/Ghost/CheckEveryStep).
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
	// ResumeFrom resumes the given checkpoint instead of starting fresh.
	// Most callers use Checkpoint.Resume, which sets this. The checkpoint
	// dictates the engine; Backend is honored (cross-backend migration);
	// capacity and growth policy come from the heap image; a zero Fuel
	// inherits the checkpoint's remaining fuel. Ghost, CheckEveryStep, and
	// WrapStore are incompatible with resuming.
	ResumeFrom *Checkpoint
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
// callers want Run; NewMachine is for stepping or inspecting states.
func (c *Compiled) NewMachine(opts RunOptions) *gclang.Machine {
	m := gclang.NewMachineOn(opts.Backend, c.Collector.Dialect(), c.Prog, opts.Capacity)
	m.Mem.SetAutoGrow(!opts.FixedCapacity)
	if opts.WrapStore != nil {
		m.Mem = opts.WrapStore(m.Mem)
	}
	m.Ghost = opts.Ghost || opts.CheckEveryStep
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

// applyPolicy validates opts.Policy and, for an adaptive run backed by a
// Decision, cross-checks the compiled collector and adopts the decided
// capacity.
func (c *Compiled) applyPolicy(opts *RunOptions) error {
	name, err := policy.Parse(opts.Policy)
	if err != nil {
		return fmt.Errorf("psgc: %w", err)
	}
	if name != policy.Adaptive || opts.Decision == nil {
		return nil
	}
	d := opts.Decision
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
// The engine is opts.Engine (environment machine by default); Ghost and
// CheckEveryStep force the substitution machine, which carries the ghost Ψ.
func (c *Compiled) Run(opts RunOptions) (Result, error) {
	if err := c.applyPolicy(&opts); err != nil {
		return Result{}, err
	}
	if opts.CheckpointEvery > 0 && opts.OnCheckpoint == nil {
		return Result{}, errors.New("psgc: CheckpointEvery requires OnCheckpoint")
	}
	if (opts.CheckpointEvery > 0 || opts.Checkpointer != nil) && (opts.Ghost || opts.CheckEveryStep) {
		return Result{}, errors.New("psgc: checkpointing is not supported in ghost mode")
	}
	if ck := opts.ResumeFrom; ck != nil {
		if ck.compiled != c {
			return Result{}, errors.New("psgc: checkpoint belongs to a different compiled program (use Checkpoint.Resume)")
		}
		if opts.Ghost || opts.CheckEveryStep {
			return Result{}, errors.New("psgc: cannot resume a checkpoint into ghost mode")
		}
		if opts.WrapStore != nil {
			return Result{}, errors.New("psgc: WrapStore is not supported on resume")
		}
		// The checkpoint dictates the engine: a subst image resumes on the
		// substitution machine, an env image on the environment machine
		// (co-checked if opts.CoCheck, with the oracle rebuilt from the
		// same image).
		opts.Engine = ck.Engine
		if opts.Fuel == 0 && ck.FuelRemaining > 0 {
			opts.Fuel = ck.FuelRemaining
		}
	}
	if opts.Engine == EngineSubst || opts.Ghost || opts.CheckEveryStep {
		return c.runSubst(opts)
	}
	if opts.CoCheck {
		return c.runCoChecked(opts)
	}
	return c.runEnv(opts)
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

func (c *Compiled) runSubst(opts RunOptions) (Result, error) {
	var m *gclang.Machine
	collections := 0
	if ck := opts.ResumeFrom; ck != nil {
		var err error
		m, err = gclang.RestoreMachine(opts.Backend, c.Collector.Dialect(), c.Prog, ck.image)
		if err != nil {
			return Result{}, fmt.Errorf("psgc: resume: %w", err)
		}
		collections = ck.Collections
	} else {
		m = c.NewMachine(opts)
	}
	if opts.Recorder != nil {
		opts.Recorder.Attach(m)
	}
	if err := restoreProfiler(&opts); err != nil {
		return Result{}, err
	}
	if opts.Profiler != nil {
		opts.Profiler.Attach(m)
	}
	fuel, every := runBudgets(opts)
	lastCk := m.Steps
	for !m.Halted {
		if opts.Checkpointer != nil && opts.Checkpointer.take() {
			ck, err := c.captureSubst(m, &opts, collections, fuel)
			if err != nil {
				return Result{}, err
			}
			opts.Checkpointer.deliver(ck)
			return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w at step %d", ErrCheckpointed, m.Steps)
		}
		if opts.CheckpointEvery > 0 && m.Steps != lastCk && m.Steps%opts.CheckpointEvery == 0 {
			lastCk = m.Steps
			ck, err := c.captureSubst(m, &opts, collections, fuel)
			if err != nil {
				return Result{}, err
			}
			if !opts.OnCheckpoint(ck) {
				return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w at step %d", ErrCheckpointed, m.Steps)
			}
		}
		if fuel <= 0 {
			return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w after %d steps", ErrOutOfFuel, m.Steps)
		}
		fuel--
		// A term about to invoke a collector entry point is a collection.
		collected := false
		if a, ok := m.PendingCall(); ok && c.entries[a] {
			collections++
			collected = true
		}
		if err := m.Step(); err != nil {
			return Result{}, err
		}
		if opts.CheckEveryStep {
			if err := m.CheckState(); err != nil {
				return Result{}, err
			}
		}
		if opts.Progress != nil && (collected || m.Steps%every == 0) {
			ok := opts.Progress(Progress{
				Steps:       m.Steps,
				Collections: collections,
				LiveCells:   m.Mem.LiveCells(),
			})
			if !ok {
				return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w after %d steps", ErrCanceled, m.Steps)
			}
		}
	}
	return finishResult(m.Result, m.Steps, collections, m.Mem)
}

func (c *Compiled) runEnv(opts RunOptions) (Result, error) {
	var m *gclang.EnvMachine
	collections := 0
	if ck := opts.ResumeFrom; ck != nil {
		var err error
		m, err = c.code.RestoreEnvMachine(opts.Backend, c.Collector.Dialect(), ck.image)
		if err != nil {
			return Result{}, fmt.Errorf("psgc: resume: %w", err)
		}
		collections = ck.Collections
	} else {
		m = c.NewEnvMachine(opts)
	}
	if opts.Recorder != nil {
		opts.Recorder.AttachEnv(m)
	}
	if err := restoreProfiler(&opts); err != nil {
		return Result{}, err
	}
	if opts.Profiler != nil {
		opts.Profiler.AttachEnv(m)
	}
	fuel, every := runBudgets(opts)
	lastCk := m.Steps
	for !m.Halted {
		if opts.Checkpointer != nil && opts.Checkpointer.take() {
			ck, err := c.captureEnv(m, &opts, collections, fuel)
			if err != nil {
				return Result{}, err
			}
			opts.Checkpointer.deliver(ck)
			return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w at step %d", ErrCheckpointed, m.Steps)
		}
		if opts.CheckpointEvery > 0 && m.Steps != lastCk && m.Steps%opts.CheckpointEvery == 0 {
			lastCk = m.Steps
			ck, err := c.captureEnv(m, &opts, collections, fuel)
			if err != nil {
				return Result{}, err
			}
			if !opts.OnCheckpoint(ck) {
				return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w at step %d", ErrCheckpointed, m.Steps)
			}
		}
		if fuel <= 0 {
			return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w after %d steps", ErrOutOfFuel, m.Steps)
		}
		fuel--
		collected := false
		if a, ok := m.PendingCall(); ok && c.entries[a] {
			collections++
			collected = true
		}
		if err := m.Step(); err != nil {
			return Result{}, err
		}
		if opts.Progress != nil && (collected || m.Steps%every == 0) {
			ok := opts.Progress(Progress{
				Steps:       m.Steps,
				Collections: collections,
				LiveCells:   m.Mem.LiveCells(),
			})
			if !ok {
				return partialResult(m.Steps, collections, m.Mem), fmt.Errorf("%w after %d steps", ErrCanceled, m.Steps)
			}
		}
	}
	return finishResult(m.Result, m.Steps, collections, m.Mem)
}

func finishResult(v gclang.Value, steps, collections int, mem regions.Store[gclang.Cell]) (Result, error) {
	n, ok := v.(gclang.Num)
	if !ok {
		return Result{}, fmt.Errorf("psgc: program halted with non-integer %s", v)
	}
	res := partialResult(steps, collections, mem)
	res.Value = n.N
	return res, nil
}

// partialResult snapshots an execution's observable statistics.
func partialResult(steps, collections int, mem regions.Store[gclang.Cell]) Result {
	return Result{
		Steps:       steps,
		Collections: collections,
		Stats:       mem.Stats(),
		LiveCells:   mem.LiveCells(),
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
