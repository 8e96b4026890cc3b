package psgc

// Checkpoint/resume for paused runs.
//
// A Checkpoint is a run frozen at a step boundary: the machine image
// (control state, environment, pools, heap image with region pattern
// words), the fuel left, the collection count, the attached profiler's
// aggregate, and the identity metadata a fleet needs to route it (source
// hash, trace ID). Checkpoints serialize through internal/checkpoint's
// versioned self-validating wire format and restore onto *any* backend —
// a run captured on the arena resumes on the map store and vice versa,
// with bit-identical results and counters, because the heap image is the
// backend-neutral canonical form both stores round-trip through.
//
// Decoding is re-certification, not trust: the collector prefix of the
// carried program must match this process's own verified collector
// bit-for-bit, the mutator blocks are re-typechecked, the cell image is
// re-validated cell by cell, and the profiler image is bounds-checked —
// exactly the peer-cache import discipline. A corrupt, truncated, or
// malicious blob yields an error; it can never yield a runnable machine
// that was not certified here.

import (
	"errors"
	"fmt"

	"psgc/internal/checkpoint"
	"psgc/internal/gclang"
	"psgc/internal/obs"
	"psgc/internal/regions"
)

// ErrCheckpointed is returned (wrapped) by Run when the run stopped at a
// checkpoint: a Progress callback took Progress.Checkpoint and returned
// false. The accompanying Result carries the partial execution's
// statistics, like ErrOutOfFuel.
var ErrCheckpointed = errors.New("psgc: run checkpointed")

// ParseCollector parses a collector name as produced by Collector.String:
// "basic", "forwarding", "generational".
func ParseCollector(s string) (Collector, error) {
	switch s {
	case "basic":
		return Basic, nil
	case "forwarding":
		return Forwarding, nil
	case "generational":
		return Generational, nil
	default:
		return 0, fmt.Errorf("psgc: unknown collector %q (want basic, forwarding, or generational)", s)
	}
}

// Checkpoint is a paused run. Capture one with Progress.Checkpoint;
// serialize with Encode; rebuild from a blob with DecodeCheckpoint;
// continue it — on any backend — with Resume.
type Checkpoint struct {
	// SourceHash and TraceID identify the run to a fleet; the caller that
	// captures the checkpoint stamps them. Neither affects execution; the
	// gate's idempotent migration keys on TraceID.
	SourceHash string
	TraceID    string
	// Collector and Engine the run was using; Backend it was captured on.
	// Resume keeps the engine but honors its own RunOptions.Backend, which
	// is what makes cross-backend migration a one-liner.
	Collector Collector
	Backend   regions.Backend
	Engine    Engine
	// Steps taken, collections counted, and fuel left when captured.
	Steps         int
	Collections   int
	FuelRemaining int

	compiled *Compiled
	image    gclang.MachineImage
	profiler *obs.ProfilerImage
}

// Compiled returns the certified program the checkpoint resumes — for a
// decoded checkpoint, the re-certified one built by DecodeCheckpoint.
func (ck *Checkpoint) Compiled() *Compiled { return ck.compiled }

// Encode serializes the checkpoint into the versioned wire format
// (internal/checkpoint): magic, format version, gob header and body, and
// a SHA-256 trailer over everything.
func (ck *Checkpoint) Encode() ([]byte, error) {
	return checkpoint.Encode(&checkpoint.Snapshot{
		SourceHash:    ck.SourceHash,
		Collector:     ck.Collector.String(),
		Backend:       ck.Backend.String(),
		Engine:        ck.Engine.String(),
		TraceID:       ck.TraceID,
		Collections:   ck.Collections,
		FuelRemaining: ck.FuelRemaining,
		Machine:       ck.image,
		Profiler:      ck.profiler,
		Program:       ck.compiled.Prog,
	})
}

// DecodeCheckpoint deserializes and fully re-certifies a checkpoint blob.
// Everything that will run is re-checked before this returns: checksum
// and header cross-checks (internal/checkpoint), collector prefix
// compared bit-for-bit against the locally certified collector with the
// mutator re-typechecked (the peer-cache import discipline), the machine
// image validated cell by cell, and the profiler image bounds-checked. A
// blob that fails any check is rejected with an error — never a panic,
// never a machine that could compute a wrong answer silently.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	_, s, err := checkpoint.Decode(data)
	if err != nil {
		return nil, err
	}
	col, err := ParseCollector(s.Collector)
	if err != nil {
		return nil, fmt.Errorf("psgc: decode checkpoint: %w", err)
	}
	be, err := regions.ParseBackend(s.Backend)
	if err != nil {
		return nil, fmt.Errorf("psgc: decode checkpoint: %w", err)
	}
	eng, err := ParseEngine(s.Engine)
	if err != nil {
		return nil, fmt.Errorf("psgc: decode checkpoint: %w", err)
	}
	if s.Collections < 0 || s.FuelRemaining < 0 {
		return nil, fmt.Errorf("psgc: decode checkpoint: negative counters (collections %d, fuel %d)",
			s.Collections, s.FuelRemaining)
	}
	if col.Dialect() != s.Machine.Dialect {
		return nil, fmt.Errorf("psgc: decode checkpoint: collector %v is dialect %v but image is %v",
			col, col.Dialect(), s.Machine.Dialect)
	}
	c, err := recertify(col, s.Program)
	if err != nil {
		return nil, fmt.Errorf("psgc: decode checkpoint: %w", err)
	}
	if err := gclang.ValidateImage(c.Prog, &s.Machine); err != nil {
		return nil, fmt.Errorf("psgc: decode checkpoint: %w", err)
	}
	if eng == EngineSubst &&
		len(s.Machine.EnvCells)+len(s.Machine.EnvTags)+len(s.Machine.EnvRegs)+len(s.Machine.EnvTyps) != 0 {
		return nil, errors.New("psgc: decode checkpoint: substitution-engine image carries an environment")
	}
	if s.Profiler != nil {
		// A trial restore bounds-checks the profiler image now, so a
		// corrupt one is a decode-time rejection, not a resume-time surprise.
		if err := obs.NewProfiler(c.entryNames, c.collectorFuns).Restore(*s.Profiler); err != nil {
			return nil, fmt.Errorf("psgc: decode checkpoint: %w", err)
		}
	}
	return &Checkpoint{
		SourceHash:    s.SourceHash,
		TraceID:       s.TraceID,
		Collector:     col,
		Backend:       be,
		Engine:        eng,
		Steps:         s.Machine.Steps,
		Collections:   s.Collections,
		FuelRemaining: s.FuelRemaining,
		compiled:      c,
		image:         s.Machine,
		profiler:      s.Profiler,
	}, nil
}

// Resume continues the checkpointed run under opts. The image names the
// machine: an env image resumes on the environment machine, a subst image
// on the substitution machine. The one engine opts can pick instead is
// EngineCoChecked on an env image, which rebuilds the substitution oracle
// from the same image (gclang.RestoreOracle), so the lockstep counter
// comparison stays exact across the checkpoint. Heap capacity and growth
// policy come from the heap image, but the backend is opts.Backend —
// resuming an arena checkpoint with Backend: regions.BackendMap is
// cross-backend migration. With opts.Fuel zero the run inherits the
// checkpoint's remaining fuel, so an interrupted budget stays a budget.
// EngineChecked and WrapStore are not supported on resume.
func (ck *Checkpoint) Resume(opts RunOptions) (Result, error) {
	switch {
	case opts.Engine == EngineChecked:
		return Result{}, errors.New("psgc: cannot resume a checkpoint into ghost mode")
	case opts.Engine == EngineCoChecked && ck.Engine == EngineEnv:
		// Co-check the env image against an oracle rebuilt from it.
	default:
		opts.Engine = ck.Engine
	}
	if opts.WrapStore != nil {
		return Result{}, errors.New("psgc: WrapStore is not supported on resume")
	}
	if opts.Fuel == 0 && ck.FuelRemaining > 0 {
		opts.Fuel = ck.FuelRemaining
	}
	return ck.compiled.run(opts, ck)
}

// tick is the driver state behind a Progress value: the machine the run
// steps, its profiler, the collection count and fuel left at the current
// tick, whether the Progress callback is running (open), and whether it
// has taken a checkpoint this tick.
type tick struct {
	c                 *Compiled
	m                 gclang.Stepper
	prof              *obs.Profiler
	collections, fuel int
	open, taken       bool
}

// Checkpoint captures the run at this Progress tick. A tick is a step
// boundary — never mid-transition, so never mid-scavenge: a collection in
// flight simply finishes its current step like any other. Checkpoint is
// valid only inside the RunOptions.Progress callback that received p; if
// the callback then returns false, Run stops with ErrCheckpointed. The
// caller stamps SourceHash and TraceID. A ghost-mode run (EngineChecked)
// cannot be checkpointed.
func (p Progress) Checkpoint() (*Checkpoint, error) {
	t := p.tick
	if t == nil || !t.open {
		return nil, errors.New("psgc: checkpoint outside the Progress callback")
	}
	if m, ok := t.m.(*gclang.Machine); ok && m.Ghost {
		return nil, errors.New("psgc: checkpointing is not supported in ghost mode")
	}
	ck, err := t.c.capture(t.m, t.prof, t.collections, t.fuel)
	if err != nil {
		return nil, err
	}
	t.taken = true
	return ck, nil
}

// capture checkpoints the machine a run drives, taking the engine from the
// machine's type. A co-check pair is captured from its live machine.
func (c *Compiled) capture(m gclang.Stepper, prof *obs.Profiler, collections, fuelLeft int) (*Checkpoint, error) {
	if p, ok := m.(*lockstep); ok {
		m = p.live()
	}
	eng := EngineEnv
	if _, ok := m.(*gclang.Machine); ok {
		eng = EngineSubst
	}
	img, err := m.Image()
	if err != nil {
		return nil, fmt.Errorf("psgc: checkpoint: %w", err)
	}
	ck := &Checkpoint{
		Collector:     c.Collector,
		Backend:       m.Shared().Mem.Backend(),
		Engine:        eng,
		Steps:         img.Steps,
		Collections:   collections,
		FuelRemaining: fuelLeft,
		compiled:      c,
		image:         img,
	}
	if prof != nil {
		pi := prof.Image()
		ck.profiler = &pi
	}
	return ck, nil
}
