package psgc

import (
	"fmt"

	"psgc/internal/gclang"
	"psgc/internal/regions"
)

// Divergence describes one observed disagreement between the environment
// machine and the substitution oracle during a co-checked run.
type Divergence struct {
	// Step is the oracle's step count when the disagreement was observed.
	Step int `json:"step"`
	// Detail says what disagreed (pending call, step parity, memory
	// counters, final result, or a heap cell).
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("diverged at step %d: %s", d.Step, d.Detail)
}

// Divergence is the first disagreement an EngineCoChecked run has observed
// up to this tick, nil if none or on any other engine. It lets the
// Progress callback act on a divergence while the run goes on; the Result
// reports it as well.
func (p Progress) Divergence() *Divergence {
	if p.tick == nil {
		return nil
	}
	if l, ok := p.tick.m.(*lockstep); ok {
		return l.divergence
	}
	return nil
}

// lockstep is the co-check machine: the substitution oracle with the
// environment machine as its shadow, stepped together and compared after
// every step on the observables the differential test suite pins.
//
// The oracle is authoritative. The run loop sees only the oracle's state
// (Shared, PendingCall), so the Recorder, the Profiler, Progress and the
// collection count all observe it and a diverging shadow cannot pollute
// them; the Result is always the oracle's. On the first disagreement the
// shadow is dropped, the divergence is kept for the Result, and the run
// continues on the oracle alone.
type lockstep struct {
	oracle     *gclang.Machine
	shadow     *gclang.EnvMachine // nil once diverged
	divergence *Divergence
}

// newLockstep builds the pair. The oracle always runs on the map backend —
// the reference substrate — while the shadow honors opts.Backend, so a
// co-checked arena run is also a cell-by-cell differential test of the
// arena against the reference implementation. Resuming rebuilds both from
// the same image — the shadow directly, the oracle by folding the image's
// environment into the control term — so they start from the identical
// configuration and the per-step counter comparison stays exact.
func (c *Compiled) newLockstep(opts RunOptions, from *Checkpoint) (*lockstep, error) {
	p := &lockstep{}
	if from == nil {
		oracleOpts := opts
		oracleOpts.Backend = regions.BackendMap
		oracleOpts.WrapStore = nil // a trace recorder watches the shadow, not the oracle
		p.oracle = c.NewMachine(oracleOpts)
		p.shadow = c.NewEnvMachine(opts)
		return p, nil
	}
	var err error
	if p.shadow, err = c.code.RestoreEnvMachine(opts.Backend, c.Collector.Dialect(), from.image); err != nil {
		return nil, fmt.Errorf("psgc: resume: %w", err)
	}
	if p.oracle, err = gclang.RestoreOracle(c.Prog, from.image); err != nil {
		return nil, fmt.Errorf("psgc: resume oracle: %w", err)
	}
	return p, nil
}

func (p *lockstep) Shared() *gclang.Core                { return p.oracle.Shared() }
func (p *lockstep) PendingCall() (regions.Addr, bool)   { return p.oracle.PendingCall() }
func (p *lockstep) Image() (gclang.MachineImage, error) { return p.live().Image() }

// live is the machine a checkpoint captures: the shadow while it is alive
// (an env image on the run's backend, the resumable common case), the
// oracle after a divergence.
func (p *lockstep) live() gclang.Stepper {
	if p.shadow != nil {
		return p.shadow
	}
	return p.oracle
}

// Step steps the oracle, then the shadow, and compares them: the pending
// collector call before the step; step counts, halt status and the full
// regions.Stats counters after it; and, at halt, the final value and every
// heap cell. A shadow step error (which injected faults can produce) is a
// divergence; an oracle step error is the run's.
func (p *lockstep) Step() error {
	o, s := p.oracle, p.shadow
	if s == nil {
		return o.Step()
	}
	oa, oPending := o.PendingCall()
	if sa, sPending := s.PendingCall(); sPending != oPending || sa != oa {
		p.diverge("pending call: oracle (%v,%v) env (%v,%v)", oa, oPending, sa, sPending)
	}
	if err := o.Step(); err != nil {
		return err
	}
	if p.shadow == nil {
		return nil
	}
	if err := s.Step(); err != nil {
		p.diverge("env machine error: %v", err)
	} else if s.Steps != o.Steps || s.Halted != o.Halted {
		p.diverge("step/halt: oracle (%d,%v) env (%d,%v)", o.Steps, o.Halted, s.Steps, s.Halted)
	} else if s.Mem.Stats() != o.Mem.Stats() {
		p.diverge("memory counters: oracle %+v env %+v", o.Mem.Stats(), s.Mem.Stats())
	} else if o.Halted {
		if detail := compareHalt(o, s); detail != "" {
			p.diverge("%s", detail)
		}
	}
	return nil
}

// diverge drops the shadow and keeps the disagreement, at the oracle's
// current step.
func (p *lockstep) diverge(format string, args ...any) {
	p.shadow = nil
	p.divergence = &Divergence{Step: p.oracle.Steps, Detail: fmt.Sprintf(format, args...)}
}

// compareHalt compares the halted machines' results and full heaps,
// returning a non-empty description of the first mismatch. Corruption the
// mutator never read surfaces here: the counters agree, but a cell differs.
// Cells are read through Peek, so the walk is not memory traffic: it moves
// no counter and records nothing in a WrapStore trace.
func compareHalt(oracle *gclang.Machine, shadow *gclang.EnvMachine) string {
	if or, sr := oracle.Result.String(), shadow.Result.String(); or != sr {
		return fmt.Sprintf("result: oracle %s env %s", or, sr)
	}
	oc, sc := oracle.Mem.Cells(), shadow.Mem.Cells()
	if len(oc) != len(sc) {
		return fmt.Sprintf("heap size: oracle %d cells env %d cells", len(oc), len(sc))
	}
	for i, a := range oc {
		if sc[i] != a {
			return fmt.Sprintf("heap shape: cell %d at %v (oracle) vs %v (env)", i, a, sc[i])
		}
		ov, ok1 := oracle.Mem.Peek(a)
		sv, ok2 := shadow.Mem.Peek(a)
		if !ok1 || !ok2 {
			return fmt.Sprintf("heap read at %v: oracle ok %v env ok %v", a, ok1, ok2)
		}
		// Pool handles are machine-local, so packed cells are compared by
		// decoding each side through its own pools — which makes this walk a
		// differential test of the packing itself, not just of the backend.
		if os, ss := oracle.Pool.Decode(ov).String(), shadow.Pool.Decode(sv).String(); os != ss {
			return fmt.Sprintf("heap cell %v: oracle %s env %s", a, os, ss)
		}
	}
	return ""
}
