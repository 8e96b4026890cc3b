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

// runCoChecked steps the environment machine in lockstep with the
// substitution oracle, comparing the observables the differential test
// suite pins: the pending collector call before each step, step counts,
// halt status, the full regions.Stats counters after each step, and — at
// halt — the final value and every heap cell.
//
// The oracle is authoritative. On the first disagreement (including an
// env-machine step error, which injected faults can produce) the shadow
// env machine is abandoned, opts.OnDivergence is invoked, and the run
// continues on the oracle alone; the returned Result is always the
// oracle's. The Recorder, Progress callbacks, and collection counting all
// observe the oracle, so a diverging shadow cannot pollute the timeline.
func (c *Compiled) runCoChecked(opts RunOptions) (Result, error) {
	// The oracle always runs on the map backend — the reference substrate —
	// while the shadow honors opts.Backend. A co-checked arena run is
	// therefore also a cell-by-cell differential test of the arena against
	// the reference implementation.
	var oracle *gclang.Machine
	var shadow *gclang.EnvMachine
	collections := 0
	if ck := opts.ResumeFrom; ck != nil {
		// Resuming co-checked: both engines are rebuilt from the *same*
		// image — the shadow directly, the oracle by folding the image's
		// environment into the control term — so they start from the
		// identical configuration and the per-step counter comparison
		// stays exact across the checkpoint.
		var err error
		shadow, err = c.code.RestoreEnvMachine(opts.Backend, c.Collector.Dialect(), ck.image)
		if err != nil {
			return Result{}, fmt.Errorf("psgc: resume: %w", err)
		}
		oracle, err = gclang.RestoreOracle(c.Prog, ck.image)
		if err != nil {
			return Result{}, fmt.Errorf("psgc: resume oracle: %w", err)
		}
		collections = ck.Collections
	} else {
		oracleOpts := opts
		oracleOpts.Backend = regions.BackendMap
		oracleOpts.WrapStore = nil // a trace recorder watches the shadow, not the oracle
		oracle = c.NewMachine(oracleOpts)
		shadow = c.NewEnvMachine(opts)
	}
	if opts.Recorder != nil {
		opts.Recorder.Attach(oracle)
	}
	if err := restoreProfiler(&opts); err != nil {
		return Result{}, err
	}
	if opts.Profiler != nil {
		opts.Profiler.Attach(oracle)
	}
	// capture checkpoints from the shadow while it is alive (env-engine
	// image on opts.Backend, the resumable common case); after a divergence
	// the oracle is all that is left, so its subst image is captured.
	capture := func(fuelLeft int) (*Checkpoint, error) {
		if shadow != nil {
			return c.captureEnv(shadow, &opts, collections, fuelLeft)
		}
		return c.captureSubst(oracle, &opts, collections, fuelLeft)
	}
	fuel, every := runBudgets(opts)
	lastCk := oracle.Steps
	diverge := func(step int, format string, args ...any) {
		shadow = nil
		if opts.OnDivergence != nil {
			opts.OnDivergence(Divergence{Step: step, Detail: fmt.Sprintf(format, args...)})
		}
	}
	for !oracle.Halted {
		if opts.Checkpointer != nil && opts.Checkpointer.take() {
			ck, err := capture(fuel)
			if err != nil {
				return Result{}, err
			}
			opts.Checkpointer.deliver(ck)
			return partialResult(oracle.Steps, collections, oracle.Mem), fmt.Errorf("%w at step %d", ErrCheckpointed, oracle.Steps)
		}
		if opts.CheckpointEvery > 0 && oracle.Steps != lastCk && oracle.Steps%opts.CheckpointEvery == 0 {
			lastCk = oracle.Steps
			ck, err := capture(fuel)
			if err != nil {
				return Result{}, err
			}
			if !opts.OnCheckpoint(ck) {
				return partialResult(oracle.Steps, collections, oracle.Mem), fmt.Errorf("%w at step %d", ErrCheckpointed, oracle.Steps)
			}
		}
		if fuel <= 0 {
			return partialResult(oracle.Steps, collections, oracle.Mem), fmt.Errorf("%w after %d steps", ErrOutOfFuel, oracle.Steps)
		}
		fuel--
		collected := false
		oa, oPending := oracle.PendingCall()
		if oPending && c.entries[oa] {
			collections++
			collected = true
		}
		if shadow != nil {
			if sa, sPending := shadow.PendingCall(); sPending != oPending || sa != oa {
				diverge(oracle.Steps, "pending call: oracle (%v,%v) env (%v,%v)", oa, oPending, sa, sPending)
			}
		}
		if err := oracle.Step(); err != nil {
			return Result{}, err
		}
		if shadow != nil {
			if err := shadow.Step(); err != nil {
				diverge(oracle.Steps, "env machine error: %v", err)
			} else if shadow.Steps != oracle.Steps || shadow.Halted != oracle.Halted {
				diverge(oracle.Steps, "step/halt: oracle (%d,%v) env (%d,%v)",
					oracle.Steps, oracle.Halted, shadow.Steps, shadow.Halted)
			} else if shadow.Mem.Stats() != oracle.Mem.Stats() {
				diverge(oracle.Steps, "memory counters: oracle %+v env %+v", oracle.Mem.Stats(), shadow.Mem.Stats())
			}
		}
		if opts.Progress != nil && (collected || oracle.Steps%every == 0) {
			ok := opts.Progress(Progress{
				Steps:       oracle.Steps,
				Collections: collections,
				LiveCells:   oracle.Mem.LiveCells(),
			})
			if !ok {
				return partialResult(oracle.Steps, collections, oracle.Mem), fmt.Errorf("%w after %d steps", ErrCanceled, oracle.Steps)
			}
		}
	}
	// Snapshot the result before the heap walk: compareHalt reads cells
	// through Mem.Get, which counts, and the reported Stats must match a
	// plain run's.
	res, err := finishResult(oracle.Result, oracle.Steps, collections, oracle.Mem)
	if shadow != nil {
		if detail := compareHalt(oracle, shadow); detail != "" {
			diverge(oracle.Steps, "%s", detail)
		}
	}
	return res, err
}

// compareHalt compares the halted machines' results and full heaps,
// returning a non-empty description of the first mismatch. Corruption the
// mutator never read surfaces here: the counters agree, but a cell differs.
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
		ov, err1 := oracle.Mem.Get(a)
		sv, err2 := shadow.Mem.Get(a)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("heap read at %v: oracle err %v env err %v", a, err1, err2)
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
