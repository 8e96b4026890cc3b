package psgc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"psgc/internal/regions"
	"psgc/internal/workload"
)

// driverObservations is what Run's loop reports to a caller, independent
// of which machine it drives.
type driverObservations struct {
	Full        Result
	Progress    []Progress
	OutOfFuel   Result
	Canceled    Result
	Checkpoints []string
	// Checkpointed is the Result of the run that took the checkpoints.
	Checkpointed Result
}

// observeDriver runs c four times under base, recording the Progress
// sequence of a full run, the partial Results of an out-of-fuel run and of
// a run whose Progress cancels at its fifth call, and the checkpoints a
// run takes at every Progress tick on a multiple of 113 steps.
func observeDriver(t *testing.T, c *Compiled, base RunOptions) driverObservations {
	t.Helper()
	var obs driverObservations
	opts := base
	opts.ProgressEvery = 97
	opts.Progress = func(p Progress) bool {
		obs.Progress = append(obs.Progress, Progress{Steps: p.Steps, Collections: p.Collections, LiveCells: p.LiveCells})
		return true
	}
	res, err := c.Run(opts)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	obs.Full = res

	opts = base
	opts.Fuel = res.Steps / 2
	if obs.OutOfFuel, err = c.Run(opts); !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("fuel %d: err %v, want ErrOutOfFuel", opts.Fuel, err)
	}

	calls := 0
	opts = base
	opts.ProgressEvery = 97
	opts.Progress = func(Progress) bool { calls++; return calls < 5 }
	if obs.Canceled, err = c.Run(opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel at call 5: err %v, want ErrCanceled", err)
	}

	opts = base
	opts.ProgressEvery = 113
	opts.Progress = func(p Progress) bool {
		if p.Steps%113 != 0 {
			return true
		}
		ck, err := p.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint at step %d: %v", p.Steps, err)
		}
		obs.Checkpoints = append(obs.Checkpoints,
			fmt.Sprintf("step %d collections %d fuel %d", ck.Steps, ck.Collections, ck.FuelRemaining))
		return true
	}
	if obs.Checkpointed, err = c.Run(opts); err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	return obs
}

// TestRunDriverAgreesAcrossEngines pins the run driver's behaviour on
// every path it can take — substitution machine, environment machine, and
// the co-checked pair, each on both backends: the Progress sequence, the
// out-of-fuel and canceled partial Results, and the checkpoint cadence
// must be identical. Every Result is compared, the checkpointing run's
// too, so a co-checked run whose shadow diverges from the oracle fails on
// its Divergence.
func TestRunDriverAgreesAcrossEngines(t *testing.T) {
	paths := []struct {
		name string
		opts RunOptions
	}{
		{"subst", RunOptions{Engine: EngineSubst}},
		{"env", RunOptions{Engine: EngineEnv}},
		{"cochecked", RunOptions{Engine: EngineCoChecked}},
	}
	for _, col := range allCollectors {
		c, err := Compile(workload.AllocHeavySrc(30), col)
		if err != nil {
			t.Fatalf("%s: compile: %v", col, err)
		}
		var ref driverObservations
		refName := ""
		for _, p := range paths {
			for _, be := range regions.Backends() {
				name := fmt.Sprintf("%s/%s/%s", col, p.name, be)
				opts := p.opts
				opts.Capacity = 32
				opts.Backend = be
				got := observeDriver(t, c, opts)
				if refName == "" {
					ref, refName = got, name
					if got.Full.Collections == 0 || len(got.Checkpoints) == 0 {
						t.Fatalf("%s: run too small to exercise the driver: %+v", name, got.Full)
					}
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s disagrees with %s:\n got %+v\nwant %+v", name, refName, got, ref)
				}
			}
		}
	}
}

// TestProgressSkipsHaltingStep pins that Progress never fires on the step
// that halts the machine, so every tick is a state Checkpoint can capture:
// with the cadence equal to the run's length, no tick is due at all, and a
// callback that would cancel (or checkpoint) leaves the result untouched.
func TestProgressSkipsHaltingStep(t *testing.T) {
	c, err := Compile(workload.AllocHeavySrc(10), Basic)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ticks []int
	got, err := c.Run(RunOptions{ProgressEvery: ref.Steps, Progress: func(p Progress) bool {
		ticks = append(ticks, p.Steps)
		_, ckErr := p.Checkpoint()
		if ckErr != nil {
			t.Errorf("checkpoint at step %d: %v", p.Steps, ckErr)
		}
		return false
	}})
	if err != nil || got != ref {
		t.Fatalf("run %+v, %v; want %+v with no error", got, err, ref)
	}
	if len(ticks) != 0 {
		t.Errorf("Progress fired at steps %v, want no tick in a %d-step run", ticks, ref.Steps)
	}
}

// TestRunLoopAllocsPerStep gates allocations in Run's own loop, not just
// the machine's step: an env run on the arena at capacity 0 with the
// profiler and Progress attached must allocate (almost) nothing per extra
// step. The per-run setup — machine, frames, profiler — is the same at
// either fuel, so the difference is the loop's.
func TestRunLoopAllocsPerStep(t *testing.T) {
	c, err := Compile("fun loop (n : int) : int = if0 n then 0 else loop (n - 1)\ndo loop 100000", Basic)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(fuel int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := c.Run(RunOptions{
				Backend:       regions.BackendArena,
				Fuel:          fuel,
				Profiler:      c.Profiler(),
				Progress:      func(Progress) bool { return true },
				ProgressEvery: 100,
			})
			if !errors.Is(err, ErrOutOfFuel) {
				t.Fatalf("fuel %d: err %v, want ErrOutOfFuel", fuel, err)
			}
		})
	}
	const short, long = 2000, 6000
	a, b := allocs(short), allocs(long)
	if perStep := (b - a) / (long - short); perStep >= 0.01 {
		t.Errorf("%.0f allocs at fuel %d, %.0f at fuel %d: %.4f per step, want < 0.01", a, short, b, long, perStep)
	}
}
