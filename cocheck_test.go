package psgc

import (
	"errors"
	"strings"
	"testing"

	"psgc/internal/fault"
)

// TestCoCheckAgreesClean runs every collector co-checked with no faults
// installed: the engines must agree (no Divergence), and the
// result must match both the reference evaluator and a plain env run.
func TestCoCheckAgreesClean(t *testing.T) {
	want, err := Interpret(allocHeavy)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range allCollectors {
		c, err := Compile(allocHeavy, col)
		if err != nil {
			t.Fatalf("%v: %v", col, err)
		}
		res, err := c.Run(RunOptions{Capacity: 40, Engine: EngineCoChecked})
		if err != nil {
			t.Fatalf("%v: co-checked run: %v", col, err)
		}
		if res.Divergence != nil {
			t.Fatalf("%v: clean run diverged: %v", col, *res.Divergence)
		}
		if res.Value != want {
			t.Errorf("%v: value %d, want %d", col, res.Value, want)
		}
		plain, err := c.Run(RunOptions{Capacity: 40})
		if err != nil {
			t.Fatalf("%v: plain run: %v", col, err)
		}
		if res.Steps != plain.Steps || res.Collections != plain.Collections || res.Stats != plain.Stats {
			t.Errorf("%v: co-checked observables %+v differ from plain run %+v", col, res, plain)
		}
	}
}

// TestCoCheckCatchesCorruption injects heap corruption (env machine only)
// and asserts the co-check detects the divergence while the run still
// returns the oracle's correct result — the guardrail the service builds on.
func TestCoCheckCatchesCorruption(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.HeapCorrupt, 1))
	defer fault.Install(nil)

	want, err := Interpret(allocHeavy)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(allocHeavy, Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{Capacity: 40, Engine: EngineCoChecked})
	if err != nil {
		t.Fatalf("co-checked run under corruption: %v", err)
	}
	div := res.Divergence
	if div == nil {
		t.Fatal("corrupted run reported no divergence")
	}
	if div.Step <= 0 || div.Detail == "" {
		t.Errorf("malformed divergence: %+v", *div)
	}
	if res.Value != want {
		t.Errorf("fallback value %d, want the oracle's %d", res.Value, want)
	}
}

// TestCoCheckCatchesEnvStepFault injects step errors into the env machine:
// the shadow dies, the divergence reports the injected error, and the
// oracle still completes the run.
func TestCoCheckCatchesEnvStepFault(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.MachineStep, 1))
	defer fault.Install(nil)

	c, err := Compile(allocHeavy, Basic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{Capacity: 40, Engine: EngineCoChecked})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Divergence == nil || !strings.Contains(res.Divergence.Detail, "injected fault") {
		t.Errorf("divergence %v does not report the injected error", res.Divergence)
	}
	want, _ := Interpret(allocHeavy)
	if res.Value != want {
		t.Errorf("value %d, want %d", res.Value, want)
	}
}

// TestCoCheckDivergenceOnPartialResult pins that a co-checked run cut by
// its fuel budget still reports what it saw: a run that diverged before
// the cut carries the Divergence in its partial Result, exactly as the
// completed run reports it, and a clean one carries nil.
func TestCoCheckDivergenceOnPartialResult(t *testing.T) {
	c, err := Compile(allocHeavy, Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := c.Run(RunOptions{Capacity: 40, Engine: EngineCoChecked, Fuel: 500})
	if !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("clean run at fuel 500: err %v, want ErrOutOfFuel", err)
	}
	if clean.Divergence != nil {
		t.Errorf("clean partial run diverged: %v", *clean.Divergence)
	}

	fault.Install(fault.NewRegistry(1).Enable(fault.HeapCorrupt, 1))
	defer fault.Install(nil)
	full, err := c.Run(RunOptions{Capacity: 40, Engine: EngineCoChecked})
	if err != nil {
		t.Fatal(err)
	}
	if full.Divergence == nil || full.Divergence.Step >= full.Steps {
		t.Fatalf("corrupted run %+v does not diverge before its last step", full)
	}
	fuel := full.Divergence.Step + (full.Steps-full.Divergence.Step)/2
	partial, err := c.Run(RunOptions{Capacity: 40, Engine: EngineCoChecked, Fuel: fuel})
	if !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("corrupted run at fuel %d: err %v, want ErrOutOfFuel", fuel, err)
	}
	if partial.Divergence == nil || *partial.Divergence != *full.Divergence {
		t.Errorf("partial run at fuel %d reports divergence %v, the full run %v", fuel, partial.Divergence, *full.Divergence)
	}
}

// TestCompileFaultPoint asserts the compile.parse injection point fails
// compiles with the ErrInjected sentinel, and that compilation recovers
// once the registry is uninstalled.
func TestCompileFaultPoint(t *testing.T) {
	fault.Install(fault.NewRegistry(1).Enable(fault.CompileParse, 1))
	_, err := Compile(allocHeavy, Basic)
	fault.Install(nil)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("compile under injection: err %v, want ErrInjected", err)
	}
	if _, err := Compile(allocHeavy, Basic); err != nil {
		t.Fatalf("compile after uninstall: %v", err)
	}
}

// TestEnvMachineInjectedStepLeavesStateUnchanged pins the stuck-step
// contract for injected faults: the error must not advance the machine.
func TestEnvMachineInjectedStepLeavesStateUnchanged(t *testing.T) {
	c, err := Compile(allocHeavy, Basic)
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewEnvMachine(RunOptions{Capacity: 40})
	for i := 0; i < 10; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	steps, stats := m.Steps, m.Mem.Stats()
	fault.Install(fault.NewRegistry(1).Enable(fault.MachineStep, 1))
	errInjected := m.Step()
	fault.Install(nil)
	if !errors.Is(errInjected, fault.ErrInjected) {
		t.Fatalf("step under injection: %v", errInjected)
	}
	if m.Steps != steps || m.Mem.Stats() != stats {
		t.Error("injected step error mutated machine state")
	}
	if err := m.Step(); err != nil {
		t.Fatalf("machine unusable after injected error: %v", err)
	}
}
