package psgc

// Tests for the verified-collector cache and the concurrency guarantees
// the service layer depends on: one typecheck per dialect per process,
// cached and cold compiles agreeing, concurrent Run on a shared Compiled
// (exercised under -race), and partial results on fuel exhaustion.

import (
	"errors"
	"sync"
	"testing"

	"psgc/internal/collector"
	"psgc/internal/regions"
	"psgc/internal/source"
	"psgc/internal/workload"
)

// TestCollectorTypecheckedOncePerDialect drives several compiles per
// collector — concurrently, to also exercise the sync.Once path — and
// asserts the collector build-and-verify ran exactly once per dialect.
func TestCollectorTypecheckedOncePerDialect(t *testing.T) {
	var wg sync.WaitGroup
	for _, col := range allCollectors {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(col Collector) {
				defer wg.Done()
				if _, err := Compile(allocHeavy, col); err != nil {
					t.Errorf("%v: compile: %v", col, err)
				}
			}(col)
		}
	}
	wg.Wait()
	for _, col := range allCollectors {
		if n := collector.Typechecks(col.Dialect()); n != 1 {
			t.Errorf("%v: collector typechecked %d times, want exactly 1", col, n)
		}
	}
}

// TestCachedCompileMatchesCold asserts the cached compile path produces a
// program with the same shape and behavior as the original uncached path.
func TestCachedCompileMatchesCold(t *testing.T) {
	for _, col := range allCollectors {
		p := source.MustParse(allocHeavy)
		warm, err := CompileProgram(p, col)
		if err != nil {
			t.Fatalf("%v: cached compile: %v", col, err)
		}
		cold, err := compileProgramCold(p, col)
		if err != nil {
			t.Fatalf("%v: cold compile: %v", col, err)
		}
		if len(warm.Prog.Code) != len(cold.Prog.Code) {
			t.Fatalf("%v: cached compile has %d code blocks, cold has %d",
				col, len(warm.Prog.Code), len(cold.Prog.Code))
		}
		wres, err := warm.Run(RunOptions{Capacity: 40})
		if err != nil {
			t.Fatalf("%v: cached run: %v", col, err)
		}
		cres, err := cold.Run(RunOptions{Capacity: 40})
		if err != nil {
			t.Fatalf("%v: cold run: %v", col, err)
		}
		if wres != cres {
			t.Errorf("%v: cached result %+v, cold result %+v", col, wres, cres)
		}
	}
}

// TestConcurrentRunSharedCompiled runs one Compiled from many goroutines
// simultaneously. Run under -race this asserts Compiled is truly immutable
// after compilation — the property the service's compiled-program cache
// needs to hand one *Compiled to every worker.
func TestConcurrentRunSharedCompiled(t *testing.T) {
	for _, col := range allCollectors {
		c, err := Compile(allocHeavy, col)
		if err != nil {
			t.Fatalf("%v: compile: %v", col, err)
		}
		want, err := Interpret(allocHeavy)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(ghost bool) {
				defer wg.Done()
				var got int
				var err error
				if ghost {
					// A ghost machine keeps Ψ up to date, reading the
					// shared elaborated program's put annotations and
					// code types.
					m := c.NewMachine(RunOptions{Capacity: 40})
					m.Ghost = true
					got, err = m.RunInt(DefaultFuel)
				} else {
					var res Result
					res, err = c.Run(RunOptions{Capacity: 40})
					got = res.Value
				}
				if err != nil {
					t.Errorf("%v: concurrent run: %v", col, err)
					return
				}
				if got != want {
					t.Errorf("%v: concurrent run got %d, want %d", col, got, want)
				}
			}(i%2 == 0)
		}
		wg.Wait()
	}
}

// TestConcurrentRunsShareLoweredCode runs one Compiled per collector from
// 8 goroutines at once, on both backends at the gc-heavy benchmark's
// capacities. The goroutines share each program's lowered code and, across
// programs of a dialect, the verified collector's lowered prefix; every
// machine's frames, memo and pools are its own. Every result must equal
// the sequential run's, and under -race the sharing must be read-only.
func TestConcurrentRunsShareLoweredCode(t *testing.T) {
	type config struct {
		col      Collector
		backend  regions.Backend
		capacity int
	}
	var configs []config
	compiled := map[Collector]*Compiled{}
	for _, col := range allCollectors {
		c, err := Compile(workload.AllocHeavySrc(30), col)
		if err != nil {
			t.Fatalf("%v: compile: %v", col, err)
		}
		compiled[col] = c
		for _, b := range []regions.Backend{regions.BackendMap, regions.BackendArena} {
			for _, capacity := range []int{16, 32, 48} {
				configs = append(configs, config{col, b, capacity})
			}
		}
	}
	run := func(cf config) (Result, error) {
		return compiled[cf.col].Run(RunOptions{Capacity: cf.capacity, Backend: cf.backend})
	}
	want := make([]Result, len(configs))
	for i, cf := range configs {
		res, err := run(cf)
		if err != nil {
			t.Fatalf("%+v: sequential run: %v", cf, err)
		}
		want[i] = res
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range configs {
				i := (g*5 + k) % len(configs)
				res, err := run(configs[i])
				if err != nil {
					t.Errorf("%+v: concurrent run: %v", configs[i], err)
					return
				}
				if res != want[i] {
					t.Errorf("%+v: concurrent run %+v, sequential %+v", configs[i], res, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunOutOfFuelPartialResult asserts the fuel-exhausted path still
// reports the partial execution — the diagnostics the service returns for
// deadline-killed requests.
func TestRunOutOfFuelPartialResult(t *testing.T) {
	c, err := Compile(allocHeavy, Basic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{Capacity: 40, Fuel: 50})
	if !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("run with tiny fuel: err = %v, want ErrOutOfFuel", err)
	}
	if res.Steps != 50 {
		t.Errorf("partial result reports %d steps, want 50", res.Steps)
	}
	if res.Stats.Puts == 0 {
		t.Errorf("partial result has empty memory stats")
	}
}
