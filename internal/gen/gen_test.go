package gen

import (
	"math/rand"
	"testing"

	"psgc"
	"psgc/internal/source"
)

func TestGeneratedProgramsAreWellTyped(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := Program(r, DefaultConfig)
		if _, err := source.CheckProgram(p); err != nil {
			t.Fatalf("program %d ill-typed: %v\n%s", i, err, p)
		}
	}
}

func TestGeneratedProgramsTerminate(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p := Program(r, DefaultConfig)
		ev := source.Evaluator{Fuel: 20_000_000}
		if _, err := ev.RunInt(p); err != nil {
			t.Fatalf("program %d failed to run: %v\n%s", i, err, p)
		}
	}
}

func TestGeneratedProgramsRoundTripThroughParser(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := Program(r, DefaultConfig)
		p2, err := source.Parse(p.String())
		if err != nil {
			t.Fatalf("program %d failed to reparse: %v\n%s", i, err, p)
		}
		if _, err := source.CheckProgram(p2); err != nil {
			t.Fatalf("program %d fails to typecheck after reparse: %v\n%s", i, err, p)
		}
		ev1 := source.Evaluator{Fuel: 20_000_000}
		n1, err := ev1.RunInt(p)
		if err != nil {
			t.Fatal(err)
		}
		ev2 := source.Evaluator{Fuel: 20_000_000}
		n2, err := ev2.RunInt(p2)
		if err != nil {
			t.Fatalf("reparsed program %d failed: %v", i, err)
		}
		if n1 != n2 {
			t.Fatalf("program %d: reparse changed result %d → %d", i, n1, n2)
		}
	}
}

// TestDifferentialAllCollectors is experiment E7's workhorse: randomly
// generated programs must produce identical results on the reference
// evaluator and on the λGC machine under every collector, with a small
// capacity so collections actually interleave with the computation.
func TestDifferentialAllCollectors(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	collectors := []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}
	ran := 0
	for i := 0; ran < 40 && i < 200; i++ {
		p := Program(r, DefaultConfig)
		ev := source.Evaluator{Fuel: 3_000_000}
		want, err := ev.RunInt(p)
		if err != nil {
			continue // too big for the differential budget; skip
		}
		ran++
		for _, col := range collectors {
			c, err := psgc.CompileProgram(p, col)
			if err != nil {
				t.Fatalf("program %d/%v: compile: %v\n%s", i, col, err, p)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: 24, Fuel: 40_000_000})
			if err != nil {
				t.Fatalf("program %d/%v: run: %v\n%s", i, col, err, p)
			}
			if res.Value != want {
				t.Fatalf("program %d/%v: result %d, reference %d\n%s", i, col, res.Value, want, p)
			}
		}
	}
	if ran < 40 {
		t.Fatalf("only %d programs fit the differential budget", ran)
	}
}

// TestGeneratedPreservation runs a handful of random programs with
// per-step machine-state re-checking under every collector: the empirical
// type-preservation theorem over arbitrary mutators.
func TestGeneratedPreservation(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; skipped in -short mode")
	}
	r := rand.New(rand.NewSource(5))
	collectors := []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}
	cfg := Config{MaxDepth: 4, MaxFuns: 2, Recursion: 2}
	ran := 0
	for i := 0; ran < 4 && i < 100; i++ {
		p := Program(r, cfg)
		ev := source.Evaluator{Fuel: 20_000}
		want, err := ev.RunInt(p)
		if err != nil {
			continue
		}
		ran++
		for _, col := range collectors {
			c, err := psgc.CompileProgram(p, col)
			if err != nil {
				t.Fatalf("program %d/%v: compile: %v", i, col, err)
			}
			res, err := c.Run(psgc.RunOptions{Capacity: 16, Engine: psgc.EngineChecked, Fuel: 3_000_000})
			if err != nil {
				t.Fatalf("program %d/%v: preservation violated: %v\n%s", i, col, err, p)
			}
			if res.Value != want {
				t.Fatalf("program %d/%v: result %d, reference %d", i, col, res.Value, want)
			}
		}
	}
	if ran < 4 {
		t.Fatalf("only %d programs fit the preservation budget", ran)
	}
}
