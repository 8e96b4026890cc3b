package psgc

import (
	"testing"
)

var allCollectors = []Collector{Basic, Forwarding, Generational}

// checkAgainstReference compiles src under every collector, runs it with
// the given capacity, and asserts every run agrees with the reference
// evaluator. Returns the per-collector results.
func checkAgainstReference(t *testing.T, src string, capacity int) map[Collector]Result {
	t.Helper()
	want, err := Interpret(src)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	out := map[Collector]Result{}
	for _, col := range allCollectors {
		c, err := Compile(src, col)
		if err != nil {
			t.Fatalf("%v: compile: %v", col, err)
		}
		res, err := c.Run(RunOptions{Capacity: capacity})
		if err != nil {
			t.Fatalf("%v: run: %v", col, err)
		}
		if res.Value != want {
			t.Fatalf("%v: result %d, reference %d", col, res.Value, want)
		}
		out[col] = res
	}
	return out
}

const allocHeavy = `
fun build (n : int) : int =
  if0 n then 0
  else let p = (n, (n, n)) in fst p + build (n - 1)
do build 30
`

func TestEndToEndNoCollection(t *testing.T) {
	checkAgainstReference(t, "1 + 2 * 3", 0)
	checkAgainstReference(t, "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\ndo fact 6", 0)
}

func TestEndToEndWithCollections(t *testing.T) {
	// Small capacity forces repeated collections while computing.
	results := checkAgainstReference(t, allocHeavy, 40)
	for col, res := range results {
		if res.Collections == 0 {
			t.Errorf("%v: expected at least one collection (got %d)", col, res.Collections)
		}
	}
}

func TestEndToEndHigherOrderWithCollections(t *testing.T) {
	src := `
fun compose (fg : (int -> int) * (int -> int)) : int -> int =
  fn (x : int) => (fst fg) ((snd fg) x)
fun iter (n : int) : int =
  if0 n then 42
  else let f = fn (x : int) => x + n in
       let g = fn (x : int) => x * 2 in
       let h = compose (f, g) in
       iter (n - 1) + h 0 - h 0
do iter 12
`
	results := checkAgainstReference(t, src, 48)
	for col, res := range results {
		if res.Collections == 0 {
			t.Errorf("%v: expected collections, got none", col)
		}
	}
}

func TestCollectorsReclaimGarbage(t *testing.T) {
	// A loop that allocates a fresh pair per iteration and drops it: any
	// working collector must keep the heap bounded.
	src := `
fun churn (n : int) : int =
  if0 n then 7
  else let junk = (n, n) in churn (n - 1)
do churn 200
`
	results := checkAgainstReference(t, src, 30)
	for col, res := range results {
		if res.Collections < 3 {
			t.Errorf("%v: expected several collections, got %d", col, res.Collections)
		}
		if res.Stats.CellsReclaimed == 0 {
			t.Errorf("%v: no cells reclaimed", col)
		}
		// The heap stays proportional to the live set (which grows with
		// the reified continuation chain), far below total allocation.
		if res.Stats.MaxLiveCells >= res.Stats.Puts {
			t.Errorf("%v: heap not bounded: max live %d of %d allocated", col, res.Stats.MaxLiveCells, res.Stats.Puts)
		}
	}
}

func TestGhostPreservationEndToEnd(t *testing.T) {
	// The expensive flagship test: whole compiled programs, collections
	// included, with machine-state well-formedness verified after every
	// single step, for all three collectors.
	src := `
fun build (n : int) : int =
  if0 n then 0
  else let p = (n, (n, n)) in fst p + build (n - 1)
do build 4
`
	want, err := Interpret(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range allCollectors {
		c, err := Compile(src, col)
		if err != nil {
			t.Fatalf("%v: %v", col, err)
		}
		res, err := c.Run(RunOptions{Capacity: 16, Engine: EngineChecked, Fuel: 2_000_000})
		if err != nil {
			t.Fatalf("%v: preservation/progress violated: %v", col, err)
		}
		if res.Value != want {
			t.Fatalf("%v: result %d, want %d", col, res.Value, want)
		}
		if res.Collections == 0 {
			t.Fatalf("%v: test did not exercise the collector", col)
		}
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	bad := []string{
		"fst 1",  // ill-typed
		"(1, 2)", // non-int main
		"x",      // unbound
		"1 +",    // parse error
	}
	for _, src := range bad {
		if _, err := Compile(src, Basic); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestInterpret(t *testing.T) {
	n, err := Interpret("6 * 7")
	if err != nil || n != 42 {
		t.Fatalf("Interpret = %d, %v", n, err)
	}
}

func TestCollectorString(t *testing.T) {
	if Basic.String() != "basic" || Forwarding.String() != "forwarding" || Generational.String() != "generational" {
		t.Errorf("Collector.String broken")
	}
}
