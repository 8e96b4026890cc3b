package psgc

import (
	"fmt"
	"testing"

	"psgc/internal/regions"
)

// tailLoopSrc counts n down in a tail-recursive loop that allocates a
// pair tower each iteration and drops it at the tail call.
func tailLoopSrc(n int) string {
	return fmt.Sprintf(`fun loop (n : int) : int =
  if0 n then 0 else let p = (n, (n, n)) in loop (n - 1)
do loop %d`, n)
}

// TestTailLoopRunsInConstantLiveData pins proper tail recursion end to
// end: a tail call passes its caller's continuation on, so a tail loop's
// live data does not depend on its trip count. Basic and forwarding run
// at the default auto-growing capacity. Generational runs at a fixed
// one: under auto-grow, the garbage each minor collection promotes keeps
// doubling the capacity, so the old region never fills, no major
// collection reclaims it, and max live grows with n. Every run is
// co-checked against the substitution oracle and compared with the
// reference value; under -short the largest loops skip the co-check,
// which costs the substitution oracle seconds per run.
func TestTailLoopRunsInConstantLiveData(t *testing.T) {
	cases := []struct {
		col   Collector
		fixed bool
		ns    []int
	}{
		{Basic, false, []int{100, 1000, 10000}},
		{Forwarding, false, []int{100, 1000, 10000}},
		{Generational, true, []int{1000, 10000}},
	}
	for _, tc := range cases {
		var first int
		for i, n := range tc.ns {
			src := tailLoopSrc(n)
			want, err := Interpret(src)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			c, err := Compile(src, tc.col)
			if err != nil {
				t.Fatalf("%s: compile: %v", tc.col, err)
			}
			opts := RunOptions{Capacity: 64, FixedCapacity: tc.fixed, Backend: regions.BackendArena}
			if !testing.Short() || n < 10000 {
				opts.Engine = EngineCoChecked
			}
			res, err := c.Run(opts)
			if err != nil {
				t.Fatalf("%s loop %d: %v", tc.col, n, err)
			}
			if res.Divergence != nil {
				t.Fatalf("%s loop %d: co-check diverged: %v", tc.col, n, *res.Divergence)
			}
			if res.Value != want {
				t.Fatalf("%s loop %d: value %d, reference %d", tc.col, n, res.Value, want)
			}
			got := res.Stats.MaxLiveCells
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: max live %d at loop %d, %d at loop %d; want it independent of n",
					tc.col, got, n, first, tc.ns[0])
			}
		}
	}
}
