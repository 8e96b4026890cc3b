package main

import (
	"fmt"

	"psgc"
	"psgc/internal/workload"
)

// spec is one source program under one collector, with the run options
// every op of it uses. Sizes are fixed constants (never calibrated at run
// time), chosen so each run takes several milliseconds on a 2-core x86
// host; that keeps one op far above timer and scheduler resolution.
type spec struct {
	name     string
	col      psgc.Collector
	src      string
	capacity int
}

// churnSrc is the E5 generational program (cmd/psgc-bench): a long-lived
// tower survives a loop of short-lived junk allocations.
func churnSrc(churn int) string {
	return fmt.Sprintf(`
fun tower (n : int) : int * (int * (int * int)) =
  (n, (n + 1, (n + 2, n + 3)))
fun churn (state : int * (int * (int * (int * int)))) : int =
  let n = fst state in
  let keep = snd state in
  if0 n then fst keep + fst (snd (snd keep))
  else let junk = (n, (n, n)) in churn (n - 1, keep)
do churn (%d, tower 10)
`, churn)
}

// arithSrc is E9's arithmetic recursion: no pairs, only continuation
// closures.
func arithSrc(n int) string {
	return fmt.Sprintf("fun f (n : int) : int = if0 n then 0 else n + f (n - 1)\ndo f %d", n)
}

// twiceSrc is E9's closure program (twice) in a loop, so it runs long
// enough to time.
func twiceSrc(n int) string {
	return fmt.Sprintf(`fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)
fun loop (n : int) : int = if0 n then 0 else (twice (fn (y : int) => y + n)) 1 + loop (n - 1)
do loop %d`, n)
}

var collectors = []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational}

// perCollector expands one program family into a spec per collector. size
// gives the family's size parameter for each collector: the three
// collectors' λGC code runs at different speeds (generational is several
// times faster under collection), so each gets its own size to keep every
// op in the same latency range.
func perCollector(name string, src func(int) string, size [3]int, capacity int) []spec {
	out := make([]spec, 0, len(collectors))
	for i, col := range collectors {
		out = append(out, spec{
			name:     fmt.Sprintf("%s(%d)", name, size[i]),
			col:      col,
			src:      src(size[i]),
			capacity: capacity,
		})
	}
	return out
}

// gcHeavySpecs are the E1 allocation-heavy, E3 shared-DAG and E5 churn
// programs at small capacities, so collections do most of each run's work.
func gcHeavySpecs() []spec {
	var out []spec
	out = append(out, perCollector("alloc", workload.AllocHeavySrc, [3]int{50, 47, 115}, 16)...)
	out = append(out, perCollector("dag", workload.SharedDAGSrc, [3]int{40, 38, 126}, 32)...)
	out = append(out, perCollector("churn", churnSrc, [3]int{48, 47, 170}, 48)...)
	return out
}

// mutatorHeavySpecs are E9-style programs at capacity 0: regions never
// fill, so no collection runs and the engine and store do all the work.
func mutatorHeavySpecs() []spec {
	var out []spec
	out = append(out, perCollector("arith", arithSrc, [3]int{930, 700, 620}, 0)...)
	out = append(out, perCollector("twice", twiceSrc, [3]int{240, 185, 140}, 0)...)
	out = append(out, perCollector("pairs", workload.AllocHeavySrc, [3]int{880, 600, 500}, 0)...)
	return out
}

// hotSpecs are serve-mix's hot set: programs every client repeats, each
// run at the service's default capacity. Five programs (not a multiple of
// three) keep the median away from a boundary between two programs'
// latency bands, since hits fill three of every four requests.
func hotSpecs() []spec {
	return []spec{
		{name: "alloc(20)", col: psgc.Basic, src: workload.AllocHeavySrc(20)},
		{name: "dag(15)", col: psgc.Forwarding, src: workload.SharedDAGSrc(15)},
		{name: "churn(60)", col: psgc.Generational, src: churnSrc(60)},
		{name: "arith(40)", col: psgc.Basic, src: arithSrc(40)},
		{name: "twice(15)", col: psgc.Generational, src: twiceSrc(15)},
	}
}
