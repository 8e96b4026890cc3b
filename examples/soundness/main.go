// Soundness: watch the empirical type-preservation theorem at work. The
// machine runs a compiled program in ghost mode, re-checking machine-state
// well-formedness (Defs. 6.3/7.1) after every single transition — through
// complete garbage collections — and prints a trace of the interesting
// moments.
package main

import (
	"fmt"
	"log"

	"psgc"
	"psgc/internal/gclang"
)

const program = `
fun build (n : int) : int =
  if0 n then 0
  else let p = (n, (n, n)) in fst p + build (n - 1)
do build 5
`

func main() {
	compiled, err := psgc.Compile(program, psgc.Forwarding)
	if err != nil {
		log.Fatal(err)
	}
	m := compiled.NewMachine(psgc.RunOptions{Capacity: 16})
	m.Ghost = true
	m.Mem.SetAutoGrow(true)

	checked := 0
	for !m.Halted {
		before := describe(m)
		if err := m.Step(); err != nil {
			log.Fatalf("progress violated at step %d: %v", m.Steps, err)
		}
		if err := m.CheckState(); err != nil {
			log.Fatalf("preservation violated: %v", err)
		}
		checked++
		after := describe(m)
		if before != after {
			fmt.Printf("step %5d: %s\n", m.Steps, after)
		}
	}
	n := m.Result.(gclang.Num)
	fmt.Printf("\nhalted with %d after %d steps\n", n.N, m.Steps)
	fmt.Printf("every one of the %d intermediate states re-checked: ⊢ (M, e) held throughout\n", checked)
}

// describe summarizes the memory shape (region count and live cells).
func describe(m *gclang.Machine) string {
	return fmt.Sprintf("%d regions, %d live cells, %d collections-worth reclaimed",
		len(m.Mem.Regions()), m.Mem.LiveCells(), m.Mem.Stats().RegionsReclaimed)
}
