package workload

import (
	"testing"

	"psgc"
	"psgc/internal/gclang"
)

func runOnce(t *testing.T, d gclang.Dialect, shape Shape, size int) RunStats {
	t.Helper()
	c, err := BuildCollectOnce(d, shape, size)
	if err != nil {
		t.Fatalf("%v/%v/%d: %v", d, shape, size, err)
	}
	st, err := c.Run(100_000_000)
	if err != nil {
		t.Fatalf("%v/%v/%d: %v", d, shape, size, err)
	}
	return st
}

func TestListCopiesLinear(t *testing.T) {
	for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
		for _, n := range []int{1, 8, 32} {
			st := runOnce(t, d, List, n)
			if st.Copied != n {
				t.Errorf("%v list %d: copied %d, want %d", d, n, st.Copied, n)
			}
		}
	}
}

func TestTreeCopiesComplete(t *testing.T) {
	for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
		st := runOnce(t, d, Tree, 4) // depth 4: 2^5-1 = 31 nodes
		if st.Copied != 31 {
			t.Errorf("%v tree: copied %d, want 31", d, st.Copied)
		}
	}
}

func TestDAGSharing(t *testing.T) {
	// depth 6: 7 nodes, 2^7-1 = 127 paths.
	basic := runOnce(t, gclang.Base, DAG, 6)
	forw := runOnce(t, gclang.Forw, DAG, 6)
	if basic.Copied != 127 {
		t.Errorf("basic DAG: copied %d, want 127 (one per path)", basic.Copied)
	}
	if forw.Copied != 7 {
		t.Errorf("forw DAG: copied %d, want 7 (one per node)", forw.Copied)
	}
	gen := runOnce(t, gclang.Gen, DAG, 6)
	if gen.Copied != 127 {
		t.Errorf("gen DAG: copied %d, want 127 (no forwarding in gen)", gen.Copied)
	}
}

func TestContinuationRegionBound(t *testing.T) {
	// §6.1: the temporary continuation region is bounded by the size of
	// the to-space. Fig. 12's copy allocates two continuations per pair
	// (one in the × arm, one in copypair1) plus the initial gcend
	// closure, so the precise bound here is 2·copied + 1.
	for _, n := range []int{4, 16, 64} {
		st := runOnce(t, gclang.Base, List, n)
		if st.MaxCont == 0 {
			t.Fatalf("list %d: no continuation growth observed", n)
		}
		if st.MaxCont > 2*st.Copied+1 {
			t.Errorf("list %d: %d continuations for %d copies — bound violated",
				n, st.MaxCont, st.Copied)
		}
	}
}

func TestSharedDAGSrcPreservesSharing(t *testing.T) {
	// The textual sharing workload drives the §7 claim end to end: under a
	// capacity where both collectors perform the same single collection,
	// the basic collector copies the shared tower once per path (four
	// times), the forwarding collector once — so basic allocates strictly
	// more and holds a strictly larger survivor set.
	for _, cfg := range []struct{ churn, capacity int }{{200, 1024}, {400, 2048}} {
		src := SharedDAGSrc(cfg.churn)
		want, err := psgc.Interpret(src)
		if err != nil {
			t.Fatal(err)
		}
		if want != 4 {
			t.Fatalf("interpret = %d, want 4", want)
		}
		var res [2]psgc.Result
		for i, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding} {
			c, err := psgc.Compile(src, col)
			if err != nil {
				t.Fatalf("%v: %v", col, err)
			}
			r, err := c.Run(psgc.RunOptions{Capacity: cfg.capacity})
			if err != nil {
				t.Fatalf("%v: %v", col, err)
			}
			if r.Value != want {
				t.Errorf("%v: value %d, want %d", col, r.Value, want)
			}
			if r.Collections != 1 {
				t.Fatalf("%v churn=%d capacity=%d: %d collections, want exactly 1",
					col, cfg.churn, cfg.capacity, r.Collections)
			}
			res[i] = r
		}
		basic, forw := res[0], res[1]
		if basic.Stats.Puts <= forw.Stats.Puts {
			t.Errorf("churn=%d: basic allocated %d cells <= forwarding's %d; sharing not exercised",
				cfg.churn, basic.Stats.Puts, forw.Stats.Puts)
		}
		if basic.Stats.MaxLiveCells <= forw.Stats.MaxLiveCells {
			t.Errorf("churn=%d: basic max-live %d <= forwarding's %d",
				cfg.churn, basic.Stats.MaxLiveCells, forw.Stats.MaxLiveCells)
		}
	}
}
