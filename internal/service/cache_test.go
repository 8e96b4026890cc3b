package service

import (
	"fmt"
	"testing"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/obs"
)

// compiledOfLets builds a *psgc.Compiled whose program is a chain of n
// trivial lets, giving it an AST weight of 3n+2 (let + valop + num each,
// plus halt + num).
func compiledOfLets(n int) *psgc.Compiled {
	var body gclang.Term = gclang.HaltT{V: gclang.Num{N: 0}}
	for i := 0; i < n; i++ {
		body = gclang.LetT{X: "x", Op: gclang.ValOp{V: gclang.Num{N: 1}}, Body: body}
	}
	return &psgc.Compiled{Prog: gclang.Program{Main: body}}
}

func key(i int) cacheKey { return keyFor(fmt.Sprintf("src-%d", i), psgc.Basic) }

// coherent re-derives the SLRU invariants, for these tests and the chaos
// suite.
func (c *compiledCache) coherent() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Coherent()
}

// The SLRU algorithm is tested in internal/slru; these tests pin what the
// service adds: each entry weighs its λGC program's ProgramSize, and a
// refresh (add on a present key) does not promote.

func TestCacheWeightEvictsInLRUOrder(t *testing.T) {
	small := compiledOfLets(1) // weight 5
	sw := gclang.ProgramSize(small.Prog)
	c := newCompiledCache(10, 4*sw) // room for four small entries
	for i := 0; i < 4; i++ {
		if ev := c.add(key(i), small, nil); ev != 0 {
			t.Fatalf("add %d evicted %d", i, ev)
		}
	}
	// A big entry worth three small ones forces out the three least
	// recently used — and only those.
	big := compiledOfLets(4) // weight 14: fits only alongside one small entry
	if ev := c.add(key(4), big, nil); ev != 3 {
		t.Fatalf("big add evicted %d entries, want 3", ev)
	}
	for i, want := range []bool{false, false, false, true, true} {
		_, _, ok := c.get(key(i))
		if ok != want {
			t.Errorf("entry %d cached = %v, want %v (LRU order violated)", i, ok, want)
		}
	}
	if _, got, _, _ := c.stats(); got != sw+gclang.ProgramSize(big.Prog) {
		t.Errorf("weight %d, want %d (one small entry and the big one)", got, sw+gclang.ProgramSize(big.Prog))
	}
}

func TestCacheOversizedNewestStays(t *testing.T) {
	small := compiledOfLets(1)
	c := newCompiledCache(10, 3*gclang.ProgramSize(small.Prog))
	c.add(key(0), small, nil)
	c.add(key(1), small, nil)
	// An entry that alone exceeds the whole budget evicts everything else
	// but is still admitted: the program ran, keep it for repeats.
	huge := compiledOfLets(100)
	if ev := c.add(key(2), huge, nil); ev != 2 {
		t.Fatalf("huge add evicted %d, want 2", ev)
	}
	if n, _, _, _ := c.stats(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if _, _, ok := c.get(key(2)); !ok {
		t.Fatal("oversized newest entry was evicted")
	}
}

// TestCacheRefreshAdjustsWeight: re-adding a cached program replaces it
// and its compile spans in place, re-weighed by its new ProgramSize and
// without promotion; only a get earns protection.
func TestCacheRefreshAdjustsWeight(t *testing.T) {
	c := newCompiledCache(10, 0)
	c.add(key(0), compiledOfLets(10), nil)
	_, w1, _, _ := c.stats()
	spans := []obs.PhaseSpan{{Phase: "parse"}}
	c.add(key(0), compiledOfLets(2), spans) // refresh with a smaller program
	n, w2, prob, prot := c.stats()
	if want := gclang.ProgramSize(compiledOfLets(2).Prog); w2 != want {
		t.Errorf("weight after refresh = %d, want %d (was %d)", w2, want, w1)
	}
	if n != 1 {
		t.Errorf("len = %d, want 1", n)
	}
	if prob != 1 || prot != 0 {
		t.Errorf("segments after refresh = (%d,%d), want (1,0)", prob, prot)
	}
	if _, got, ok := c.get(key(0)); !ok || len(got) != 1 || got[0].Phase != "parse" {
		t.Errorf("get after refresh = spans %+v, ok %v; want the refreshed spans", got, ok)
	}
	if _, _, prob, prot := c.stats(); prob != 0 || prot != 1 {
		t.Errorf("segments after get = (%d,%d), want (0,1)", prob, prot)
	}
	if err := c.coherent(); err != nil {
		t.Error(err)
	}
}
