package slru

import (
	"math/rand"
	"testing"
)

func TestWeightEvictsInLRUOrder(t *testing.T) {
	c := New[int, string](10, 20) // room for four weight-5 entries
	for i := 0; i < 4; i++ {
		if ev := c.Add(i, "small", 5); ev != 0 {
			t.Fatalf("add %d evicted %d", i, ev)
		}
	}
	// An entry worth three small ones forces out the three least recently
	// used — and only those.
	if ev := c.Add(4, "big", 14); ev != 3 {
		t.Fatalf("big add evicted %d entries, want 3", ev)
	}
	for i, want := range []bool{false, false, false, true, true} {
		if _, ok := c.Get(i); ok != want {
			t.Errorf("entry %d cached = %v, want %v (LRU order violated)", i, ok, want)
		}
	}
	if got := c.Weight(); got > 20 {
		t.Errorf("weight %d over budget 20", got)
	}
	if got := c.Evictions(); got != 3 {
		t.Errorf("evictions = %d, want 3", got)
	}
}

func TestOversizedNewestStays(t *testing.T) {
	c := New[int, string](10, 15)
	c.Add(0, "small", 5)
	c.Add(1, "small", 5)
	// An entry that alone exceeds the whole budget evicts everything else
	// but is still admitted.
	if ev := c.Add(2, "huge", 302); ev != 2 {
		t.Fatalf("huge add evicted %d, want 2", ev)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, ok := c.Get(2); !ok || v != "huge" {
		t.Fatal("oversized newest entry was evicted")
	}
}

func TestEntryCapWithoutWeightBudget(t *testing.T) {
	c := New[int, string](2, 0) // weight budget disabled
	c.Add(0, "a", 152)
	c.Add(1, "b", 152)
	if ev := c.Add(2, "c", 152); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get(0); ok {
		t.Error("LRU entry survived entry-cap eviction")
	}
}

func TestGetPromotes(t *testing.T) {
	c := New[int, string](2, 0)
	c.Add(0, "a", 5)
	c.Add(1, "b", 5)
	c.Get(0) // key 0 is now most recently used
	c.Add(2, "c", 5)
	if _, ok := c.Get(0); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get(1); ok {
		t.Error("least recently used entry survived")
	}
}

// TestSegmentation pins the SLRU mechanics: admissions land in probation,
// a hit promotes to protected, and protected overflow demotes back to
// probation rather than evicting.
func TestSegmentation(t *testing.T) {
	c := New[int, string](10, 0)
	for i := 0; i < 4; i++ {
		c.Add(i, "x", 5)
	}
	if prob, prot := c.Segments(); prob != 4 || prot != 0 {
		t.Fatalf("segments after adds = (%d,%d), want (4,0)", prob, prot)
	}
	c.Get(1)
	c.Get(2)
	prob, prot := c.Segments()
	if prob != 2 || prot != 2 {
		t.Fatalf("segments after two hits = (%d,%d), want (2,2)", prob, prot)
	}
	if c.protWeight != 10 {
		t.Errorf("protected weight = %d, want 10", c.protWeight)
	}
	// The protected cap for max=10 is 8 entries; promote more than that and
	// the LRU protected entries must fall back to probation, not disappear.
	c = New[int, string](10, 0)
	for i := 0; i < 10; i++ {
		c.Add(i, "x", 5)
		c.Get(i)
	}
	prob, prot = c.Segments()
	if prot != 8 || prob != 2 {
		t.Errorf("segments after 10 promotions = (%d,%d), want (2,8)", prob, prot)
	}
	if c.Len() != 10 {
		t.Errorf("len = %d, want 10 (demotion must not evict)", c.Len())
	}
	if err := c.Coherent(); err != nil {
		t.Error(err)
	}
}

// TestProtectedWeightCap: the protected segment is also capped at 80% of
// the weight budget, and overflow demotes its LRU entries.
func TestProtectedWeightCap(t *testing.T) {
	c := New[int, string](0, 100) // protected weight cap 80
	for i := 0; i < 3; i++ {
		c.Add(i, "x", 30)
		c.Get(i)
	}
	// 90 > 80: entry 0, the protected LRU, is back in probation.
	if prob, prot := c.Segments(); prob != 1 || prot != 2 || c.protWeight != 60 {
		t.Errorf("segments = (%d,%d) weight %d, want (1,2) weight 60", prob, prot, c.protWeight)
	}
	if err := c.Coherent(); err != nil {
		t.Error(err)
	}
}

// TestStormSparesProtected: an eviction storm flushes probation but cannot
// touch entries with demonstrated reuse.
func TestStormSparesProtected(t *testing.T) {
	c := New[int, string](10, 0)
	for i := 0; i < 6; i++ {
		c.Add(i, "x", 5)
	}
	c.Get(0) // the one hot entry
	if ev := c.Storm(); ev != 5 {
		t.Fatalf("storm evicted %d, want the 5 probationary entries", ev)
	}
	if _, ok := c.Get(0); !ok {
		t.Error("hot (protected) entry lost to the storm")
	}
	for i := 1; i < 6; i++ {
		if _, ok := c.Get(i); ok {
			t.Errorf("probationary entry %d survived the storm", i)
		}
	}
	if err := c.Coherent(); err != nil {
		t.Error(err)
	}
	if got := c.Weight(); got != 5 {
		t.Errorf("weight after storm = %d, want one entry's worth", got)
	}
}

// TestProtectedSpillsWhenProbationEmpty covers the eviction edge where the
// only probationary entry is the fresh admission: the spill must come from
// the protected tail, never the new entry.
func TestProtectedSpillsWhenProbationEmpty(t *testing.T) {
	c := New[int, string](0, 100) // protected weight cap 80
	c.Add(0, "a", 40)
	c.Get(0)
	c.Add(1, "b", 40)
	c.Get(1)
	if prob, prot := c.Segments(); prob != 0 || prot != 2 {
		t.Fatalf("segments before the admission = (%d,%d), want (0,2)", prob, prot)
	}
	if ev := c.Add(2, "c", 30); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get(2); !ok {
		t.Error("fresh admission was evicted")
	}
	if _, ok := c.Get(0); ok {
		t.Error("protected LRU entry survived a full-cache admission")
	}
	if err := c.Coherent(); err != nil {
		t.Error(err)
	}
}

func TestRefreshAdjustsWeight(t *testing.T) {
	c := New[int, string](10, 0)
	c.Add(0, "old", 32)
	c.Add(0, "new", 8) // refresh with a lighter value
	if got := c.Weight(); got != 8 {
		t.Errorf("weight after refresh = %d, want 8", got)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Peek(0); v != "new" {
		t.Errorf("value after refresh = %q, want %q", v, "new")
	}
	// A protected entry's refresh moves the protected weight with it.
	c.Get(0)
	c.Add(0, "newer", 20)
	if c.protWeight != 20 || c.Weight() != 20 {
		t.Errorf("protected weight %d, total %d after protected refresh, want 20 and 20", c.protWeight, c.Weight())
	}
	if err := c.Coherent(); err != nil {
		t.Error(err)
	}
}

// TestRefreshAndPeekDoNotPromote: only Get earns protection.
func TestRefreshAndPeekDoNotPromote(t *testing.T) {
	c := New[int, string](10, 0)
	c.Add(0, "a", 1)
	c.Add(0, "b", 1)
	c.Peek(0)
	if prob, prot := c.Segments(); prob != 1 || prot != 0 {
		t.Fatalf("segments after refresh and peek = (%d,%d), want (1,0)", prob, prot)
	}
	c.Get(0)
	if prob, prot := c.Segments(); prob != 0 || prot != 1 {
		t.Fatalf("segments after get = (%d,%d), want (0,1)", prob, prot)
	}
}

// TestWalkOrder: protected segment first, each segment most recently used
// first, and Walk stops when the callback says so.
func TestWalkOrder(t *testing.T) {
	c := New[int, int](10, 0)
	for i := 0; i < 5; i++ {
		c.Add(i, 10*i, 1)
	}
	c.Get(1)
	c.Get(3)
	var keys []int
	c.Walk(func(k, v int) bool {
		if v != 10*k {
			t.Errorf("walk paired key %d with value %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	want := []int{3, 1, 4, 2, 0}
	if len(keys) != len(want) {
		t.Fatalf("walk = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("walk = %v, want %v", keys, want)
		}
	}
	n := 0
	c.Walk(func(int, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("walk visited %d entries after the callback stopped it at 2", n)
	}
}

// TestCoherentCatchesDrift: the invariant check reports broken bookkeeping.
func TestCoherentCatchesDrift(t *testing.T) {
	c := New[int, string](4, 0)
	c.Add(0, "a", 3)
	c.Add(1, "b", 3)
	c.Get(1)
	if err := c.Coherent(); err != nil {
		t.Fatal(err)
	}
	c.weight++
	if c.Coherent() == nil {
		t.Error("total weight drift not reported")
	}
	c.weight--
	c.protWeight++
	if c.Coherent() == nil {
		t.Error("protected weight drift not reported")
	}
	c.protWeight--
	c.protected.Front().Value.(*entry[int, string]).protected = false
	if c.Coherent() == nil {
		t.Error("segment flag drift not reported")
	}
}

// TestRandomOpsStayWithinCaps drives a random mix of operations and
// re-derives the invariants after each one. Each key keeps one weight, so
// a refresh (which never evicts) cannot push the cache over its budget.
func TestRandomOpsStayWithinCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New[int, int](16, 200)
	for i := 0; i < 5000; i++ {
		k := rng.Intn(40)
		switch op := rng.Intn(10); {
		case op < 4:
			c.Get(k)
		case op < 8:
			c.Add(k, k, 1+k*7%30)
		case op < 9:
			c.Peek(k)
		default:
			c.Storm()
		}
		if err := c.Coherent(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if c.Len() > 16 || (c.Len() > 1 && c.Weight() > 200) {
			t.Fatalf("op %d: %d entries, weight %d over the caps", i, c.Len(), c.Weight())
		}
		if _, prot := c.Segments(); prot > 1 && (prot > 12 || c.protWeight > 160) {
			t.Fatalf("op %d: protected segment %d entries, weight %d over its share", i, prot, c.protWeight)
		}
	}
}
