package regions

import (
	"math/rand"
	"testing"
)

// forEachBackend runs a subtest against a fresh store of every backend.
func forEachBackend(t *testing.T, capacity int, f func(t *testing.T, s Store[int])) {
	t.Helper()
	for _, b := range Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			f(t, NewStore[int](b, capacity))
		})
	}
}

func TestBackendConformance(t *testing.T) {
	forEachBackend(t, 0, func(t *testing.T, s Store[int]) {
		r1 := s.NewRegion()
		r2 := s.NewRegion()
		if r1 != 1 || r2 != 2 {
			t.Fatalf("region ids = %d, %d; want 1, 2", r1, r2)
		}
		a1, err := s.Put(r1, 10)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := s.Put(r2, 20)
		a3, _ := s.Put(r1, 30) // interleaved: breaks arena contiguity
		ac, _ := s.Put(CD, 99)
		for _, c := range []struct {
			a    Addr
			want int
		}{{a1, 10}, {a2, 20}, {a3, 30}, {ac, 99}} {
			if v, err := s.Get(c.a); err != nil || v != c.want {
				t.Errorf("Get(%s) = %d, %v; want %d", c.a, v, err, c.want)
			}
		}
		if err := s.Set(a3, 31); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Get(a3); v != 31 {
			t.Errorf("Get after Set = %d", v)
		}
		if got := s.LiveCells(); got != 3 {
			t.Errorf("LiveCells = %d, want 3 (cd excluded)", got)
		}
		if got := s.Size(r1); got != 2 {
			t.Errorf("Size(r1) = %d, want 2", got)
		}
		if err := s.Only([]Name{r1}); err != nil {
			t.Fatal(err)
		}
		if s.Has(r2) || !s.Has(r1) || !s.Has(CD) {
			t.Errorf("Only kept the wrong regions")
		}
		if v, err := s.Get(a1); err != nil || v != 10 {
			t.Errorf("survivor cell: %d, %v", v, err)
		}
		if v, err := s.Get(ac); err != nil || v != 99 {
			t.Errorf("cd cell after Only: %d, %v", v, err)
		}
		if _, err := s.Get(a2); err == nil {
			t.Errorf("read from reclaimed region succeeded")
		}
		st := s.Stats()
		want := Stats{Puts: 4, Gets: 7, Sets: 1, RegionsCreated: 2,
			RegionsReclaimed: 1, CellsReclaimed: 1, MaxLiveCells: 3}
		if st != want {
			t.Errorf("stats = %+v, want %+v", st, want)
		}
		if err := s.Only([]Name{r2}); err == nil {
			t.Errorf("only keeping a dead region should error")
		}
		if s.Stats() != st {
			t.Errorf("erroring Only mutated stats: %+v", s.Stats())
		}
	})
}

func TestBackendPeekCorrupt(t *testing.T) {
	forEachBackend(t, 0, func(t *testing.T, s Store[int]) {
		r := s.NewRegion()
		a, _ := s.Put(r, 7)
		before := s.Stats()
		if v, ok := s.Peek(a); !ok || v != 7 {
			t.Errorf("Peek = %d, %v", v, ok)
		}
		if !s.Corrupt(a, 8) {
			t.Errorf("Corrupt of live cell failed")
		}
		if s.Stats() != before {
			t.Errorf("Peek/Corrupt moved counters: %+v", s.Stats())
		}
		if v, _ := s.Get(a); v != 8 {
			t.Errorf("corrupted cell reads %d", v)
		}
		if _, ok := s.Peek(Addr{Region: r, Off: 99}); ok {
			t.Errorf("Peek of unallocated cell succeeded")
		}
		if s.Corrupt(Addr{Region: 42, Off: 0}, 1) {
			t.Errorf("Corrupt of dead region succeeded")
		}
	})
}

func TestBackendFullnessAndAutoGrow(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, s Store[int]) {
		s.SetAutoGrow(true)
		r := s.NewRegion()
		s.Put(r, 1)
		if s.Full(r) {
			t.Errorf("1/2 region reported full")
		}
		s.Put(r, 2)
		if !s.Full(r) {
			t.Errorf("2/2 region not reported full")
		}
		// 2 survivors > capacity/2 = 1, so the capacity doubles to 4.
		if err := s.Only([]Name{r}); err != nil {
			t.Fatal(err)
		}
		if got := s.Capacity(); got != 4 {
			t.Errorf("capacity after growth = %d, want 4", got)
		}
		if s.Full(r) {
			t.Errorf("region full after growth")
		}
	})
}

func TestBackendCellsOrder(t *testing.T) {
	forEachBackend(t, 0, func(t *testing.T, s Store[int]) {
		r1 := s.NewRegion()
		r2 := s.NewRegion()
		s.Put(r1, 1)
		s.Put(r2, 2)
		s.Put(r1, 3)
		want := []Addr{{r1, 0}, {r1, 1}, {r2, 0}}
		got := s.Cells()
		if len(got) != len(want) {
			t.Fatalf("Cells() = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Cells()[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// TestBackendsAgreeRandomOps drives both backends through the same
// pseudo-random op sequence and asserts identical addresses, values,
// stats, and heap contents throughout — the substrate-level differential
// suite backing the bit-for-bit counter-identity requirement.
func TestBackendsAgreeRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New[int](8)
	m.SetAutoGrow(true)
	// Every other substrate is differentially tested against the map
	// reference.
	others := []Store[int]{NewArena[int](8)}
	for _, s := range others {
		s.SetAutoGrow(true)
	}

	var liveRegions []Name
	var liveAddrs []Addr
	newRegion := func() {
		nm := m.NewRegion()
		for _, s := range others {
			if ns := s.NewRegion(); ns != nm {
				t.Fatalf("NewRegion: map %s %s %s", nm, s.Backend(), ns)
			}
		}
		liveRegions = append(liveRegions, nm)
	}
	newRegion()
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(100); {
		case op < 5:
			newRegion()
		case op < 55: // put
			n := liveRegions[rng.Intn(len(liveRegions))]
			v := rng.Intn(1000)
			am, em := m.Put(n, v)
			for _, s := range others {
				if as, es := s.Put(n, v); as != am || (em == nil) != (es == nil) {
					t.Fatalf("Put(%s): map (%v,%v) %s (%v,%v)", n, am, em, s.Backend(), as, es)
				}
			}
			liveAddrs = append(liveAddrs, am)
		case op < 80 && len(liveAddrs) > 0: // get
			a := liveAddrs[rng.Intn(len(liveAddrs))]
			vm, em := m.Get(a)
			for _, s := range others {
				if vs, es := s.Get(a); vs != vm || (em == nil) != (es == nil) {
					t.Fatalf("Get(%s): map (%v,%v) %s (%v,%v)", a, vm, em, s.Backend(), vs, es)
				}
			}
		case op < 90 && len(liveAddrs) > 0: // set
			a := liveAddrs[rng.Intn(len(liveAddrs))]
			v := rng.Intn(1000)
			em := m.Set(a, v)
			for _, s := range others {
				if es := s.Set(a, v); (em == nil) != (es == nil) {
					t.Fatalf("Set(%s): map %v %s %v", a, em, s.Backend(), es)
				}
			}
		case op < 95: // only: keep a random 1-3 element subset
			keep := make([]Name, 0, 3)
			for _, n := range liveRegions {
				if rng.Intn(len(liveRegions)) < 2 {
					keep = append(keep, n)
				}
			}
			em := m.Only(keep)
			for _, s := range others {
				if es := s.Only(keep); (em == nil) != (es == nil) {
					t.Fatalf("Only(%v): map %v %s %v", keep, em, s.Backend(), es)
				}
			}
			liveRegions = liveRegions[:0]
			for _, n := range m.Regions() {
				if n != CD {
					liveRegions = append(liveRegions, n)
				}
			}
			if len(liveRegions) == 0 {
				newRegion()
			}
			liveAddrs = liveAddrs[:0]
			for _, a := range m.Cells() {
				liveAddrs = append(liveAddrs, a)
			}
		default: // observers
			n := liveRegions[rng.Intn(len(liveRegions))]
			for _, s := range others {
				if m.Full(n) != s.Full(n) || m.Size(n) != s.Size(n) ||
					m.LiveCells() != s.LiveCells() || m.Capacity() != s.Capacity() {
					t.Fatalf("observer mismatch on %s (%s)", n, s.Backend())
				}
			}
		}
		for _, s := range others {
			if m.Stats() != s.Stats() {
				t.Fatalf("op %d: stats diverged: map %+v %s %+v", i, m.Stats(), s.Backend(), s.Stats())
			}
		}
	}
	// Final heap: identical addresses and identical contents everywhere.
	mc := m.Cells()
	for _, s := range others {
		sc := s.Cells()
		if len(mc) != len(sc) {
			t.Fatalf("cells: map %d %s %d", len(mc), s.Backend(), len(sc))
		}
		for i := range mc {
			if mc[i] != sc[i] {
				t.Fatalf("cell %d: map %v %s %v", i, mc[i], s.Backend(), sc[i])
			}
			vm, _ := m.Peek(mc[i])
			vs, _ := s.Peek(sc[i])
			if vm != vs {
				t.Fatalf("cell %v: map %d %s %d", mc[i], vm, s.Backend(), vs)
			}
		}
	}
}

// TestArenaScavengeRestoresContiguity checks the flip-flop protocol's
// postcondition: interleaved allocation materializes slot tables; once
// garbage reaches the live-set size, the scavenge evacuates survivors
// contiguously and drops the tables. Smaller condemned sets reclaim
// logically without paying for a copy.
func TestArenaScavengeRestoresContiguity(t *testing.T) {
	ar := NewArena[int](0)
	r1, r2 := ar.NewRegion(), ar.NewRegion()
	for i := 0; i < 10; i++ {
		ar.Put(r1, i)
		ar.Put(r2, 100+i)
	}
	if ar.pat[r1]&patBroken == 0 || ar.pat[r2]&patBroken == 0 {
		t.Fatalf("interleaved regions should carry the broken bit")
	}
	if ar.slots[r1] == nil || ar.slots[r2] == nil {
		t.Fatalf("interleaved regions should carry slot tables")
	}
	junk := ar.NewRegion()
	for i := 0; i < 20; i++ {
		ar.Put(junk, -1)
	}
	// 20 condemned cells against 20 survivors: the threshold trips and the
	// spaces flip.
	if err := ar.Only([]Name{r1, r2}); err != nil {
		t.Fatal(err)
	}
	if ar.pat[r1]&patBroken != 0 || ar.pat[r2]&patBroken != 0 || len(ar.slots) != 0 {
		t.Errorf("scavenge left slot tables in place")
	}
	if patBase(ar.pat[r1]) != 0 || patBase(ar.pat[r2]) != 10 {
		t.Errorf("survivors not compacted: bases %d, %d", patBase(ar.pat[r1]), patBase(ar.pat[r2]))
	}
	if len(ar.space) != 20 {
		t.Errorf("to-space holds %d cells, want 20", len(ar.space))
	}
	for i := 0; i < 10; i++ {
		if v, err := ar.Get(Addr{Region: r1, Off: i}); err != nil || v != i {
			t.Errorf("r1.%d = %d, %v", i, v, err)
		}
		if v, err := ar.Get(Addr{Region: r2, Off: i}); err != nil || v != 100+i {
			t.Errorf("r2.%d = %d, %v", i, v, err)
		}
	}
	// Condemning r2 (10 cells) against 11 survivors stays under the
	// threshold: reclamation is logical, no flip, the garbage lingers.
	ar.Put(r1, 999)
	if err := ar.Only([]Name{r1}); err != nil {
		t.Fatal(err)
	}
	if ar.garbage != 10 || len(ar.space) != 21 {
		t.Errorf("small condemned set should defer the scavenge: garbage %d, space %d", ar.garbage, len(ar.space))
	}
	if v, err := ar.Get(Addr{Region: r1, Off: 10}); err != nil || v != 999 {
		t.Errorf("post-reclaim cell = %d, %v", v, err)
	}
	if ar.Has(r2) {
		t.Errorf("r2 survived the collection that condemned it")
	}
	// More junk pushes garbage past the live set; the flipped space is
	// reused and the second scavenge keeps working.
	junk2 := ar.NewRegion()
	for i := 0; i < 12; i++ {
		ar.Put(junk2, -2)
	}
	if err := ar.Only([]Name{r1}); err != nil {
		t.Fatal(err)
	}
	if ar.garbage != 0 || len(ar.space) != 11 || patBase(ar.pat[r1]) != 0 {
		t.Errorf("second scavenge: garbage %d, space %d, base %d", ar.garbage, len(ar.space), patBase(ar.pat[r1]))
	}
	if v, err := ar.Get(Addr{Region: r1, Off: 10}); err != nil || v != 999 {
		t.Errorf("post-flip cell = %d, %v", v, err)
	}
}

// TestTraceReplayAcrossBackends records a workload's op trace on the map
// backend and replays it on the arena, asserting identical stats and heap.
func TestTraceReplayAcrossBackends(t *testing.T) {
	tr := NewTrace[int](New[int](4))
	tr.SetAutoGrow(true)
	var regionsAlive []Name
	for round := 0; round < 20; round++ {
		n := tr.NewRegion()
		regionsAlive = append(regionsAlive, n)
		for i := 0; i < 8; i++ {
			a, err := tr.Put(n, round*100+i)
			if err != nil {
				t.Fatal(err)
			}
			tr.Get(a)
			tr.Full(n)
		}
		if len(regionsAlive) > 2 {
			if err := tr.Only(regionsAlive[len(regionsAlive)-2:]); err != nil {
				t.Fatal(err)
			}
			regionsAlive = regionsAlive[len(regionsAlive)-2:]
			tr.LiveCells()
		}
	}
	for _, b := range Backends() {
		s := NewStore[int](b, 4)
		s.SetAutoGrow(true)
		if err := Replay(tr.Ops, s); err != nil {
			t.Fatalf("replay on %s: %v", b, err)
		}
		if s.Stats() != tr.Stats() {
			t.Errorf("%s replay stats %+v, recorded %+v", b, s.Stats(), tr.Stats())
		}
		rc, tc := s.Cells(), tr.Cells()
		if len(rc) != len(tc) {
			t.Fatalf("%s replay heap %d cells, recorded %d", b, len(rc), len(tc))
		}
		for i := range rc {
			vr, _ := s.Peek(rc[i])
			vt, _ := tr.Peek(tc[i])
			if rc[i] != tc[i] || vr != vt {
				t.Fatalf("%s replay cell %d: %v=%d, recorded %v=%d", b, i, rc[i], vr, tc[i], vt)
			}
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Backend
		err  bool
	}{{"", BackendMap, false}, {"map", BackendMap, false}, {"arena", BackendArena, false}, {"flat", 0, true}} {
		got, err := ParseBackend(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseBackend(%q) = %v, %v", c.in, got, err)
		}
	}
}
