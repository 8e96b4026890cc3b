package gclang

import (
	"fmt"
	"math/rand"
	"testing"

	"psgc/internal/kinds"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// genCellValue builds a random storable value covering every packed form,
// including payloads past the inline word ranges (62-bit numbers, 30-bit
// offsets) so the cells-pool spill path is exercised.
func genCellValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Num{N: r.Intn(2001) - 1000}
		case 1:
			// Full-range int: about half of these overflow the 62-bit
			// inline range and must spill into the cells pool.
			return Num{N: int(r.Uint64())}
		case 2:
			return AddrV{Addr: regions.Addr{Region: regions.Name(r.Intn(1 << 16)), Off: r.Intn(1 << 12)}}
		default:
			// Offsets at and past 2^30 cannot inline into a packed word.
			return AddrV{Addr: regions.Addr{Region: regions.Name(r.Intn(8)), Off: (1 << 30) - 2 + r.Intn(5)}}
		}
	}
	rv := func() Value { return genCellValue(r, depth-1) }
	rname := func() Region { return RVar{Name: names.Name(fmt.Sprintf("r%d", r.Intn(4)))} }
	switch r.Intn(10) {
	case 0:
		return PairV{L: rv(), R: rv()}
	case 1:
		return InlV{Val: rv()}
	case 2:
		return InrV{Val: rv()}
	case 3:
		return Var{Name: names.Name(fmt.Sprintf("x%d", r.Intn(8)))}
	case 4:
		return PackTag{Bound: "t", Kind: kinds.Omega{}, Tag: tags.Int{}, Val: rv(), Body: IntT{}}
	case 5:
		return PackAlpha{Bound: "a", Delta: []Region{rname()}, Hidden: IntT{}, Val: rv(), Body: IntT{}}
	case 6:
		return PackRegion{Bound: "p", Delta: []Region{rname()}, R: rname(), Val: rv(), Body: IntT{}}
	case 7:
		return TAppV{Val: rv(), Tags: []tags.Tag{tags.Int{}}, Rs: []Region{rname()}}
	case 8:
		return LamV{RParams: []names.Name{"r"}, Params: []Param{{Name: "x", Ty: IntT{}}},
			Body: HaltT{V: rv()}}
	default:
		return rv()
	}
}

// TestCellRoundTripRandom is the exhaustive pack/unpack property: for every
// generated value, Decode∘Encode is the identity (up to String, which pins
// the full structure) and the packed word accounting matches the boxed
// ValueWords the StepEvent identities are built on.
func TestCellRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p := NewPools()
	for i := 0; i < 2000; i++ {
		v := genCellValue(r, 1+r.Intn(4))
		c := p.Encode(v)
		got := p.Decode(c)
		if got.String() != v.String() {
			t.Fatalf("round trip %d:\n  in:  %s\n  out: %s", i, v, got)
		}
		if cw, vw := p.CellWords(c), ValueWords(v); cw != vw {
			t.Fatalf("value %d (%s): CellWords %d, ValueWords %d", i, v, cw, vw)
		}
	}
}

// TestCellRoundTripNestedPackages pins the pool-append ordering: encoding
// a package whose payload is itself a pooled form must hand back a handle
// to the outer entry, not to whatever the nested Encode appended.
func TestCellRoundTripNestedPackages(t *testing.T) {
	inner := PairV{L: TAppV{Val: AddrV{Addr: regions.Addr{Region: regions.CD, Off: 3}},
		Tags: []tags.Tag{tags.Int{}}, Rs: []Region{RVar{Name: "r"}}}, R: Num{N: 2}}
	v := Value(inner)
	for i, b := range []names.Name{"ka", "ke", "k2", "k1"} {
		v = PackTag{Bound: b, Kind: kinds.Omega{}, Tag: tags.Int{}, Val: v, Body: IntT{}}
		p := NewPools()
		c := p.Encode(v)
		if got := p.Decode(c); got.String() != v.String() {
			t.Fatalf("depth %d:\n  in:  %s\n  out: %s", i+1, v, got)
		}
	}
}

// TestCellWordInlineBounds checks the 2-bit-tagged payload words at their
// inline limits: numbers within ±2^61 and addresses with region < 2^32,
// offset < 2^30 pack inline (no pool growth); anything past spills.
func TestCellWordInlineBounds(t *testing.T) {
	p := NewPools()
	inline := []Cell{
		NumCell(int(wordNumMax - 1)),
		NumCell(int(-wordNumMax)),
		NumCell(0),
		AddrCell(regions.Addr{Region: regions.Name(1<<32 - 1), Off: 1<<30 - 1}),
		AddrCell(regions.Addr{}),
	}
	for _, c := range inline {
		w := p.wordOf(c)
		if len(p.cells) != 0 {
			t.Fatalf("cell %+v spilled into the pool", c)
		}
		if got := p.cellOfWord(w); got != c {
			t.Fatalf("inline word round trip: %+v -> %#x -> %+v", c, w, got)
		}
	}
	spill := []Cell{
		NumCell(int(wordNumMax)),
		NumCell(int(-wordNumMax - 1)),
		AddrCell(regions.Addr{Region: regions.Name(1), Off: 1 << 30}),
	}
	for i, c := range spill {
		w := p.wordOf(c)
		if len(p.cells) != i+1 {
			t.Fatalf("cell %+v did not spill (pool %d)", c, len(p.cells))
		}
		if got := p.cellOfWord(w); got != c {
			t.Fatalf("spilled word round trip: %+v -> %#x -> %+v", c, w, got)
		}
	}
}

// TestCellDecodeNeverPanics feeds Decode corrupted cells — out-of-range
// pool handles, invalid word kinds, and the chaos fault's exact tag flip —
// and requires a poison value, never a panic.
func TestCellDecodeNeverPanics(t *testing.T) {
	p := NewPools()
	for tag := CellFree; tag <= CellTApp; tag++ {
		c := Cell{Tag: tag, A: 1 << 40, B: 1 << 40}
		_ = p.Decode(c) // must not panic on garbage handles
		_ = p.CellWords(c)
	}
	// Invalid word kind 3 inside a pair payload.
	bad := Cell{Tag: CellPair, A: 3, B: 7}
	if got := p.Decode(bad); got.String() != (PairV{L: corruptVar, R: corruptVar}).String() {
		t.Fatalf("invalid word kinds decoded to %s", got)
	}
	// The machine.corrupt fault flips the low tag bits of a stored cell;
	// every valid tag must map to a different tag and decode without
	// panicking.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		c := p.Encode(genCellValue(r, 2))
		flipped := c
		flipped.Tag ^= 0x7
		if flipped.Tag == c.Tag {
			t.Fatalf("tag flip fixed point at %v", c.Tag)
		}
		_ = p.Decode(flipped)
		_ = p.CellWords(flipped)
	}
}

// TestStoreCellBackendConformance drives the map and arena backends over
// an identical random schedule of packed-cell operations and requires
// bit-identical observables: issued names and addresses, statistics,
// region sets, and raw cell contents.
func TestStoreCellBackendConformance(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	p := NewPools() // shared pool: handles must agree bit-for-bit across stores
	m := regions.NewStore[Cell](regions.BackendMap, 16)
	a := regions.NewStore[Cell](regions.BackendArena, 16)
	m.SetAutoGrow(true)
	a.SetAutoGrow(true)

	var live []regions.Name
	var addrs []regions.Addr
	for round := 0; round < 40; round++ {
		mn, an := m.NewRegion(), a.NewRegion()
		if mn != an {
			t.Fatalf("round %d: names diverged: map %s arena %s", round, mn, an)
		}
		live = append(live, mn)
		for i := 0; i < 5+r.Intn(20); i++ {
			n := live[r.Intn(len(live))]
			c := p.Encode(genCellValue(r, 1+r.Intn(3)))
			ma, err1 := m.Put(n, c)
			aa, err2 := a.Put(n, c)
			if (err1 == nil) != (err2 == nil) || ma != aa {
				t.Fatalf("put: map %v,%v arena %v,%v", ma, err1, aa, err2)
			}
			if err1 == nil {
				addrs = append(addrs, ma)
			}
		}
		for i := 0; i < 5 && len(addrs) > 0; i++ {
			ad := addrs[r.Intn(len(addrs))]
			mv, err1 := m.Get(ad)
			av, err2 := a.Get(ad)
			if (err1 == nil) != (err2 == nil) || mv != av {
				t.Fatalf("get %v: map %+v,%v arena %+v,%v", ad, mv, err1, av, err2)
			}
			if err1 == nil && r.Intn(2) == 0 {
				c := p.Encode(genCellValue(r, 1))
				if e1, e2 := m.Set(ad, c), a.Set(ad, c); (e1 == nil) != (e2 == nil) {
					t.Fatalf("set %v: map %v arena %v", ad, e1, e2)
				}
			}
		}
		if r.Intn(3) == 0 && len(live) > 1 {
			// Condemn a random suffix of the live regions.
			keepN := r.Intn(len(live))
			keep := append([]regions.Name(nil), live[:keepN]...)
			if e1, e2 := m.Only(keep), a.Only(keep); (e1 == nil) != (e2 == nil) {
				t.Fatalf("only: map %v arena %v", e1, e2)
			}
			live = live[:keepN]
			kept := addrs[:0]
			for _, ad := range addrs {
				if m.Has(ad.Region) {
					kept = append(kept, ad)
				}
			}
			addrs = kept
		}
		if m.Stats() != a.Stats() {
			t.Fatalf("round %d: stats: map %+v arena %+v", round, m.Stats(), a.Stats())
		}
	}
	mc, ac := m.Cells(), a.Cells()
	if len(mc) != len(ac) {
		t.Fatalf("final heap: map %d cells arena %d", len(mc), len(ac))
	}
	for i := range mc {
		if mc[i] != ac[i] {
			t.Fatalf("cell order %d: map %v arena %v", i, mc[i], ac[i])
		}
		mv, _ := m.Peek(mc[i])
		av, _ := a.Peek(ac[i])
		if mv != av {
			t.Fatalf("cell %v: map %+v arena %+v", mc[i], mv, av)
		}
	}
}

// TestArenaPackedCellZeroAllocs is the PR's allocation gate on the
// substrate: once the slabs are warm, arena Put, Get, and Set over packed
// cells must not allocate on the host heap at all — that is the whole
// point of the pointer-free Cell representation.
func TestArenaPackedCellZeroAllocs(t *testing.T) {
	ar := regions.NewArena[Cell](0)
	keep := ar.NewRegion()
	const warm = 4096
	for i := 0; i < warm; i++ {
		ar.Put(keep, NumCell(i))
	}
	// Two junk fills with scavenging flips size both slabs past the
	// measured loop's needs.
	for flip := 0; flip < 2; flip++ {
		junk := ar.NewRegion()
		for i := 0; i < warm; i++ {
			ar.Put(junk, NumCell(i))
		}
		if err := ar.Only([]regions.Name{keep}); err != nil {
			t.Fatal(err)
		}
	}
	fresh := ar.NewRegion()
	var sink Cell
	allocs := testing.AllocsPerRun(100, func() {
		a, err := ar.Put(fresh, NumCell(7))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ar.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := ar.Set(a, c); err != nil {
			t.Fatal(err)
		}
		sink = c
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("arena Put/Get/Set allocated %.1f allocs/op, want 0", allocs)
	}
}
