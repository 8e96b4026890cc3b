package regions

import (
	"fmt"
	"testing"
)

// benchBackends runs a sub-benchmark against a fresh store of each
// backend.
func benchBackends(b *testing.B, capacity int, f func(b *testing.B, mk func() Store[int])) {
	for _, be := range Backends() {
		be := be
		b.Run(be.String(), func(b *testing.B) {
			f(b, func() Store[int] { return NewStore[int](be, capacity) })
		})
	}
}

// BenchmarkPut is the O(1)-allocation regression for the hot path: Put
// must not scan live regions (the old MaxLiveCells maintenance did) and
// must allocate only the amortized slab growth. With many live regions the
// per-op time must stay flat.
func BenchmarkPut(b *testing.B) {
	for _, liveRegions := range []int{1, 256} {
		b.Run(fmt.Sprintf("regions=%d", liveRegions), func(b *testing.B) {
			benchBackends(b, 0, func(b *testing.B, mk func() Store[int]) {
				s := mk()
				rs := make([]Name, liveRegions)
				for i := range rs {
					rs[i] = s.NewRegion()
					s.Put(rs[i], i) // non-empty so LiveCells sums real sizes
				}
				r := rs[0]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Put(r, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkGet(b *testing.B) {
	benchBackends(b, 0, func(b *testing.B, mk func() Store[int]) {
		s := mk()
		// Two interleaved regions so the arena measures its slot-table
		// path too, not just the contiguous fast path.
		r1, r2 := s.NewRegion(), s.NewRegion()
		const n = 1024
		addrs := make([]Addr, 0, 2*n)
		for i := 0; i < n; i++ {
			a1, _ := s.Put(r1, i)
			a2, _ := s.Put(r2, i)
			addrs = append(addrs, a1, a2)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Get(addrs[i%len(addrs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSet(b *testing.B) {
	benchBackends(b, 0, func(b *testing.B, mk func() Store[int]) {
		s := mk()
		r := s.NewRegion()
		const n = 1024
		addrs := make([]Addr, n)
		for i := 0; i < n; i++ {
			addrs[i], _ = s.Put(r, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Set(addrs[i%n], i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnly measures one collection cycle: allocate a condemned and a
// survivor region, reclaim the condemned one. ReportAllocs pins the
// keep-set delta: the keep list is scanned, not hashed into a fresh map,
// so steady-state collections allocate nothing beyond slab growth.
func BenchmarkOnly(b *testing.B) {
	for _, liveCells := range []int{4, 256} {
		b.Run(fmt.Sprintf("live=%d", liveCells), func(b *testing.B) {
			benchBackends(b, 0, func(b *testing.B, mk func() Store[int]) {
				s := mk()
				keep := []Name{s.NewRegion()}
				for i := 0; i < liveCells; i++ {
					s.Put(keep[0], i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dead := s.NewRegion()
					for j := 0; j < 4; j++ {
						s.Put(dead, j)
					}
					if err := s.Only(keep); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
