// Package regions implements the region memory substrate of λGC's
// allocation semantics (paper §4.1, §6, Fig. 5).
//
// A memory M maps region names ν to regions; a region maps offsets ℓ to
// storable values; an address is a pair ν.ℓ. Allocation (put), reads (get),
// writes (set, used only by the forwarding-pointer collector), whole-region
// reclamation (only ∆), and the "is this region full" test observed by ifgc
// are all provided here. The code region cd is created with the memory,
// can never be reclaimed, and holds the program's functions (§4.3, §6.2).
//
// Region names are dense uint32 ids (cd = 0), the bit-pattern region
// encoding the paper flags as the realistic refinement (§8). Two backends
// implement the Store interface over that representation: the map-backed
// Memory (one Go slice per region, regions in a map — the semantic
// reference the subst oracle and co-checker run on) and the flat Arena
// (all cells in one slab, reclamation by Cheney two-finger scavenge; see
// arena.go). Both are generic over the stored value type so the λGC
// machines and the untyped baseline collectors share one substrate and one
// set of statistics, and both maintain the Stats counters identically,
// bit for bit — the cross-backend differential suite depends on that.
package regions

import (
	"fmt"
	"sort"
)

// Name is a runtime region name ν: a dense id interned at creation.
type Name uint32

// CD is the distinguished code region (§4.3). It always exists and is
// implicitly retained by only.
const CD Name = 0

func (n Name) String() string {
	if n == CD {
		return "cd"
	}
	return fmt.Sprintf("ν%d", uint32(n))
}

// Addr is a memory address ν.ℓ. It carries no strings or pointers, so
// address comparison and hashing are word operations.
type Addr struct {
	Region Name
	Off    int
}

func (a Addr) String() string { return fmt.Sprintf("%s.%d", a.Region, a.Off) }

// Stats counts memory traffic. All counters are cumulative over the life
// of the store. Both backends update every counter at the same operations
// with the same values, so Stats from a map run and an arena run of the
// same program are equal as structs.
type Stats struct {
	Puts             int // cells allocated
	Gets             int // cells read
	Sets             int // cells overwritten (forwarding installs)
	RegionsCreated   int // let region executions (excluding cd)
	RegionsReclaimed int // regions freed by only
	CellsReclaimed   int // cells freed by only
	MaxLiveCells     int // high-water mark of live non-code cells
}

// Store is the memory substrate interface the λGC machines run over. The
// two implementations are the map-backed Memory (New) and the flat Arena
// (NewArena); NewStore selects by Backend. Implementations must issue the
// same Names in the same order (ν1, ν2, … in creation order) and maintain
// Stats identically, so that addresses, traces, and counters from
// different backends are directly comparable.
type Store[V any] interface {
	// NewRegion allocates a fresh empty region and returns its name
	// (the ν of "let region r in e").
	NewRegion() Name
	// Has reports whether region n is live.
	Has(n Name) bool
	// Put allocates v in region n and returns its address.
	Put(n Name, v V) (Addr, error)
	// Get dereferences a.
	Get(a Addr) (V, error)
	// Set overwrites the cell at a (the forwarding-pointer install of §7).
	Set(a Addr, v V) error
	// Peek reads the cell at a without counting a Get. It serves the
	// bookkeeping reads that are not part of the program's memory traffic
	// (ghost-mode re-annotation, diagnostics); the counter identities the
	// co-checker compares must not see them.
	Peek(a Addr) (V, bool)
	// Corrupt silently overwrites the cell at a, bypassing statistics.
	// It exists for fault injection (internal/fault's machine.corrupt
	// point) and for the same bookkeeping writes Peek serves on the read
	// side: synthetic heap corruption must not perturb the counter
	// identities that oracle co-checking compares, so the damage can only
	// surface through later machine behavior. Reports whether a named a
	// live cell.
	Corrupt(a Addr, v V) bool
	// Only reclaims every region not listed in keep ("only ∆ in e"). The
	// code region is always retained, as in the paper's typing rule.
	// Keeping an already-dead region name is an error (the static
	// semantics prevents it), and an erroring Only has no effect.
	Only(keep []Name) error
	// Full reports whether region n has reached the fullness threshold.
	// It is the oracle behind ifgc's "if ρ is full" side condition
	// (Fig. 5).
	Full(n Name) bool
	// Size returns the number of cells allocated in region n (0 if dead).
	Size(n Name) int
	// LiveCells returns the number of live cells outside the code region.
	LiveCells() int
	// Regions returns the live region names in creation order.
	Regions() []Name
	// Cells returns the addresses of every live cell, region-major in
	// creation order, offsets ascending.
	Cells() []Addr
	// Stats returns the cumulative traffic counters.
	Stats() Stats
	// Capacity returns the soft per-region fullness threshold observed by
	// Full (and hence by ifgc). Zero means regions never report full.
	// Puts beyond the capacity still succeed: the paper's semantics never
	// blocks allocation, fullness only triggers collection.
	Capacity() int
	// AutoGrow reports whether the heap-growth policy is enabled. Snapshot
	// records it so a restored store keeps the policy of the original.
	AutoGrow() bool
	// SetAutoGrow enables the heap-growth policy a real collector needs:
	// after a reclamation (only ∆), if the survivors fill more than half
	// of the capacity, the capacity doubles to at least twice the live
	// size. Without growth, a mutator whose live set reaches the capacity
	// re-triggers a collection at every function entry forever (the
	// paper's gc re-runs the ifgc check on return, §5).
	SetAutoGrow(on bool)
	// Backend identifies the implementation.
	Backend() Backend
}

// Backend selects a Store implementation.
type Backend int

const (
	// BackendMap is the map-backed Memory: one Go slice per region,
	// regions keyed by id in a map. The subst oracle and the co-checker's
	// oracle side always run on it.
	BackendMap Backend = iota
	// BackendArena is the flat Arena: all cells bump-allocated in one
	// slab, reclamation by Cheney two-finger scavenge into a to-space.
	BackendArena
)

func (b Backend) String() string {
	switch b {
	case BackendMap:
		return "map"
	case BackendArena:
		return "arena"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name. The empty string selects the map
// backend (the historical default).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "map":
		return BackendMap, nil
	case "arena":
		return BackendArena, nil
	default:
		return 0, fmt.Errorf("regions: unknown backend %q (want map or arena)", s)
	}
}

// Backends lists the selectable backends.
func Backends() []Backend { return []Backend{BackendMap, BackendArena} }

// NewStore returns a fresh store of the selected backend containing only
// the code region cd.
func NewStore[V any](b Backend, capacity int) Store[V] {
	if b == BackendArena {
		return NewArena[V](capacity)
	}
	return New[V](capacity)
}

// A region is a growable array of cells. Offsets are dense, so iteration
// order is deterministic and independent of Go map ordering.
type region[V any] struct {
	cells []V
}

// Memory is the map-backed region store.
type Memory[V any] struct {
	capacity int
	autoGrow bool
	stats    Stats

	regions map[Name]*region[V]
	order   []Name // creation order, for deterministic iteration
	live    int    // live non-code cells, maintained incrementally
	counter uint32

	scratch []Name // reusable survivor buffer for Only
}

// New returns a map-backed memory containing only the code region cd.
func New[V any](capacity int) *Memory[V] {
	m := &Memory[V]{capacity: capacity, regions: make(map[Name]*region[V])}
	m.regions[CD] = &region[V]{}
	m.order = append(m.order, CD)
	return m
}

// Backend identifies the implementation.
func (m *Memory[V]) Backend() Backend { return BackendMap }

// Stats returns the cumulative traffic counters.
func (m *Memory[V]) Stats() Stats { return m.stats }

// Capacity returns the per-region fullness threshold (see Store).
func (m *Memory[V]) Capacity() int { return m.capacity }

// AutoGrow reports whether the heap-growth policy is enabled.
func (m *Memory[V]) AutoGrow() bool { return m.autoGrow }

// SetAutoGrow enables the survivor-driven heap-growth policy (see Store).
func (m *Memory[V]) SetAutoGrow(on bool) { m.autoGrow = on }

// NewRegion allocates a fresh empty region and returns its name.
func (m *Memory[V]) NewRegion() Name {
	m.counter++
	n := Name(m.counter)
	m.regions[n] = &region[V]{}
	m.order = append(m.order, n)
	m.stats.RegionsCreated++
	return n
}

// Has reports whether region n is live.
func (m *Memory[V]) Has(n Name) bool {
	_, ok := m.regions[n]
	return ok
}

// Put allocates v in region n and returns its address.
func (m *Memory[V]) Put(n Name, v V) (Addr, error) {
	r, ok := m.regions[n]
	if !ok {
		return Addr{}, fmt.Errorf("regions: put into dead region %s", n)
	}
	r.cells = append(r.cells, v)
	m.stats.Puts++
	if n != CD {
		m.live++
		if m.live > m.stats.MaxLiveCells {
			m.stats.MaxLiveCells = m.live
		}
	}
	return Addr{Region: n, Off: len(r.cells) - 1}, nil
}

// Get dereferences a.
func (m *Memory[V]) Get(a Addr) (V, error) {
	var zero V
	r, ok := m.regions[a.Region]
	if !ok {
		return zero, fmt.Errorf("regions: get from dead region %s", a.Region)
	}
	if a.Off < 0 || a.Off >= len(r.cells) {
		return zero, fmt.Errorf("regions: get from unallocated address %s", a)
	}
	m.stats.Gets++
	return r.cells[a.Off], nil
}

// Set overwrites the cell at a (the forwarding-pointer install of §7).
func (m *Memory[V]) Set(a Addr, v V) error {
	r, ok := m.regions[a.Region]
	if !ok {
		return fmt.Errorf("regions: set in dead region %s", a.Region)
	}
	if a.Off < 0 || a.Off >= len(r.cells) {
		return fmt.Errorf("regions: set at unallocated address %s", a)
	}
	r.cells[a.Off] = v
	m.stats.Sets++
	return nil
}

// Peek reads the cell at a without counting a Get (see Store).
func (m *Memory[V]) Peek(a Addr) (V, bool) {
	var zero V
	r, ok := m.regions[a.Region]
	if !ok || a.Off < 0 || a.Off >= len(r.cells) {
		return zero, false
	}
	return r.cells[a.Off], true
}

// Corrupt silently overwrites the cell at a, bypassing statistics (see
// Store).
func (m *Memory[V]) Corrupt(a Addr, v V) bool {
	r, ok := m.regions[a.Region]
	if !ok || a.Off < 0 || a.Off >= len(r.cells) {
		return false
	}
	r.cells[a.Off] = v
	return true
}

// keepsName reports whether keep retains n. The keep list of a real
// collection has 1–3 entries (the collector's to-space and survivor
// regions), so a linear scan beats building a set — and allocates nothing.
func keepsName(keep []Name, n Name) bool {
	if n == CD {
		return true
	}
	for _, k := range keep {
		if k == n {
			return true
		}
	}
	return false
}

// Only reclaims every region not listed in keep ("only ∆ in e").
func (m *Memory[V]) Only(keep []Name) error {
	for _, n := range keep {
		if !m.Has(n) {
			return fmt.Errorf("regions: only keeps dead region %s", n)
		}
	}
	remaining := m.scratch[:0]
	for _, n := range m.order {
		if keepsName(keep, n) {
			remaining = append(remaining, n)
			continue
		}
		dead := len(m.regions[n].cells)
		m.stats.RegionsReclaimed++
		m.stats.CellsReclaimed += dead
		m.live -= dead
		delete(m.regions, n)
	}
	m.scratch = m.order[:0] // recycle the old order slice next time
	m.order = remaining
	if m.autoGrow && m.capacity > 0 && m.live > m.capacity/2 {
		m.capacity = 2 * m.live
	}
	return nil
}

// Full reports whether region n has reached the fullness threshold.
func (m *Memory[V]) Full(n Name) bool {
	if m.capacity <= 0 {
		return false
	}
	r, ok := m.regions[n]
	return ok && len(r.cells) >= m.capacity
}

// Size returns the number of cells allocated in region n (0 if dead).
func (m *Memory[V]) Size(n Name) int {
	r, ok := m.regions[n]
	if !ok {
		return 0
	}
	return len(r.cells)
}

// LiveCells returns the number of live cells outside the code region.
func (m *Memory[V]) LiveCells() int { return m.live }

// Regions returns the live region names in creation order.
func (m *Memory[V]) Regions() []Name {
	return append([]Name(nil), m.order...)
}

// Cells returns the addresses of every live cell, in deterministic order.
func (m *Memory[V]) Cells() []Addr {
	var out []Addr
	for _, n := range m.order {
		for off := range m.regions[n].cells {
			out = append(out, Addr{Region: n, Off: off})
		}
	}
	return out
}

// SortedNames sorts region names by id — which is creation order — for
// stable diagnostics.
func SortedNames(ns []Name) []Name {
	out := append([]Name(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
