// Package slru is the segmented LRU (SLRU) behind both bounded stores of
// the service: the compiled-program cache (internal/service) and the
// per-program profile store the adaptive policy reads (internal/obs).
//
// Every admission lands in a probationary segment; a hit promotes the
// entry to a protected segment. Eviction always drains the probationary
// tail first, so a storm of one-shot keys — or an injected cache.evict
// fault (Storm) — can only flush probation: entries that have
// demonstrated reuse stay resident. The protected segment is capped at
// 80% of each budget; overflow demotes its LRU entries back to probation
// (most recently used side), where they must earn another hit to return.
//
// Entries carry a weight, and eviction runs while the cache exceeds its
// entry-count cap or its total-weight budget (either 0 = unlimited). A
// heavy entry can therefore displace many light ones, but never itself:
// the entry just admitted always stays, even when it alone exceeds the
// budget.
//
// A Cache is not safe for concurrent use. Each owner guards it with its own
// lock, which lets an owner find an entry and mutate the value it points to
// under one critical section.
package slru

import (
	"container/list"
	"errors"
)

// protectedShare is the fraction of each budget (entries and weight) the
// protected segment may hold — the classic SLRU ~80/20 split.
const protectedShare = 0.8

// Cache is a segmented LRU from K to V.
type Cache[K comparable, V any] struct {
	max       int // entry-count cap; 0 = unlimited
	maxWeight int // total-weight budget; 0 = unlimited

	weight     int // total weight of both segments
	protWeight int // weight of the protected segment
	evictions  int64

	// probation and protected are the two recency lists (front = most
	// recently used); values are *entry[K, V]. index covers both.
	probation list.List
	protected list.List
	index     map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key       K
	val       V
	weight    int
	protected bool
}

// New returns an empty cache capped at max entries and maxWeight total
// weight; a cap of 0 leaves that dimension unlimited.
func New[K comparable, V any](max, maxWeight int) *Cache[K, V] {
	return &Cache[K, V]{max: max, maxWeight: maxWeight, index: make(map[K]*list.Element)}
}

func protectedCap(budget int) int {
	if budget <= 0 {
		return 0 // unlimited, like the budget itself
	}
	return max(int(protectedShare*float64(budget)), 1)
}

// Get returns the value for k and records the hit: a probationary entry is
// promoted to the protected segment, a protected one refreshes its recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if e.protected {
		c.protected.MoveToFront(el)
	} else {
		c.probation.Remove(el)
		e.protected = true
		c.index[k] = c.protected.PushFront(e)
		c.protWeight += e.weight
		c.demoteOverflow()
	}
	return e.val, true
}

// Peek returns the value for k without touching recency or segments.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	el, ok := c.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Add admits k with value v and the given weight into probation, evicting
// while the cache is over either cap — probationary tail first, protected
// tail only when probation holds nothing but the new entry. A present k is
// refreshed instead: its value and weight are replaced and it moves to the
// front of the segment it is in, without being promoted. Returns the number
// of evictions.
func (c *Cache[K, V]) Add(k K, v V, weight int) int {
	if el, ok := c.index[k]; ok {
		e := el.Value.(*entry[K, V])
		c.weight += weight - e.weight
		if e.protected {
			c.protWeight += weight - e.weight
			c.protected.MoveToFront(el)
		} else {
			c.probation.MoveToFront(el)
		}
		e.val, e.weight = v, weight
		c.demoteOverflow()
		return 0
	}
	newEl := c.probation.PushFront(&entry[K, V]{key: k, val: v, weight: weight})
	c.index[k] = newEl
	c.weight += weight
	evicted := 0
	for c.Len() > 1 &&
		((c.max > 0 && c.Len() > c.max) || (c.maxWeight > 0 && c.weight > c.maxWeight)) {
		victim := c.probation.Back()
		if victim == newEl {
			// Probation holds only the new entry, so with Len() > 1 the
			// protected segment is not empty.
			victim = c.protected.Back()
		}
		c.evict(victim)
		evicted++
	}
	return evicted
}

// demoteOverflow moves protected LRU entries back to probation (MRU side)
// while the protected segment is over its share of either cap. A lone
// protected entry is never demoted: with nothing to make room for, the
// churn would only strip its protection.
func (c *Cache[K, V]) demoteOverflow() {
	pc, pw := protectedCap(c.max), protectedCap(c.maxWeight)
	for c.protected.Len() > 1 &&
		((pc > 0 && c.protected.Len() > pc) || (pw > 0 && c.protWeight > pw)) {
		el := c.protected.Back()
		c.protected.Remove(el)
		e := el.Value.(*entry[K, V])
		e.protected = false
		c.protWeight -= e.weight
		c.index[e.key] = c.probation.PushFront(e)
	}
}

// evict removes one element from whichever segment holds it.
func (c *Cache[K, V]) evict(el *list.Element) {
	e := el.Value.(*entry[K, V])
	if e.protected {
		c.protected.Remove(el)
		c.protWeight -= e.weight
	} else {
		c.probation.Remove(el)
	}
	delete(c.index, e.key)
	c.weight -= e.weight
	c.evictions++
}

// Storm flushes the entire probationary segment: a scan flood arrives and
// every entry without demonstrated reuse goes, while protected entries
// survive. Returns the number of evictions.
func (c *Cache[K, V]) Storm() int {
	evicted := 0
	for c.probation.Len() > 0 {
		c.evict(c.probation.Back())
		evicted++
	}
	return evicted
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.probation.Len() + c.protected.Len() }

// Weight reports the total weight of the entries.
func (c *Cache[K, V]) Weight() int { return c.weight }

// Segments reports the probationary and protected entry counts.
func (c *Cache[K, V]) Segments() (probation, protected int) {
	return c.probation.Len(), c.protected.Len()
}

// Evictions reports the cumulative number of evicted entries.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions }

// Walk calls fn on every entry in recency order, the protected segment
// first, without touching recency, until fn returns false.
func (c *Cache[K, V]) Walk(fn func(K, V) bool) {
	for _, l := range [2]*list.List{&c.protected, &c.probation} {
		for el := l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[K, V])
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

// Coherent re-derives the cached invariants from scratch and reports the
// first violation: the index must cover exactly the two lists, the weights
// must re-add, and every entry's segment flag must match its list.
func (c *Cache[K, V]) Coherent() error {
	seen, weight, protWeight := 0, 0, 0
	for _, l := range [2]*list.List{&c.probation, &c.protected} {
		for el := l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[K, V])
			if e.protected != (l == &c.protected) {
				return errors.New("slru incoherent: entry flagged for the other segment")
			}
			if c.index[e.key] != el {
				return errors.New("slru incoherent: entry not indexed")
			}
			weight += e.weight
			if e.protected {
				protWeight += e.weight
			}
			seen++
		}
	}
	switch {
	case seen != len(c.index):
		return errors.New("slru incoherent: index size disagrees with the segments")
	case weight != c.weight:
		return errors.New("slru incoherent: total weight out of sync")
	case protWeight != c.protWeight:
		return errors.New("slru incoherent: protected weight out of sync")
	}
	return nil
}
