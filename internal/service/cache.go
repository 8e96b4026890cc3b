package service

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/obs"
	"psgc/internal/slru"
)

// cacheKey identifies a compiled program: the hash of its source text plus
// the collector it is linked against.
type cacheKey struct {
	hash [sha256.Size]byte
	col  psgc.Collector
}

func keyFor(src string, col psgc.Collector) cacheKey {
	return cacheKey{hash: sha256.Sum256([]byte(src)), col: col}
}

// SourceHash returns the hex source hash the service reports to clients,
// so repeat submissions can be correlated with cache behavior.
func SourceHash(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// compiledCache holds ready-to-run compiled programs in a segmented LRU
// (internal/slru) keyed by (source hash, collector). A *psgc.Compiled is
// immutable, so one entry may be handed to any number of concurrent
// workers; the lock only guards the bookkeeping.
//
// Each entry is weighted by the AST size of its elaborated λGC program
// (gclang.ProgramSize), so the weight budget bounds the memory the cache
// holds rather than just its entry count.
type compiledCache struct {
	mu  sync.Mutex
	lru *slru.Cache[cacheKey, cachedProgram]
}

type cachedProgram struct {
	compiled *psgc.Compiled
	// pipeline holds the phase spans of the compile that produced the
	// entry, so traced cache hits can still report what the compile cost.
	pipeline []obs.PhaseSpan
}

// newCompiledCache returns a cache capped at max entries and maxWeight
// total ProgramSize; 0 leaves a cap unlimited.
func newCompiledCache(max, maxWeight int) *compiledCache {
	return &compiledCache{lru: slru.New[cacheKey, cachedProgram](max, maxWeight)}
}

// get returns the cached program and its compile spans for the key,
// promoting a probationary entry to the protected segment.
func (c *compiledCache) get(k cacheKey) (*psgc.Compiled, []obs.PhaseSpan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.lru.Get(k)
	return p.compiled, p.pipeline, ok
}

// peek returns the cached program for the key without touching recency or
// segment state, so fleet peer-export traffic cannot promote entries into
// the protected segment (or keep one-shot programs alive past their turn).
func (c *compiledCache) peek(k cacheKey) (*psgc.Compiled, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.lru.Peek(k)
	return p.compiled, ok
}

// add inserts an entry, or refreshes a present one without promoting it,
// and returns the number of evictions.
func (c *compiledCache) add(k cacheKey, compiled *psgc.Compiled, pipeline []obs.PhaseSpan) int {
	w := gclang.ProgramSize(compiled.Prog)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Add(k, cachedProgram{compiled: compiled, pipeline: pipeline}, w)
}

// storm flushes the probationary segment — the cache.evict fault — and
// returns the number of evictions.
func (c *compiledCache) storm() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Storm()
}

// stats reports the entry count, the total ProgramSize weight and the
// segment sizes for /healthz.
func (c *compiledCache) stats() (entries, weight, probation, protected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	probation, protected = c.lru.Segments()
	return c.lru.Len(), c.lru.Weight(), probation, protected
}

// flightGroup coalesces concurrent compiles of the same key (singleflight):
// when two requests miss the cache on one (source hash, collector) at the
// same time, only the first runs the pipeline; the rest wait for its
// result. Errors propagate to every waiter but are not retained — the next
// request after the flight lands retries the compile.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[cacheKey]*flightCall
}

type flightCall struct {
	done     chan struct{}
	compiled *psgc.Compiled
	pipeline []obs.PhaseSpan
	err      error
}

// do runs fn once per key among concurrent callers. coalesced reports
// whether this caller waited on another caller's fn instead of running it.
func (g *flightGroup) do(k cacheKey, fn func() (*psgc.Compiled, []obs.PhaseSpan, error)) (c *psgc.Compiled, pipeline []obs.PhaseSpan, err error, coalesced bool) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = map[cacheKey]*flightCall{}
	}
	if call, ok := g.inflight[k]; ok {
		g.mu.Unlock()
		<-call.done
		return call.compiled, call.pipeline, call.err, true
	}
	call := &flightCall{done: make(chan struct{})}
	g.inflight[k] = call
	g.mu.Unlock()

	call.compiled, call.pipeline, call.err = fn()

	g.mu.Lock()
	delete(g.inflight, k)
	g.mu.Unlock()
	close(call.done)
	return call.compiled, call.pipeline, call.err, false
}
