package obs

import (
	"container/list"
	"sort"
	"sync"

	"psgc/internal/gclang"
	"psgc/internal/regions"
)

// This file is the always-on half of the observability layer: a Profiler
// cheap enough to attach to every request (allocation-free per event,
// fixed-size state, reservoir sampling) and a ProfileStore that folds
// finished runs into continuously-updated per-program aggregates keyed by
// source hash. The Recorder above remains the opt-in deep view (full event
// log); the Profiler is the production default the adaptive policy engine
// (internal/policy) reads its signal from.

// ProfileReservoir is the number of per-collection samples a Profiler
// retains. Collections beyond the reservoir replace earlier samples with
// uniform probability (reservoir sampling), so the retained set stays an
// unbiased sample of the whole run.
const ProfileReservoir = 32

// profileRegionRing is the number of in-flight region births tracked for
// lifetime measurement. Programs create regions in a stack-like pattern,
// so 64 slots cover every workload in the suite; overwriting the oldest
// slot merely drops one lifetime observation.
const profileRegionRing = 64

// CollectionSample is one sampled collector invocation.
type CollectionSample struct {
	Entry      string `json:"entry"` // "gc", "minor", or "major"
	StartStep  int    `json:"start_step"`
	EndStep    int    `json:"end_step"`
	Copies     int    `json:"copies"`
	Scans      int    `json:"scans"`
	Forwards   int    `json:"forwards"`
	CellsFreed int    `json:"cells_freed"`
	LiveAfter  int    `json:"live_after"`
}

// RunProfile is the finalized summary of one run: exact totals (identical
// to the machine's counters — the identity tests pin this) plus the
// sampled per-collection and region-lifetime views.
type RunProfile struct {
	Steps       int `json:"steps"`
	Allocs      int `json:"allocs"` // mutator puts
	AllocWords  int `json:"alloc_words"`
	Copies      int `json:"copies"` // collector puts
	Forwards    int `json:"forwards"`
	Scans       int `json:"scans"`
	Collections int `json:"collections"`
	Minor       int `json:"minor"`
	Major       int `json:"major"`

	MaxLive        int `json:"max_live"`
	LiveAtEnd      int `json:"live_at_end"`
	CellsFreed     int `json:"cells_freed"`
	RegionsCreated int `json:"regions_created"`
	RegionsFreed   int `json:"regions_freed"`

	// LiveFirst/LiveLast are the live-cell counts after the first and last
	// completed collections — the live-set growth signal.
	LiveFirst int `json:"live_first"`
	LiveLast  int `json:"live_last"`

	// Region lifetimes in steps, over the tracked ring.
	RegionLives     int `json:"region_lives"`
	RegionLifeSteps int `json:"region_life_steps"`
	RegionLifeMax   int `json:"region_life_max"`

	// RegionLifeHist is a decile histogram of region lifetimes relative to
	// the step at which each region died: bucket 0 holds regions that lived
	// under 10% of the run observed so far, bucket 9 those that lived 90%+.
	// A left-skewed histogram (mass in the first deciles) is the short-lived
	// -region signal the adaptive policy biases toward generational
	// collection on.
	RegionLifeHist [10]int `json:"region_life_hist"`

	Samples []CollectionSample `json:"samples,omitempty"`
}

// SurvivalPct returns the run's survival ratio per collection as a
// percentage: of the cells a collection touched (survivors copied plus
// garbage freed), how many survived. Negative when no collection freed or
// copied anything (no signal).
func (rp RunProfile) SurvivalPct() float64 {
	denom := rp.Copies + rp.CellsFreed
	if denom == 0 {
		return -1
	}
	return 100 * float64(rp.Copies) / float64(denom)
}

type regionBirth struct {
	name regions.Name
	born int
	live bool
}

// Profiler accumulates a RunProfile from a machine's Event hook. Unlike
// the Recorder it allocates nothing per event — every piece of state is a
// fixed-size field — so it can stay attached on every request. One
// Profiler serves one run; it is not safe for concurrent use.
type Profiler struct {
	entries       map[regions.Addr]string
	collectorFuns int
	steps         func() int
	memf          func() MemView

	rp RunProfile

	inSpan     bool
	curEntry   string
	curStart   int
	curCopies  int
	curScans   int
	curForward int
	freedAt    int // CellsReclaimed at span start

	nsamples int
	samples  [ProfileReservoir]CollectionSample
	rng      uint64

	ring     [profileRegionRing]regionBirth
	ringNext int
}

// NewProfiler returns a profiler for a program whose collector entry
// points are entries (address → name) and whose collector code occupies cd
// offsets 0..collectorFuns-1, exactly as NewRecorder is seeded.
func NewProfiler(entries map[regions.Addr]string, collectorFuns int) *Profiler {
	return &Profiler{
		entries:       entries,
		collectorFuns: collectorFuns,
		rng:           0x9e3779b97f4a7c15, // fixed seed: deterministic reservoir
	}
}

// Attach wires the profiler into a machine's Event hook, chaining any hook
// already installed.
func (p *Profiler) Attach(m gclang.Stepper) {
	c := m.Shared()
	prev := c.Event
	p.steps = func() int { return c.Steps }
	p.memf = func() MemView { return c.Mem }
	c.Event = func(ev gclang.StepEvent) {
		p.ObserveEvent(c.Mem, ev)
		if prev != nil {
			prev(ev)
		}
	}
}

// ObserveEvent folds one machine step event into the profile. It allocates
// nothing: the identity tests assert zero allocations per event.
func (p *Profiler) ObserveEvent(mem MemView, ev gclang.StepEvent) {
	switch ev.Kind {
	case gclang.StepCall:
		if name, isEntry := p.entries[ev.Addr]; isEntry {
			if p.inSpan {
				p.closeSpan(mem, ev.Step-1)
			}
			p.inSpan = true
			p.curEntry = name
			p.curStart = ev.Step
			p.curCopies, p.curScans, p.curForward = 0, 0, 0
			p.freedAt = mem.Stats().CellsReclaimed
			p.rp.Collections++
			switch name {
			case "minor":
				p.rp.Minor++
			case "major":
				p.rp.Major++
			}
			return
		}
		if p.inSpan && ev.Addr.Region == regions.CD && ev.Addr.Off >= p.collectorFuns {
			p.closeSpan(mem, ev.Step)
		}
	case gclang.StepPut:
		if p.inSpan {
			p.curCopies++
			p.rp.Copies++
		} else {
			p.rp.Allocs++
			p.rp.AllocWords += ev.Words
		}
	case gclang.StepGet:
		if p.inSpan {
			p.curScans++
			p.rp.Scans++
		}
	case gclang.StepSet:
		p.rp.Forwards++
		if p.inSpan {
			p.curForward++
		}
	case gclang.StepNewRegion:
		p.ring[p.ringNext] = regionBirth{name: ev.Addr.Region, born: ev.Step, live: true}
		p.ringNext = (p.ringNext + 1) % profileRegionRing
	case gclang.StepOnly:
		for i := range p.ring {
			b := &p.ring[i]
			if b.live && !mem.Has(b.name) {
				b.live = false
				life := ev.Step - b.born
				p.rp.RegionLives++
				p.rp.RegionLifeSteps += life
				if life > p.rp.RegionLifeMax {
					p.rp.RegionLifeMax = life
				}
				// Lifetime decile relative to the run so far (ev.Step >= 1
				// whenever an only fires, so the division is safe).
				bucket := 10 * life / ev.Step
				if bucket > 9 {
					bucket = 9
				}
				p.rp.RegionLifeHist[bucket]++
			}
		}
	case gclang.StepHalt:
		if p.inSpan {
			p.closeSpan(mem, ev.Step)
		}
	}
}

// closeSpan finishes the open collection span and reservoir-samples it.
func (p *Profiler) closeSpan(mem MemView, end int) {
	p.inSpan = false
	live := mem.LiveCells()
	s := CollectionSample{
		Entry:      p.curEntry,
		StartStep:  p.curStart,
		EndStep:    end,
		Copies:     p.curCopies,
		Scans:      p.curScans,
		Forwards:   p.curForward,
		CellsFreed: mem.Stats().CellsReclaimed - p.freedAt,
		LiveAfter:  live,
	}
	if p.rp.LiveFirst == 0 && p.rp.Collections == 1 {
		p.rp.LiveFirst = live
	}
	p.rp.LiveLast = live
	// Reservoir sampling over the sequence of completed collections.
	seen := p.rp.Collections // 1-based index of this collection
	if p.nsamples < ProfileReservoir {
		p.samples[p.nsamples] = s
		p.nsamples++
		return
	}
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	if j := int(p.rng % uint64(seen)); j < ProfileReservoir {
		p.samples[j] = s
	}
}

// Profile finalizes the run against the attached machine's cumulative
// memory counters and returns the summary. Call it once, after the run;
// finalization may allocate (the samples slice).
func (p *Profiler) Profile() RunProfile {
	rp := p.rp
	if p.steps != nil {
		rp.Steps = p.steps()
	}
	if p.memf != nil {
		mem := p.memf()
		st := mem.Stats()
		rp.MaxLive = st.MaxLiveCells
		rp.CellsFreed = st.CellsReclaimed
		rp.RegionsCreated = st.RegionsCreated
		rp.RegionsFreed = st.RegionsReclaimed
		rp.LiveAtEnd = mem.LiveCells()
	}
	rp.Samples = append([]CollectionSample(nil), p.samples[:p.nsamples]...)
	return rp
}

// ---------------------------------------------------------------------------
// Per-program profile aggregates
// ---------------------------------------------------------------------------

// CollectorAgg aggregates every profiled run of one program under one
// collector. Totals are exact sums; SurvivalHist is a decile histogram of
// per-collection survival ratios from the reservoir samples (bucket 0 =
// 0–10% survived, bucket 9 = 90–100%) — the continuously-updated
// histogram the adaptive policy reads.
type CollectorAgg struct {
	Collector string `json:"collector"`
	Runs      int    `json:"runs"`

	Steps       int64 `json:"steps"`
	Allocs      int64 `json:"allocs"`
	AllocWords  int64 `json:"alloc_words"`
	Copies      int64 `json:"copies"`
	Forwards    int64 `json:"forwards"`
	Scans       int64 `json:"scans"`
	Collections int64 `json:"collections"`
	Minor       int64 `json:"minor"`
	Major       int64 `json:"major"`
	CellsFreed  int64 `json:"cells_freed"`

	MaxLive    int   `json:"max_live"`    // max across runs
	LiveGrowth int64 `json:"live_growth"` // Σ (LiveLast - LiveFirst)

	RegionLives     int64 `json:"region_lives"`
	RegionLifeSteps int64 `json:"region_life_steps"`
	RegionLifeMax   int   `json:"region_life_max"`

	SurvivalHist   [10]int64 `json:"survival_hist"`
	RegionLifeHist [10]int64 `json:"region_life_hist"`
}

// add folds one run profile into the aggregate.
func (a *CollectorAgg) add(rp RunProfile) {
	a.Runs++
	a.Steps += int64(rp.Steps)
	a.Allocs += int64(rp.Allocs)
	a.AllocWords += int64(rp.AllocWords)
	a.Copies += int64(rp.Copies)
	a.Forwards += int64(rp.Forwards)
	a.Scans += int64(rp.Scans)
	a.Collections += int64(rp.Collections)
	a.Minor += int64(rp.Minor)
	a.Major += int64(rp.Major)
	a.CellsFreed += int64(rp.CellsFreed)
	if rp.MaxLive > a.MaxLive {
		a.MaxLive = rp.MaxLive
	}
	a.LiveGrowth += int64(rp.LiveLast - rp.LiveFirst)
	a.RegionLives += int64(rp.RegionLives)
	a.RegionLifeSteps += int64(rp.RegionLifeSteps)
	if rp.RegionLifeMax > a.RegionLifeMax {
		a.RegionLifeMax = rp.RegionLifeMax
	}
	for i, n := range rp.RegionLifeHist {
		a.RegionLifeHist[i] += int64(n)
	}
	for _, s := range rp.Samples {
		denom := s.Copies + s.CellsFreed
		if denom == 0 {
			continue
		}
		bucket := 10 * s.Copies / denom
		if bucket > 9 {
			bucket = 9
		}
		a.SurvivalHist[bucket]++
	}
}

// SurvivalPct is the aggregate survival ratio as a percentage (see
// RunProfile.SurvivalPct).
func (a *CollectorAgg) SurvivalPct() float64 {
	denom := a.Copies + a.CellsFreed
	if denom == 0 {
		return -1
	}
	return 100 * float64(a.Copies) / float64(denom)
}

// ProgramSummary is the per-source-hash view the store exposes: one
// aggregate per collector the program has been observed under, plus
// whatever decision the policy engine last recorded for the hash.
type ProgramSummary struct {
	Hash       string         `json:"hash"`
	Runs       int            `json:"runs"`
	Collectors []CollectorAgg `json:"collectors"`
	Decision   any            `json:"decision,omitempty"`
}

type profileEntry struct {
	hash      string
	runs      int
	aggs      map[string]*CollectorAgg
	decision  any
	protected bool
}

// ProfileStore holds per-program profile aggregates keyed by source hash,
// bounded by a segmented LRU exactly like the service's compiled-program
// cache: admissions land in probation, a second touch promotes to the
// protected segment (capped at 80%), and eviction drains the probation
// tail first. It is safe for concurrent use.
type ProfileStore struct {
	mu        sync.Mutex
	max       int
	probation *list.List
	protected *list.List
	entries   map[string]*list.Element
	evictions int64
}

// DefaultProfileCapacity bounds the store when the capacity is left zero.
const DefaultProfileCapacity = 1024

// NewProfileStore returns a store capped at max program hashes
// (DefaultProfileCapacity if max <= 0).
func NewProfileStore(max int) *ProfileStore {
	if max <= 0 {
		max = DefaultProfileCapacity
	}
	return &ProfileStore{
		max:       max,
		probation: list.New(),
		protected: list.New(),
		entries:   make(map[string]*list.Element),
	}
}

// touch promotes or refreshes el, mirroring the SLRU discipline of the
// compiled-program cache. Caller holds the lock.
func (s *ProfileStore) touch(el *list.Element) {
	e := el.Value.(*profileEntry)
	if e.protected {
		s.protected.MoveToFront(el)
		return
	}
	s.probation.Remove(el)
	e.protected = true
	s.entries[e.hash] = s.protected.PushFront(e)
	pc := protectedCapOf(s.max)
	for s.protected.Len() > 1 && s.protected.Len() > pc {
		back := s.protected.Back()
		d := back.Value.(*profileEntry)
		s.protected.Remove(back)
		d.protected = false
		s.entries[d.hash] = s.probation.PushFront(d)
	}
}

func protectedCapOf(budget int) int {
	c := int(0.8 * float64(budget))
	if c < 1 {
		c = 1
	}
	return c
}

// Update folds one run profile into the aggregate for (hash, collector),
// admitting the hash if new and evicting from the probation tail if over
// capacity.
func (s *ProfileStore) Update(hash, collector string, rp RunProfile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[hash]
	if !ok {
		e := &profileEntry{hash: hash, aggs: make(map[string]*CollectorAgg, 3)}
		el = s.probation.PushFront(e)
		s.entries[hash] = el
		for s.probation.Len()+s.protected.Len() > s.max {
			victim := s.probation.Back()
			if victim == el || victim == nil {
				victim = s.protected.Back()
			}
			if victim == nil || victim == el {
				break
			}
			d := victim.Value.(*profileEntry)
			if d.protected {
				s.protected.Remove(victim)
			} else {
				s.probation.Remove(victim)
			}
			delete(s.entries, d.hash)
			s.evictions++
		}
	} else {
		s.touch(el)
	}
	e := el.Value.(*profileEntry)
	e.runs++
	agg, ok := e.aggs[collector]
	if !ok {
		agg = &CollectorAgg{Collector: collector}
		e.aggs[collector] = agg
	}
	agg.add(rp)
}

// SetDecision records the policy decision last made for hash, shown in
// Snapshot/healthz. A decision for an unknown hash is dropped (the profile
// was evicted; the next run re-admits it).
func (s *ProfileStore) SetDecision(hash string, d any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[hash]; ok {
		el.Value.(*profileEntry).decision = d
	}
}

func summarize(e *profileEntry) ProgramSummary {
	out := ProgramSummary{Hash: e.hash, Runs: e.runs, Decision: e.decision}
	for _, a := range e.aggs {
		out.Collectors = append(out.Collectors, *a)
	}
	sort.Slice(out.Collectors, func(i, j int) bool {
		return out.Collectors[i].Collector < out.Collectors[j].Collector
	})
	return out
}

// Lookup returns a copy of the aggregate for hash, refreshing its recency
// (a looked-up profile is about to inform a decision — it has earned
// protection exactly like a cache hit).
func (s *ProfileStore) Lookup(hash string) (ProgramSummary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[hash]
	if !ok {
		return ProgramSummary{}, false
	}
	s.touch(el)
	return summarize(el.Value.(*profileEntry)), true
}

// Snapshot returns up to topN summaries in recency order (protected
// segment first), without touching recency.
func (s *ProfileStore) Snapshot(topN int) []ProgramSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProgramSummary, 0, topN)
	for _, l := range []*list.List{s.protected, s.probation} {
		for el := l.Front(); el != nil && len(out) < topN; el = el.Next() {
			out = append(out, summarize(el.Value.(*profileEntry)))
		}
	}
	return out
}

// Len reports the number of program hashes held.
func (s *ProfileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probation.Len() + s.protected.Len()
}

// Evictions reports the cumulative eviction count.
func (s *ProfileStore) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Segments reports (probation, protected) entry counts for healthz.
func (s *ProfileStore) Segments() (probation, protected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probation.Len(), s.protected.Len()
}
