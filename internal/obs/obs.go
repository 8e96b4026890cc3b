// Package obs is the observability layer of the reproduction: structured
// GC-event timelines and allocation-free run profiles recorded off the
// λGC machines' StepEvent hook, wall-clock spans for the compile
// pipeline's phases, request trace IDs, and a dependency-free Prometheus
// text-exposition writer/parser.
//
// The paper's point is that the collector is an ordinary, inspectable
// term; this package makes its behaviour observable event by event. A
// Recorder classifies every machine transition into allocation,
// forwarding-pointer install, copy, scan, and region-free events, and
// groups the steps between a collector entry call and the hand-back to
// mutator code into collection spans. The counts are exact: allocs+copies
// equal the memory's put counter (minus the code-install puts), forwards
// equal the set counter, and freed cells equal the reclaim counter — so
// the paper's experiments (sharing loss, minor-collection savings) can be
// re-derived from an event log instead of ad-hoc counters.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"

	"psgc/internal/gclang"
	"psgc/internal/regions"
)

// ---------------------------------------------------------------------------
// Trace IDs
// ---------------------------------------------------------------------------

var traceCounter atomic.Uint64

// NewTraceID returns a 16-hex-character request trace ID. IDs come from
// crypto/rand with a counter fallback, so they are unique within a process
// even if the random source fails.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := traceCounter.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------------
// Pipeline-phase spans
// ---------------------------------------------------------------------------

// PhaseSpan is one timed phase of the compile pipeline (parse, cps,
// closconv, collector, translate, typecheck) or of request handling
// (run). StartMs is the offset from the pipeline's start.
type PhaseSpan struct {
	Phase   string  `json:"phase"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// Pipeline collects PhaseSpans against one time origin. A nil *Pipeline is
// valid and records nothing, so the compile path can be instrumented
// unconditionally.
type Pipeline struct {
	t0    time.Time
	spans []PhaseSpan
}

// NewPipeline starts a pipeline clock.
func NewPipeline() *Pipeline { return &Pipeline{t0: time.Now()} }

// Phase starts a span; calling the returned func ends it.
func (p *Pipeline) Phase(name string) func() {
	if p == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		p.spans = append(p.spans, PhaseSpan{
			Phase:   name,
			StartMs: float64(start.Sub(p.t0)) / float64(time.Millisecond),
			DurMs:   float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
}

// Spans returns the recorded spans in completion order.
func (p *Pipeline) Spans() []PhaseSpan {
	if p == nil {
		return nil
	}
	return p.spans
}

// ---------------------------------------------------------------------------
// GC-event timeline
// ---------------------------------------------------------------------------

// Event kinds. Alloc is a mutator put; Copy is a collector put (to-space
// copies and the collector's own continuation frames alike — the region
// field tells them apart); Forward is a forwarding-pointer install (set);
// Scan is a collector read; RegionFree is one region reclaimed by only;
// CollectStart/CollectEnd bracket a collection span.
const (
	KindAlloc        = "alloc"
	KindCopy         = "copy"
	KindForward      = "forward"
	KindScan         = "scan"
	KindRegionFree   = "region_free"
	KindCollectStart = "collect_start"
	KindCollectEnd   = "collect_end"
)

// WordBytes is the modelled cell-word size: 64-bit words, as in the E4
// space-overhead experiment. Byte figures are Words(v)*WordBytes; sum and
// existential wrappers are tag bits and erased forms, costing no words.
const WordBytes = 8

// MemView is the read-only slice of a machine memory the observability
// layer needs: region existence for the free diff at only, the cumulative
// counters, and the live-cell total. The machines' packed heaps,
// regions.Store[gclang.Cell], satisfy it.
type MemView interface {
	Has(n regions.Name) bool
	Stats() regions.Stats
	LiveCells() int
}

// Words returns the number of machine words value v occupies in a cell
// under the 64-bit-word model. It delegates to gclang.ValueWords, the
// count the machines' event hooks report.
func Words(v gclang.Value) int { return gclang.ValueWords(v) }

// Event is one classified machine transition. Step is the 1-based machine
// step that performed it; Collection is the 1-based index of the
// collection span it belongs to (0 for mutator events).
type Event struct {
	Step       int    `json:"step"`
	Kind       string `json:"kind"`
	Region     string `json:"region,omitempty"`
	Addr       string `json:"addr,omitempty"`
	Cells      int    `json:"cells,omitempty"`
	Bytes      int    `json:"bytes,omitempty"`
	Entry      string `json:"entry,omitempty"`
	Collection int    `json:"collection,omitempty"`
}

// CollectionSpan aggregates one collector invocation: from the entry-point
// call (StartStep) to the step that hands control back to mutator code
// (EndStep). Open marks a span cut off by fuel exhaustion.
type CollectionSpan struct {
	Index        int    `json:"index"`
	Entry        string `json:"entry"`
	StartStep    int    `json:"start_step"`
	EndStep      int    `json:"end_step"`
	Open         bool   `json:"open,omitempty"`
	Copies       int    `json:"copies"`
	Forwards     int    `json:"forwards"`
	Scans        int    `json:"scans"`
	RegionsFreed int    `json:"regions_freed"`
	CellsFreed   int    `json:"cells_freed"`
	BytesFreed   int    `json:"bytes_freed"`
}

// Timeline is a finished recording: exact totals, per-collection spans,
// and the event log (capped at the recorder's MaxEvents; totals and spans
// are never truncated).
type Timeline struct {
	Steps         int              `json:"steps"`
	Allocs        int              `json:"allocs"`
	Copies        int              `json:"copies"`
	Forwards      int              `json:"forwards"`
	Scans         int              `json:"scans"`
	RegionsFreed  int              `json:"regions_freed"`
	CellsFreed    int              `json:"cells_freed"`
	BytesFreed    int              `json:"bytes_freed"`
	Collections   []CollectionSpan `json:"collections"`
	Events        []Event          `json:"events"`
	DroppedEvents int              `json:"dropped_events,omitempty"`
}

// DefaultMaxEvents bounds the retained event log when Recorder.MaxEvents
// is left zero. Long executions produce millions of steps; the totals and
// collection spans stay exact regardless.
const DefaultMaxEvents = 10_000

// regCount tracks a region's cumulative allocation so region_free events
// can report cell/byte counts after the region is already gone.
type regCount struct {
	cells int
	bytes int
}

// Recorder builds a Timeline from a machine's Event hook. Create one per
// run with NewRecorder (or psgc.(*Compiled).Recorder), Attach it before
// the first step, and read Timeline after the run. A Recorder is
// single-run and not safe for concurrent use.
type Recorder struct {
	// MaxEvents caps the retained event log (default DefaultMaxEvents).
	MaxEvents int

	entries       map[regions.Addr]string // entry-point address → name
	collectorFuns int                     // cd prefix holding collector code

	tl       Timeline
	curIdx   int // open span index into tl.Collections, -1 if none
	lastStep int
	steps    func() int // true machine step count (events skip unclassified steps)
	regs     map[regions.Name]*regCount
	dropped  int
}

// NewRecorder returns a recorder for a program whose collector entry
// points are entries (address → name, e.g. "gc" or "minor"/"major") and
// whose collector code occupies cd offsets 0..collectorFuns-1 — the
// certified prefix installed by the verified-collector cache. A call to
// any cd offset at or beyond the prefix while a collection is open marks
// the hand-back to mutator code.
func NewRecorder(entries map[regions.Addr]string, collectorFuns int) *Recorder {
	es := make(map[regions.Addr]string, len(entries))
	for a, n := range entries {
		es[a] = n
	}
	return &Recorder{
		entries:       es,
		collectorFuns: collectorFuns,
		curIdx:        -1,
		regs:          map[regions.Name]*regCount{},
	}
}

// Attach wires the recorder into a machine's Event hook, chaining any hook
// already installed. Both machines emit identical event streams, so
// classification is engine-independent.
func (r *Recorder) Attach(m gclang.Stepper) {
	c := m.Shared()
	prev := c.Event
	r.steps = func() int { return c.Steps }
	c.Event = func(ev gclang.StepEvent) {
		r.ObserveEvent(c.Mem, ev)
		if prev != nil {
			prev(ev)
		}
	}
}

// Timeline finalizes and returns the recording. A still-open collection
// span (fuel exhausted mid-collection) keeps Open=true with EndStep at the
// last observed step. Steps is the machine's true step count: events skip
// unclassified transitions, so the attached machine is consulted directly.
func (r *Recorder) Timeline() *Timeline {
	last := r.lastStep
	if r.steps != nil {
		if s := r.steps(); s > last {
			last = s
		}
	}
	if r.curIdx >= 0 {
		r.tl.Collections[r.curIdx].EndStep = last
	}
	r.tl.Steps = last
	r.tl.DroppedEvents = r.dropped
	return &r.tl
}

func (r *Recorder) emit(ev Event) {
	max := r.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(r.tl.Events) < max {
		r.tl.Events = append(r.tl.Events, ev)
		return
	}
	r.dropped++
}

func (r *Recorder) reg(n regions.Name) *regCount {
	rc, ok := r.regs[n]
	if !ok {
		rc = &regCount{}
		r.regs[n] = rc
	}
	return rc
}

func (r *Recorder) closeSpan(end int) {
	if r.curIdx < 0 {
		return
	}
	sp := &r.tl.Collections[r.curIdx]
	sp.EndStep = end
	sp.Open = false
	r.curIdx = -1
}

// ObserveEvent classifies one machine step event. mem is the memory with
// the step's effects already applied (the region-free diff at only needs
// it). It is engine-agnostic — Attach feeds it from either machine — and
// exported so co-stepping tests can drive it directly. Unlike the event
// hook itself, the Recorder may allocate (event log, region table): full
// timelines are the opt-in deep view; always-on profiling uses the
// allocation-free Profiler instead.
func (r *Recorder) ObserveEvent(mem MemView, sev gclang.StepEvent) {
	step := sev.Step
	if step > r.lastStep {
		r.lastStep = step
	}
	switch sev.Kind {
	case gclang.StepCall:
		if name, isEntry := r.entries[sev.Addr]; isEntry {
			// A new collection begins; a direct entry→entry tail call
			// (minor falling through to major) closes the previous span.
			r.closeSpan(step - 1)
			idx := len(r.tl.Collections) + 1
			r.tl.Collections = append(r.tl.Collections, CollectionSpan{
				Index: idx, Entry: name, StartStep: step, EndStep: step, Open: true,
			})
			r.curIdx = len(r.tl.Collections) - 1
			r.emit(Event{Step: step, Kind: KindCollectStart, Entry: name, Collection: idx})
			return
		}
		if r.curIdx >= 0 && sev.Addr.Region == regions.CD && sev.Addr.Off >= r.collectorFuns {
			idx := r.tl.Collections[r.curIdx].Index
			r.closeSpan(step)
			r.emit(Event{Step: step, Kind: KindCollectEnd, Collection: idx})
		}
	case gclang.StepPut:
		b := sev.Words * WordBytes
		rc := r.reg(sev.Addr.Region)
		rc.cells++
		rc.bytes += b
		ev := Event{
			Step: step, Kind: KindAlloc, Region: sev.Addr.Region.String(),
			Addr: sev.Addr.String(), Cells: 1, Bytes: b,
		}
		if r.curIdx >= 0 {
			sp := &r.tl.Collections[r.curIdx]
			sp.Copies++
			r.tl.Copies++
			ev.Kind = KindCopy
			ev.Collection = sp.Index
		} else {
			r.tl.Allocs++
		}
		r.emit(ev)
	case gclang.StepGet:
		if r.curIdx < 0 {
			return // mutator reads are traffic, not GC events
		}
		sp := &r.tl.Collections[r.curIdx]
		sp.Scans++
		r.tl.Scans++
		r.emit(Event{
			Step: step, Kind: KindScan, Region: sev.Addr.Region.String(),
			Addr: sev.Addr.String(), Collection: sp.Index,
		})
	case gclang.StepSet:
		ev := Event{
			Step: step, Kind: KindForward,
			Region: sev.Addr.Region.String(), Addr: sev.Addr.String(),
		}
		r.tl.Forwards++
		if r.curIdx >= 0 {
			sp := &r.tl.Collections[r.curIdx]
			sp.Forwards++
			ev.Collection = sp.Index
		}
		r.emit(ev)
	case gclang.StepNewRegion:
		// Start tracking the fresh region so a later only can report its
		// size after it is gone.
		r.reg(sev.Addr.Region)
	case gclang.StepOnly:
		// Regions we tracked that no longer exist were freed by this step.
		var freed []regions.Name
		for n := range r.regs {
			if !mem.Has(n) {
				freed = append(freed, n)
			}
		}
		for _, n := range regions.SortedNames(freed) {
			rc := r.regs[n]
			delete(r.regs, n)
			r.tl.RegionsFreed++
			r.tl.CellsFreed += rc.cells
			r.tl.BytesFreed += rc.bytes
			ev := Event{
				Step: step, Kind: KindRegionFree, Region: n.String(),
				Cells: rc.cells, Bytes: rc.bytes,
			}
			if r.curIdx >= 0 {
				sp := &r.tl.Collections[r.curIdx]
				sp.RegionsFreed++
				sp.CellsFreed += rc.cells
				sp.BytesFreed += rc.bytes
				ev.Collection = sp.Index
			}
			r.emit(ev)
		}
	case gclang.StepHalt:
		r.closeSpan(step)
	}
}
