package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/regions"
)

// engineConfig is one op kind of gc-heavy or mutator-heavy: a compiled
// spec run on one memory backend.
type engineConfig struct {
	spec     *spec
	want     int
	backend  regions.Backend
	compiled *psgc.Compiled
}

func (c *engineConfig) opts() psgc.RunOptions {
	return psgc.RunOptions{Capacity: c.spec.capacity, Backend: c.backend}
}

func (c *engineConfig) label() string {
	return fmt.Sprintf("%s/%s/%s", c.spec.name, c.spec.col, c.backend)
}

// engineClients is the closed-loop client count of gc-heavy and
// mutator-heavy: one per core of the 2-core host. With one client a core
// sits idle between host-GC bursts, and on a shared virtual machine that
// left whole runs 20–50% slower than others (the hypervisor's steal time
// rose with them); with both cores busy, ten-seed interquartile spreads
// fell from 34–79% to at most 22%, as with serve-mix's two clients.
const engineClients = 2

// engineBench drives Compiled.Run from engineClients clients. Ops are
// handed out in rounds that run each config once in a seeded order, and a
// phase runs whole rounds only, so every phase holds the configs in
// exactly equal shares.
type engineBench struct {
	specs   []spec
	configs []*engineConfig
	// ref is each spec's first result, recorded by the warm-up. Later
	// runs of the spec on either backend must match it exactly: value,
	// steps, collections and Stats.
	ref map[*spec]psgc.Result
	rng *rand.Rand

	// The last phase's ops in run order, with their latencies.
	opsRun []*engineConfig
	opsMs  []float64
}

func newEngineBench(specs []spec) *engineBench { return &engineBench{specs: specs} }

func (b *engineBench) setup(seed int64) error {
	b.configs = nil
	b.ref = map[*spec]psgc.Result{}
	b.rng = rand.New(rand.NewSource(seed))
	for i := range b.specs {
		s := &b.specs[i]
		want, err := psgc.Interpret(s.src)
		if err != nil {
			return fmt.Errorf("reference value of %s: %w", s.name, err)
		}
		c, err := psgc.Compile(s.src, s.col)
		if err != nil {
			return fmt.Errorf("compile %s/%s: %w", s.name, s.col, err)
		}
		for _, be := range regions.Backends() {
			b.configs = append(b.configs, &engineConfig{spec: s, want: want, backend: be, compiled: c})
		}
	}
	// Warm-up: one run of every config; the first run of each spec is its
	// reference result.
	for _, c := range b.configs {
		res, err := c.compiled.Run(c.opts())
		if _, ok := b.ref[c.spec]; !ok && err == nil {
			b.ref[c.spec] = res
		}
		if err := b.check(c, res, err); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// check validates one run against the spec's reference value and result.
func (b *engineBench) check(c *engineConfig, res psgc.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", c.label(), err)
	}
	if res.Value != c.want {
		return fmt.Errorf("%s: value %d, want %d", c.label(), res.Value, c.want)
	}
	if ref := b.ref[c.spec]; res != ref {
		return fmt.Errorf("%s: result %+v differs from reference %+v", c.label(), res, ref)
	}
	return nil
}

func (b *engineBench) run(c *engineConfig) (float64, error) {
	t0 := time.Now()
	res, err := c.compiled.Run(c.opts())
	d := time.Since(t0)
	return ms(d), b.check(c, res, err)
}

func (b *engineBench) timed(d time.Duration) *phase {
	b.opsRun, b.opsMs = b.opsRun[:0], b.opsMs[:0]
	return measure(func(p *phase) {
		var mu sync.Mutex // guards round, done, p and the ops log
		var round []int
		done := false
		// next hands out the next op. Once d has passed it starts no new
		// round, and windows close only as a round starts.
		next := func() *engineConfig {
			mu.Lock()
			defer mu.Unlock()
			if len(round) == 0 {
				if done = done || p.elapsed() >= d; done {
					return nil
				}
				if p.elapsed() >= p.nextCut() {
					p.cut()
				}
				round = b.rng.Perm(len(b.configs))
			}
			c := b.configs[round[0]]
			round = round[1:]
			return c
		}
		parallel(engineClients, func() {
			for c := next(); c != nil; c = next() {
				lat, err := b.run(c)
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					fmt.Fprintln(os.Stderr, "FAILED:", err)
				} else {
					p.sample(lat)
					b.opsRun = append(b.opsRun, c)
					b.opsMs = append(b.opsMs, lat)
				}
				mu.Unlock()
			}
		})
	})
}

func (b *engineBench) close() {}

// report prints each config's median latency, so a shift in one program's
// band is visible next to the headline quantiles.
func (b *engineBench) report() {
	per := map[*engineConfig][]float64{}
	for i, c := range b.opsRun {
		per[c] = append(per[c], b.opsMs[i])
	}
	for _, c := range b.configs {
		fmt.Fprintf(os.Stderr, "  %-34s n=%-4d p50=%8.3f ms\n", c.label(), len(per[c]), median(per[c]))
	}
}

// layerSums accumulates the traced pass over a set of ops.
type layerSums struct {
	ops                                  int
	untraced, e2e, mutator, collector    float64 // ms
	steps, colSteps                      float64
	collections, copies, scans, forwards float64
	puts, gets, sets, reclaimed, maxLive float64
	replayMap, replayArena               float64 // ms
}

func (s *layerSums) add(o *layerSums) {
	s.ops += o.ops
	s.untraced += o.untraced
	s.e2e += o.e2e
	s.mutator += o.mutator
	s.collector += o.collector
	s.steps += o.steps
	s.colSteps += o.colSteps
	s.collections += o.collections
	s.copies += o.copies
	s.scans += o.scans
	s.forwards += o.forwards
	s.puts += o.puts
	s.gets += o.gets
	s.sets += o.sets
	s.reclaimed += o.reclaimed
	s.maxLive += o.maxLive
	s.replayMap += o.replayMap
	s.replayArena += o.replayArena
}

func (s *layerSums) per(v float64) float64 { return ratio(v, float64(s.ops)) }

// tracedOp runs one op in two passes. The first runs with a Recorder,
// whose timeline gives each collection's step range and the exact collector
// counts. The second steps a fresh machine itself and times the segments
// between those boundaries: mutator steps outside collection spans,
// collector steps inside them. Both passes must end at the same step count
// with the reference value.
func (b *engineBench) tracedOp(c *engineConfig) (*layerSums, error) {
	rec := c.compiled.Recorder()
	rec.MaxEvents = 1 // totals and spans stay exact; the event log is not needed
	opts := c.opts()
	opts.Recorder = rec
	res, err := c.compiled.Run(opts)
	if err := b.check(c, res, err); err != nil {
		return nil, err
	}
	tl := rec.Timeline()

	t0 := time.Now()
	m := c.compiled.NewEnvMachine(c.opts())
	var mutator, collector time.Duration
	last := time.Now()
	lap := func(into *time.Duration) {
		now := time.Now()
		*into += now.Sub(last)
		last = now
	}
	stepTo := func(target int) error {
		for !m.Halted && m.Steps < target {
			if err := m.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	colSteps := 0
	for _, sp := range tl.Collections {
		if err := stepTo(sp.StartStep - 1); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", c.label(), err)
		}
		lap(&mutator)
		if err := stepTo(sp.EndStep); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", c.label(), err)
		}
		lap(&collector)
		colSteps += sp.EndStep - sp.StartStep + 1
	}
	if err := stepTo(math.MaxInt); err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", c.label(), err)
	}
	lap(&mutator)
	e2e := time.Since(t0)
	if n, ok := m.Result.(gclang.Num); !ok || n.N != c.want || m.Steps != res.Steps {
		return nil, fmt.Errorf("%s: traced pass ended at step %d with %v, first pass at step %d with %d",
			c.label(), m.Steps, m.Result, res.Steps, c.want)
	}
	return &layerSums{
		ops:         1,
		e2e:         ms(e2e),
		mutator:     ms(mutator),
		collector:   ms(collector),
		steps:       float64(res.Steps),
		colSteps:    float64(colSteps),
		collections: float64(res.Collections),
		copies:      float64(tl.Copies),
		scans:       float64(tl.Scans),
		forwards:    float64(tl.Forwards),
		puts:        float64(res.Stats.Puts),
		gets:        float64(res.Stats.Gets),
		sets:        float64(res.Stats.Sets),
		reclaimed:   float64(res.Stats.CellsReclaimed),
		maxLive:     float64(res.Stats.MaxLiveCells),
	}, nil
}

// replayTimes is the store cost of one spec's run in isolation: its exact
// op sequence, recorded once, replayed on a fresh store of each backend.
type replayTimes struct{ mapMs, arenaMs float64 }

func replaySpec(c *engineConfig) (replayTimes, error) {
	var tr *regions.Trace[gclang.Cell]
	opts := c.opts()
	opts.WrapStore = func(s regions.Store[gclang.Cell]) regions.Store[gclang.Cell] {
		tr = regions.NewTrace(s)
		return tr
	}
	if _, err := c.compiled.Run(opts); err != nil {
		return replayTimes{}, fmt.Errorf("%s: recording op trace: %w", c.label(), err)
	}
	// The machine installs its code in cd before the wrapper attaches, so
	// the recorded ops assume a populated cd: re-seed it, untimed.
	var code []gclang.Cell
	for off := 0; off < tr.Inner.Size(regions.CD); off++ {
		if v, ok := tr.Inner.Peek(regions.Addr{Region: regions.CD, Off: off}); ok {
			code = append(code, v)
		}
	}
	one := func(be regions.Backend) (float64, error) {
		s := regions.NewStore[gclang.Cell](be, c.spec.capacity)
		s.SetAutoGrow(true)
		for _, v := range code {
			if _, err := s.Put(regions.CD, v); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := regions.Replay(tr.Ops, s)
		return ms(time.Since(t0)), err
	}
	// Reps alternate the backends so drift biases neither; the first round
	// is a warm-up.
	const reps = 5
	var mapT, arenaT []float64
	for rep := 0; rep <= reps; rep++ {
		mt, err := one(regions.BackendMap)
		if err != nil {
			return replayTimes{}, fmt.Errorf("%s: replay on map: %w", c.label(), err)
		}
		at, err := one(regions.BackendArena)
		if err != nil {
			return replayTimes{}, fmt.Errorf("%s: replay on arena: %w", c.label(), err)
		}
		if rep > 0 {
			mapT, arenaT = append(mapT, mt), append(arenaT, at)
		}
	}
	return replayTimes{median(mapT), median(arenaT)}, nil
}

// traced measures the per-layer metrics: an untraced pass of whole rounds
// for a quarter of d gives the runtime counters and the untraced
// latencies, then the traced pass repeats exactly those ops.
func (b *engineBench) traced(d time.Duration, m metricSet) (attempted, failed int, err error) {
	p := b.timed(d / 4)
	if p.err != nil {
		return 0, 0, p.err
	}
	attempted, failed = p.attempted, p.failed
	ops, untraced := append([]*engineConfig(nil), b.opsRun...), append([]float64(nil), b.opsMs...)
	p.runtimeLayer(m, len(ops))

	replays := map[*spec]replayTimes{}
	for _, c := range b.configs {
		if _, ok := replays[c.spec]; ok {
			continue
		}
		r, err := replaySpec(c)
		if err != nil {
			return attempted, failed, err
		}
		replays[c.spec] = r
	}

	// The traced pass runs the same ops from the same number of clients,
	// so traced and untraced times are taken under the same contention.
	runtime.GC()
	var (
		mu    sync.Mutex // guards the sums and counts below
		next  atomic.Int64
		total layerSums
		byKey = map[[2]int]*layerSums{} // (collector, backend)
	)
	parallel(engineClients, func() {
		for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
			c := ops[i]
			s, err := b.tracedOp(c)
			mu.Lock()
			attempted++
			if err != nil {
				failed++
				fmt.Fprintln(os.Stderr, "FAILED:", err)
				mu.Unlock()
				continue
			}
			s.untraced = untraced[i]
			r := replays[c.spec]
			s.replayMap, s.replayArena = r.mapMs, r.arenaMs
			total.add(s)
			k := [2]int{int(c.spec.col), int(c.backend)}
			if byKey[k] == nil {
				byKey[k] = &layerSums{}
			}
			byKey[k].add(s)
			mu.Unlock()
		}
	})
	if total.ops == 0 {
		return attempted, failed, fmt.Errorf("traced pass completed no op")
	}
	engineLayers(m, &total)
	gapReport(m, byKey)
	return attempted, failed, nil
}

// engineLayers fills the per-layer metrics of an engine workload. The
// traced end-to-end time of an op is exactly gclang.mutator_ms +
// collector.ms + trace.unattributed_ms (machine construction and the
// boundary checks); store ops run inside both layers, so the regions
// layer is measured by replay rather than subtracted.
func engineLayers(m metricSet, s *layerSums) {
	mutSteps := s.steps - s.colSteps
	unattributed := s.e2e - s.mutator - s.collector
	m.set("gclang.steps", "count", s.per(s.steps))
	m.set("gclang.mutator_ms", "ms", s.per(s.mutator))
	m.set("gclang.mutator_ns_per_step", "ns", ratio(s.mutator*1e6, mutSteps))
	m.set("gclang.self_ms", "ms", s.per(s.mutator))
	m.set("collector.collections", "count", s.per(s.collections))
	m.set("collector.copies", "count", s.per(s.copies))
	m.set("collector.scans", "count", s.per(s.scans))
	m.set("collector.forwards", "count", s.per(s.forwards))
	m.set("collector.ms", "ms", s.per(s.collector))
	m.set("collector.ns_per_step", "ns", ratio(s.collector*1e6, s.colSteps))
	m.set("collector.share", "ratio", ratio(s.collector, s.mutator+s.collector))
	m.set("regions.puts", "count", s.per(s.puts))
	m.set("regions.gets", "count", s.per(s.gets))
	m.set("regions.sets", "count", s.per(s.sets))
	m.set("regions.cells_reclaimed", "count", s.per(s.reclaimed))
	m.set("regions.max_live_cells", "count", s.per(s.maxLive))
	m.set("regions.replay_ms_map", "ms", s.per(s.replayMap))
	m.set("regions.replay_ms_arena", "ms", s.per(s.replayArena))
	m.set("trace.e2e_ms", "ms", s.per(s.e2e))
	m.set("trace.unattributed_ms", "ms", s.per(unattributed))
	m.set("trace.overhead_ratio", "ratio", ratio(s.e2e, s.untraced))
}

// gapReport re-measures BENCH_7's arena-versus-map gap per collector: the
// replayed store ratio next to the end-to-end run ratio, and the per-op
// difference (arena minus map) in each layer of the traced split.
func gapReport(m metricSet, byKey map[[2]int]*layerSums) {
	fmt.Fprintln(os.Stderr, "arena vs map, per collector (ratios arena/map; deltas arena-map, ms per op):")
	fmt.Fprintln(os.Stderr, "  collector     replay  run     d.run    d.replay d.mutator d.collector d.unattributed")
	cols := make([]int, 0, len(collectors))
	for _, c := range collectors {
		cols = append(cols, int(c))
	}
	sort.Ints(cols)
	for _, col := range cols {
		mp, ar := byKey[[2]int{col, int(regions.BackendMap)}], byKey[[2]int{col, int(regions.BackendArena)}]
		if mp == nil || ar == nil {
			continue
		}
		name := psgc.Collector(col).String()
		replayRatio := ratio(mp.replayArena, mp.replayMap)
		runRatio := ratio(ar.per(ar.untraced), mp.per(mp.untraced))
		dRun := ar.per(ar.untraced) - mp.per(mp.untraced)
		dReplay := mp.per(mp.replayArena) - mp.per(mp.replayMap)
		dMut := ar.per(ar.mutator) - mp.per(mp.mutator)
		dCol := ar.per(ar.collector) - mp.per(mp.collector)
		dUn := ar.per(ar.e2e-ar.mutator-ar.collector) - mp.per(mp.e2e-mp.mutator-mp.collector)
		fmt.Fprintf(os.Stderr, "  %-12s %7.3f %7.3f %8.3f %8.3f %9.3f %11.3f %14.3f\n",
			name, replayRatio, runRatio, dRun, dReplay, dMut, dCol, dUn)
		m.set("gap."+name+".replay_arena_over_map", "ratio", replayRatio)
		m.set("gap."+name+".run_arena_over_map", "ratio", runRatio)
		m.set("gap."+name+".mutator_ms_delta", "ms", dMut)
		m.set("gap."+name+".collector_ms_delta", "ms", dCol)
		m.set("gap."+name+".unattributed_ms_delta", "ms", dUn)
	}
}
