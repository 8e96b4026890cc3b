package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/gen"
	"psgc/internal/regions"
	"psgc/internal/service"
	"psgc/internal/source"
)

const (
	// serveClients is the closed-loop client count: one per core of the
	// 2-core host, and equal to the server's worker count, so no request
	// waits in the queue for a worker.
	serveClients = 2
	// serveCapacity is the service's shipped default region capacity,
	// which every serve-mix request runs at.
	serveCapacity = 64
	// freshPerSecond sizes the pool of never-seen programs. On a 2-vCPU
	// x86 host serve-mix completes 200–285 requests a second, so 50–71
	// fresh ones; the pool holds at least twice that. A timed phase that
	// exhausts the pool fails rather than end early.
	freshPerSecond = 150
	// freshFuel bounds the reference evaluation of a generated program; a
	// program needing more is skipped, which keeps every miss's run short.
	freshFuel = 20_000
)

// freshConfig generates the miss-path programs: small enough that one
// compile takes several milliseconds, not hundreds.
var freshConfig = gen.Config{MaxDepth: 3, MaxFuns: 2, Recursion: 4}

// freshShape keeps a generated program whose compile cost is in a narrow
// band. Compile time tracks the number of lambdas (closure conversion and
// the typecheck of each closure's packed environment) and the source
// length, so both are bounded; without the band a few programs compile
// 50 times slower than the median and the miss path's quantiles move with
// the seed.
func freshShape(src string) bool {
	fns := strings.Count(src, "fn ")
	return fns >= 1 && fns <= 2 && len(src) >= 150 && len(src) <= 400
}

// serveProgram is one request body with the answer it must produce.
type serveProgram struct {
	name string
	src  string
	col  psgc.Collector
	want int
	body []byte
	// hot programs repeat, so each response must match ref exactly.
	hot bool
	ref psgc.Result
}

type runBody struct {
	Source    string `json:"source"`
	Collector string `json:"collector"`
	// MaxEvents keeps traced responses small: the timeline's totals and
	// collection spans stay exact, only its event log is cut.
	MaxEvents int `json:"max_events"`
}

// serveBench drives service.Server.ServeHTTP in-process from
// serveClients closed-loop clients. Requests follow a seeded stream in
// blocks of four: one fresh program, never seen before, at a seeded
// position in the block, and three hot programs cycling through seeded
// permutations of the hot set.
type serveBench struct {
	seconds float64
	hot     []*serveProgram
	fresh   []*serveProgram
	ops     []*serveProgram
	srv     *service.Server

	// The last phase's completed samples, in op order.
	samples []serveSample
}

type serveSample struct {
	op   *serveProgram
	wall float64       // ms, ServeHTTP call
	done time.Duration // completion offset from the phase start
	resp service.RunResponse
	err  error
}

func (b *serveBench) setup(seed int64) error {
	b.close()
	rng := rand.New(rand.NewSource(seed))
	b.hot = b.hot[:0]
	for _, s := range hotSpecs() {
		p, err := newServeProgram(s.name, s.src, s.col)
		if err != nil {
			return err
		}
		p.hot = true
		if p.ref, _, err = localRun(p); err != nil {
			return err
		}
		b.hot = append(b.hot, p)
	}

	n := int(b.seconds*freshPerSecond) + 1
	b.fresh = b.fresh[:0]
	seen := map[string]bool{}
	for _, h := range b.hot {
		seen[h.src] = true
	}
	for len(b.fresh) < n {
		prog := gen.Program(rng, freshConfig)
		src := prog.String()
		if seen[src] || !freshShape(src) {
			continue
		}
		ev := source.Evaluator{Fuel: freshFuel}
		if _, err := ev.RunInt(prog); err != nil {
			continue
		}
		seen[src] = true
		col := collectors[len(b.fresh)%len(collectors)]
		p, err := newServeProgram(fmt.Sprintf("fresh#%d", len(b.fresh)), src, col)
		if err != nil {
			return err
		}
		b.fresh = append(b.fresh, p)
	}

	b.ops = b.ops[:0]
	var cycle []int
	for _, f := range b.fresh {
		pos := rng.Intn(4)
		for j := 0; j < 4; j++ {
			if j == pos {
				b.ops = append(b.ops, f)
				continue
			}
			if len(cycle) == 0 {
				cycle = rng.Perm(len(b.hot))
			}
			b.ops = append(b.ops, b.hot[cycle[0]])
			cycle = cycle[1:]
		}
	}

	srv, err := b.newServer()
	if err != nil {
		return err
	}
	b.srv = srv
	return nil
}

func newServeProgram(name, src string, col psgc.Collector) (*serveProgram, error) {
	want, err := psgc.Interpret(src)
	if err != nil {
		return nil, fmt.Errorf("reference value of %s: %w", name, err)
	}
	body, err := json.Marshal(runBody{Source: src, Collector: col.String(), MaxEvents: 1})
	if err != nil {
		return nil, err
	}
	return &serveProgram{name: name, src: src, col: col, want: want, body: body}, nil
}

// newServer starts a server with the shipped defaults (map backend,
// static policy, co-check off) and serveClients workers, and warms it:
// each hot program twice, so it is compiled and then promoted in the
// cache before any fresh program arrives.
func (b *serveBench) newServer() (*service.Server, error) {
	srv := service.New(service.Config{Workers: serveClients})
	for round := 0; round < 2; round++ {
		for _, h := range b.hot {
			s := b.do(srv, h, false)
			if s.err != nil && !(round == 0 && errors.Is(s.err, errColdMiss)) {
				_ = srv.Shutdown(context.Background())
				return nil, fmt.Errorf("warm-up: %w", s.err)
			}
		}
	}
	return srv, nil
}

// errColdMiss marks a hot program's request that missed the cache, which
// only the first warm-up round expects.
var errColdMiss = errors.New("hot program missed the cache")

// do sends one request and checks its response: status 200, the reference
// value, a hit with the reference result for a hot program, a miss for a
// fresh one.
func (b *serveBench) do(srv *service.Server, p *serveProgram, trace bool) serveSample {
	url := "/run"
	if trace {
		url = "/run?trace=1"
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(p.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	s := serveSample{op: p, wall: ms(time.Since(t0))}
	if rec.Code != http.StatusOK {
		s.err = fmt.Errorf("%s: status %d: %s", p.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return s
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &s.resp); err != nil {
		s.err = fmt.Errorf("%s: decode response: %w", p.name, err)
		return s
	}
	switch r := s.resp; {
	case r.Value != p.want:
		s.err = fmt.Errorf("%s: value %d, want %d", p.name, r.Value, p.want)
	case p.hot && !r.Cached:
		s.err = fmt.Errorf("%s: %w", p.name, errColdMiss)
	case p.hot && r.Stats != statsOf(p.ref):
		s.err = fmt.Errorf("%s: stats %+v, want %+v", p.name, r.Stats, statsOf(p.ref))
	case !p.hot && r.Cached:
		s.err = fmt.Errorf("%s: fresh program hit the cache", p.name)
	}
	return s
}

// statsOf is the service's view of a local result.
func statsOf(res psgc.Result) service.RunStats {
	return service.RunStats{
		Steps:            res.Steps,
		Collections:      res.Collections,
		Puts:             res.Stats.Puts,
		RegionsReclaimed: res.Stats.RegionsReclaimed,
		CellsReclaimed:   res.Stats.CellsReclaimed,
		MaxLiveCells:     res.Stats.MaxLiveCells,
		LiveCells:        res.LiveCells,
	}
}

// drive runs ops in order from serveClients clients until d passes or the
// ops run out, and returns the completed samples in op order and whether
// the ops ran out first. A ticker closes p's windows meanwhile.
func (b *serveBench) drive(srv *service.Server, ops []*serveProgram, d time.Duration, trace bool, p *phase) ([]serveSample, bool) {
	out := make([]serveSample, len(ops))
	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.cut()
			}
		}
	}()
	var next atomic.Int64
	var ranOut atomic.Bool
	parallel(serveClients, func() {
		for p.elapsed() < d {
			i := int(next.Add(1)) - 1
			if i >= len(ops) {
				ranOut.Store(true)
				return
			}
			s := b.do(srv, ops[i], trace)
			s.done = p.elapsed()
			out[i] = s
		}
	})
	close(stop)
	ticker.Wait()
	n := int(next.Load())
	if n > len(ops) {
		n = len(ops)
	}
	out = out[:n]
	for _, s := range out {
		p.attempted++
		if s.err != nil {
			p.failed++
			fmt.Fprintln(os.Stderr, "FAILED:", s.err)
			continue
		}
		p.sampleAt(s.wall, s.done)
	}
	return out, ranOut.Load()
}

func (b *serveBench) timed(d time.Duration) *phase {
	return measure(func(p *phase) {
		var ranOut bool
		b.samples, ranOut = b.drive(b.srv, b.ops, d, false, p)
		if ranOut && p.err == nil {
			p.err = fmt.Errorf("serve-mix used up its %d fresh programs after %.1f s of %.1f s: raise freshPerSecond",
				len(b.fresh), p.elapsed().Seconds(), d.Seconds())
		}
	})
}

func (b *serveBench) close() {
	if b.srv != nil {
		_ = b.srv.Shutdown(context.Background()) // fails only when its context ends
		b.srv = nil
	}
}

func (b *serveBench) report() {
	per := map[string][]float64{}
	for _, s := range b.samples {
		if s.err != nil {
			continue
		}
		name := "fresh (misses)"
		if s.op.hot {
			name = s.op.name + "/" + s.op.col.String()
		}
		per[name] = append(per[name], s.wall)
	}
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s n=%-5d p50=%8.3f ms p90=%8.3f ms\n", n, len(per[n]), median(per[n]), quantileOf(per[n], 0.9))
	}
}

// compilePhases maps CompileTraced's span names onto metric names.
var compilePhases = []struct{ span, metric string }{
	{"parse", "compile.parse_ms"},
	{"cps", "compile.cps_ms"},
	{"closconv", "compile.closconv_ms"},
	{"collector", "compile.collector_load_ms"},
	{"translate", "compile.translate_ms"},
	{"typecheck", "compile.typecheck_ms"},
}

// traced measures the per-layer metrics. An untraced pass for a quarter of
// d gives the runtime counters, the cache counters and the service
// overhead on hits. The traced pass sends exactly those ops again, with
// ?trace=1, to a fresh server warmed the same way, so each op hits or
// misses as before.
func (b *serveBench) traced(d time.Duration, m metricSet) (attempted, failed int, err error) {
	mt := b.srv.Metrics()
	hits0, misses0, rej0 := mt.CacheHits.Load(), mt.CacheMisses.Load(), mt.Rejected.Load()
	p := b.timed(d / 4)
	if p.err != nil {
		return 0, 0, p.err
	}
	hits, misses, rejected := mt.CacheHits.Load()-hits0, mt.CacheMisses.Load()-misses0, mt.Rejected.Load()-rej0
	untraced := b.samples
	attempted, failed = p.attempted, p.failed
	p.runtimeLayer(m, len(untraced))

	var overhead []float64
	for _, s := range untraced {
		if s.err == nil && s.op.hot {
			overhead = append(overhead, s.wall-s.resp.RunMs)
		}
	}
	m.set("service.cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	m.set("service.cache_lookups", "count", float64(hits+misses))
	m.set("service.rejected", "count", float64(rejected))
	m.set("service.overhead_ms", "ms", median(overhead))

	srv, err := b.newServer()
	if err != nil {
		return attempted, failed, err
	}
	// Shutdown fails only when its context ends; Background never does.
	defer func() { _ = srv.Shutdown(context.Background()) }()
	ops := make([]*serveProgram, len(untraced))
	for i, s := range untraced {
		ops[i] = s.op
	}
	runtime.GC()
	tp := &phase{t0: time.Now()}
	tracedSamples, _ := b.drive(srv, ops, time.Duration(math.MaxInt64), true, tp) // every op, however long
	attempted += tp.attempted
	failed += tp.failed

	var (
		done                                   float64
		e2e, svc, compile, run, unattr, wallUn float64
		steps, collections, copies, scans, fwd float64
		puts, gets, sets, reclaimed, maxLive   float64
		phases                                 = map[string][]float64{}
		nodes                                  []float64
		compiles                               int
		local                                  = map[*serveProgram]struct {
			res  psgc.Result
			size int
		}{}
	)
	for i, s := range tracedSamples {
		if s.err != nil || untraced[i].err != nil {
			continue
		}
		r := s.resp
		done++
		e2e += s.wall
		wallUn += untraced[i].wall
		run += r.RunMs
		extent, spanSum := 0.0, 0.0
		if !r.Cached && r.Trace != nil {
			compiles++
			for _, sp := range r.Trace.Pipeline {
				phases[sp.Phase] = append(phases[sp.Phase], sp.DurMs)
				spanSum += sp.DurMs
				if end := sp.StartMs + sp.DurMs; end > extent {
					extent = end
				}
			}
		}
		compile += spanSum
		unattr += extent - spanSum
		svc += s.wall - r.RunMs - extent
		steps += float64(r.Stats.Steps)
		collections += float64(r.Stats.Collections)
		puts += float64(r.Stats.Puts)
		reclaimed += float64(r.Stats.CellsReclaimed)
		maxLive += float64(r.Stats.MaxLiveCells)
		if r.Trace != nil && r.Trace.Timeline != nil {
			copies += float64(r.Trace.Timeline.Copies)
			scans += float64(r.Trace.Timeline.Scans)
			fwd += float64(r.Trace.Timeline.Forwards)
		}
		// Gets and sets are not in the service's response: take them, and
		// the emitted program's size, from a local compile and run of the
		// same source, which is deterministic.
		lr, ok := local[s.op]
		if !ok {
			if lr.res, lr.size, err = localRun(s.op); err != nil {
				return attempted, failed, err
			}
			local[s.op] = lr
		}
		res, size := lr.res, lr.size
		gets += float64(res.Stats.Gets)
		sets += float64(res.Stats.Sets)
		if !s.op.hot {
			nodes = append(nodes, float64(size))
		}
	}
	if done == 0 {
		return attempted, failed, fmt.Errorf("traced pass completed no op")
	}
	per := func(v float64) float64 { return v / done }
	for _, ph := range compilePhases {
		m.set(ph.metric, "ms", median(phases[ph.span]))
	}
	m.set("compile.count", "count", float64(compiles))
	m.set("compile.gclang_nodes", "count", median(nodes))
	m.set("compile.self_ms", "ms", per(compile))
	m.set("service.self_ms", "ms", per(svc))
	// The run is not split on serve-mix: the engine's time, collections
	// included, is the response's run_ms.
	m.set("gclang.self_ms", "ms", per(run))
	m.set("gclang.steps", "count", per(steps))
	m.set("collector.collections", "count", per(collections))
	m.set("collector.copies", "count", per(copies))
	m.set("collector.scans", "count", per(scans))
	m.set("collector.forwards", "count", per(fwd))
	m.set("regions.puts", "count", per(puts))
	m.set("regions.gets", "count", per(gets))
	m.set("regions.sets", "count", per(sets))
	m.set("regions.cells_reclaimed", "count", per(reclaimed))
	m.set("regions.max_live_cells", "count", per(maxLive))
	m.set("trace.e2e_ms", "ms", per(e2e))
	m.set("trace.unattributed_ms", "ms", per(unattr))
	m.set("trace.overhead_ratio", "ratio", ratio(e2e, wallUn))
	return attempted, failed, nil
}

// localRun compiles and runs a serve-mix program outside the service, with
// the service's default run options, and returns the result and the size
// of the emitted λGC program.
func localRun(p *serveProgram) (psgc.Result, int, error) {
	c, err := psgc.Compile(p.src, p.col)
	if err != nil {
		return psgc.Result{}, 0, fmt.Errorf("local compile of %s: %w", p.name, err)
	}
	res, err := c.Run(psgc.RunOptions{Capacity: serveCapacity, Backend: regions.BackendMap})
	if err != nil || res.Value != p.want {
		return res, 0, fmt.Errorf("local run of %s: value %d, want %d, err %v", p.name, res.Value, p.want, err)
	}
	return res, gclang.ProgramSize(c.Prog), nil
}
