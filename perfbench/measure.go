package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile of sorted by linear interpolation between
// the closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileOf is quantile on an unsorted sample.
func quantileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// parallel runs f on n goroutines and waits for all of them to return.
func parallel(n int, f func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// cpuTime is the process's user plus system CPU time, so host-GC work
// done on another core still counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) and
// resets it to the current resident set, so the next read covers only
// what happened since this one.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return 0, fmt.Errorf("reset VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the Go runtime's counters.
type runtimeSample struct {
	gcCPU, totalCPU          float64 // seconds
	allocBytes, allocObjects float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// windowLen is the length of one measurement window. The end-to-end
// figures are medians over a phase's windows: the host shares its cores
// with other tenants, and a slow period of up to half the phase moves a
// median of windows much less than a whole-phase figure.
const windowLen = 3 * time.Second

// phase is one timed closed-loop phase: per-op latencies of the ops that
// completed and when each completed, plus the process-wide costs measured
// around it.
type phase struct {
	latencies []float64       // ms
	doneAt    []time.Duration // completion offset from the phase start
	attempted int
	failed    int
	t0        time.Time
	wall      time.Duration
	cpu       time.Duration
	cuts      []cut // window boundaries, first at the phase start
	rt0, rt1  runtimeSample
	// err is set when the phase cannot be measured as asked: a failed
	// read of the resident set, or a workload that ran out of ops early.
	err error
}

// cut is a window boundary: its offset from the phase start, the process
// CPU time then, and the resident-set high-water mark of the window it
// closes (MB).
type cut struct {
	at, cpu time.Duration
	rssMB   float64
}

func (p *phase) elapsed() time.Duration { return time.Since(p.t0) }

// cut closes the current window.
func (p *phase) cut() {
	c := cut{at: p.elapsed(), cpu: cpuTime()}
	var err error
	if c.rssMB, err = peakRSSMB(); err != nil && p.err == nil {
		p.err = err
	}
	p.cuts = append(p.cuts, c)
}

// nextCut is the offset at which the current window is due to close.
func (p *phase) nextCut() time.Duration { return time.Duration(len(p.cuts)) * windowLen }

// sample records one completed op that finished now.
func (p *phase) sample(lat float64) { p.sampleAt(lat, p.elapsed()) }

func (p *phase) sampleAt(lat float64, at time.Duration) {
	p.latencies = append(p.latencies, lat)
	p.doneAt = append(p.doneAt, at)
}

// measure runs f as one timed phase: a host GC first, so garbage from set
// up or warm-up is not collected on the phase's clock, then wall, CPU,
// resident set and runtime counters around f.
func measure(f func(p *phase)) *phase {
	runtime.GC()
	p := &phase{rt0: readRuntime()}
	p.t0 = time.Now()
	p.cut()
	f(p)
	p.cut()
	last := p.cuts[len(p.cuts)-1]
	p.wall, p.cpu = last.at, last.cpu-p.cuts[0].cpu
	p.rt1 = readRuntime()
	return p
}

// windowStats are one window's end-to-end figures.
type windowStats struct{ rps, p50, p90, cpuPerReq, rssMB float64 }

// windows splits the phase at its cuts. An op belongs to the window in
// which it completed; a window in which none completed is skipped, and so
// is a last window shorter than half windowLen (the tail after the final
// full window, often a few ops in milliseconds), which would otherwise
// weigh as much as a full one.
func (p *phase) windows() []windowStats {
	var out []windowStats
	for i := 0; i+1 < len(p.cuts); i++ {
		lo, hi := p.cuts[i], p.cuts[i+1]
		if i > 0 && i+2 == len(p.cuts) && hi.at-lo.at < windowLen/2 {
			continue
		}
		var lat []float64
		for j, at := range p.doneAt {
			if at > lo.at && at <= hi.at {
				lat = append(lat, p.latencies[j])
			}
		}
		if len(lat) == 0 || hi.at <= lo.at {
			continue
		}
		sort.Float64s(lat)
		n := float64(len(lat))
		out = append(out, windowStats{
			rps:       n / (hi.at - lo.at).Seconds(),
			p50:       quantile(lat, 0.5),
			p90:       quantile(lat, 0.9),
			cpuPerReq: ms(hi.cpu-lo.cpu) / n,
			rssMB:     hi.rssMB,
		})
	}
	return out
}

// endToEnd fills the untraced metrics from a timed phase: each is the
// median over the phase's windows.
func (p *phase) endToEnd(m metricSet) int {
	ws := p.windows()
	pick := func(f func(windowStats) float64) float64 {
		v := make([]float64, len(ws))
		for i, w := range ws {
			v[i] = f(w)
		}
		return median(v)
	}
	m.set("throughput_rps", "1/s", pick(func(w windowStats) float64 { return w.rps }))
	m.set("latency_p50_ms", "ms", pick(func(w windowStats) float64 { return w.p50 }))
	m.set("latency_p90_ms", "ms", pick(func(w windowStats) float64 { return w.p90 }))
	m.set("cpu_ms_per_req", "ms", pick(func(w windowStats) float64 { return w.cpuPerReq }))
	m.set("peak_rss_mb", "MB", pick(func(w windowStats) float64 { return w.rssMB }))
	return len(ws)
}

// runtimeLayer fills the runtime layer's metrics from a phase.
func (p *phase) runtimeLayer(m metricSet, ops int) {
	n := float64(ops)
	m.set("runtime.gc_cpu_share", "ratio", ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU))
	m.set("runtime.alloc_bytes_per_req", "B", ratio(p.rt1.allocBytes-p.rt0.allocBytes, n))
	m.set("runtime.allocs_per_req", "count", ratio(p.rt1.allocObjects-p.rt0.allocObjects, n))
}
