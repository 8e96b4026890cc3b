// Command perfbench is the repository's benchmark. It runs one named
// workload against the library in-process, checks every result, and
// prints one JSON line of metrics as its last line of output:
//
//	perfbench --workload gc-heavy --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it times a closed loop for --seconds and prints the
// end-to-end metrics. With --trace 1 it runs a separate traced pass over
// the same ops and prints the per-layer metrics instead; the timed and
// traced figures never come from the same pass. NOTES.md defines every
// metric and says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how often set-up runs; setup_s is the median. The
// engine workloads' set-up takes about 0.25 s and moves more with the host
// than serve-mix's 3–4 s, so it runs more often.
func setupRepeats(workload string) int {
	if workload == "serve-mix" {
		return 3
	}
	return 5
}

// bench is one workload.
type bench interface {
	// setup builds everything a run needs from the seed: programs,
	// compiled code, reference results, a warmed cache.
	setup(seed int64) error
	// timed runs the closed loop for d, untraced.
	timed(d time.Duration) *phase
	// traced fills the per-layer metrics.
	traced(d time.Duration, m metricSet) (attempted, failed int, err error)
	// report prints a per-program breakdown of the last timed phase.
	report()
	close()
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "gc-heavy, mutator-heavy or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced pass and prints per-layer metrics")
	flag.Parse()

	var b bench
	switch *workload {
	case "gc-heavy":
		b = newEngineBench(gcHeavySpecs())
	case "mutator-heavy":
		b = newEngineBench(mutatorHeavySpecs())
	case "serve-mix":
		b = &serveBench{seconds: *seconds}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(b, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, setupRepeats(*workload))
	b.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(b bench, seed int64, d time.Duration, trace bool, repeats int) (result, error) {
	m := metricSet{}
	if trace {
		if err := b.setup(seed); err != nil {
			return result{}, err
		}
		for _, name := range perLayerNames {
			m.set(name.name, name.unit, 0)
		}
		attempted, failed, err := b.traced(d, m)
		if err != nil {
			return result{}, err
		}
		if len(m) != len(perLayerNames) {
			return result{}, fmt.Errorf("traced run set %d metrics, want the %d of perLayerNames", len(m), len(perLayerNames))
		}
		return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
	}

	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		runtime.GC() // each set-up starts from the same heap state
		t0 := time.Now()
		if err := b.setup(seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := b.timed(d)
	if p.err != nil {
		return result{}, p.err
	}
	if p.attempted == 0 {
		return result{}, fmt.Errorf("no op completed")
	}
	windows := p.endToEnd(m)
	m.set("setup_s", "s", median(setups))

	fmt.Fprintf(os.Stderr, "ops=%d failed=%d error_rate=%g wall=%.3fs latency samples=%d windows=%d\n",
		p.attempted, p.failed, ratio(float64(p.failed), float64(p.attempted)), p.wall.Seconds(), len(p.latencies), windows)
	fmt.Fprintf(os.Stderr, "set-ups (s): %.4f\n", setups)
	b.report()
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// perLayerNames lists every per-layer metric. A traced run prints all of
// them; one a workload does not exercise reads 0 (NOTES.md says which).
var perLayerNames = []struct{ name, unit string }{
	{"compile.parse_ms", "ms"},
	{"compile.cps_ms", "ms"},
	{"compile.closconv_ms", "ms"},
	{"compile.collector_load_ms", "ms"},
	{"compile.translate_ms", "ms"},
	{"compile.typecheck_ms", "ms"},
	{"compile.count", "count"},
	{"compile.gclang_nodes", "count"},
	{"compile.self_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_lookups", "count"},
	{"service.overhead_ms", "ms"},
	{"service.rejected", "count"},
	{"service.self_ms", "ms"},
	{"gclang.steps", "count"},
	{"gclang.mutator_ms", "ms"},
	{"gclang.mutator_ns_per_step", "ns"},
	{"gclang.self_ms", "ms"},
	{"collector.collections", "count"},
	{"collector.copies", "count"},
	{"collector.scans", "count"},
	{"collector.forwards", "count"},
	{"collector.ms", "ms"},
	{"collector.ns_per_step", "ns"},
	{"collector.share", "ratio"},
	{"regions.puts", "count"},
	{"regions.gets", "count"},
	{"regions.sets", "count"},
	{"regions.cells_reclaimed", "count"},
	{"regions.max_live_cells", "count"},
	{"regions.replay_ms_map", "ms"},
	{"regions.replay_ms_arena", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.allocs_per_req", "count"},
	{"trace.e2e_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"gap.basic.replay_arena_over_map", "ratio"},
	{"gap.basic.run_arena_over_map", "ratio"},
	{"gap.basic.mutator_ms_delta", "ms"},
	{"gap.basic.collector_ms_delta", "ms"},
	{"gap.basic.unattributed_ms_delta", "ms"},
	{"gap.forwarding.replay_arena_over_map", "ratio"},
	{"gap.forwarding.run_arena_over_map", "ratio"},
	{"gap.forwarding.mutator_ms_delta", "ms"},
	{"gap.forwarding.collector_ms_delta", "ms"},
	{"gap.forwarding.unattributed_ms_delta", "ms"},
	{"gap.generational.replay_arena_over_map", "ratio"},
	{"gap.generational.run_arena_over_map", "ratio"},
	{"gap.generational.mutator_ms_delta", "ms"},
	{"gap.generational.collector_ms_delta", "ms"},
	{"gap.generational.unattributed_ms_delta", "ms"},
}
