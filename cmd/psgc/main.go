// Command psgc compiles and runs programs of the simply-typed source
// language on the λGC abstract machine, linked against one of the three
// type-safe collectors of "Principled Scavenging".
//
// Usage:
//
//	psgc [flags] file.src        compile and run a program
//	psgc [flags] -e 'expr'       compile and run an inline program
//
// Flags:
//
//	-gc basic|forwarding|generational    collector (default basic)
//	-policy static|adaptive              static uses -gc; adaptive profiles a pilot run, then decides
//	-engine env|subst                    execution engine (default env)
//	-backend map|arena                   memory substrate (default map)
//	-capacity N                          region capacity triggering GC (default 64; 0 = never collect)
//	-fixed                               disable heap growth
//	-check                               re-check machine-state well-formedness every step
//	-stats                               print memory statistics
//	-show source|cps|clos|gc             print an intermediate form and exit
//	-interp                              run the reference evaluator instead
//	-trace                               print pipeline-phase spans and the GC-event timeline
//	-trace-json                          emit the run and its full trace as JSON on stdout
//	-cocheck                             co-step the env engine against the substitution oracle
//	-chaos spec                          install fault injection ("point=prob[:delay],...")
//	-chaos-seed N                        deterministic seed for -chaos (default 1)
//	-checkpoint file                     write a checkpoint blob to file every -checkpoint-every steps
//	-checkpoint-every N                  checkpoint cadence in steps (default 50000)
//	-checkpoint-stop                     stop the run after the first checkpoint is written
//	-resume file                         resume a checkpoint blob (no source argument; -backend
//	                                     picks the substrate, so resuming an arena checkpoint
//	                                     with -backend map is a cross-backend migration)
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"psgc"
	"psgc/internal/closconv"
	"psgc/internal/cps"
	"psgc/internal/fault"
	"psgc/internal/names"
	"psgc/internal/obs"
	"psgc/internal/policy"
	"psgc/internal/regions"
	"psgc/internal/source"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command dispatch, factored out of main so tests can drive the
// CLI end to end. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psgc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gcName    = fs.String("gc", "basic", "collector: basic, forwarding, or generational")
		polName   = fs.String("policy", "static", "collector policy: static (use -gc as given) or adaptive (profile a pilot run, then decide collector and capacity)")
		engine    = fs.String("engine", "env", "execution engine: env (environment machine) or subst (substitution oracle; -check implies subst)")
		backend   = fs.String("backend", "map", "memory substrate: map (hash-map regions) or arena (contiguous slabs, Cheney scavenge)")
		capacity  = fs.Int("capacity", 64, "region capacity at which ifgc triggers a collection (0 disables)")
		fixed     = fs.Bool("fixed", false, "disable the survivor-driven heap growth policy")
		check     = fs.Bool("check", false, "re-check machine-state well-formedness after every step (slow)")
		stats     = fs.Bool("stats", false, "print memory statistics")
		show      = fs.String("show", "", "print an intermediate form (source, cps, clos, gc) and exit")
		expr      = fs.String("e", "", "inline program text instead of a file")
		interp    = fs.Bool("interp", false, "run the reference evaluator (no regions, no GC)")
		trace     = fs.Bool("trace", false, "print compile-phase spans and the GC-event timeline to stderr")
		traceJSON = fs.Bool("trace-json", false, "emit the result with the full trace as JSON on stdout")
		maxEvents = fs.Int("trace-events", obs.DefaultMaxEvents, "cap on retained timeline events")
		cocheck   = fs.Bool("cocheck", false, "co-step the env engine against the substitution oracle; a divergence fails the run")
		chaosSpec = fs.String("chaos", "", `fault-injection spec, "point=prob[:delay],..."`)
		chaosSeed = fs.Int64("chaos-seed", 1, "deterministic seed for -chaos")
		ckptFile  = fs.String("checkpoint", "", "write a checkpoint blob to this file every -checkpoint-every steps")
		ckptEvery = fs.Int("checkpoint-every", 0, "checkpoint cadence in machine steps (default 50000)")
		ckptStop  = fs.Bool("checkpoint-stop", false, "stop the run after the first checkpoint is written")
		resumePth = fs.String("resume", "", "resume a checkpoint blob instead of compiling a program")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "psgc: %v\n", err)
		return 1
	}

	if *chaosSpec != "" {
		reg, err := fault.ParseSpec(*chaosSpec, *chaosSeed)
		if err != nil {
			return fail(err)
		}
		fault.Install(reg)
		// The registry is process-global; uninstall on the way out so the
		// in-process CLI tests (and any other embedder) don't inherit it.
		defer fault.Install(nil)
	}

	var (
		compiled *psgc.Compiled
		ck       *psgc.Checkpoint
		col      psgc.Collector
		pipeline []obs.PhaseSpan
		decision *policy.Decision
		srcHash  string
		traceID  string
		opts     psgc.RunOptions
	)
	if *resumePth != "" {
		if *expr != "" || fs.NArg() > 0 {
			return fail(errors.New("-resume takes no source program (the checkpoint carries it)"))
		}
		blob, err := os.ReadFile(*resumePth)
		if err != nil {
			return fail(err)
		}
		if ck, err = psgc.DecodeCheckpoint(blob); err != nil {
			return fail(err)
		}
		be, err := regions.ParseBackend(*backend)
		if err != nil {
			return fail(err)
		}
		compiled, col = ck.Compiled(), ck.Collector
		srcHash, traceID = ck.SourceHash, ck.TraceID
		// The checkpoint names the machine; -cocheck is the one engine
		// choice a resume takes.
		opts = psgc.RunOptions{Backend: be}
		if *cocheck {
			opts.Engine = psgc.EngineCoChecked
		}
	} else {
		var src string
		switch {
		case *expr != "":
			src = *expr
		case fs.NArg() == 1:
			data, err := os.ReadFile(fs.Arg(0))
			if err != nil {
				return fail(err)
			}
			src = string(data)
		default:
			fs.Usage()
			return 2
		}

		if *interp {
			n, err := psgc.Interpret(src)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, n)
			return 0
		}

		var err error
		if col, err = psgc.ParseCollector(*gcName); err != nil {
			return fail(err)
		}
		pol, err := policy.Parse(*polName)
		if err != nil {
			return fail(err)
		}

		if *show != "" {
			if err := showForm(stdout, src, col, *show); err != nil {
				return fail(err)
			}
			return 0
		}

		if compiled, pipeline, err = psgc.CompileTraced(src, col); err != nil {
			return fail(err)
		}
		eng, err := psgc.ParseEngine(*engine)
		if err != nil {
			return fail(err)
		}
		// -check runs the substitution machine in ghost mode whatever
		// -engine says; -cocheck co-steps the env engine only.
		switch {
		case *check:
			eng = psgc.EngineChecked
		case *cocheck && eng == psgc.EngineEnv:
			eng = psgc.EngineCoChecked
		}
		be, err := regions.ParseBackend(*backend)
		if err != nil {
			return fail(err)
		}

		// -policy adaptive: run a profiled pilot with the fallback collector,
		// feed its profile to the policy engine, and let the decision pick the
		// collector and capacity for the run whose value we print: that run is
		// compiled with the decided collector and runs at the decided
		// capacity. The CLI has no cross-invocation store, so the pilot run
		// stands in for a warm one.
		runCapacity := *capacity
		if pol == policy.Adaptive {
			pe := policy.NewEngine(obs.NewProfileStore(4))
			const hash = "cli"
			prof := compiled.Profiler()
			if _, err := compiled.Run(psgc.RunOptions{
				Capacity: *capacity, FixedCapacity: *fixed, Backend: be, Profiler: prof,
			}); err != nil {
				return fail(fmt.Errorf("adaptive pilot run: %w", err))
			}
			pe.Observe(hash, col.String(), prof.Profile())
			d := pe.Decide(hash, col.String(), *capacity)
			decision = &d
			runCapacity = d.Capacity
			if d.Collector != col.String() {
				if col, err = psgc.ParseCollector(d.Collector); err != nil {
					return fail(err)
				}
				if compiled, pipeline, err = psgc.CompileTraced(src, col); err != nil {
					return fail(err)
				}
			}
		}
		srcHash = fmt.Sprintf("%x", sha256.Sum256([]byte(src)))
		opts = psgc.RunOptions{
			Capacity:      runCapacity,
			FixedCapacity: *fixed,
			Engine:        eng,
			Backend:       be,
		}
	}

	// Fresh and resumed runs share everything from here on: tracing,
	// checkpoints, and the outcome.
	var rec *obs.Recorder
	if *trace || *traceJSON {
		rec = compiled.Recorder()
		rec.MaxEvents = *maxEvents
		opts.Recorder = rec
	}
	// -checkpoint takes a checkpoint at every Progress tick on a multiple of
	// -checkpoint-every steps; ckptErr carries a capture or write failure out
	// of the callback. Blobs are written via a temp file and rename so a kill
	// mid-write never leaves a torn checkpoint under the final name.
	var ckptErr error
	if *ckptFile != "" {
		every := *ckptEvery
		if every <= 0 {
			every = psgc.DefaultProgressEvery
		}
		opts.ProgressEvery = every
		opts.Progress = func(p psgc.Progress) bool {
			if p.Steps%every != 0 {
				return true // a collection tick
			}
			snap, err := p.Checkpoint()
			if err == nil {
				snap.SourceHash, snap.TraceID = srcHash, traceID
				var blob []byte
				if blob, err = snap.Encode(); err == nil {
					tmp := *ckptFile + ".tmp"
					if err = os.WriteFile(tmp, blob, 0o644); err == nil {
						err = os.Rename(tmp, *ckptFile)
					}
				}
			}
			if err != nil {
				ckptErr = err
				return false
			}
			fmt.Fprintf(stderr, "psgc: checkpoint at step %d -> %s\n", p.Steps, *ckptFile)
			return !*ckptStop
		}
	}
	var res psgc.Result
	var err error
	if ck != nil {
		res, err = ck.Resume(opts)
	} else {
		res, err = compiled.Run(opts)
	}
	if ckptErr != nil {
		return fail(fmt.Errorf("checkpoint: %w", ckptErr))
	}
	if errors.Is(err, psgc.ErrCheckpointed) {
		// A checkpoint stop is a pause, not a failure.
		fmt.Fprintf(stderr, "psgc: run paused at step %d (resume with -resume %s)\n", res.Steps, *ckptFile)
		return 0
	}
	if err != nil {
		return fail(err)
	}
	if res.Divergence != nil {
		// The printed value is the oracle's and therefore correct, but an
		// engine divergence is a bug worth a hard failure in scripts.
		fmt.Fprintln(stdout, res.Value)
		fmt.Fprintf(stderr, "psgc: engine divergence: %s\n", res.Divergence)
		return 1
	}
	if *traceJSON {
		out := struct {
			Value       int             `json:"value"`
			Steps       int             `json:"steps"`
			Collections int             `json:"collections"`
			Pipeline    []obs.PhaseSpan `json:"pipeline"`
			Timeline    *obs.Timeline   `json:"timeline"`
		}{res.Value, res.Steps, res.Collections, pipeline, rec.Timeline()}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Fprintln(stdout, res.Value)
	if *trace {
		printTrace(stderr, pipeline, rec.Timeline())
	}
	if *stats {
		fmt.Fprintf(stderr, "collector:   %s\n", col)
		if decision != nil {
			fmt.Fprintf(stderr, "policy:      adaptive -> %s at capacity %d (%s)\n",
				decision.Collector, decision.Capacity, decision.Reason)
		}
		fmt.Fprintf(stderr, "steps:       %d\n", res.Steps)
		fmt.Fprintf(stderr, "collections: %d\n", res.Collections)
		fmt.Fprintf(stderr, "puts:        %d\n", res.Stats.Puts)
		fmt.Fprintf(stderr, "reclaimed:   %d cells in %d regions\n",
			res.Stats.CellsReclaimed, res.Stats.RegionsReclaimed)
		fmt.Fprintf(stderr, "max live:    %d cells\n", res.Stats.MaxLiveCells)
	}
	return 0
}

// printTrace renders the compile-phase spans and the GC-event timeline in a
// human-readable form, mirroring the JSON served by /run?trace=1.
func printTrace(w io.Writer, pipeline []obs.PhaseSpan, tl *obs.Timeline) {
	fmt.Fprintln(w, "-- compile pipeline")
	for _, s := range pipeline {
		fmt.Fprintf(w, "%-10s %8.3fms (at +%.3fms)\n", s.Phase, s.DurMs, s.StartMs)
	}
	fmt.Fprintln(w, "-- timeline")
	fmt.Fprintf(w, "steps %d  allocs %d  copies %d  forwards %d  scans %d\n",
		tl.Steps, tl.Allocs, tl.Copies, tl.Forwards, tl.Scans)
	fmt.Fprintf(w, "freed %d cells (%d bytes) in %d regions across %d collections\n",
		tl.CellsFreed, tl.BytesFreed, tl.RegionsFreed, len(tl.Collections))
	for _, c := range tl.Collections {
		open := ""
		if c.Open {
			open = " (open)"
		}
		fmt.Fprintf(w, "collection %d [%s] steps %d-%d: %d copies, %d forwards, %d scans, freed %d cells / %d bytes in %d regions%s\n",
			c.Index, c.Entry, c.StartStep, c.EndStep,
			c.Copies, c.Forwards, c.Scans, c.CellsFreed, c.BytesFreed, c.RegionsFreed, open)
	}
	if tl.DroppedEvents > 0 {
		fmt.Fprintf(w, "events retained %d (dropped %d)\n", len(tl.Events), tl.DroppedEvents)
	}
}

func showForm(stdout io.Writer, src string, col psgc.Collector, form string) error {
	p, err := source.Parse(src)
	if err != nil {
		return err
	}
	switch form {
	case "source":
		fmt.Fprintln(stdout, p)
	case "cps":
		cp, err := cps.Convert(p, new(names.Supply))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, cp)
	case "clos":
		var supply names.Supply
		cp, err := cps.Convert(p, &supply)
		if err != nil {
			return err
		}
		lp, err := closconv.Convert(cp, &supply)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, lp)
	case "gc":
		compiled, err := psgc.CompileProgram(p, col)
		if err != nil {
			return err
		}
		for i, nf := range compiled.Prog.Code {
			fmt.Fprintf(stdout, "-- cd.%d: %s\n%s\n\n", i, nf.Name, nf.Fun)
		}
		fmt.Fprintf(stdout, "-- main\n%s\n", compiled.Prog.Main)
	default:
		return fmt.Errorf("unknown form %q (want source, cps, clos, or gc)", form)
	}
	return nil
}
