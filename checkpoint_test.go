package psgc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"psgc/internal/checkpoint"
	"psgc/internal/gclang"
	"psgc/internal/obs"
	"psgc/internal/regions"
	"psgc/internal/workload"
)

// checkpointAt runs the compiled program until step `cut`, captures a
// checkpoint at that Progress tick, and asserts the run stopped with
// ErrCheckpointed.
func checkpointAt(t *testing.T, c *Compiled, opts RunOptions, cut int) *Checkpoint {
	t.Helper()
	var ck *Checkpoint
	var ckErr error
	opts.ProgressEvery = cut
	opts.Progress = func(p Progress) bool {
		if p.Steps != cut {
			return true // a collection tick
		}
		ck, ckErr = p.Checkpoint()
		return false
	}
	_, err := c.Run(opts)
	if ckErr != nil {
		t.Fatalf("checkpoint at step %d: %v", cut, ckErr)
	}
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("run did not checkpoint: %v", err)
	}
	if ck == nil {
		t.Fatal("Progress never reached the cut")
	}
	if ck.Steps != cut {
		t.Fatalf("checkpoint at step %d, want %d", ck.Steps, cut)
	}
	return ck
}

// TestCheckpointResumeCrossBackend is the acceptance differential: a run
// killed mid-execution and resumed on the *other* backend — arena→map and
// map→arena, across a collector×capacity grid, through the full wire
// round trip — must produce a bit-identical Result (value, steps,
// collections, every Stats counter, live cells) to the uninterrupted run.
func TestCheckpointResumeCrossBackend(t *testing.T) {
	src := workload.AllocHeavySrc(40)
	caps := []int{24, 48}
	if testing.Short() {
		caps = []int{32}
	}
	dirs := []struct {
		name     string
		from, to regions.Backend
	}{
		{"arena_to_map", regions.BackendArena, regions.BackendMap},
		{"map_to_arena", regions.BackendMap, regions.BackendArena},
	}
	for _, col := range allCollectors {
		c, err := Compile(src, col)
		if err != nil {
			t.Fatalf("%v: compile: %v", col, err)
		}
		for _, capac := range caps {
			ref, err := c.Run(RunOptions{Capacity: capac})
			if err != nil {
				t.Fatalf("%v/cap%d: reference run: %v", col, capac, err)
			}
			if ref.Collections == 0 {
				t.Fatalf("%v/cap%d: reference run never collected", col, capac)
			}
			for _, dir := range dirs {
				dir := dir
				t.Run(fmt.Sprintf("%v/cap%d/%s", col, capac, dir.name), func(t *testing.T) {
					ck := checkpointAt(t, c, RunOptions{Capacity: capac, Backend: dir.from}, ref.Steps/2)
					ck.SourceHash, ck.TraceID = "h1", "mig-1"
					if ck.Backend != dir.from || ck.Engine != EngineEnv || ck.Collector != col {
						t.Fatalf("checkpoint identity wrong: %+v", ck)
					}
					// Through the wire: encode, decode (full re-certification),
					// then resume on the other backend.
					blob, err := ck.Encode()
					if err != nil {
						t.Fatal(err)
					}
					dck, err := DecodeCheckpoint(blob)
					if err != nil {
						t.Fatal(err)
					}
					if dck.TraceID != "mig-1" || dck.SourceHash != "h1" ||
						dck.Steps != ck.Steps || dck.Backend != dir.from {
						t.Fatalf("decoded checkpoint identity wrong: %+v", dck)
					}
					got, err := dck.Resume(RunOptions{Backend: dir.to})
					if err != nil {
						t.Fatal(err)
					}
					if got != ref {
						t.Fatalf("resumed run diverged:\n  resumed       %+v\n  uninterrupted %+v", got, ref)
					}
				})
			}
		}
	}
}

// TestCheckpointerPausesOnDemand exercises the service's pause path: a
// pause requested at one Progress tick is taken at the next tick through
// Progress.Checkpoint, the run stops with ErrCheckpointed, and the resumed
// run (other backend) matches the uninterrupted one.
func TestCheckpointerPausesOnDemand(t *testing.T) {
	src := workload.AllocHeavySrc(30)
	c, err := Compile(src, Basic)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(RunOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	requested := false
	var ck *Checkpoint
	var ckErr error
	res, err := c.Run(RunOptions{
		Capacity:      32,
		Backend:       regions.BackendArena,
		ProgressEvery: 100,
		Progress: func(p Progress) bool {
			if requested {
				ck, ckErr = p.Checkpoint()
				return false
			}
			requested = p.Steps >= ref.Steps/2
			return true
		},
	})
	if ckErr != nil {
		t.Fatal(ckErr)
	}
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("run did not stop at checkpoint: %v (res %+v)", err, res)
	}
	if ck == nil {
		t.Fatal("no checkpoint taken")
	}
	if ck.Steps <= ref.Steps/2 || ck.Steps >= ref.Steps {
		t.Fatalf("checkpoint at step %d, expected mid-run (ref %d)", ck.Steps, ref.Steps)
	}
	got, err := ck.Resume(RunOptions{Backend: regions.BackendMap})
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("resumed run diverged:\n  resumed       %+v\n  uninterrupted %+v", got, ref)
	}
}

// TestCheckpointResumeCoChecked resumes an env checkpoint co-checked:
// the substitution oracle is rebuilt from the same image, the lockstep
// counter comparison holds across the checkpoint (no divergence), and the
// result matches the uninterrupted run. Checkpointing *from* a co-checked
// run is exercised too.
func TestCheckpointResumeCoChecked(t *testing.T) {
	src := workload.AllocHeavySrc(30)
	c, err := Compile(src, Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(RunOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint taken from a co-checked run (captured from the shadow).
	ck := checkpointAt(t, c, RunOptions{Capacity: 32, Backend: regions.BackendArena, Engine: EngineCoChecked}, ref.Steps/3)
	if ck.Engine != EngineEnv {
		t.Fatalf("co-checked capture engine %v, want env", ck.Engine)
	}

	// Resume co-checked on the other backend.
	got, err := ck.Resume(RunOptions{Backend: regions.BackendMap, Engine: EngineCoChecked})
	if err != nil {
		t.Fatal(err)
	}
	if got.Divergence != nil {
		t.Errorf("resumed co-check diverged: %v", *got.Divergence)
	}
	if got != ref {
		t.Fatalf("resumed co-checked run diverged:\n  resumed       %+v\n  uninterrupted %+v", got, ref)
	}
}

// TestCheckpointSubstEngine checkpoints a substitution-machine run and
// resumes it across backends; the checkpoint dictates the engine, so the
// resume ignores opts.Engine.
func TestCheckpointSubstEngine(t *testing.T) {
	src := workload.AllocHeavySrc(20)
	c, err := Compile(src, Generational)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(RunOptions{Capacity: 32, Engine: EngineSubst})
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpointAt(t, c, RunOptions{Capacity: 32, Engine: EngineSubst, Backend: regions.BackendMap}, ref.Steps/2)
	if ck.Engine != EngineSubst {
		t.Fatalf("engine %v, want subst", ck.Engine)
	}
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dck, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Engine comes from the checkpoint even if the resume asks for env.
	got, err := dck.Resume(RunOptions{Backend: regions.BackendArena, Engine: EngineEnv})
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("resumed subst run diverged:\n  resumed       %+v\n  uninterrupted %+v", got, ref)
	}
}

// TestCheckpointProfilerContinuity: a profiler restored from the
// checkpoint and fed the rest of the run reports the same profile —
// including the reservoir sampler's exact contents — as one that watched
// the whole run.
func TestCheckpointProfilerContinuity(t *testing.T) {
	src := workload.AllocHeavySrc(40)
	c, err := Compile(src, Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	refProf := c.Profiler()
	ref, err := c.Run(RunOptions{Capacity: 24, Backend: regions.BackendArena, Profiler: refProf})
	if err != nil {
		t.Fatal(err)
	}
	p1 := c.Profiler()
	ck := checkpointAt(t, c, RunOptions{Capacity: 24, Backend: regions.BackendArena, Profiler: p1}, ref.Steps/2)
	p2 := c.Profiler()
	got, err := ck.Resume(RunOptions{Backend: regions.BackendArena, Profiler: p2})
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("resumed run diverged: %+v vs %+v", got, ref)
	}
	if !reflect.DeepEqual(p2.Profile(), refProf.Profile()) {
		t.Fatalf("resumed profile diverged:\nresumed:       %+v\nuninterrupted: %+v", p2.Profile(), refProf.Profile())
	}
}

// TestCheckpointFuelInheritance: with opts.Fuel zero a resume inherits the
// checkpoint's remaining fuel, so an interrupted budget is still enforced.
func TestCheckpointFuelInheritance(t *testing.T) {
	src := workload.AllocHeavySrc(30)
	c, err := Compile(src, Basic)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(RunOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	cut := ref.Steps / 2
	ck := checkpointAt(t, c, RunOptions{Capacity: 32, Fuel: cut + 5}, cut)
	if ck.FuelRemaining != 5 {
		t.Fatalf("fuel remaining %d, want 5", ck.FuelRemaining)
	}
	if _, err := ck.Resume(RunOptions{}); !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("resume with 5 fuel left: %v, want ErrOutOfFuel", err)
	}
	// An explicit budget overrides the inherited one.
	if got, err := ck.Resume(RunOptions{Fuel: DefaultFuel}); err != nil || got != ref {
		t.Fatalf("resume with fresh fuel: %+v, %v (ref %+v)", got, err, ref)
	}
}

// TestDecodeCheckpointRejectsCorruptBlobs: truncated, bit-flipped, and
// semantically tampered blobs (wrong engine, wrong collector dialect,
// tampered collector prefix, corrupted heap image, corrupted profiler
// image, negative counters) are all rejected with an error — never a
// panic, never a resumable machine.
func TestDecodeCheckpointRejectsCorruptBlobs(t *testing.T) {
	// build 60 checkpoints into a blob of about 850 KB, so every fixed
	// bit-flip offset below falls well inside it.
	src := workload.AllocHeavySrc(60)
	c, err := Compile(src, Forwarding)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Run(RunOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpointAt(t, c, RunOptions{Capacity: 32, Backend: regions.BackendArena}, ref.Steps/2)
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}

	reject := func(name string, data []byte) {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeCheckpoint(data); err == nil {
				t.Fatal("corrupt blob decoded into a resumable checkpoint")
			}
		})
	}
	reject("empty", nil)
	reject("truncated_short", blob[:10])
	reject("truncated_half", blob[:len(blob)/2])
	reject("truncated_trailer", blob[:len(blob)-1])
	flip := func(name string, pos int) {
		if pos < 0 || pos >= len(blob) {
			t.Fatalf("%s: offset %d outside a %d-byte blob", name, pos, len(blob))
		}
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x20
		reject(name, mut)
	}
	// Fixed offsets keep their subtest names across encoder changes; the
	// relative ones follow the blob's layout (a third in, the middle, and
	// the sealing trailer) whatever its length.
	for _, pos := range []int{0, 11, 218501, 327752, 655501} {
		flip(fmt.Sprintf("bitflip_%d", pos), pos)
	}
	flip("bitflip_third", len(blob)/3)
	flip("bitflip_half", len(blob)/2)
	flip("bitflip_trailer", len(blob)-3)

	// Semantic tampers: rebuild a validly-sealed blob around a corrupted
	// snapshot, so only the re-certification layers can catch it.
	_, good, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	tampers := []struct {
		name   string
		tamper func(*checkpoint.Snapshot)
	}{
		{"env_image_as_subst", func(s *checkpoint.Snapshot) { s.Engine = "subst" }},
		{"unknown_engine", func(s *checkpoint.Snapshot) { s.Engine = "warp" }},
		{"collector_dialect_mismatch", func(s *checkpoint.Snapshot) { s.Collector = "basic" }},
		{"unknown_collector", func(s *checkpoint.Snapshot) { s.Collector = "mark-sweep" }},
		{"unknown_backend", func(s *checkpoint.Snapshot) { s.Backend = "tape" }},
		{"negative_fuel", func(s *checkpoint.Snapshot) { s.FuelRemaining = -1 }},
		{"negative_collections", func(s *checkpoint.Snapshot) { s.Collections = -1 }},
		{"tampered_collector_prefix", func(s *checkpoint.Snapshot) {
			code := append([]gclang.NamedFun(nil), s.Program.Code...)
			code[0].Name = "evil"
			s.Program.Code = code
		}},
		{"heap_counter_drift", func(s *checkpoint.Snapshot) { s.Machine.Heap.Counter++ }},
		{"corrupt_profiler", func(s *checkpoint.Snapshot) { s.Profiler = &obs.ProfilerImage{Rng: 0} }},
	}
	for _, tc := range tampers {
		s2 := *good
		tc.tamper(&s2)
		mut, err := checkpoint.Encode(&s2)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		reject(tc.name, mut)
	}
}

// TestCheckpointOptionValidation pins the checkpoints and option
// combinations the driver refuses.
func TestCheckpointOptionValidation(t *testing.T) {
	src := workload.AllocHeavySrc(10)
	c, err := Compile(src, Basic)
	if err != nil {
		t.Fatal(err)
	}
	var ghostErr error
	_, err = c.Run(RunOptions{Engine: EngineChecked, ProgressEvery: 10, Progress: func(p Progress) bool {
		_, ghostErr = p.Checkpoint()
		return false
	}})
	if ghostErr == nil {
		t.Fatal("checkpointing in ghost mode accepted")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("ghost run after a refused checkpoint: %v, want ErrCanceled", err)
	}
	var stale Progress
	if _, err := c.Run(RunOptions{ProgressEvery: 10, Progress: func(p Progress) bool { stale = p; return true }}); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Checkpoint(); err == nil {
		t.Fatal("checkpoint after the Progress callback returned accepted")
	}
	ref, err := c.Run(RunOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpointAt(t, c, RunOptions{Capacity: 32}, ref.Steps/2)
	if _, err := ck.Resume(RunOptions{Engine: EngineChecked}); err == nil {
		t.Fatal("resume into ghost mode accepted")
	}
	if _, err := ck.Resume(RunOptions{
		WrapStore: func(s regions.Store[gclang.Cell]) regions.Store[gclang.Cell] { return s },
	}); err == nil {
		t.Fatal("resume with WrapStore accepted")
	}
}
