package gclang_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"psgc"
	"psgc/internal/collector"
	"psgc/internal/gclang"
	"psgc/internal/regions"
	"psgc/internal/workload"
)

// runEnvToHalt runs a fresh env machine on the given backend to completion
// and returns it.
func runEnvToHalt(t *testing.T, b regions.Backend, d gclang.Dialect, p gclang.Program) *gclang.EnvMachine {
	t.Helper()
	m := gclang.NewEnvMachineOn(b, d, p, 0)
	m.Mem.SetAutoGrow(true)
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// gobRoundTrip pushes the image through its serialized form, as a real
// checkpoint does.
func gobRoundTrip(t *testing.T, img gclang.MachineImage) gclang.MachineImage {
	t.Helper()
	gclang.RegisterGob()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatalf("encode image: %v", err)
	}
	var out gclang.MachineImage
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode image: %v", err)
	}
	return out
}

// imageAt steps a fresh env machine to the given step count and images it.
func imageAt(t *testing.T, b regions.Backend, d gclang.Dialect, p gclang.Program, steps int) gclang.MachineImage {
	t.Helper()
	m := gclang.NewEnvMachineOn(b, d, p, 0)
	m.Mem.SetAutoGrow(true)
	for m.Steps < steps && !m.Halted {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Halted {
		t.Fatalf("halted at step %d before checkpoint point %d", m.Steps, steps)
	}
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestEnvImageCrossBackendResume(t *testing.T) {
	for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
		c, err := workload.BuildCollectOnce(d, workload.List, 16)
		if err != nil {
			t.Fatal(err)
		}
		ref := runEnvToHalt(t, regions.BackendMap, d, c.Prog)
		for _, pair := range [][2]regions.Backend{
			{regions.BackendMap, regions.BackendArena},
			{regions.BackendArena, regions.BackendMap},
			{regions.BackendMap, regions.BackendMap},
			{regions.BackendArena, regions.BackendArena},
		} {
			from, to := pair[0], pair[1]
			t.Run(fmt.Sprintf("%s/%s_to_%s", d, from, to), func(t *testing.T) {
				img := gobRoundTrip(t, imageAt(t, from, d, c.Prog, ref.Steps/2))
				res, err := gclang.RestoreEnvMachine(to, d, c.Prog, img)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := res.Run(2_000_000); err != nil {
					t.Fatal(err)
				}
				if res.Result.String() != ref.Result.String() {
					t.Fatalf("result %s, uninterrupted %s", res.Result, ref.Result)
				}
				if res.Steps != ref.Steps {
					t.Fatalf("steps %d, uninterrupted %d", res.Steps, ref.Steps)
				}
				if res.Mem.Stats() != ref.Mem.Stats() {
					t.Fatalf("stats %+v, uninterrupted %+v", res.Mem.Stats(), ref.Mem.Stats())
				}
			})
		}
	}
}

// TestEnvImageResumesAtLoweringBoundaries images a pipeline-compiled run
// at the states the slot-addressed frames treat specially — right after a
// translucent-call rewrite (the head parked in its reserved slot, before
// the call), at the first step inside a collection, and right after a call
// into a block whose frame is wider than its caller's — and resumes each
// image, gob round-tripped, on the other backend. The resumed run must end
// exactly as the uninterrupted one: same result, steps, and counters.
func TestEnvImageResumesAtLoweringBoundaries(t *testing.T) {
	points := []struct {
		name string
		// at reports whether the step just taken (pending is what
		// PendingCall said before it, width the frame size before it)
		// reached the point.
		at func(m *gclang.EnvMachine, entries map[regions.Addr]bool, pending regions.Addr, called bool, width int) bool
	}{
		{"translucent-rewrite", func(m *gclang.EnvMachine, _ map[regions.Addr]bool, _ regions.Addr, _ bool, _ int) bool {
			return gclang.InTranslucentCall(m)
		}},
		{"collection-entry", func(_ *gclang.EnvMachine, entries map[regions.Addr]bool, pending regions.Addr, called bool, _ int) bool {
			return called && entries[pending]
		}},
		{"wider-callee", func(m *gclang.EnvMachine, _ map[regions.Addr]bool, _ regions.Addr, called bool, width int) bool {
			return called && gclang.FrameSlots(m) > width
		}},
	}
	for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
		c, err := psgc.Compile(workload.AllocHeavySrc(25), col)
		if err != nil {
			t.Fatal(err)
		}
		v, err := collector.Load(col.Dialect())
		if err != nil {
			t.Fatal(err)
		}
		entries := map[regions.Addr]bool{}
		for _, a := range v.Entries {
			entries[a] = true
		}
		for _, pt := range points {
			for _, pair := range [][2]regions.Backend{
				{regions.BackendMap, regions.BackendArena},
				{regions.BackendArena, regions.BackendMap},
			} {
				from, to := pair[0], pair[1]
				t.Run(fmt.Sprintf("%s/%s/%s_to_%s", col, pt.name, from, to), func(t *testing.T) {
					opts := psgc.RunOptions{Capacity: 16, Backend: from}
					ref := c.NewEnvMachine(opts)
					if _, err := ref.Run(2_000_000); err != nil {
						t.Fatal(err)
					}
					m := c.NewEnvMachine(opts)
					for {
						if m.Halted {
							t.Fatalf("halted at step %d without reaching the point", m.Steps)
						}
						pending, called := m.PendingCall()
						width := gclang.FrameSlots(m)
						if err := m.Step(); err != nil {
							t.Fatal(err)
						}
						if !m.Halted && pt.at(m, entries, pending, called, width) {
							break
						}
					}
					img, err := m.Image()
					if err != nil {
						t.Fatal(err)
					}
					if _, parked := img.EnvCells["#tapp-head"]; parked != (pt.name == "translucent-rewrite") {
						t.Fatalf("image binds the translucent head: %v", parked)
					}
					res, err := gclang.RestoreEnvMachine(to, col.Dialect(), c.Prog, gobRoundTrip(t, img))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := res.Run(2_000_000); err != nil {
						t.Fatal(err)
					}
					if res.Result.String() != ref.Result.String() || res.Steps != ref.Steps || res.Mem.Stats() != ref.Mem.Stats() {
						t.Fatalf("resumed from step %d: %s/%d/%+v, uninterrupted %s/%d/%+v", img.Steps,
							res.Result, res.Steps, res.Mem.Stats(), ref.Result, ref.Steps, ref.Mem.Stats())
					}
				})
			}
		}
	}
}

func TestRestoreOracleAgreesWithResumedEnv(t *testing.T) {
	d := gclang.Forw
	c, err := workload.BuildCollectOnce(d, workload.Tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := runEnvToHalt(t, regions.BackendMap, d, c.Prog)
	img := gobRoundTrip(t, imageAt(t, regions.BackendArena, d, c.Prog, ref.Steps/2))

	env, err := gclang.RestoreEnvMachine(regions.BackendArena, d, c.Prog, img)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gclang.RestoreOracle(c.Prog, img)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Steps != env.Steps {
		t.Fatalf("restored step counts differ: oracle %d env %d", oracle.Steps, env.Steps)
	}
	if oracle.Mem.Stats() != env.Mem.Stats() {
		t.Fatalf("restored stats differ: oracle %+v env %+v", oracle.Mem.Stats(), env.Mem.Stats())
	}
	// Co-step both to halt: identical counters every step, identical end.
	for !oracle.Halted {
		if err := oracle.Step(); err != nil {
			t.Fatalf("oracle step %d: %v", oracle.Steps, err)
		}
		if err := env.Step(); err != nil {
			t.Fatalf("env step %d: %v", env.Steps, err)
		}
		if oracle.Steps != env.Steps || oracle.Halted != env.Halted {
			t.Fatalf("diverged: oracle step %d halted %v, env step %d halted %v",
				oracle.Steps, oracle.Halted, env.Steps, env.Halted)
		}
		if oracle.Mem.Stats() != env.Mem.Stats() {
			t.Fatalf("step %d: stats: oracle %+v env %+v", oracle.Steps, oracle.Mem.Stats(), env.Mem.Stats())
		}
	}
	if oracle.Result.String() != ref.Result.String() || !env.Halted {
		t.Fatalf("oracle result %s, uninterrupted %s", oracle.Result, ref.Result)
	}
}

func TestSubstImageRoundTrip(t *testing.T) {
	d := gclang.Base
	c, err := workload.BuildCollectOnce(d, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := gclang.NewMachine(d, c.Prog, 0)
	ref.Mem.SetAutoGrow(true)
	if _, err := ref.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	m := gclang.NewMachineOn(regions.BackendArena, d, c.Prog, 0)
	m.Mem.SetAutoGrow(true)
	for m.Steps < ref.Steps/2 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	img, err := m.Image()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gclang.RestoreMachine(regions.BackendMap, d, c.Prog, gobRoundTrip(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if res.Result.String() != ref.Result.String() || res.Steps != ref.Steps || res.Mem.Stats() != ref.Mem.Stats() {
		t.Fatalf("resumed run diverged: %s/%d/%+v vs %s/%d/%+v",
			res.Result, res.Steps, res.Mem.Stats(), ref.Result, ref.Steps, ref.Mem.Stats())
	}
}

func TestRestoreRejectsTamperedImages(t *testing.T) {
	d := gclang.Base
	c, err := workload.BuildCollectOnce(d, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := runEnvToHalt(t, regions.BackendMap, d, c.Prog)
	fresh := func() gclang.MachineImage {
		return imageAt(t, regions.BackendMap, d, c.Prog, ref.Steps/2)
	}
	cases := []struct {
		name   string
		tamper func(*gclang.MachineImage)
	}{
		{"no control term", func(img *gclang.MachineImage) { img.Ctrl = nil }},
		{"negative steps", func(img *gclang.MachineImage) { img.Steps = -1 }},
		{"heap counter lie", func(img *gclang.MachineImage) { img.Heap.Stats.Puts++ }},
		{"lam pool mismatch", func(img *gclang.MachineImage) {
			img.Pool.Lams = append(img.Pool.Lams, gclang.LamV{})
		}},
		{"cd cell swapped", func(img *gclang.MachineImage) {
			img.Heap.Regions[0].Cells[0] = gclang.NumCell(7)
		}},
		{"env handle out of range", func(img *gclang.MachineImage) {
			for n := range img.EnvCells {
				img.EnvCells[n] = gclang.Cell{Tag: gclang.CellVar, A: 1 << 40}
				break
			}
		}},
		{"pool cell cycle", func(img *gclang.MachineImage) {
			// A pool cell whose payload references itself violates the
			// append-order invariant.
			img.Pool.Cells = append(img.Pool.Cells, gclang.Cell{
				Tag: gclang.CellPair,
				A:   uint64(len(img.Pool.Cells))<<2 | 2,
				B:   0 << 2,
			})
		}},
		{"unknown tag in heap", func(img *gclang.MachineImage) {
			last := len(img.Heap.Regions) - 1
			cells := img.Heap.Regions[last].Cells
			if len(cells) == 0 {
				t.Skip("no data cells at checkpoint")
			}
			cells[0] = gclang.Cell{Tag: 99}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := fresh()
			tc.tamper(&img)
			if _, err := gclang.RestoreEnvMachine(regions.BackendMap, d, c.Prog, img); err == nil {
				t.Fatal("tampered image restored")
			}
		})
	}

	t.Run("dialect mismatch", func(t *testing.T) {
		img := fresh()
		if _, err := gclang.RestoreEnvMachine(regions.BackendMap, gclang.Gen, c.Prog, img); err == nil {
			t.Fatal("image restored under wrong dialect")
		}
	})
	t.Run("env image as subst machine", func(t *testing.T) {
		img := fresh()
		if len(img.EnvCells) == 0 {
			t.Skip("empty environment at checkpoint")
		}
		if _, err := gclang.RestoreMachine(regions.BackendMap, d, c.Prog, img); err == nil {
			t.Fatal("environment image restored as substitution machine")
		}
	})
}

func TestImageFingerprintTracksContent(t *testing.T) {
	d := gclang.Base
	c, err := workload.BuildCollectOnce(d, workload.List, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := runEnvToHalt(t, regions.BackendMap, d, c.Prog)
	a := imageAt(t, regions.BackendMap, d, c.Prog, ref.Steps/2)
	b := imageAt(t, regions.BackendArena, d, c.Prog, ref.Steps/2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same state on different backends fingerprints differently")
	}
	b.Heap.Regions[len(b.Heap.Regions)-1].Pattern ^= 1 << 40
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to heap tampering")
	}
}
