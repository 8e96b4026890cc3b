package gclang_test

import (
	"fmt"
	"testing"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/workload"
)

// TestEnvMachineStepLoopZeroAllocs gates the machine layer: a warm
// environment machine over the packed arena must allocate nothing per
// step, both on a hand-built mutator loop (call, get, arith, set, branch)
// and on pipeline-compiled programs at capacity 0 (no collection), where
// every step is mutator dispatch through the lowered code's frames.
func TestEnvMachineStepLoopZeroAllocs(t *testing.T) {
	t.Run("loop", func(t *testing.T) {
		loop := gclang.LamV{RParams: []names.Name{"r"},
			Params: []gclang.Param{{Name: "x", Ty: gclang.IntT{}}, {Name: "a", Ty: gclang.IntT{}}},
			Body: gclang.LetT{X: "v", Op: gclang.GetOp{V: gclang.Var{Name: "a"}},
				Body: gclang.LetT{X: "y", Op: gclang.ArithOp{Kind: gclang.Sub, L: gclang.Var{Name: "x"}, R: gclang.Num{N: 1}},
					Body: gclang.SetT{Dst: gclang.Var{Name: "a"}, Src: gclang.Var{Name: "y"},
						Body: gclang.If0T{V: gclang.Var{Name: "y"},
							Then: gclang.HaltT{V: gclang.Var{Name: "y"}},
							Else: gclang.AppT{Fn: gclang.CodeAddr(0), Rs: []gclang.Region{gclang.RVar{Name: "r"}},
								Args: []gclang.Value{gclang.Var{Name: "y"}, gclang.Var{Name: "a"}}}}}}}}
		prog := gclang.Program{
			Code: []gclang.NamedFun{{Name: "loop", Fun: loop}},
			Main: gclang.LetRegionT{R: "r", Body: gclang.LetT{X: "a", Op: gclang.PutOp{R: gclang.RVar{Name: "r"}, V: gclang.Num{N: 0}},
				Body: gclang.AppT{Fn: gclang.CodeAddr(0), Rs: []gclang.Region{gclang.RVar{Name: "r"}},
					Args: []gclang.Value{gclang.Num{N: 1 << 30}, gclang.Var{Name: "a"}}}}}}
		requireZeroAllocSteps(t, gclang.NewEnvMachineOn(regions.BackendArena, gclang.Base, prog, 0), 200)
	})

	programs := []struct {
		name string
		src  string
	}{
		{"arith", "fun f (n : int) : int = if0 n then 0 else n + f (n - 1)\ndo f 5000"},
		{"twice", `fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)
fun loop (n : int) : int = if0 n then 0 else (twice (fn (y : int) => y + n)) 1 + loop (n - 1)
do loop 500`},
		{"alloc-heavy", workload.AllocHeavySrc(2000)},
	}
	for _, p := range programs {
		for _, col := range []psgc.Collector{psgc.Basic, psgc.Forwarding, psgc.Generational} {
			t.Run(fmt.Sprintf("%s/%s", p.name, col), func(t *testing.T) {
				c, err := psgc.Compile(p.src, col)
				if err != nil {
					t.Fatal(err)
				}
				m := c.NewEnvMachine(psgc.RunOptions{Backend: regions.BackendArena})
				requireZeroAllocSteps(t, m, 2000)
			})
		}
	}
}

// requireZeroAllocSteps warms m for warm steps (sizing frames, scratch
// buffers, pools and slabs), then requires 0 allocations per 100 steps.
func requireZeroAllocSteps(t *testing.T, m *gclang.EnvMachine, warm int) {
	t.Helper()
	for i := 0; i < warm; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if m.Halted {
		t.Fatal("program halted inside the measurement window")
	}
	if allocs != 0 {
		t.Fatalf("env machine allocated %.1f allocs per 100 steps, want 0", allocs)
	}
}
