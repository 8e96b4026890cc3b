// Package workload builds the λGC heap shapes and driver programs used by
// the benchmark harness and the testing.B benchmarks: lists, balanced
// trees, and braided DAGs of configurable size, plus single-collection
// driver programs ("build the heap, collect once, halt") for each
// collector. Everything is assembled as λGC terms and typechecked, so the
// benchmarks measure the actual certified collectors.
package workload

import (
	"fmt"

	"psgc/internal/collector"
	"psgc/internal/gclang"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// Shape selects a heap shape.
type Shape int

// The heap shapes.
const (
	// List is a right-nested chain: (1, (1, (… , 1))).
	List Shape = iota
	// Tree is a complete binary tree of pairs.
	Tree
	// DAG is the braided DAG of §7: node k's both components are node k-1.
	DAG
)

func (s Shape) String() string {
	switch s {
	case List:
		return "list"
	case Tree:
		return "tree"
	case DAG:
		return "dag"
	default:
		return "?"
	}
}

// builder accumulates heap-allocating bindings for the main term.
type builder struct {
	prefix  []func(gclang.Term) gclang.Term
	idx     int
	dialect gclang.Dialect
	region  names.Name
	old     names.Name // gen only
}

func (b *builder) alloc(v gclang.Value, genBody gclang.Type) gclang.Value {
	x := names.Name(fmt.Sprintf("n%d", b.idx))
	b.idx++
	if b.dialect == gclang.Forw {
		v = gclang.InlV{Val: v}
	}
	if b.dialect == gclang.Gen {
		pk := names.Name(fmt.Sprintf("np%d", b.idx))
		b.idx++
		b.prefix = append(b.prefix, func(e gclang.Term) gclang.Term {
			return gclang.LetT{X: x, Op: gclang.PutOp{R: gclang.RVar{Name: b.region}, V: v},
				Body: gclang.LetT{X: pk, Op: gclang.ValOp{V: gclang.PackRegion{
					Bound: "rp",
					Delta: []gclang.Region{gclang.RVar{Name: b.region}, gclang.RVar{Name: b.old}},
					R:     gclang.RVar{Name: b.region},
					Val:   gclang.Var{Name: x},
					Body:  genBody,
				}}, Body: e}}
		})
		return gclang.Var{Name: pk}
	}
	b.prefix = append(b.prefix, func(e gclang.Term) gclang.Term {
		return gclang.LetT{X: x, Op: gclang.PutOp{R: gclang.RVar{Name: b.region}, V: v}, Body: e}
	})
	return gclang.Var{Name: x}
}

// genPairBody is the region-existential body for a pair of the given
// component tags in the gen dialect.
func (b *builder) genPairBody(t1, t2 tags.Tag) gclang.Type {
	if b.dialect != gclang.Gen {
		return nil
	}
	rp := gclang.Region(gclang.RVar{Name: "rp"})
	ro := gclang.Region(gclang.RVar{Name: b.old})
	return gclang.ProdT{
		L: gclang.MT{Rs: []gclang.Region{rp, ro}, Tag: t1},
		R: gclang.MT{Rs: []gclang.Region{rp, ro}, Tag: t2},
	}
}

// build allocates the shape and returns the root value, its tag, and the
// number of boxed nodes.
func (b *builder) build(shape Shape, size int) (gclang.Value, tags.Tag, int) {
	switch shape {
	case List:
		node := b.alloc(gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}},
			b.genPairBody(tags.Int{}, tags.Int{}))
		tag := tags.Tag(tags.Prod{L: tags.Int{}, R: tags.Int{}})
		for i := 1; i < size; i++ {
			node = b.alloc(gclang.PairV{L: gclang.Num{N: i}, R: node},
				b.genPairBody(tags.Int{}, tag))
			tag = tags.Prod{L: tags.Int{}, R: tag}
		}
		return node, tag, size
	case Tree:
		var mk func(depth int) (gclang.Value, tags.Tag, int)
		mk = func(depth int) (gclang.Value, tags.Tag, int) {
			if depth == 0 {
				v := b.alloc(gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}},
					b.genPairBody(tags.Int{}, tags.Int{}))
				return v, tags.Prod{L: tags.Int{}, R: tags.Int{}}, 1
			}
			l, lt, nl := mk(depth - 1)
			r, rt, nr := mk(depth - 1)
			v := b.alloc(gclang.PairV{L: l, R: r}, b.genPairBody(lt, rt))
			return v, tags.Prod{L: lt, R: rt}, nl + nr + 1
		}
		return mk(size)
	case DAG:
		node := b.alloc(gclang.PairV{L: gclang.Num{N: 1}, R: gclang.Num{N: 2}},
			b.genPairBody(tags.Int{}, tags.Int{}))
		tag := tags.Tag(tags.Prod{L: tags.Int{}, R: tags.Int{}})
		for i := 0; i < size; i++ {
			node = b.alloc(gclang.PairV{L: node, R: node}, b.genPairBody(tag, tag))
			tag = tags.Prod{L: tag, R: tag}
		}
		return node, tag, size + 1
	default:
		panic("workload: unknown shape")
	}
}

// CollectOnce is a ready-to-run single-collection driver.
type CollectOnce struct {
	Dialect gclang.Dialect
	Prog    gclang.Program
	// Nodes is the number of boxed heap nodes the workload allocated.
	Nodes int
	// ContRegionIndex is the position (in creation order, after cd and
	// the mutator regions) of the collector's continuation region; -1 if
	// not applicable. Used by the continuation-bound experiment.
	MutatorRegions int
}

// AllocHeavySrc is the E1 allocation-heavy surface program shared by the
// benchmark harness, the service tests, and the chaos suite: each
// recursive call allocates a nested pair, so the live set grows with n
// and a small fixed-capacity heap forces a collection at every entry.
func AllocHeavySrc(n int) string {
	return fmt.Sprintf(`
fun build (n : int) : int =
  if0 n then 0
  else let p = (n, (n, n)) in fst p + build (n - 1)
do build %d
`, n)
}

// SharedDAGSrc is a textual sharing workload for driving the §7 claim
// over the HTTP surface: the live set is a four-pointer fan-in to one
// shared pair tower, rebuilt every iteration. A collector that loses
// sharing (basic) copies the tower once per path, so its survivor set —
// and hence allocation and max-live — is strictly larger than the
// forwarding collector's, which copies it once. n is the churn count;
// the result is always 4.
func SharedDAGSrc(n int) string {
	const tower = "int * (int * (int * (int * int)))"
	return fmt.Sprintf(`
fun churn (state : (%[1]s) * ((%[1]s) * ((%[1]s) * ((%[1]s) * int)))) : int =
  let a = fst state in
  let r1 = snd state in
  let b = fst r1 in
  let r2 = snd r1 in
  let c = fst r2 in
  let r3 = snd r2 in
  let d = fst r3 in
  let k = snd r3 in
  if0 k then fst a + fst b + fst c + fst d
  else churn (a, (a, (a, (a, k - 1))))
do let p = (1, (2, (3, (4, 5)))) in churn (p, (p, (p, (p, %[2]d))))
`, tower, n)
}

// BuildCollectOnce assembles a driver program: allocate the shape in the
// mutator region(s), invoke the collector once on the root, and halt in
// the finish continuation.
func BuildCollectOnce(d gclang.Dialect, shape Shape, size int) (CollectOnce, error) {
	l := &collector.Layout{}
	var entry gclang.AddrV
	mutRegions := 1
	switch d {
	case gclang.Base:
		b := collector.BuildBasic(l)
		entry = l.Addr(b.GC)
	case gclang.Forw:
		f := collector.BuildForw(l)
		entry = l.Addr(f.GC)
	case gclang.Gen:
		g := collector.BuildGen(l)
		entry = l.Addr(g.Minor)
		mutRegions = 2
	}

	b := &builder{dialect: d, region: "r0", old: "rold"}
	root, tag, nodes := b.build(shape, size)

	// finish: receive the copied root, halt 0.
	var finishTy gclang.Type
	var rparams []names.Name
	var callRegions []gclang.Region
	if d == gclang.Gen {
		rparams = []names.Name{"ry", "ro"}
		finishTy = gclang.MT{Rs: []gclang.Region{gclang.RVar{Name: "ry"}, gclang.RVar{Name: "ro"}}, Tag: tag}
		callRegions = []gclang.Region{gclang.RVar{Name: "r0"}, gclang.RVar{Name: "rold"}}
	} else {
		rparams = []names.Name{"r"}
		finishTy = gclang.MT{Rs: []gclang.Region{gclang.RVar{Name: "r"}}, Tag: tag}
		callRegions = []gclang.Region{gclang.RVar{Name: "r0"}}
	}
	l.Add("finish", gclang.LamV{
		RParams: rparams,
		Params:  []gclang.Param{{Name: "x", Ty: finishTy}},
		Body:    gclang.HaltT{V: gclang.Num{N: 0}},
	})

	body := gclang.Term(gclang.AppT{
		Fn: entry, Tags: []tags.Tag{tag}, Rs: callRegions,
		Args: []gclang.Value{l.Addr("finish"), root},
	})
	for i := len(b.prefix) - 1; i >= 0; i-- {
		body = b.prefix[i](body)
	}
	var main gclang.Term
	if d == gclang.Gen {
		main = gclang.LetRegionT{R: "r0", Body: gclang.LetRegionT{R: "rold", Body: body}}
	} else {
		main = gclang.LetRegionT{R: "r0", Body: body}
	}

	prog := gclang.Program{Code: l.Funs, Main: main}
	checker := &gclang.Checker{Dialect: d}
	elab, _, err := checker.CheckProgram(prog)
	if err != nil {
		return CollectOnce{}, fmt.Errorf("workload: driver does not typecheck: %w", err)
	}
	return CollectOnce{Dialect: d, Prog: elab, Nodes: nodes, MutatorRegions: mutRegions}, nil
}

// RunStats reports a driver run.
type RunStats struct {
	Steps      int
	Copied     int // live cells after the collection (to-space population)
	MaxCont    int // peak size of the collector's continuation region
	MemStats   regions.Stats
	LiveAfter  int
	AllRegions int
}

// Run executes the driver on the substitution machine, sampling the
// continuation region's size at every step (the §6.1 temporary-region
// bound).
func (c CollectOnce) Run(fuel int) (RunStats, error) {
	return c.run(fuel, false)
}

// RunEnv is Run on the environment machine.
func (c CollectOnce) RunEnv(fuel int) (RunStats, error) {
	return c.run(fuel, true)
}

func (c CollectOnce) run(fuel int, env bool) (RunStats, error) {
	// Regions in creation order: cd, mutator region(s), then the
	// collector's (to-space and) continuation region — the last one.
	maxCont := 0
	sample := func(mem regions.Store[gclang.Cell]) {
		rs := mem.Regions()
		if len(rs) >= 1+c.MutatorRegions+1 {
			cont := rs[len(rs)-1]
			if s := mem.Size(cont); s > maxCont {
				maxCont = s
			}
		}
	}
	// Region sizes only grow on put steps, so sampling on StepPut events
	// observes the same maximum the old per-step sampler did.
	var m gclang.Stepper
	if env {
		m = gclang.NewEnvMachine(c.Dialect, c.Prog, 0)
	} else {
		m = gclang.NewMachine(c.Dialect, c.Prog, 0)
	}
	s := m.Shared()
	s.Event = func(ev gclang.StepEvent) {
		if ev.Kind == gclang.StepPut {
			sample(s.Mem)
		}
	}
	if _, err := gclang.Run(m, fuel); err != nil {
		return RunStats{}, err
	}
	mem := s.Mem
	live := mem.LiveCells()
	return RunStats{
		Steps:      s.Steps,
		Copied:     live,
		MaxCont:    maxCont,
		MemStats:   mem.Stats(),
		LiveAfter:  live,
		AllRegions: len(mem.Regions()),
	}, nil
}
