package translate

import (
	"strings"
	"testing"

	"psgc/internal/clos"
	"psgc/internal/collector"
	"psgc/internal/gclang"
	"psgc/internal/names"
	"psgc/internal/source"
	"psgc/internal/tags"
)

// link builds the collector for a dialect and returns the layout and
// options for Translate.
func link(d gclang.Dialect) (*collector.Layout, Options) {
	l := &collector.Layout{}
	opts := Options{Dialect: d}
	switch d {
	case gclang.Base:
		b := collector.BuildBasic(l)
		opts.GC = l.Addr(b.GC)
	case gclang.Forw:
		f := collector.BuildForw(l)
		opts.GC = l.Addr(f.GC)
	case gclang.Gen:
		g := collector.BuildGen(l)
		opts.Minor = l.Addr(g.Minor)
		opts.Major = l.Addr(g.Major)
	}
	return l, opts
}

// sample is a λCLOS program using pairs, packages, arithmetic, if0, and a
// function call; result 42.
func sample() clos.Program {
	addfn := clos.FunDef{
		Name: "addfn", Param: "p",
		ParamType: tags.Prod{L: tags.Int{}, R: tags.Int{}},
		Body: clos.LetProj{X: "a", I: 1, V: clos.Var{Name: "p"},
			Body: clos.LetProj{X: "b", I: 2, V: clos.Var{Name: "p"},
				Body: clos.LetArith{X: "s", Op: source.OpAdd, L: clos.Var{Name: "a"}, R: clos.Var{Name: "b"},
					Body: clos.Halt{V: clos.Var{Name: "s"}}}}},
	}
	pk := clos.Pack{Bound: "t", Witness: tags.Int{},
		Val:  clos.PairV{L: clos.Num{N: 2}, R: clos.Num{N: 40}},
		Body: tags.Prod{L: tags.Var{Name: "t"}, R: tags.Int{}}}
	main := clos.LetVal{X: "c", V: pk,
		Body: clos.Open{V: clos.Var{Name: "c"}, T: "u", X: "w",
			Body: clos.LetProj{X: "x2", I: 2, V: clos.Var{Name: "w"},
				Body: clos.If0{V: clos.Num{N: 0},
					Then: clos.LetVal{X: "pa", V: clos.PairV{L: clos.Num{N: 2}, R: clos.Var{Name: "x2"}},
						Body: clos.App{Fn: clos.FunV{Name: "addfn"}, Arg: clos.Var{Name: "pa"}}},
					Else: clos.Halt{V: clos.Num{N: 0}}}}}}
	return clos.Program{Funs: []clos.FunDef{addfn}, Main: main}
}

func TestTranslateAllDialects(t *testing.T) {
	p := sample()
	want, _, err := clos.Run(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []gclang.Dialect{gclang.Base, gclang.Forw, gclang.Gen} {
		l, opts := link(d)
		gp, err := Translate(p, l, opts, new(names.Supply))
		if err != nil {
			t.Fatalf("%v: translate: %v", d, err)
		}
		checker := &gclang.Checker{Dialect: d}
		elab, _, err := checker.CheckProgram(gp)
		if err != nil {
			t.Fatalf("%v: translated program does not typecheck: %v", d, err)
		}
		m := gclang.NewMachine(d, elab, 0)
		n, err := m.RunInt(1_000_000)
		if err != nil {
			t.Fatalf("%v: run: %v", d, err)
		}
		if n != want {
			t.Fatalf("%v: result %d, want %d", d, n, want)
		}
	}
}

func TestTranslateInsertsGCChecks(t *testing.T) {
	p := sample()
	l, opts := link(gclang.Base)
	gp, err := Translate(p, l, opts, new(names.Supply))
	if err != nil {
		t.Fatal(err)
	}
	// The translated addfn must begin with ifgc calling the collector
	// with itself and its argument (Fig. 3).
	fun := gp.Code[l.Offset("addfn")].Fun
	ifgc, ok := fun.Body.(gclang.IfGCT)
	if !ok {
		t.Fatalf("translated function does not start with ifgc: %s", fun.Body)
	}
	call, ok := ifgc.Full.(gclang.AppT)
	if !ok {
		t.Fatalf("ifgc full-branch is not a collector call: %s", ifgc.Full)
	}
	if a, ok := call.Fn.(gclang.AddrV); !ok || a != opts.GC {
		t.Errorf("full-branch calls %s, want the collector entry", call.Fn)
	}
	if len(call.Args) != 2 {
		t.Errorf("collector call has %d args, want (self, argument)", len(call.Args))
	}
	if self, ok := call.Args[0].(gclang.AddrV); !ok || self != l.Addr("addfn") {
		t.Errorf("collector restart continuation is %s, want the function itself", call.Args[0])
	}
}

func TestTranslateGenUsesTwoChecks(t *testing.T) {
	p := sample()
	l, opts := link(gclang.Gen)
	gp, err := Translate(p, l, opts, new(names.Supply))
	if err != nil {
		t.Fatal(err)
	}
	fun := gp.Code[l.Offset("addfn")].Fun
	outer, ok := fun.Body.(gclang.IfGCT)
	if !ok {
		t.Fatalf("gen function does not start with ifgc")
	}
	if _, ok := outer.Else.(gclang.IfGCT); !ok {
		t.Fatalf("gen function lacks the second (minor) ifgc check")
	}
	s := fun.String()
	if !strings.Contains(s, "ifgc ro") || !strings.Contains(s, "ifgc ry") {
		t.Errorf("gen checks do not test both generations:\n%s", s)
	}
}

func TestRepresentations(t *testing.T) {
	// A pair allocation translates to a plain cell (base), an inl-tagged
	// cell (forw), and a region package around a nursery cell (gen).
	p := clos.Program{Main: clos.LetVal{X: "x",
		V:    clos.PairV{L: clos.Num{N: 1}, R: clos.Num{N: 2}},
		Body: clos.Halt{V: clos.Num{N: 0}}}}
	find := func(d gclang.Dialect) string {
		l, opts := link(d)
		gp, err := Translate(p, l, opts, new(names.Supply))
		if err != nil {
			t.Fatal(err)
		}
		return gp.Main.String()
	}
	base := find(gclang.Base)
	if strings.Contains(base, "inl") || strings.Contains(base, "∈") {
		t.Errorf("base representation has tag bits or region packages:\n%s", base)
	}
	forw := find(gclang.Forw)
	if !strings.Contains(forw, "inl") {
		t.Errorf("forw representation lacks the inl tag bit:\n%s", forw)
	}
	gen := find(gclang.Gen)
	if !strings.Contains(gen, "∈") {
		t.Errorf("gen representation lacks the region package:\n%s", gen)
	}
}

func TestTranslateRejectsIllTypedInput(t *testing.T) {
	bad := clos.Program{Main: clos.Halt{V: clos.Var{Name: "nope"}}}
	l, opts := link(gclang.Base)
	if _, err := Translate(bad, l, opts, new(names.Supply)); err == nil {
		t.Errorf("ill-typed λCLOS accepted")
	}
}
