package gclang

import (
	"testing"

	"psgc/internal/kinds"
	"psgc/internal/tags"
)

// TestResolveClosedSyntaxAllocatesNothing pins the resolver's contract that
// unchanged syntax comes back as the interface value passed in: resolving a
// closed tag and a closed type must not allocate even when every namespace
// of the environment is bound (so the walk is not short-circuited).
func TestResolveClosedSyntaxAllocatesNothing(t *testing.T) {
	r := &resolver{
		gen:  1,
		tags: []slot[tags.Tag]{{v: tags.Int{}, gen: 1}},
		regs: []slot[Region]{{v: RName{Name: 7}, gen: 1}},
		typs: []slot[Type]{{v: IntT{}, gen: 1}},
		sc: &scope{
			tags: []fvSlot{{name: "t", slot: 0}},
			regs: []fvSlot{{name: "r", slot: 0}},
			typs: []fvSlot{{name: "a", slot: 0}},
		},
	}
	var closedTag tags.Tag = tags.Prod{
		L: tags.Code{Args: []tags.Tag{tags.Int{}}},
		R: tags.Exist{Bound: "t", Body: tags.App{Fn: tags.Lam{Param: "u", Body: tags.Var{Name: "u"}}, Arg: tags.Var{Name: "t"}}},
	}
	var closedType Type = ProdT{
		L: IntT{},
		R: AtT{R: RName{Name: 3}, Body: ExistT{Bound: "t", Kind: kinds.Omega{},
			Body: MT{Rs: []Region{RName{Name: 3}}, Tag: tags.Var{Name: "t"}}}},
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, changed := r.tag1(closedTag); changed {
			t.Fatal("closed tag changed")
		}
		if _, changed := r.typ1(closedType); changed {
			t.Fatal("closed type changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("resolving closed syntax made %.0f allocs, want 0", allocs)
	}
}
