// Package tags implements the tag language of λGC (paper §4.2).
//
// Tags are the runtime type descriptors that the garbage collector analyzes
// with typecase. They mirror the type language of the source-level λCLOS —
// crucially *without* region annotations (§2.2.2) — extended with tag-level
// functions and applications needed to analyze existentials:
//
//	τ ::= t | Int | τ1 × τ2 | ~τ → 0 | ∃t.τ | λt.τ | τ1 τ2
//
// The tag level is a simply-typed λ-calculus classified by the kind
// calculus of package kinds, so reduction of well-kinded tags is strongly
// normalizing and confluent (paper Props. 6.1, 6.2); package tags exposes
// normalization, capture-avoiding substitution, α-equivalence, and kinding.
package tags

import (
	"fmt"
	"strings"

	"psgc/internal/names"
)

// Tag is a runtime type descriptor.
type Tag interface {
	isTag()
	String() string
}

// Var is a tag variable t.
type Var struct {
	Name names.Name
}

// Int is the tag of machine integers.
type Int struct{}

// Prod is the pair tag τ1 × τ2.
type Prod struct {
	L, R Tag
}

// Code is the tag ~τ → 0 of a CPS function that takes the given argument
// tags and never returns.
type Code struct {
	Args []Tag
}

// Exist is the existential tag ∃t.τ used for closures.
type Exist struct {
	Bound names.Name
	Body  Tag
}

// Lam is a tag-level function λt.τ (kind Ω→Ω).
type Lam struct {
	Param names.Name
	Body  Tag
}

// App is a tag-level application τ1 τ2.
type App struct {
	Fn, Arg Tag
}

func (Var) isTag()   {}
func (Int) isTag()   {}
func (Prod) isTag()  {}
func (Code) isTag()  {}
func (Exist) isTag() {}
func (Lam) isTag()   {}
func (App) isTag()   {}

func (t Var) String() string { return t.Name.String() }
func (Int) String() string   { return "Int" }

func (t Prod) String() string {
	return fmt.Sprintf("(%s × %s)", t.L, t.R)
}

func (t Code) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")→0"
}

func (t Exist) String() string {
	return fmt.Sprintf("∃%s.%s", t.Bound, t.Body)
}

func (t Lam) String() string {
	return fmt.Sprintf("λ%s.%s", t.Param, t.Body)
}

func (t App) String() string {
	return fmt.Sprintf("(%s %s)", t.Fn, t.Arg)
}

// FreeVars returns the set of free tag variables of t.
func FreeVars(t Tag) names.Set {
	s := make(names.Set)
	freeVars(t, make(names.Set), s)
	return s
}

func freeVars(t Tag, bound, out names.Set) {
	switch t := t.(type) {
	case Var:
		if !bound.Has(t.Name) {
			out.Add(t.Name)
		}
	case Int:
	case Prod:
		freeVars(t.L, bound, out)
		freeVars(t.R, bound, out)
	case Code:
		for _, a := range t.Args {
			freeVars(a, bound, out)
		}
	case Exist:
		under(t.Bound, bound, func() { freeVars(t.Body, bound, out) })
	case Lam:
		under(t.Param, bound, func() { freeVars(t.Body, bound, out) })
	case App:
		freeVars(t.Fn, bound, out)
		freeVars(t.Arg, bound, out)
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", t))
	}
}

// under runs f with n temporarily added to bound.
func under(n names.Name, bound names.Set, f func()) {
	had := bound.Has(n)
	bound.Add(n)
	f()
	if !had {
		bound.Remove(n)
	}
}

// Subst returns t with repl substituted for free occurrences of x,
// renaming binders as needed to avoid capture. Renaming is deterministic:
// a captured binder b becomes b', b”, … until fresh.
func Subst(t Tag, x names.Name, repl Tag) Tag {
	return SubstAll(t, map[names.Name]Tag{x: repl})
}

// SubstAll substitutes several tag variables simultaneously.
func SubstAll(t Tag, sub map[names.Name]Tag) Tag {
	if len(sub) == 0 {
		return t
	}
	// The union of the replacements' free variables is computed once: it
	// is the only set a binder must avoid, and recomputing it per binder
	// would make large-tag substitution quadratic.
	avoid := make(names.Set)
	for _, v := range sub {
		for n := range FreeVars(v) {
			avoid.Add(n)
		}
	}
	return subst(t, sub, avoid)
}

// SubstAllClosed substitutes closed tags simultaneously: no capture is
// possible, so binders only shadow and are never renamed. The abstract
// machine uses this for its (always closed) runtime tags; passing an open
// replacement would be a bug in the caller.
func SubstAllClosed(t Tag, sub map[names.Name]Tag) Tag {
	if len(sub) == 0 {
		return t
	}
	return subst(t, sub, nil)
}

func subst(t Tag, sub map[names.Name]Tag, avoid names.Set) Tag {
	switch t := t.(type) {
	case Var:
		if r, ok := sub[t.Name]; ok {
			return r
		}
		return t
	case Int:
		return t
	case Prod:
		return Prod{L: subst(t.L, sub, avoid), R: subst(t.R, sub, avoid)}
	case Code:
		args := make([]Tag, len(t.Args))
		for i, a := range t.Args {
			args[i] = subst(a, sub, avoid)
		}
		return Code{Args: args}
	case Exist:
		b, body := substUnder(t.Bound, t.Body, sub, avoid)
		return Exist{Bound: b, Body: body}
	case Lam:
		b, body := substUnder(t.Param, t.Body, sub, avoid)
		return Lam{Param: b, Body: body}
	case App:
		return App{Fn: subst(t.Fn, sub, avoid), Arg: subst(t.Arg, sub, avoid)}
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", t))
	}
}

// substUnder performs substitution under a binder, dropping the binder's
// own name from the substitution and α-renaming it if any replacement tag
// mentions it free. The avoid set over-approximates conservatively (it is
// not narrowed when entries drop out), so a rename may occur slightly more
// often than strictly necessary — always sound, never capturing.
func substUnder(bound names.Name, body Tag, sub map[names.Name]Tag, avoid names.Set) (names.Name, Tag) {
	inner := sub
	if _, shadows := sub[bound]; shadows {
		inner = make(map[names.Name]Tag, len(sub))
		for k, v := range sub {
			if k != bound {
				inner[k] = v
			}
		}
	}
	if len(inner) == 0 {
		return bound, body
	}
	if avoid != nil && avoid.Has(bound) {
		bodyFree := FreeVars(body)
		fresh := bound
		for avoid.Has(fresh) || bodyFree.Has(fresh) {
			fresh += "'"
		}
		body = SubstAll(body, map[names.Name]Tag{bound: Var{Name: fresh}})
		bound = fresh
	}
	return bound, subst(body, inner, avoid)
}

// Equal reports α-equivalence of two tags (no reduction is performed;
// see EqualNF for equality up to β-reduction).
func Equal(a, b Tag) bool {
	return alphaEqual(a, b, nil, nil)
}

func alphaEqual(a, b Tag, envA, envB map[names.Name]int) bool {
	switch a := a.(type) {
	case Var:
		bv, ok := b.(Var)
		if !ok {
			return false
		}
		ia, boundA := envA[a.Name]
		ib, boundB := envB[bv.Name]
		if boundA != boundB {
			return false
		}
		if boundA {
			return ia == ib
		}
		return a.Name == bv.Name
	case Int:
		_, ok := b.(Int)
		return ok
	case Prod:
		bp, ok := b.(Prod)
		return ok && alphaEqual(a.L, bp.L, envA, envB) && alphaEqual(a.R, bp.R, envA, envB)
	case Code:
		bc, ok := b.(Code)
		if !ok || len(a.Args) != len(bc.Args) {
			return false
		}
		for i := range a.Args {
			if !alphaEqual(a.Args[i], bc.Args[i], envA, envB) {
				return false
			}
		}
		return true
	case Exist:
		be, ok := b.(Exist)
		return ok && alphaEqualUnder(a.Bound, a.Body, be.Bound, be.Body, envA, envB)
	case Lam:
		bl, ok := b.(Lam)
		return ok && alphaEqualUnder(a.Param, a.Body, bl.Param, bl.Body, envA, envB)
	case App:
		ba, ok := b.(App)
		return ok && alphaEqual(a.Fn, ba.Fn, envA, envB) && alphaEqual(a.Arg, ba.Arg, envA, envB)
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", a))
	}
}

func alphaEqualUnder(na names.Name, ba Tag, nb names.Name, bb Tag, envA, envB map[names.Name]int) bool {
	depth := len(envA)
	envA2 := extend(envA, na, depth)
	envB2 := extend(envB, nb, depth)
	return alphaEqual(ba, bb, envA2, envB2)
}

func extend(env map[names.Name]int, n names.Name, depth int) map[names.Name]int {
	out := make(map[names.Name]int, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	out[n] = depth
	return out
}

// DefaultFuel bounds the number of β-steps Normalize will take before
// reporting divergence. Well-kinded tags always normalize long before this.
const DefaultFuel = 100000

// ErrNoFuel is returned when normalization exceeds its fuel, which for
// well-kinded tags is impossible (Prop. 6.1) and indicates an ill-kinded
// input.
var ErrNoFuel = fmt.Errorf("tags: normalization out of fuel (ill-kinded tag?)")

// Normalize fully β-normalizes t (including under binders), spending at
// most DefaultFuel reduction steps. Already-normal tags are returned
// as-is without rebuilding (the collector analyzes large normal tags at
// every typecase, so this fast path is load-bearing).
func Normalize(t Tag) (Tag, error) {
	if isNormal(t) {
		return t, nil
	}
	fuel := DefaultFuel
	nf, _, err := normalize(t, &fuel)
	if err != nil {
		return nil, err
	}
	return nf, nil
}

// isNormal reports whether t contains no β-redex.
func isNormal(t Tag) bool {
	switch t := t.(type) {
	case Var, Int:
		return true
	case Prod:
		return isNormal(t.L) && isNormal(t.R)
	case Code:
		for _, a := range t.Args {
			if !isNormal(a) {
				return false
			}
		}
		return true
	case Exist:
		return isNormal(t.Body)
	case Lam:
		return isNormal(t.Body)
	case App:
		if _, ok := t.Fn.(Lam); ok {
			return false
		}
		return isNormal(t.Fn) && isNormal(t.Arg)
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", t))
	}
}

// MustNormalize is Normalize for tags known to be well-kinded.
func MustNormalize(t Tag) Tag {
	nf, err := Normalize(t)
	if err != nil {
		panic(err)
	}
	return nf
}

// normalize returns t's normal form and whether it differs from t. A
// subtree with no redex comes back as the very interface value passed in,
// so a normal component of a tag that does contain a redex is shared, not
// rebuilt.
func normalize(t Tag, fuel *int) (Tag, bool, error) {
	if *fuel <= 0 {
		return nil, false, ErrNoFuel
	}
	*fuel--
	switch tt := t.(type) {
	case Var, Int:
		return t, false, nil
	case Prod:
		l, cl, err := normalize(tt.L, fuel)
		if err != nil {
			return nil, false, err
		}
		r, cr, err := normalize(tt.R, fuel)
		if err != nil {
			return nil, false, err
		}
		if !cl && !cr {
			return t, false, nil
		}
		return Prod{L: l, R: r}, true, nil
	case Code:
		var args []Tag
		for i, a := range tt.Args {
			na, ca, err := normalize(a, fuel)
			if err != nil {
				return nil, false, err
			}
			if ca && args == nil {
				args = append([]Tag(nil), tt.Args...)
			}
			if args != nil {
				args[i] = na
			}
		}
		if args == nil {
			return t, false, nil
		}
		return Code{Args: args}, true, nil
	case Exist:
		body, cb, err := normalize(tt.Body, fuel)
		if err != nil || !cb {
			return t, false, err
		}
		return Exist{Bound: tt.Bound, Body: body}, true, nil
	case Lam:
		body, cb, err := normalize(tt.Body, fuel)
		if err != nil || !cb {
			return t, false, err
		}
		return Lam{Param: tt.Param, Body: body}, true, nil
	case App:
		fn, cf, err := normalize(tt.Fn, fuel)
		if err != nil {
			return nil, false, err
		}
		arg, ca, err := normalize(tt.Arg, fuel)
		if err != nil {
			return nil, false, err
		}
		if lam, ok := fn.(Lam); ok {
			nf, _, err := normalize(Subst(lam.Body, lam.Param, arg), fuel)
			return nf, true, err
		}
		if !cf && !ca {
			return t, false, nil
		}
		return App{Fn: fn, Arg: arg}, true, nil
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", t))
	}
}

// Step performs a single leftmost-outermost β-step, reporting whether a
// redex was found. It is used by the confluence and strong-normalization
// property tests.
func Step(t Tag) (Tag, bool) {
	switch t := t.(type) {
	case Var, Int:
		return t, false
	case Prod:
		if l, ok := Step(t.L); ok {
			return Prod{L: l, R: t.R}, true
		}
		if r, ok := Step(t.R); ok {
			return Prod{L: t.L, R: r}, true
		}
		return t, false
	case Code:
		for i, a := range t.Args {
			if na, ok := Step(a); ok {
				args := append([]Tag(nil), t.Args...)
				args[i] = na
				return Code{Args: args}, true
			}
		}
		return t, false
	case Exist:
		if b, ok := Step(t.Body); ok {
			return Exist{Bound: t.Bound, Body: b}, true
		}
		return t, false
	case Lam:
		if b, ok := Step(t.Body); ok {
			return Lam{Param: t.Param, Body: b}, true
		}
		return t, false
	case App:
		if lam, ok := t.Fn.(Lam); ok {
			return Subst(lam.Body, lam.Param, t.Arg), true
		}
		if fn, ok := Step(t.Fn); ok {
			return App{Fn: fn, Arg: t.Arg}, true
		}
		if arg, ok := Step(t.Arg); ok {
			return App{Fn: t.Fn, Arg: arg}, true
		}
		return t, false
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", t))
	}
}

// EqualNF reports equality of tags up to β-reduction and α-equivalence.
// It returns an error only if a tag fails to normalize (ill-kinded input).
func EqualNF(a, b Tag) (bool, error) {
	na, err := Normalize(a)
	if err != nil {
		return false, err
	}
	nb, err := Normalize(b)
	if err != nil {
		return false, err
	}
	return Equal(na, nb), nil
}

// Size returns the number of AST nodes in t.
func Size(t Tag) int {
	switch t := t.(type) {
	case Var, Int:
		return 1
	case Prod:
		return 1 + Size(t.L) + Size(t.R)
	case Code:
		n := 1
		for _, a := range t.Args {
			n += Size(a)
		}
		return n
	case Exist:
		return 1 + Size(t.Body)
	case Lam:
		return 1 + Size(t.Body)
	case App:
		return 1 + Size(t.Fn) + Size(t.Arg)
	default:
		panic(fmt.Sprintf("tags: unknown tag %T", t))
	}
}
