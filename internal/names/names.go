// Package names provides interned identifiers and deterministic fresh-name
// supplies shared by every calculus in the system.
//
// All binders in the source language, λCLOS, and λGC carry a Name. Fresh
// names are produced by a Supply so that every compiler pass can rename
// binders apart without global state; a Supply is deterministic, which keeps
// compiled programs and test failures reproducible.
package names

import (
	"fmt"
	"strings"
)

// Name identifies a variable, tag variable, region variable, or label.
// Names compare by value; two occurrences of the same identifier are equal.
type Name string

// String returns the identifier text.
func (n Name) String() string { return string(n) }

// Base returns the human-readable stem of the name with any freshness
// suffix removed, e.g. Base("x$3") == "x".
func (n Name) Base() string {
	if i := strings.IndexByte(string(n), '$'); i >= 0 {
		return string(n)[:i]
	}
	return string(n)
}

// Supply generates fresh names. The zero value is ready to use.
// A Supply is not safe for concurrent use.
type Supply struct {
	next int
}

// Fresh returns a name that the supply has never returned before, derived
// from the stem of base. Freshness is with respect to this supply only;
// callers that mix supplies must partition stems.
func (s *Supply) Fresh(base Name) Name {
	s.next++
	return Name(fmt.Sprintf("%s$%d", base.Base(), s.next))
}

// FreshN returns n distinct fresh names sharing the same stem.
func (s *Supply) FreshN(base Name, n int) []Name {
	out := make([]Name, n)
	for i := range out {
		out[i] = s.Fresh(base)
	}
	return out
}

// PassStems are the stems of every binder the compile passes introduce:
// cps, then closure conversion, then the region translation. A source
// binder on one of these stems is renamed to stem$N by cps, so it meets
// the later passes' own binders on the same stem; the capture tests and
// the random program generator draw source binders from this list.
var PassStems = []Name{
	// cps
	"ar", "join", "jr", "k", "kv", "p", "pa", "pj", "pr", "r",
	// closconv
	"cenv", "clo", "cptr", "env", "q", "rest", "t", "w",
	// translate
	"d", "h", "hp", "rx", "s", "xp",
}

// Set is a set of names.
type Set map[Name]struct{}

// NewSet builds a set from the given names.
func NewSet(ns ...Name) Set {
	s := make(Set, len(ns))
	for _, n := range ns {
		s.Add(n)
	}
	return s
}

// Add inserts n.
func (s Set) Add(n Name) { s[n] = struct{}{} }

// Has reports whether n is in the set.
func (s Set) Has(n Name) bool { _, ok := s[n]; return ok }

// Remove deletes n.
func (s Set) Remove(n Name) { delete(s, n) }

// Union adds every element of t to s and returns s.
func (s Set) Union(t Set) Set {
	for n := range t {
		s.Add(n)
	}
	return s
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for n := range s {
		c.Add(n)
	}
	return c
}
