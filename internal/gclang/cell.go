package gclang

import (
	"fmt"

	"psgc/internal/kinds"
	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// This file is the unboxed heap representation. PR 7's honest finding was
// that the flat arena's 3× win on the isolated op trace all but vanished
// end-to-end because heap cells were interface-boxed gclang.Values: every
// Put allocated on the host Go heap, and the host collector — not our
// substrate — dominated the run. The fix is the one §8 of the paper
// gestures at and every practical tag-checked runtime (the Fred runtime,
// the Hawblitzel–Petrank verified collectors) actually ships: cells become
// small fixed-size tagged structs with no pointers, so a region is a flat
// []Cell the host GC never scans, and the Cheney scavenge is a pure
// memmove-shaped copy.
//
// A Cell packs the λGC value forms as a tag word plus two payload words:
//
//	CellNum        A = the integer (int64 bits)
//	CellAddr       A = region name, B = offset (a logical ν.ℓ pair)
//	CellPair       A, B = packed words for the two components
//	CellInl/Inr    A = packed word for the payload
//	CellLam        A = index into the lams pool
//	CellVar        A = index into the vars pool (stuck programs only)
//	CellPackTag    A = index into the packTags descriptors, B = payload word
//	CellPackAlpha  A = index into the packAlphas descriptors, B = payload word
//	CellPackRegion A = index into the packRegions descriptors, B = payload word
//	CellTApp       A = index into the tapps descriptors, B = payload word
//
// The syntax-bearing forms (code blocks, existential packages, translucent
// applications) cannot be flattened into two words — they carry tags,
// types, and binder names — so that syntax lives in typed side pools owned
// by the machine, and the cell holds a pool index. Crucially the package
// forms split per-value state from per-type state: the payload travels in
// the cell's own B word (a packed word, like a pair component), while the
// pool entry is a *descriptor* holding only the resolved annotation
// (binder, witness, body type). Descriptors depend on nothing but the
// program text and the type-level environment, so the machine memoizes
// them (see packmemo.go) and thousands of packages minted by one collector
// loop share one descriptor — pool growth tracks distinct annotations, not
// allocation volume. Pools are append-only for the lifetime of a run and
// reclaimed wholesale with the machine, which is the region discipline
// applied to the metadata itself: the heap proper stays pointer-free, and
// the pool handles are just more bit patterns.
//
// Packed words (the A/B payloads of pairs and sums) carry their own 2-bit
// tag in the low bits so a pair of numbers or addresses costs no pool
// traffic at all:
//
//	wordKindNum   signed 62-bit integer, inline
//	wordKindAddr  region (32 bits) at bit 2, offset (30 bits) at bit 34
//	wordKindCell  index into the cells pool (nested or out-of-range forms)
//
// Decoding is defensive throughout: the chaos suite's machine.corrupt
// fault flips tag bits in stored cells, so every pool dereference is
// bounds-checked and an invalid handle decodes to a poison variable (which
// sticks the machine or diverges from the oracle) rather than panicking.

// CellTag discriminates the packed forms a heap cell can take. The zero
// value CellFree marks an unallocated or zeroed slab slot.
type CellTag uint8

const (
	CellFree CellTag = iota
	CellNum
	CellAddr
	CellPair
	CellInl
	CellInr
	CellLam
	CellVar
	CellPackTag
	CellPackAlpha
	CellPackRegion
	CellTApp
)

// Cell is one packed heap cell: a tag and two payload words, no pointers.
// Both machines run over regions.Store[Cell]; Values exist only at the
// machine↔term boundary (halt results, co-check compares, ghost
// re-annotation, well-formedness checks).
type Cell struct {
	Tag  CellTag
	A, B uint64
}

// NumCell packs an integer.
func NumCell(n int) Cell { return Cell{Tag: CellNum, A: uint64(int64(n))} }

// AddrCell packs a logical address ν.ℓ.
func AddrCell(a regions.Addr) Cell {
	return Cell{Tag: CellAddr, A: uint64(a.Region), B: uint64(int64(a.Off))}
}

// Num unpacks a CellNum payload.
func (c Cell) Num() int { return int(int64(c.A)) }

// Addr unpacks a CellAddr payload.
func (c Cell) Addr() regions.Addr {
	return regions.Addr{Region: regions.Name(uint32(c.A)), Off: int(int64(c.B))}
}

// Packed-word tags (low 2 bits of a pair/sum payload word).
const (
	wordKindNum  uint64 = 0
	wordKindAddr uint64 = 1
	wordKindCell uint64 = 2
	wordKindMask uint64 = 3
)

// Inline-payload limits for packed words.
const (
	wordNumMax  = int64(1) << 61 // signed 62-bit inline integer range
	wordAddrReg = uint64(1) << 32
	wordAddrOff = uint64(1) << 30
)

// corruptVar is the poison an invalid pool handle decodes to. It is not a
// value any program can construct (the source pipeline never emits '#'
// names), so a corrupted cell either sticks the machine or shows up as a
// cell-by-cell mismatch against the oracle.
var corruptVar = Var{Name: "#corrupt"}

// PackTagDesc is the pooled descriptor of a PackTag package: everything
// but the payload, which travels in the cell's B word.
type PackTagDesc struct {
	Bound names.Name
	Kind  kinds.Kind
	Tag   tags.Tag
	Body  Type
}

// PackAlphaDesc is the pooled descriptor of a PackAlpha package.
type PackAlphaDesc struct {
	Bound  names.Name
	Delta  []Region
	Hidden Type
	Body   Type
}

// PackRegionDesc is the pooled descriptor of a PackRegion package.
type PackRegionDesc struct {
	Bound names.Name
	Delta []Region
	R     Region
	Body  Type
}

// TAppDesc is the pooled descriptor of a TAppV (translucent application).
type TAppDesc struct {
	Tags []tags.Tag
	Rs   []Region
}

// Pools holds the typed side pools backing one machine's packed cells.
// Each machine owns its own Pools — pool indices are machine-local, so the
// co-checker compares heaps by decoding each side through its own pools,
// never by comparing handles.
type Pools struct {
	cells       []Cell
	vars        []names.Name
	lams        []LamV
	packTags    []PackTagDesc
	packAlphas  []PackAlphaDesc
	packRegions []PackRegionDesc
	tapps       []TAppDesc
}

// NewPools returns empty pools.
func NewPools() *Pools { return &Pools{} }

// LamCell pools a code block and returns its handle cell.
func (p *Pools) LamCell(l LamV) Cell {
	idx := uint64(len(p.lams))
	p.lams = append(p.lams, l)
	return Cell{Tag: CellLam, A: idx}
}

// VarCell pools a variable name (stuck programs can store unresolved
// variables) and returns its handle cell.
func (p *Pools) VarCell(n names.Name) Cell {
	idx := uint64(len(p.vars))
	p.vars = append(p.vars, n)
	return Cell{Tag: CellVar, A: idx}
}

func (p *Pools) lamAt(idx uint64) (LamV, bool) {
	if idx < uint64(len(p.lams)) {
		return p.lams[idx], true
	}
	return LamV{}, false
}

func (p *Pools) packTagAt(idx uint64) (PackTagDesc, bool) {
	if idx < uint64(len(p.packTags)) {
		return p.packTags[idx], true
	}
	return PackTagDesc{}, false
}

func (p *Pools) packAlphaAt(idx uint64) (PackAlphaDesc, bool) {
	if idx < uint64(len(p.packAlphas)) {
		return p.packAlphas[idx], true
	}
	return PackAlphaDesc{}, false
}

func (p *Pools) packRegionAt(idx uint64) (PackRegionDesc, bool) {
	if idx < uint64(len(p.packRegions)) {
		return p.packRegions[idx], true
	}
	return PackRegionDesc{}, false
}

func (p *Pools) tappAt(idx uint64) (TAppDesc, bool) {
	if idx < uint64(len(p.tapps)) {
		return p.tapps[idx], true
	}
	return TAppDesc{}, false
}

// wordOf packs c into a payload word, re-inlining numbers and addresses
// that fit so the common cons cells (pairs of integers or of addresses)
// never touch the cells pool.
func (p *Pools) wordOf(c Cell) uint64 {
	switch c.Tag {
	case CellNum:
		if n := int64(c.A); n >= -wordNumMax && n < wordNumMax {
			return uint64(n)<<2 | wordKindNum
		}
	case CellAddr:
		if c.A < wordAddrReg && c.B < wordAddrOff {
			return wordKindAddr | c.A<<2 | c.B<<34
		}
	}
	idx := uint64(len(p.cells))
	p.cells = append(p.cells, c)
	return idx<<2 | wordKindCell
}

// cellOfWord unpacks a payload word back into a cell. An out-of-range pool
// index (only corruption produces one) yields the CellFree poison.
func (p *Pools) cellOfWord(w uint64) Cell {
	switch w & wordKindMask {
	case wordKindNum:
		return Cell{Tag: CellNum, A: uint64(int64(w) >> 2)}
	case wordKindAddr:
		return Cell{Tag: CellAddr, A: (w >> 2) & 0xFFFF_FFFF, B: w >> 34}
	case wordKindCell:
		if idx := w >> 2; idx < uint64(len(p.cells)) {
			return p.cells[idx]
		}
	}
	return Cell{}
}

// Encode packs a closed value. Nested structure spills into the pools;
// the returned cell is safe to store in any Store[Cell].
func (p *Pools) Encode(v Value) Cell {
	switch v := v.(type) {
	case Num:
		return NumCell(v.N)
	case AddrV:
		return AddrCell(v.Addr)
	case Var:
		return p.VarCell(v.Name)
	case PairV:
		return Cell{Tag: CellPair, A: p.wordOf(p.Encode(v.L)), B: p.wordOf(p.Encode(v.R))}
	case InlV:
		return Cell{Tag: CellInl, A: p.wordOf(p.Encode(v.Val))}
	case InrV:
		return Cell{Tag: CellInr, A: p.wordOf(p.Encode(v.Val))}
	case LamV:
		return p.LamCell(v)
	// In the pooled cases the nested Encode runs first: it may append to the
	// cells pool the payload word spills into, so pack the payload before
	// reading any pool length.
	case PackTag:
		w := p.wordOf(p.Encode(v.Val))
		idx := uint64(len(p.packTags))
		p.packTags = append(p.packTags, PackTagDesc{
			Bound: v.Bound, Kind: v.Kind, Tag: v.Tag, Body: v.Body,
		})
		return Cell{Tag: CellPackTag, A: idx, B: w}
	case PackAlpha:
		w := p.wordOf(p.Encode(v.Val))
		idx := uint64(len(p.packAlphas))
		p.packAlphas = append(p.packAlphas, PackAlphaDesc{
			Bound: v.Bound, Delta: v.Delta, Hidden: v.Hidden, Body: v.Body,
		})
		return Cell{Tag: CellPackAlpha, A: idx, B: w}
	case PackRegion:
		w := p.wordOf(p.Encode(v.Val))
		idx := uint64(len(p.packRegions))
		p.packRegions = append(p.packRegions, PackRegionDesc{
			Bound: v.Bound, Delta: v.Delta, R: v.R, Body: v.Body,
		})
		return Cell{Tag: CellPackRegion, A: idx, B: w}
	case TAppV:
		w := p.wordOf(p.Encode(v.Val))
		idx := uint64(len(p.tapps))
		p.tapps = append(p.tapps, TAppDesc{Tags: v.Tags, Rs: v.Rs})
		return Cell{Tag: CellTApp, A: idx, B: w}
	default:
		panic(fmt.Sprintf("gclang: cannot encode value %T", v))
	}
}

// Decode unpacks a cell back into the boxed value form. Decoding never
// panics: corrupted handles (chaos tag flips) decode to a poison variable
// so the damage surfaces as a stuck step or an oracle mismatch, exactly
// the failure mode the co-checker is there to catch.
func (p *Pools) Decode(c Cell) Value {
	switch c.Tag {
	case CellNum:
		return Num{N: c.Num()}
	case CellAddr:
		return AddrV{Addr: c.Addr()}
	case CellPair:
		return PairV{L: p.Decode(p.cellOfWord(c.A)), R: p.Decode(p.cellOfWord(c.B))}
	case CellInl:
		return InlV{Val: p.Decode(p.cellOfWord(c.A))}
	case CellInr:
		return InrV{Val: p.Decode(p.cellOfWord(c.A))}
	case CellVar:
		if c.A < uint64(len(p.vars)) {
			return Var{Name: p.vars[c.A]}
		}
	case CellLam:
		if l, ok := p.lamAt(c.A); ok {
			return l
		}
	case CellPackTag:
		if pk, ok := p.packTagAt(c.A); ok {
			return PackTag{Bound: pk.Bound, Kind: pk.Kind, Tag: pk.Tag, Val: p.Decode(p.cellOfWord(c.B)), Body: pk.Body}
		}
	case CellPackAlpha:
		if pk, ok := p.packAlphaAt(c.A); ok {
			return PackAlpha{Bound: pk.Bound, Delta: pk.Delta, Hidden: pk.Hidden, Val: p.Decode(p.cellOfWord(c.B)), Body: pk.Body}
		}
	case CellPackRegion:
		if pk, ok := p.packRegionAt(c.A); ok {
			return PackRegion{Bound: pk.Bound, Delta: pk.Delta, R: pk.R, Val: p.Decode(p.cellOfWord(c.B)), Body: pk.Body}
		}
	case CellTApp:
		if ta, ok := p.tappAt(c.A); ok {
			return TAppV{Val: p.Decode(p.cellOfWord(c.B)), Tags: ta.Tags, Rs: ta.Rs}
		}
	}
	return corruptVar
}

// CellWords is ValueWords over the packed form: for every cell,
// CellWords(c) == ValueWords(p.Decode(c)), so the StepEvent word
// accounting (and everything downstream: profiler survival deciles,
// timeline bytes) is identical between the substitution machine, which
// counts Values, and the environment machine, which counts cells.
func (p *Pools) CellWords(c Cell) int {
	switch c.Tag {
	case CellPair:
		return p.wordWords(c.A) + p.wordWords(c.B)
	case CellInl, CellInr:
		return p.wordWords(c.A)
	case CellPackTag, CellPackAlpha, CellPackRegion, CellTApp:
		return p.wordWords(c.B)
	}
	return 1
}

func (p *Pools) wordWords(w uint64) int {
	if w&wordKindMask == wordKindCell {
		if idx := w >> 2; idx < uint64(len(p.cells)) {
			return p.CellWords(p.cells[idx])
		}
	}
	return 1
}
