package gclang

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"psgc/internal/names"
	"psgc/internal/regions"
	"psgc/internal/tags"
)

// This file makes a paused machine first-class data: an Image captures the
// complete execution state of a machine at a step boundary — control term,
// environment, side pools, and heap — and a Restore rebuilds a runnable
// machine from one, on any memory backend. The paper's thesis is that GC
// state is ordinary typed data; a checkpoint takes that seriously for the
// whole machine configuration. Two disciplines follow:
//
//   - Images are taken only between steps. Mid-step state (shadow stacks
//     pushed during resolution, a scavenge in flight) is never observable
//     in an image, so a restored machine is in a state the step relation
//     could legitimately have produced.
//
//   - Nothing in an image extends the trusted computing base. Restoring
//     re-validates everything the way the peer-cache import does: the heap
//     image is checked against the substrate's counter identities, every
//     cell is bounds-checked against the pools it indexes (using the
//     append-order invariant that a pooled cell only references
//     earlier-pooled cells), and the code-block pool is not deserialized at
//     all — it is replaced wholesale by the locally certified program's
//     blocks, exactly as the peer import replaces the collector prefix.
//
// An environment machine's frames are slot-addressed (lower.go); an image
// names them. Image reads every bound slot back through the running
// block's layout (slot → name), so the image holds the same name-keyed
// environment a map-based machine would, and restore lowers the image's
// control term in a fresh frame whose slots are the image's names.
//
// What is deliberately NOT serialized: the descriptor memo (a pure cache,
// rebuilt on demand; resumed runs re-learn it with no observable effect),
// the lowered code (rebuilt from the certified program),
// event hooks (re-attached by the caller), and ghost state (ghost runs are
// a verification mode, not a production mode, and are refused).

// PoolImage is the serializable form of a machine's side pools. The Lams
// pool is carried only as a length: restore replaces it with the certified
// program's code blocks (see RestoreEnvMachine).
type PoolImage struct {
	Cells       []Cell
	Vars        []names.Name
	Lams        []LamV
	PackTags    []PackTagDesc
	PackAlphas  []PackAlphaDesc
	PackRegions []PackRegionDesc
	TApps       []TAppDesc
}

// MachineImage is the complete serializable state of a paused machine.
// Substitution-machine images have nil environment maps (their state is
// entirely in the control term); environment-machine images carry the four
// binder namespaces.
type MachineImage struct {
	Dialect Dialect
	Ctrl    Term
	Steps   int

	EnvCells map[names.Name]Cell
	EnvTags  map[names.Name]tags.Tag
	EnvRegs  map[names.Name]Region
	EnvTyps  map[names.Name]Type

	Pool PoolImage
	Heap regions.Image[Cell]
}

// Image captures the machine's state at the current step boundary. It is
// an error to image a halted machine (there is nothing left to resume) or
// one paused mid-resolution (cannot happen between Step calls).
func (m *EnvMachine) Image() (MachineImage, error) {
	if m.Halted {
		return MachineImage{}, fmt.Errorf("gclang: image of halted machine")
	}
	if len(m.shTags) != 0 || len(m.shRegs) != 0 || len(m.shTyps) != 0 {
		return MachineImage{}, fmt.Errorf("gclang: image mid-resolution")
	}
	ns := m.blk.names()
	return MachineImage{
		Dialect:  m.Dialect,
		Ctrl:     m.source(),
		Steps:    m.Steps,
		EnvCells: frameMap(ns[nsCells], m.cells, m.gen),
		EnvTags:  frameMap(ns[nsTags], m.tags, m.gen),
		EnvRegs:  frameMap(ns[nsRegs], m.regs, m.gen),
		EnvTyps:  frameMap(ns[nsTyps], m.typs, m.gen),
		Pool:     m.Pool.image(),
		Heap:     regions.Snapshot[Cell](m.Mem),
	}, nil
}

// Image captures the substitution machine's state at the current step
// boundary. Ghost machines are refused: Ψ is verification state, and ghost
// runs are never the production engine a checkpoint would resume.
func (m *Machine) Image() (MachineImage, error) {
	if m.Halted {
		return MachineImage{}, fmt.Errorf("gclang: image of halted machine")
	}
	if m.Ghost {
		return MachineImage{}, fmt.Errorf("gclang: image of ghost machine")
	}
	return MachineImage{
		Dialect: m.Dialect,
		Ctrl:    m.Term,
		Steps:   m.Steps,
		Pool:    m.Pool.image(),
		Heap:    regions.Snapshot[Cell](m.Mem),
	}, nil
}

// image deep-copies the pool slices. Descriptor innards (types, tag lists)
// are immutable once pooled, so they are shared, not copied.
func (p *Pools) image() PoolImage {
	return PoolImage{
		Cells:       append([]Cell(nil), p.cells...),
		Vars:        append([]names.Name(nil), p.vars...),
		Lams:        append([]LamV(nil), p.lams...),
		PackTags:    append([]PackTagDesc(nil), p.packTags...),
		PackAlphas:  append([]PackAlphaDesc(nil), p.packAlphas...),
		PackRegions: append([]PackRegionDesc(nil), p.packRegions...),
		TApps:       append([]TAppDesc(nil), p.tapps...),
	}
}

// RestoreEnvMachine rebuilds a runnable environment machine from an image,
// on the given backend, against the locally certified program p. The image
// is untrusted: the heap image must satisfy the substrate's counter
// identities, every cell must validate against the pools it indexes, and
// the cd region must contain exactly p's code blocks, whose pool entries
// are replaced with the local (typechecked) ones. It lowers p first;
// Code.RestoreEnvMachine reuses an already lowered program.
func RestoreEnvMachine(b regions.Backend, d Dialect, p Program, img MachineImage) (*EnvMachine, error) {
	return Lower(p).RestoreEnvMachine(b, d, img)
}

// RestoreEnvMachine is the package-level RestoreEnvMachine against the
// lowered program c. The image's control term is lowered on the spot, in
// a frame whose slots are the image's bound names.
func (c *Code) RestoreEnvMachine(b regions.Backend, d Dialect, img MachineImage) (*EnvMachine, error) {
	if err := validateImage(c.prog, &img); err != nil {
		return nil, err
	}
	if d != img.Dialect {
		return nil, fmt.Errorf("gclang: restore: image dialect %v, want %v", img.Dialect, d)
	}
	mem, err := regions.Restore[Cell](b, img.Heap)
	if err != nil {
		return nil, fmt.Errorf("gclang: restore: %w", err)
	}
	m := c.newMachine(d, mem, poolFromImage(c.prog, img.Pool))
	m.Steps = img.Steps
	l := newLowerer(c.lits)
	blk := l.restored(&img)
	m.adopt(l, blk)
	m.enterAt(blk)
	for n, cell := range img.EnvCells {
		m.bindCell(l.index[nsCells][n], cell)
	}
	for n, t := range img.EnvTags {
		m.bindTag(l.index[nsTags][n], t)
	}
	for n, r := range img.EnvRegs {
		m.bindRegion(l.index[nsRegs][n], r)
	}
	for n, t := range img.EnvTyps {
		m.bindType(l.index[nsTyps][n], t)
	}
	return m, nil
}

// RestoreMachine rebuilds a runnable substitution machine from an image.
// Substitution images carry no environment; an image with one is rejected
// rather than silently dropped.
func RestoreMachine(b regions.Backend, d Dialect, p Program, img MachineImage) (*Machine, error) {
	if len(img.EnvCells)+len(img.EnvTags)+len(img.EnvRegs)+len(img.EnvTyps) != 0 {
		return nil, fmt.Errorf("gclang: restore: substitution image carries an environment")
	}
	if err := validateImage(p, &img); err != nil {
		return nil, err
	}
	if d != img.Dialect {
		return nil, fmt.Errorf("gclang: restore: image dialect %v, want %v", img.Dialect, d)
	}
	mem, err := regions.Restore[Cell](b, img.Heap)
	if err != nil {
		return nil, fmt.Errorf("gclang: restore: %w", err)
	}
	return newRestoredMachine(d, p, mem, poolFromImage(p, img.Pool), img.Ctrl, img.Steps), nil
}

// ClosedCtrl returns the control term with the current environment applied
// as a closed simultaneous substitution — the term a substitution machine
// at this same state would be holding. Only legal at a step boundary.
func (m *EnvMachine) ClosedCtrl() Term {
	return m.substView().Term(m.source())
}

// RestoreOracle rebuilds a substitution machine from an *environment*
// image: the environment is folded into the control term by substitution,
// the heap is restored onto the map backend (the oracle's substrate), and
// the pools are shared with no environment left over. A co-checked resume
// uses this so both engines start from the identical configuration — same
// heap cells, same counters — and the per-step counter comparison stays
// exact across the checkpoint.
func RestoreOracle(p Program, img MachineImage) (*Machine, error) {
	env, err := RestoreEnvMachine(regions.BackendMap, img.Dialect, p, img)
	if err != nil {
		return nil, err
	}
	return newRestoredMachine(env.Dialect, p, env.Mem, env.Pool, env.ClosedCtrl(), env.Steps), nil
}

func newRestoredMachine(d Dialect, p Program, mem regions.Store[Cell], pool *Pools, term Term, steps int) *Machine {
	m := &Machine{
		Core: Core{Dialect: d, Mem: mem, Pool: pool, Steps: steps},
		Term: term,
		Psi:  MemType{},
	}
	// Rebuild the code-region Ψ entries NewMachineOn installs; non-ghost
	// machines never read Ψ, but the invariant that cd is typed is cheap.
	for i, nf := range p.Code {
		params := make([]Type, len(nf.Fun.Params))
		for j, prm := range nf.Fun.Params {
			params[j] = prm.Ty
		}
		m.Psi[regions.Addr{Region: regions.CD, Off: i}] = CodeT{
			TParams: nf.Fun.TParams, RParams: nf.Fun.RParams, Params: params,
		}
	}
	return m
}

// poolFromImage rebuilds pools from an image, substituting the certified
// program's code blocks for the serialized lam pool (whose length was
// already checked by validateImage). The blob's own lam bodies are never
// executed.
func poolFromImage(p Program, pi PoolImage) *Pools {
	lams := make([]LamV, len(p.Code))
	for i, nf := range p.Code {
		lams[i] = nf.Fun
	}
	return &Pools{
		cells:       append([]Cell(nil), pi.Cells...),
		vars:        append([]names.Name(nil), pi.Vars...),
		lams:        lams,
		packTags:    append([]PackTagDesc(nil), pi.PackTags...),
		packAlphas:  append([]PackAlphaDesc(nil), pi.PackAlphas...),
		packRegions: append([]PackRegionDesc(nil), pi.PackRegions...),
		tapps:       append([]TAppDesc(nil), pi.TApps...),
	}
}

// ValidateImage checks an untrusted image without building a machine —
// the checkpoint decoder calls it so corruption is rejected at decode
// time, before any caller commits to a resume. Restore runs the same
// checks again.
func ValidateImage(p Program, img *MachineImage) error {
	return validateImage(p, img)
}

// validateImage checks everything about an untrusted image that the
// machines' defensive decoding does not already cover: the heap image's
// counter identities, per-cell bounds against the pools, the acyclicity of
// the cells pool (entry i may only reference entries < i — the append
// order Encode produces), and the cd region matching the certified
// program block-for-block.
func validateImage(p Program, img *MachineImage) error {
	if img.Ctrl == nil {
		return fmt.Errorf("gclang: restore: image has no control term")
	}
	if img.Steps < 0 {
		return fmt.Errorf("gclang: restore: negative step count %d", img.Steps)
	}
	if err := img.Heap.Validate(); err != nil {
		return fmt.Errorf("gclang: restore: %w", err)
	}
	if len(img.Pool.Lams) != len(p.Code) {
		return fmt.Errorf("gclang: restore: image pools %d code blocks, program has %d",
			len(img.Pool.Lams), len(p.Code))
	}
	pool := &img.Pool
	for i, c := range pool.Cells {
		if err := validateCell(c, i, pool); err != nil {
			return fmt.Errorf("gclang: restore: pool cell %d: %w", i, err)
		}
	}
	limit := len(pool.Cells)
	for ri := range img.Heap.Regions {
		r := &img.Heap.Regions[ri]
		if r.Name == regions.CD {
			if len(r.Cells) != len(p.Code) {
				return fmt.Errorf("gclang: restore: cd region has %d cells, program has %d code blocks",
					len(r.Cells), len(p.Code))
			}
			for i, c := range r.Cells {
				if c != (Cell{Tag: CellLam, A: uint64(i)}) {
					return fmt.Errorf("gclang: restore: cd cell %d is not code block %d", i, i)
				}
			}
			continue
		}
		for i, c := range r.Cells {
			if err := validateCell(c, limit, pool); err != nil {
				return fmt.Errorf("gclang: restore: heap cell %s.%d: %w", r.Name, i, err)
			}
		}
	}
	for n, c := range img.EnvCells {
		if err := validateCell(c, limit, pool); err != nil {
			return fmt.Errorf("gclang: restore: environment binding %s: %w", n, err)
		}
	}
	return nil
}

// validateCell bounds-checks one cell against the pools. cellLimit is the
// largest cells-pool index the cell's payload words may reference: for the
// pool entry at index i it is i itself (acyclicity), for heap and
// environment cells it is the full pool length. Unused payload words must
// be zero — Encode never leaves residue, so nonzero residue is corruption.
func validateCell(c Cell, cellLimit int, pool *PoolImage) error {
	switch c.Tag {
	case CellNum:
		if c.B != 0 {
			return fmt.Errorf("num cell with nonzero residue")
		}
	case CellAddr:
		// A dangling address (into a reclaimed region) is legal — dead
		// bindings may hold one — so only representability is checked.
		if c.A >= 1<<32 || int64(c.B) < 0 {
			return fmt.Errorf("address cell out of range")
		}
	case CellPair:
		if err := validateWord(c.A, cellLimit); err != nil {
			return err
		}
		return validateWord(c.B, cellLimit)
	case CellInl, CellInr:
		if err := validateWord(c.A, cellLimit); err != nil {
			return err
		}
		if c.B != 0 {
			return fmt.Errorf("sum cell with nonzero residue")
		}
	case CellVar:
		if c.A >= uint64(len(pool.Vars)) || c.B != 0 {
			return fmt.Errorf("var handle out of range")
		}
	case CellLam:
		if c.A >= uint64(len(pool.Lams)) || c.B != 0 {
			return fmt.Errorf("lam handle out of range")
		}
	case CellPackTag:
		if c.A >= uint64(len(pool.PackTags)) {
			return fmt.Errorf("packtag handle out of range")
		}
		return validateWord(c.B, cellLimit)
	case CellPackAlpha:
		if c.A >= uint64(len(pool.PackAlphas)) {
			return fmt.Errorf("packalpha handle out of range")
		}
		return validateWord(c.B, cellLimit)
	case CellPackRegion:
		if c.A >= uint64(len(pool.PackRegions)) {
			return fmt.Errorf("packregion handle out of range")
		}
		return validateWord(c.B, cellLimit)
	case CellTApp:
		if c.A >= uint64(len(pool.TApps)) {
			return fmt.Errorf("tapp handle out of range")
		}
		return validateWord(c.B, cellLimit)
	default:
		return fmt.Errorf("unknown cell tag %d", c.Tag)
	}
	return nil
}

func validateWord(w uint64, cellLimit int) error {
	switch w & wordKindMask {
	case wordKindNum, wordKindAddr:
		return nil
	case wordKindCell:
		if idx := w >> 2; idx >= uint64(cellLimit) {
			return fmt.Errorf("payload word references cell %d, limit %d", idx, cellLimit)
		}
		return nil
	default:
		return fmt.Errorf("payload word with invalid kind")
	}
}

// Fingerprint hashes the image's machine-state content — heap layout and
// cells, pooled cells, environment value bindings, step count — with
// FNV-64a. The checkpoint wire format stores it in the header so a decoder
// can detect body corruption that gob happens to survive. Environment maps
// are folded in sorted order, so the fingerprint is deterministic.
func (img *MachineImage) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(x uint64) {
		binary.BigEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	wcell := func(c Cell) { w64(uint64(c.Tag)); w64(c.A); w64(c.B) }
	w64(uint64(img.Steps))
	w64(uint64(img.Heap.Counter))
	w64(uint64(len(img.Heap.Regions)))
	for i := range img.Heap.Regions {
		r := &img.Heap.Regions[i]
		w64(uint64(r.Name))
		w64(r.Pattern)
		w64(uint64(len(r.Cells)))
		for _, c := range r.Cells {
			wcell(c)
		}
	}
	w64(uint64(len(img.Pool.Cells)))
	for _, c := range img.Pool.Cells {
		wcell(c)
	}
	ns := make([]string, 0, len(img.EnvCells))
	for n := range img.EnvCells {
		ns = append(ns, string(n))
	}
	sort.Strings(ns)
	w64(uint64(len(ns)))
	for _, n := range ns {
		w64(uint64(len(n)))
		h.Write([]byte(n))
		wcell(img.EnvCells[names.Name(n)])
	}
	return h.Sum64()
}
