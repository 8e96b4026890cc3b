package psgc

// Compiled-entry wire format for the fleet's peer cache tier.
//
// A fleet node that misses its local compiled-program cache can fetch the
// entry from a peer instead of re-running the compile pipeline. What goes
// over the wire is only the elaborated λGC program plus the collector it is
// linked against: everything else a *Compiled carries is either derivable
// from the process-local verified-collector cache (entry-point addresses,
// the certified code prefix length) or an inspection convenience the run
// path never touches (the source and λCLOS intermediates).
//
// Import does not extend the trusted computing base to peers. The certified
// collector prefix of the imported program must be bit-identical to the one
// this process built and typechecked itself (collector.Load is
// deterministic, so honest peers always match), and every block after the
// prefix — the mutator's code — is re-verified by the λGC typechecker, the
// same checker a local compile ends with. A corrupt or malicious payload is
// rejected; it can never produce a runnable program that was not certified
// by this process.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"psgc/internal/collector"
	"psgc/internal/gclang"
)

// wireEntry is the gob payload: the collector selection plus the elaborated
// program. A version byte guards against silent cross-version decoding.
type wireEntry struct {
	Version   int
	Collector Collector
	Prog      gclang.Program
}

// wireVersion is bumped whenever the payload shape or the λGC syntax
// changes incompatibly; imports of other versions are rejected.
const wireVersion = 1

func init() {
	// Every concrete type reachable from a gclang.Program through an
	// interface field must be registered for gob. The registry is shared
	// with the checkpoint wire format, so it lives with the types.
	gclang.RegisterGob()
}

// Export serializes the compiled entry for transfer to a peer node. The
// payload carries the elaborated λGC program and the collector choice; the
// source and λCLOS intermediates are not included (see ImportCompiled).
func (c *Compiled) Export() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireEntry{
		Version:   wireVersion,
		Collector: c.Collector,
		Prog:      c.Prog,
	}); err != nil {
		return nil, fmt.Errorf("psgc: export compiled entry: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportCompiled deserializes a peer's compiled entry and re-certifies it:
// the collector prefix must match this process's own verified collector
// exactly, and the mutator blocks and main term are re-run through the λGC
// typechecker. The returned Compiled runs like a locally compiled one; its
// Source and Clos inspection fields are zero (the wire format does not
// carry the intermediates the run path never reads).
func ImportCompiled(data []byte) (*Compiled, error) {
	var e wireEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return nil, fmt.Errorf("psgc: import compiled entry: %w", err)
	}
	if e.Version != wireVersion {
		return nil, fmt.Errorf("psgc: import compiled entry: wire version %d, want %d", e.Version, wireVersion)
	}
	c, err := recertify(e.Collector, e.Prog)
	if err != nil {
		return nil, fmt.Errorf("psgc: import compiled entry: %w", err)
	}
	return c, nil
}

// recertify links an untrusted elaborated program against the locally
// certified collector and re-verifies it: the collector prefix must render
// identically to this process's own certified blocks (which then replace
// it bit-for-bit), and everything after the prefix is re-run through the
// λGC typechecker. Both the peer cache import and the checkpoint decoder
// funnel through here — nothing deserialized enters the TCB unchecked.
func recertify(col Collector, prog gclang.Program) (*Compiled, error) {
	if col < Basic || col > Generational {
		return nil, fmt.Errorf("unknown collector %v", col)
	}
	v, err := collector.Load(col.Dialect())
	if err != nil {
		return nil, fmt.Errorf("psgc: internal error: %w", err)
	}
	if len(prog.Code) < len(v.Funs) {
		return nil, fmt.Errorf("program has %d code blocks, shorter than the %d-block collector prefix",
			len(prog.Code), len(v.Funs))
	}
	// The trusted prefix is only trusted because it is *ours*: each block
	// must render identically to the locally certified collector's.
	for i, want := range v.Funs {
		got := prog.Code[i]
		if got.Name != want.Name || got.Fun.String() != want.Fun.String() {
			return nil, fmt.Errorf("code block %d (%s) differs from the locally certified collector",
				i, want.Name)
		}
		// Share the local elaborated blocks so the prefix is certified
		// bit-for-bit regardless of how it was serialized.
		prog.Code[i] = want
	}
	checker := &gclang.Checker{Dialect: col.Dialect()}
	elab, _, err := checker.CheckProgramPrefix(prog, len(v.Funs))
	if err != nil {
		return nil, fmt.Errorf("program does not typecheck: %w", err)
	}
	return link(col, v, elab), nil
}
