package service

// The backend half of the fleet's shared compiled-program cache tier.
//
// Compiles are deterministic and keyed by (source hash, collector), so any
// node's compiled entry is as good as any other's. When this node misses
// its local cache it asks the gate's peer-fetch endpoint whether a sibling
// already paid the compile; the gate answers with the sibling's exported
// entry, which this node re-certifies through the λGC typechecker before
// running (psgc.ImportCompiled). The reverse direction is GET /cache/export,
// which serves this node's own entries to the rest of the fleet.

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"time"

	"psgc"
	"psgc/internal/obs"
)

// peerClient fetches compiled entries through the fleet gate.
type peerClient struct {
	url    string // the gate's peer-fetch endpoint
	self   string // this node's identity, so the gate skips the requester
	client *http.Client
}

// maxPeerEntryBytes bounds an imported payload; an entry bigger than this
// is cheaper to recompile than to ship.
const maxPeerEntryBytes = 64 << 20

// SetPeerFetch points the server at a gate peer-fetch endpoint (empty url
// disables). Safe to call at any time; typically once at startup, or by
// tests that construct the gate after its backends.
func (s *Server) SetPeerFetch(url, self string) {
	if url == "" {
		s.peer.Store(nil)
		return
	}
	s.peer.Store(&peerClient{
		url:    url,
		self:   self,
		client: &http.Client{Timeout: time.Duration(s.cfg.PeerTimeoutMs) * time.Millisecond},
	})
}

// peerFetch asks the gate for a sibling's compiled entry. It reports
// (nil, false) on any failure — peer fetching is strictly an optimization,
// so every error path falls back to compiling locally.
func (s *Server) peerFetch(hash string, col psgc.Collector) (*psgc.Compiled, bool) {
	pc := s.peer.Load()
	if pc == nil {
		return nil, false
	}
	q := url.Values{}
	q.Set("hash", hash)
	q.Set("collector", col.String())
	if pc.self != "" {
		q.Set("exclude", pc.self)
	}
	resp, err := pc.client.Get(pc.url + "?" + q.Encode())
	if err != nil {
		s.metrics.PeerMisses.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.metrics.PeerMisses.Add(1)
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes))
	if err != nil {
		s.metrics.PeerMisses.Add(1)
		return nil, false
	}
	c, err := psgc.ImportCompiled(data)
	if err != nil {
		// A payload that fails the certifying import counts separately:
		// it means a peer (or the wire) handed us something broken, which
		// is an incident-worthy signal, not a routine miss.
		s.metrics.PeerImportErrors.Add(1)
		s.guard.incidents.Record(obs.Incident{
			Kind: "peer_import_rejected", Subject: hash,
			Detail: fmt.Sprintf("collector %s: %v", col, err),
		})
		return nil, false
	}
	if c.Collector != col {
		s.metrics.PeerImportErrors.Add(1)
		return nil, false
	}
	s.metrics.PeerHits.Add(1)
	return c, true
}

// handleCacheExport serves one compiled entry to the fleet:
// GET /cache/export?hash=<hex sha256>&collector=<name>. 404 on a miss; the
// lookup does not touch SLRU recency, so peer traffic cannot promote or
// demote entries.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeResponse(w, &response{status: http.StatusMethodNotAllowed,
			body: errorBody{Error: "use GET"}})
		return
	}
	col, err := psgc.ParseCollector(cmp.Or(r.URL.Query().Get("collector"), psgc.Basic.String()))
	if err != nil {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: err.Error()}})
		return
	}
	var k cacheKey
	raw, err := hex.DecodeString(r.URL.Query().Get("hash"))
	if err != nil || len(raw) != len(k.hash) {
		s.writeResponse(w, &response{status: http.StatusBadRequest,
			body: errorBody{Error: "hash must be a hex sha256"}})
		return
	}
	copy(k.hash[:], raw)
	k.col = col
	c, ok := s.cache.peek(k)
	if !ok {
		s.writeResponse(w, &response{status: http.StatusNotFound,
			body: errorBody{Error: "no compiled entry for that key"}})
		return
	}
	data, err := c.Export()
	if err != nil {
		s.writeResponse(w, &response{status: http.StatusInternalServerError,
			body: errorBody{Error: "export: " + err.Error()}})
		return
	}
	s.metrics.PeerExports.Add(1)
	s.countOutcome(http.StatusOK)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Psgc-Source-Hash", r.URL.Query().Get("hash"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// buildInfo reports what this binary is, for /healthz: the Go toolchain
// and, when the binary was built from a VCS checkout, the revision.
func buildInfo() map[string]any {
	out := map[string]any{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Path != "" {
		out["module"] = bi.Main.Path
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev := kv.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			out["revision"] = rev
		case "vcs.modified":
			out["dirty"] = kv.Value == "true"
		}
	}
	return out
}
