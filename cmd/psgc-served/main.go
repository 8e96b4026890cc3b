// Command psgc-served serves the certified-GC compile-and-run pipeline
// over HTTP: a bounded worker pool in front of psgc.Compile / Run /
// Interpret, with a compiled-program LRU and the process-wide
// verified-collector cache behind it. See internal/service and the
// "Compile-and-run service" section of README.md for the endpoints and
// request/response JSON.
//
// Usage:
//
//	psgc-served [flags]
//
// Flags:
//
//	-addr :8372           listen address
//	-workers N            worker pool size (default 4)
//	-queue N              queue depth before load-shedding with 429 (default 64)
//	-cache N              compiled-program LRU entries (default 128)
//	-capacity N           default region capacity for /run (default 64)
//	-fuel N               default machine step budget (default 50M)
//	-steps-per-ms N       deadline_ms -> fuel conversion rate (default 25000)
//	-debug-addr addr      serve net/http/pprof on a separate listener (off by default)
//	-cocheck-sample F     fraction of env-engine runs co-checked against the oracle (default 0)
//	-watchdog-ms N        per-run wall-clock stall budget; 0 disables (default 0)
//	-shed-threshold F     queue fraction at which trace/stream requests are shed (default 0.75, negative disables)
//	-chaos spec           install fault injection, e.g. "worker.latency=0.1:5ms,machine.corrupt=0.01"
//	-chaos-seed N         deterministic seed for the chaos registry (default 1)
//	-engine name          default /run execution engine: "env" or "subst" (default env)
//	-backend name         default /run memory substrate: "map" or "arena" (default map)
//	-policy name          default /run collector policy: "static" or "adaptive" (default static)
//	-profile-cap N        program-profile store capacity in source hashes (default 1024)
//	-peer url             gate peer-fetch endpoint for the fleet cache tier (off by default)
//	-self url             this node's advertised base URL, excluded from its own peer fetches
//	-batch-max N          max items per /batch request (default 256)
//	-incident-dir dir     persist the incident log as <dir>/incidents.jsonl, replayed on boot (off by default)
//	-snapshot-wait-ms N   how long POST /snapshot waits for a progress tick (default 2000)
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psgc"
	"psgc/internal/fault"
	"psgc/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psgc-served: ")

	var (
		addr        = flag.String("addr", ":8372", "listen address")
		workers     = flag.Int("workers", 4, "worker pool size")
		queue       = flag.Int("queue", 64, "queue depth before requests are shed with 429")
		cacheSize   = flag.Int("cache", 128, "compiled-program LRU capacity (entries)")
		cacheWeight = flag.Int("cache-weight", 0, "compiled-program LRU weight budget in AST nodes (0 = default 512k, negative disables)")
		capacity    = flag.Int("capacity", 64, "default region capacity for /run")
		fuel        = flag.Int("fuel", psgc.DefaultFuel, "default machine step budget")
		stepsPerMs  = flag.Int("steps-per-ms", 25_000, "fuel granted per millisecond of request deadline")
		drainWindow = flag.Duration("drain", 30*time.Second, "graceful shutdown window")
		debugAddr   = flag.String("debug-addr", "", "listen address for net/http/pprof (e.g. localhost:6060; empty disables)")

		cocheckSample = flag.Float64("cocheck-sample", 0, "fraction of env-engine runs co-checked against the substitution oracle (0 disables, 1 checks every run)")
		watchdogMs    = flag.Int("watchdog-ms", 0, "per-run wall-clock stall budget in milliseconds (0 disables)")
		shedThreshold = flag.Float64("shed-threshold", 0, "queue fraction at which trace/stream requests are shed (0 = default 0.75, negative disables)")
		chaosSpec     = flag.String("chaos", "", `fault-injection spec, "point=prob[:delay],..." (e.g. "worker.latency=0.1:5ms,machine.corrupt=0.01")`)
		chaosSeed     = flag.Int64("chaos-seed", 1, "deterministic seed for the chaos registry")

		engine     = flag.String("engine", "env", `default execution engine for /run: "env" or "subst"`)
		backend    = flag.String("backend", "map", `default memory substrate for /run: "map" or "arena"`)
		defPolicy  = flag.String("policy", "static", `default collector policy for /run: "static" or "adaptive"`)
		profileCap = flag.Int("profile-cap", 0, "program-profile store capacity in source hashes (0 = default 1024)")
		peerURL    = flag.String("peer", "", "gate peer-fetch endpoint for the fleet cache tier (e.g. http://gate:8371/peer/fetch; empty disables)")
		peerSelf   = flag.String("self", "", "this node's advertised base URL, so the gate skips it on peer fetches")
		batchMax   = flag.Int("batch-max", 0, "max items per /batch request (0 = default 256)")

		incidentDir  = flag.String("incident-dir", "", "directory for the persistent incident log (<dir>/incidents.jsonl, replayed on boot; empty keeps incidents in memory)")
		snapshotWait = flag.Int("snapshot-wait-ms", 0, "how long POST /snapshot waits for the run's next progress tick (0 = default 2000)")
	)
	flag.Parse()

	if *chaosSpec != "" {
		reg, err := fault.ParseSpec(*chaosSpec, *chaosSeed)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		fault.Install(reg)
		log.Printf("chaos registry installed (seed %d): %s", *chaosSeed, *chaosSpec)
	}

	// pprof goes on its own listener (typically bound to localhost) so
	// profiling endpoints are never exposed on the service port.
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugServer := &http.Server{Addr: *debugAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			if err := debugServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	svc := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		CacheWeight:     *cacheWeight,
		Capacity:        *capacity,
		DefaultFuel:     *fuel,
		StepsPerMilli:   *stepsPerMs,
		CoCheckSample:   *cocheckSample,
		WatchdogMs:      *watchdogMs,
		ShedThreshold:   *shedThreshold,
		DefaultEngine:   *engine,
		DefaultBackend:  *backend,
		DefaultPolicy:   *defPolicy,
		ProfileCapacity: *profileCap,
		PeerFetchURL:    *peerURL,
		PeerSelf:        *peerSelf,
		MaxBatchItems:   *batchMax,
		IncidentDir:     *incidentDir,
		SnapshotWaitMs:  *snapshotWait,
	})
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	log.Printf("listening on %s (workers=%d queue=%d cache=%d)", *addr, *workers, *queue, *cacheSize)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down (%s drain window)", *drainWindow)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWindow)
	defer cancel()
	// Drain the service before the listener: svc.Shutdown flips /healthz to
	// shutting_down, and the listener must still be accepting so a fronting
	// gate can see the drain and POST /snapshot to migrate in-flight
	// streaming runs to a peer (which is also what frees their workers).
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Printf("worker pool shutdown: %v", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
}
