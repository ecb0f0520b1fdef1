// Command linearsimd serves the scenario registry over HTTP/JSON: a
// long-running daemon with a content-addressed result cache, request
// coalescing, a bounded engine worker pool, and a chaos-campaign job
// store (internal/serve, internal/campaign). Because every run is a
// pure function of its Spec, a cache hit replays the byte-identical
// response of the original run — and a campaign, built from such runs,
// is itself deterministic and resumable.
//
// Endpoints:
//
//	POST   /v1/run             {"scenario","n","t","seed"[,"fault",...]} → {"key","report"}
//	POST   /v1/sweep           {"scenario","seed","points":[{"n","t"},...]} → per-point envelopes
//	GET    /v1/scenarios       the registry
//	POST   /v1/campaigns       campaign spec → async job (202), idempotent by content address
//	GET    /v1/campaigns       job listing
//	GET    /v1/campaigns/{id}  job progress; frontier artifact once done
//	DELETE /v1/campaigns/{id}  cancel a running campaign (checkpointed, resumable)
//	GET    /healthz            liveness: the process serves HTTP (reports drain state)
//	GET    /readyz             readiness: 503 during startup and shutdown drain
//	GET    /metrics            cache / coalescer / queue / campaign / engine / request metrics, Prometheus text
//
// Observability: -log-format json emits one structured line per request
// (method, path, run key, cache verdict, status, duration); -pprof-addr
// serves net/http/pprof on a separate, explicitly opted-in listener so
// profiling never shares the public port.
//
// On SIGTERM the daemon flips not-ready, stops the listener, drains
// running campaigns to checkpoints, and writes them to the -state file;
// the next start restores the file and resumes interrupted campaigns.
//
// Example:
//
//	linearsimd -addr 127.0.0.1:8372 -workers 4 -state /var/lib/linearsimd/jobs.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"lineartime/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "linearsimd:", err)
		os.Exit(1)
	}
}

// accessLine is one -log-format json record: enough to reconstruct a
// request's path through the cache without grepping free text.
type accessLine struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Key        string  `json:"key,omitempty"`
	Cache      string  `json:"cache,omitempty"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
}

// accessLogger maps -log-format onto a serve.Config.AccessLog sink:
// "text" keeps the default (no per-request logging), "json" emits one
// line per request on w.
func accessLogger(format string, w io.Writer) (func(serve.AccessRecord), error) {
	switch format {
	case "text", "":
		return nil, nil
	case "json":
		var mu sync.Mutex
		enc := json.NewEncoder(w)
		return func(r serve.AccessRecord) {
			// The sink is called from concurrent handlers; the encoder
			// buffers internally and is not safe to share unlocked.
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(accessLine{
				Time:       time.Now().UTC().Format(time.RFC3339Nano),
				Method:     r.Method,
				Path:       r.Path,
				Key:        r.Key,
				Cache:      r.Cache,
				Status:     r.Status,
				DurationMS: float64(r.Duration) / float64(time.Millisecond),
			})
		}, nil
	default:
		return nil, fmt.Errorf(`lineartime: -log-format %q is not "text" or "json"`, format)
	}
}

// Connection timeouts of the service listener. A client that connects
// and never finishes its request headers, or parks an idle keep-alive
// connection, is dropped instead of holding a goroutine and a file
// descriptor forever. There is deliberately no WriteTimeout (and so no
// whole-request ReadTimeout): runs, sweeps and campaign posts are
// legitimately long, and a write deadline would cut their responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the service's http.Server around h.
func newHTTPServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

// run parses args, binds the listen address, and serves until a
// termination signal. A non-nil ready channel receives the bound
// address once the server is listening (used by tests to grab an
// ephemeral port).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("linearsimd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8372", "listen address")
		workers    = fs.Int("workers", 0, "engine workers (0 = default)")
		queueDepth = fs.Int("queue", 0, "job queue capacity (0 = 4x workers); a full queue rejects with 429")
		cacheBytes = fs.Int64("cache-bytes", 0, "result cache budget in bytes (0 = 64 MiB)")
		shards     = fs.Int("cache-shards", 0, "result cache shard count (0 = 16)")
		maxJobs    = fs.Int("max-jobs", 0, "campaign job store capacity (0 = 8)")
		statePath  = fs.String("state", "", "campaign state file: restored on start, written on graceful shutdown")
		logFormat  = fs.String("log-format", "text", "request log format: text or json (one structured line per request)")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; %s takes flags only", fs.Arg(0), fs.Name())
	}
	accessLog, err := accessLogger(*logFormat, os.Stdout)
	if err != nil {
		return err
	}

	srv := serve.New(serve.Config{
		CacheBytes:  *cacheBytes,
		CacheShards: *shards,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		MaxJobs:     *maxJobs,
		AccessLog:   accessLog,
	})
	defer srv.Close()

	// pprof is opt-in and on its own listener: the public mux never
	// exposes profiling, and a firewalled pprof port cannot be reached
	// through the service address.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("linearsimd: pprof on http://%s/debug/pprof/", pln.Addr())
		go http.Serve(pln, pmux)
		defer pln.Close()
	}

	// Restore before listening so resumed campaigns are already
	// running (and queryable) when the first request lands.
	if *statePath != "" {
		if err := srv.RestoreJobs(*statePath); err != nil {
			return fmt.Errorf("restore campaign state: %w", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler(), readHeaderTimeout, idleTimeout)
	log.Printf("linearsimd: serving on http://%s", ln.Addr())
	srv.SetReady(true)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("linearsimd: %v, shutting down", sig)
		// Drain order: mark the drain (readiness gate closes, /healthz
		// and the serve_draining gauge report it), stop accepting
		// connections, interrupt running campaigns to checkpoints, then
		// persist them. srv.Close (deferred) waits the drain again —
		// idempotently — before closing the worker pool.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		srv.DrainJobs()
		if *statePath != "" {
			if err := srv.SaveJobs(*statePath); err != nil {
				return fmt.Errorf("save campaign state: %w", err)
			}
			log.Printf("linearsimd: campaign state saved to %s", *statePath)
		}
		return nil
	}
}
