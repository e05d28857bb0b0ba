// psserve is the topology-evaluation daemon: the simulator behind an
// HTTP/JSON API (package serve). Endpoints:
//
//	POST /v1/eval        evaluate a (spec, routing, pattern, load, seed,
//	                     fault-plan) point; repeats replay from the
//	                     content-addressed artifact cache (X-Cache: hit)
//	GET  /v1/runs/{id}   poll an async evaluation by its key
//	GET  /v1/cache/stats cache + admission counters
//	GET  /healthz        liveness (503 while draining)
//
// SIGINT/SIGTERM drains gracefully: the listener stops, in-flight runs
// finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polarstar/internal/cli"
	"polarstar/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0: GOMAXPROCS)")
	queue := flag.Int("queue", 0, "pending-evaluation queue depth (0: 4x workers)")
	cacheMB := flag.Int64("cache-mb", 64, "artifact cache budget in MiB")
	runTimeout := flag.Duration("run-timeout", 120*time.Second, "per-evaluation deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline for open connections")
	flag.Parse()

	svc := serve.New(serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: *cacheMB << 20,
		RunTimeout: *runTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal(err)
	}
	// The parse target of the smoke tests: the resolved address, so
	// callers can bind port 0 and discover the port.
	fmt.Printf("psserve: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		cli.Fatal(err)
	case <-ctx.Done():
	}

	// Drain order: stop accepting connections first, then let the
	// service finish queued work — requests admitted before the
	// listener closed still get their answer.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		cli.Fatal(err)
	}
	svc.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Fatal(err)
	}
	st := svc.Stats()
	fmt.Printf("psserve: drained (requests=%d cache_hits=%d cache_misses=%d shed=%d builds=%d)\n",
		st.Requests, st.CacheHits, st.CacheMisses, st.Shed, st.Builds)
}
