// Command tvpd is the simulation-as-a-service daemon: a long-running
// HTTP server that answers "workload × machine config" questions with
// tvp.obs.run/v2 RunRecords, doing the minimum simulation work by
// resolving every request through a two-tier result store (in-memory
// singleflight cache + optional persistent on-disk store shared between
// processes pointed at the same -store-dir).
//
// Endpoints:
//
//	POST /v1/run    one point  -> one RunRecord (JSON)
//	POST /v1/sweep  point grid -> NDJSON stream, one RunRecord per line
//	GET  /v1/status health, pool shape, cache/store/coalescing counters
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests get -drain to finish (their simulations keep
// running), then the worker pool is drained and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free port)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty: memory-only)")
	workers := flag.Int("j", 0, "simulation worker pool size (0: NumCPU)")
	queue := flag.Int("queue", 64, "bounded job queue depth; full queue applies backpressure")
	drain := flag.Duration("drain", 30*time.Second, "grace period for in-flight requests on shutdown")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "tvpd: unexpected arguments:", flag.Args())
		return 2
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tvpd:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tvpd: store %s (%d records)\n", st.Dir(), st.Len())
	}

	srv := serve.New(serve.Config{Workers: *workers, Queue: *queue, Store: st})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpd:", err)
		return 1
	}
	// The resolved address line is the readiness handshake for wrappers
	// (make serve-smoke, the process-level tests): parseable, on stderr,
	// before the first request can be accepted... keep the format stable.
	fmt.Fprintf(os.Stderr, "tvpd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "tvpd:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills immediately

	fmt.Fprintln(os.Stderr, "tvpd: draining")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// Grace period expired: force-close connections; request contexts
		// cancel, which stops in-flight runs from inside the cycle loop.
		hs.Close()
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "tvpd: drained")
	return 0
}
