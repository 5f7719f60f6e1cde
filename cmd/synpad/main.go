// Command synpad is the placement-as-a-service daemon: it loads a trained
// interference model once at startup and answers thread-to-core placement
// queries over HTTP on the reentrant policy path (internal/serve).
//
// Usage:
//
//	synpa-train -out model.json
//	synpad -model model.json                 # serve the trained model
//	synpad -paper -addr 127.0.0.1:8787      # serve the paper's Table IV model
//	synpad -model model.json -shared-cache  # one inversion memo across all requests
//
// Endpoints:
//
//	POST /v1/place        one JSON placement query -> placement + predicted
//	                      per-app degradations
//	POST /v1/place/batch  JSONL stream of queries -> JSONL stream of
//	                      answers, one per non-empty line, in order
//	POST /v1/model        hot-swap the serving model atomically; in-flight
//	                      requests finish on the old one, none are dropped
//	GET  /v1/stats        serving generation, cache traffic, metrics
//	                      registry snapshot
//	GET  /healthz         liveness + current generation
//
// The daemon announces its bound address on stdout ("synpad: listening on
// ADDR") — with -addr 127.0.0.1:0 that line is how scripts learn the port.
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight requests
// finish, and the process exits when drained or at -drain.
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

	"synpa/internal/core"
	"synpa/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8787", "listen address (port 0 picks a free port; see the stdout announcement)")
		modelPath = flag.String("model", "", "trained model JSON (synpa-train -out); required unless -paper")
		paper     = flag.Bool("paper", false, "serve the paper's published Table IV coefficients instead of a trained model file")
		shared    = flag.Bool("shared-cache", false, "one concurrent inversion memo across all in-flight requests; without it every query inverts directly (bit-identical by construction)")
		maxConc   = flag.Int("max-concurrent", 0, "placement requests decided at once before 503 (0 = 4x GOMAXPROCS)")
		maxReq    = flag.Int64("max-request-bytes", 0, "per-request (and per-batch-line) body limit (0 = 1 MiB)")
		maxBatch  = flag.Int64("max-batch-bytes", 0, "whole batch-stream body limit (0 = 64 MiB)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	)
	flag.Parse()

	var model *core.Model
	switch {
	case *paper && *modelPath != "":
		fatal(fmt.Errorf("-model and -paper are mutually exclusive"))
	case *paper:
		model = core.PaperCoefficients()
	case *modelPath != "":
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		model, err = core.ReadModelJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("no model: pass -model model.json (from synpa-train -out) or -paper"))
	}

	srv, err := serve.New(model, serve.Config{
		SharedCache:     *shared,
		MaxConcurrent:   *maxConc,
		MaxRequestBytes: *maxReq,
		MaxBatchBytes:   *maxBatch,
		DrainTimeout:    *drain,
	})
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synpad: listening on %s\n", l.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sigs
		fmt.Println("synpad: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	if err := <-done; err != nil {
		fatal(err)
	}
	fmt.Println("synpad: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "synpad:", err)
	os.Exit(1)
}
