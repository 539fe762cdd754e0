// Command dfg-serve drives the concurrent evaluation service
// (internal/serve) at configurable concurrency and reports throughput
// plus the pool's aggregated device profile — a load generator for the
// engine-pool + shared-compile-cache architecture, with a live
// introspection endpoint for the pool's metrics and request traces.
//
//	dfg-serve                                  # 8 workers, 16 clients, 2000 requests
//	dfg-serve -workers 4 -clients 32 -n 65536  # smaller pool, bigger fields
//	dfg-serve -distinct 8 -device gpu          # 8 distinct expressions on the GPU model
//	dfg-serve -listen :9090 -linger 1m         # keep /metrics, /healthz, /trace,
//	                                           # /slow up after the load finishes
//	dfg-serve -listen :9090 -requests 0        # no load: serve introspection until
//	                                           # interrupted (or -linger elapses)
//	dfg-serve -slow 5ms                        # log the span tree of any request
//	                                           # slower than 5ms end to end
//	dfg-serve -chaos 7                         # seeded fault injection on every
//	                                           # worker device: flaky transfers,
//	                                           # kernels, allocations, lost devices
//	dfg-serve -batch-window 200us              # batch-forming scheduler: requests
//	                                           # arriving within the window merge
//	                                           # into one super-network evaluation
//	dfg-serve -batch-window 200us -chaos 7     # soak the batch path: a faulting
//	                                           # member degrades its batch to solo
//	                                           # runs, and zero requests may drop
//	dfg-serve -perf-dir perf/                  # persist the per-evaluation perf
//	                                           # database on shutdown; flight dumps
//	                                           # land there on breaker trips/panics
//	dfg-serve -listen :9090 -pprof             # pprof handlers beside /metrics;
//	                                           # /slow lists kept traces (errored,
//	                                           # slow, slowest 5%), /trace/{id}
//	                                           # resolves their IDs
//
// Under -chaos each worker's device gets a deterministic (seeded) fault
// plan; the engines' retry/degradation recovery and the pool's circuit
// breakers absorb the faults, clients resubmit dropped requests a
// bounded number of times, and the run exits non-zero if any request is
// ultimately dropped or any device buffer leaks — the soak test the CI
// chaos-smoke job runs under the race detector.
//
// On SIGINT/SIGTERM the pool shuts down gracefully — queued requests
// drain, metrics freeze — and the final service report (request
// outcomes, latency quantiles, cache effectiveness, per-worker
// utilisation, aggregate device profile) is printed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dfg"
	"dfg/internal/ocl"
	"dfg/internal/serve"
)

func main() {
	var (
		workers   = flag.Int("workers", 8, "pool size: engines / worker goroutines")
		queue     = flag.Int("queue", 0, "queue depth (0 = 2x workers)")
		clients   = flag.Int("clients", 16, "concurrent client goroutines")
		requests  = flag.Int("requests", 2000, "total requests to issue (0 = no load, serve introspection only)")
		n         = flag.Int("n", 16384, "elements per field")
		distinct  = flag.Int("distinct", 4, "number of distinct expressions in the mix")
		device    = flag.String("device", "cpu", "cpu or gpu")
		strat     = flag.String("strategy", "fusion", "execution strategy: roundtrip, staged, fusion, streaming, vm or tiered[@N]")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		listen    = flag.String("listen", "", "serve /metrics, /healthz, /trace and /slow on this address (empty = off)")
		linger    = flag.Duration("linger", 0, "keep the introspection endpoint up this long after the load completes")
		slow      = flag.Duration("slow", 0, "slow-request threshold: log the full span tree of slower requests (0 = off)")
		traceKeep = flag.Int("trace-keep", 64, "recent (/trace) and kept (/slow) request traces retained, each ring (negative disables tracing)")
		perfDir   = flag.String("perf-dir", "", "perf-database directory: write the per-evaluation record snapshot on shutdown and flight dumps on failures (empty = off)")
		pprofOn   = flag.Bool("pprof", false, "mount /debug/pprof/ on the introspection endpoint")

		batchWindow = flag.Duration("batch-window", 0, "batch-forming window: requests arriving within it merge into one super-network evaluation (0 = batching off)")
		batchMax    = flag.Int("batch-max", 16, "members per batch before an early flush (with -batch-window)")

		chaosSeed    = flag.Int64("chaos", 0, "seed per-worker fault injection (0 = off): probabilistic transfer/kernel/allocation faults and occasional device loss")
		chaosProb    = flag.Float64("chaos-prob", 0.02, "per-operation fault probability under -chaos")
		chaosLost    = flag.Float64("chaos-lost", 0.002, "per-operation device-loss probability under -chaos")
		chaosRetries = flag.Int("chaos-retries", 10, "client resubmits before a request counts as dropped under -chaos")
	)
	flag.Parse()

	kind := dfg.CPU
	if *device == "gpu" {
		kind = dfg.GPU
	} else if *device != "cpu" {
		fmt.Fprintf(os.Stderr, "dfg-serve: unknown device %q\n", *device)
		os.Exit(2)
	}

	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Device:         kind,
		Strategy:       *strat,
		DefaultTimeout: *timeout,
		TraceKeep:      *traceKeep,
		SlowThreshold:  *slow,
		PerfDir:        *perfDir,
		EnablePprof:    *pprofOn,
		BatchWindow:    *batchWindow,
		BatchMax:       *batchMax,
	}
	if *chaosSeed != 0 {
		seed, prob, lost := *chaosSeed, *chaosProb, *chaosLost
		cfg.FaultPlanFor = func(worker int) *ocl.FaultPlan {
			// Deterministic per worker for a given seed: a failing soak is
			// reproducible by rerunning with the same -chaos value.
			return ocl.NewFaultPlan(seed+int64(worker)).
				FailEvery(ocl.FaultAlloc, prob).
				FailEvery(ocl.FaultWrite, prob).
				FailEvery(ocl.FaultRead, prob).
				FailEvery(ocl.FaultKernel, prob).
				LoseDeviceEvery(lost)
		}
		// Short cooldown so tripped devices probe (and heal) within the
		// soak's lifetime.
		cfg.BreakerCooldown = 10 * time.Millisecond
	}
	pool, err := serve.NewPool(cfg)
	if err != nil {
		fatal(err)
	}

	// Graceful shutdown: the first signal stops issuing load and begins
	// the drain; the pool still answers every accepted request.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *listen != "" {
		addr, shutdown, err := pool.ListenAndServe(*listen)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Printf("dfg-serve: introspection endpoint on http://%s (/metrics /healthz /trace /slow)\n", addr)
	}

	// A definition in the mix shows the shared database: every worker
	// sees it, and the cache fingerprints it into the keys.
	if err := pool.Define("vmag2", "u*u + v*v + w*w"); err != nil {
		fatal(err)
	}
	exprs := make([]string, *distinct)
	for i := range exprs {
		// Distinct programs (different constants) so the cache holds
		// `distinct` entries; each is hot across all clients.
		exprs[i] = fmt.Sprintf("r = sqrt(vmag2) + %d.0 * w", i)
	}

	var failures atomic.Int64
	start := time.Now()
	if *requests > 0 {
		inputs := syntheticInputs(*n)
		fmt.Printf("dfg-serve: %d workers (%s, %s), %d clients, %d requests, %d distinct expressions, n=%d\n",
			*workers, *device, *strat, *clients, *requests, *distinct, *n)
		if *batchWindow > 0 {
			// The expression mix deliberately overlaps — every member shares
			// the sqrt(vmag2) subtree — so merged batches exercise
			// cross-expression CSE, visible as CSE-shared nodes in the report.
			fmt.Printf("dfg-serve: batch forming on: window=%v max=%d\n", *batchWindow, *batchMax)
		}

		var issued atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := issued.Add(1)
					if i > int64(*requests) {
						return
					}
					req := serve.Request{
						Expr:   exprs[(int(i)+c)%len(exprs)],
						N:      *n,
						Inputs: inputs,
					}
					_, err := pool.Submit(ctx, req)
					// Under chaos, individual failures are expected (retries
					// exhausted, breaker cooling): the client resubmits a
					// bounded number of times and only an exhausted budget
					// counts as a dropped request.
					for a := 0; err != nil && *chaosSeed != 0 && a < *chaosRetries && ctx.Err() == nil; a++ {
						_, err = pool.Submit(ctx, req)
					}
					if err != nil {
						failures.Add(1)
						if ctx.Err() == nil && *chaosSeed == 0 {
							fmt.Fprintf(os.Stderr, "dfg-serve: request %d: %v\n", i, err)
						}
					}
				}
			}()
		}
		wg.Wait()
	} else if *listen == "" {
		fmt.Fprintln(os.Stderr, "dfg-serve: -requests 0 without -listen does nothing")
		os.Exit(2)
	}
	elapsed := time.Since(start)

	// Hold the introspection endpoint up for scrapes, until the linger
	// window elapses or a signal arrives. With no load configured (and
	// no linger bound) serve until interrupted.
	if *listen != "" && ctx.Err() == nil {
		switch {
		case *linger > 0:
			fmt.Printf("dfg-serve: load complete; endpoint up for %v more (^C to stop)\n", *linger)
			select {
			case <-ctx.Done():
			case <-time.After(*linger):
			}
		case *requests == 0:
			fmt.Println("dfg-serve: serving until interrupted (^C to stop)")
			<-ctx.Done()
		}
	}

	// Drain and flush: every accepted request answers, then counters
	// and traces freeze for the final report.
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	if ctx.Err() != nil {
		fmt.Println("\ndfg-serve: interrupted, pool drained")
	}

	st := pool.Stats()
	fmt.Printf("\n%-28s %v\n", "wall time:", elapsed.Round(time.Millisecond))
	if elapsed > 0 && st.Served > 0 {
		fmt.Printf("%-28s %.0f req/s\n", "throughput:", float64(st.Served)/elapsed.Seconds())
	}
	pool.Report(os.Stdout)
	if *chaosSeed != 0 {
		// Soak verdict: every request must land despite the injected
		// faults, and the drained pool must hold zero device buffers.
		dropped := failures.Load()
		leaked := pool.LiveBuffers()
		fmt.Printf("%-28s seed=%d dropped=%d leaked-buffers=%d rerouted=%d rebuilds=%d\n",
			"chaos:", *chaosSeed, dropped, leaked, st.Rerouted, st.Restarts)
		if ctx.Err() == nil && (dropped > 0 || leaked != 0) {
			// Leave a postmortem: the final requests' span trees and
			// recent perf records.
			if path := pool.DumpFlight("chaos-soak-failure"); path != "" {
				fmt.Fprintf(os.Stderr, "dfg-serve: flight dump written to %s\n", path)
			}
			fmt.Fprintln(os.Stderr, "dfg-serve: chaos soak FAILED")
			os.Exit(1)
		}
	}
	if *perfDir != "" {
		fmt.Printf("%-28s %d records flushed to %s\n", "perf database:",
			pool.PerfRecorder().Recorded(), *perfDir)
	}
	if failures.Load() > 0 && ctx.Err() == nil {
		os.Exit(1)
	}
}

// syntheticInputs builds deterministic u/v/w fields.
func syntheticInputs(n int) map[string][]float32 {
	u := make([]float32, n)
	v := make([]float32, n)
	w := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = float32(i%17) * 0.25
		v[i] = float32(i%13) - 6
		w[i] = float32(i%29) * 0.125
	}
	return map[string][]float32{"u": u, "v": v, "w": w}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfg-serve:", err)
	os.Exit(1)
}
