// Command rtrbenchd runs the RTRBench suite engine as a long-lived batched
// benchmark service.
//
// Clients submit sweep requests over HTTP/JSON; the daemon coalesces them
// into batches on a bounded queue, executes them on the shared rtrbench
// engine, and stores finished runs content-addressed by their golden
// digest, so a repeat submission is served from the store without
// re-executing anything.
//
//	POST /v1/jobs            submit a job (202 queued, 200 cache hit,
//	                         429 queue full or rate limited, 503 draining)
//	GET  /v1/jobs/{id}       poll a job; ?wait=30s blocks until done
//	GET  /v1/results/{d}     fetch a stored result by content address
//	GET  /healthz            liveness probe (200 while the process serves)
//	GET  /readyz             readiness probe (503 while replaying the WAL
//	                         or draining)
//	GET  /metrics            queue/batch/cache gauges + suite counters
//	GET  /debug/pprof/       live profiling
//
// A job body with a "stream" block runs in streaming mode instead of a
// batch sweep: the named kernel executes as a periodic real-time task
// (period/deadline/duration) and the result carries per-tick deadline-miss
// accounting. Stream jobs must be wall-time bounded below -job-timeout and
// bypass the result cache — timing measurements are not content-
// addressable answers — while /metrics exposes their live
// rtrbench_stream_* counters as they run.
//
// With -data set, the result store is backed by a checksummed write-ahead
// log in that directory: a kill -9 restart replays it (torn tails
// truncated, never fatal) and the digest cache survives. Per-client
// fairness (-client-rate, -client-capacity) keeps one flooding tenant
// from starving the rest, and the job watchdog (-job-timeout,
// -max-attempts) cancels wedged executors and retries with backoff.
//
// SIGTERM and SIGINT drain gracefully: new submissions are rejected with
// 503 while everything already admitted runs to completion and stays
// pollable; the process exits once the queue is empty.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/durable"
)

func main() {
	fs := flag.NewFlagSet("rtrbenchd", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:6061", "host:port to listen on (port 0 picks a free port)")
		addrFile = fs.String("addrfile", "", "write the bound base URL to this file once listening (for port 0)")
		capacity = fs.Int("capacity", 64, "queued jobs admitted before submissions get 429")
		batch    = fs.Int("batch", 4, "jobs per batch (a full batch flushes immediately)")
		maxWait  = fs.Duration("maxwait", 50*time.Millisecond, "flush a partial batch this long after its first job")
		workers  = fs.Int("workers", 1, "concurrent batch executors")
		parallel = fs.Int("parallel", runtime.NumCPU(), "kernels running concurrently within one job")
		cache    = fs.Int("cache", 256, "result-store entries kept (content-addressed, FIFO eviction)")
		drainFor = fs.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight jobs")

		dataDir    = fs.String("data", "", "directory for the result-store write-ahead log (empty: in-memory only)")
		fsyncMode  = fs.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
		fsyncEvery = fs.Duration("fsync-every", 100*time.Millisecond, "flush cadence for -fsync=interval")
		snapEvery  = fs.Int("snapshot-every", 64, "compact the WAL behind a snapshot every this many stored results")

		clientRate  = fs.Float64("client-rate", 0, "per-client admitted jobs per second (0: unlimited)")
		clientBurst = fs.Int("client-burst", 0, "per-client token-bucket burst (0: max(1, client-rate))")
		clientCap   = fs.Int("client-capacity", 0, "queued jobs one client may hold (0: whole queue)")

		jobTimeout  = fs.Duration("job-timeout", 0, "per-job execution budget enforced by the watchdog (0: none)")
		maxAttempts = fs.Int("max-attempts", 1, "executor attempts per job before it fails terminally")
		retryBack   = fs.Duration("retry-backoff", 100*time.Millisecond, "base requeue backoff after a transient failure")

		maxBody     = fs.Int64("max-body", 1<<20, "largest accepted request body in bytes")
		jobTTL      = fs.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay pollable by ID")
		jobIndexMax = fs.Int("job-index-max", 1024, "most job records kept in the poll index")
	)
	// Accepted and ignored: existing start scripts still pass -ledger.
	fs.String("ledger", "", "ignored; accepted so existing start scripts still parse")
	_ = fs.Parse(os.Args[1:])

	log.SetPrefix("rtrbenchd: ")
	log.SetFlags(0)

	fsyncPolicy, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}

	s, err := newServer(config{
		addr:         *addr,
		capacity:     *capacity,
		batchSize:    *batch,
		maxWait:      *maxWait,
		workers:      *workers,
		parallel:     *parallel,
		cacheEntries: *cache,

		dataDir:       *dataDir,
		fsync:         fsyncPolicy,
		fsyncEvery:    *fsyncEvery,
		snapshotEvery: *snapEvery,

		clientRate:     *clientRate,
		clientBurst:    *clientBurst,
		clientCapacity: *clientCap,
		jobTimeout:     *jobTimeout,
		maxAttempts:    *maxAttempts,
		retryBackoff:   *retryBack,

		maxBody:     *maxBody,
		jobTTL:      *jobTTL,
		jobIndexMax: *jobIndexMax,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (batch=%d maxwait=%v capacity=%d workers=%d)",
		s.debug.URL, *batch, *maxWait, *capacity, *workers)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(s.debug.URL+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining: new submissions get 503, in-flight jobs run to completion")
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := s.shutdown(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained cleanly")
}
