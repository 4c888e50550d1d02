package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/golden"
	"repro/internal/jobqueue"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/rtrbench"
)

// config is the server's construction-time configuration (see main for the
// flag defaults).
type config struct {
	addr         string
	capacity     int
	batchSize    int
	maxWait      time.Duration
	workers      int
	parallel     int
	cacheEntries int

	// Durability: dataDir == "" keeps the result store in-memory; otherwise
	// it is backed by a write-ahead log under dataDir, replayed on startup.
	dataDir       string
	fsync         durable.FsyncPolicy
	fsyncEvery    time.Duration
	snapshotEvery int

	// Fairness and watchdog knobs, mapped straight onto jobqueue.Options.
	clientRate     float64
	clientBurst    int
	clientCapacity int
	jobTimeout     time.Duration
	abandonGrace   time.Duration
	maxAttempts    int
	retryBackoff   time.Duration

	// HTTP hardening.
	maxBody int64

	// Job-index bounding: terminal jobs are evicted after jobTTL, and the
	// index never holds more than jobIndexMax records.
	jobTTL      time.Duration
	jobIndexMax int
}

// withDefaults fills the zero-config values newServer relies on.
func (c config) withDefaults() config {
	if c.parallel <= 0 {
		c.parallel = runtime.NumCPU()
	}
	if c.maxBody <= 0 {
		c.maxBody = 1 << 20
	}
	if c.jobTTL <= 0 {
		c.jobTTL = 15 * time.Minute
	}
	if c.jobIndexMax <= 0 {
		c.jobIndexMax = 1024
	}
	return c
}

// jobOutcome is what the executor hands back through the queue: the job's
// content address and its serialized result document.
type jobOutcome struct {
	digest string
	doc    []byte
}

// jobRecord is the server-side state of one submitted job. A cache hit
// completes at admission (job is nil, digest/doc filled in); everything
// else carries its queue handle.
type jobRecord struct {
	id     string
	reqKey string
	opts   rtrbench.SuiteOptions

	// stream, when non-nil, marks a streaming job: execBatch runs the
	// periodic scheduler instead of the sweep engine, and the result never
	// enters the content-addressed store (reqKey stays empty — streaming
	// accounting is timing-dependent, not content-addressable).
	stream *rtrbench.StreamOptions

	cached   bool
	cachedAt time.Time
	digest   string
	doc      []byte

	job *jobqueue.Job[*jobRecord, jobOutcome]
}

// terminalAt returns when the job reached a terminal state, or a zero time
// if it is still live (queued, running, retrying). Only terminal jobs are
// eligible for index eviction.
func (rec *jobRecord) terminalAt() time.Time {
	if rec.cached {
		return rec.cachedAt
	}
	if rec.job.Finished() {
		return rec.job.Times().Done
	}
	return time.Time{}
}

// terminalDigest is the digest an evicted job's tombstone points at, if it
// produced one.
func (rec *jobRecord) terminalDigest() string {
	if rec.cached {
		return rec.digest
	}
	if out, err := rec.job.Result(); err == nil {
		return out.digest
	}
	return ""
}

// server is the rtrbenchd service: HTTP admission on top of the batching
// job queue, the shared rtrbench engine, and the content-addressed result
// store, all mounted on the obs debug server so /metrics and pprof come
// along for free.
type server struct {
	cfg    config
	reg    *obs.Registry
	engine *rtrbench.Engine
	queue  *jobqueue.Queue[*jobRecord, jobOutcome]
	debug  *obs.DebugServer

	// store is published by the recovery goroutine once the WAL replay
	// finishes (immediately, for an in-memory store). wal is the durable
	// log backing it, nil in-memory. Until the store lands, submissions
	// and result reads answer 503 and /readyz reports not ready.
	store      atomic.Pointer[resultstore.Store]
	wal        atomic.Pointer[durable.Log]
	ready      atomic.Bool
	draining   atomic.Bool
	recoverErr atomic.Pointer[string]

	mu         sync.Mutex
	jobs       map[string]*jobRecord
	tombstones map[string]string // evicted job id -> digest (empty = failed)
	tombOrder  []string
	nextID     int

	sweepStop    chan struct{}
	sweepDone    chan struct{}
	shutdownOnce sync.Once
	shutdownErr  error
}

// newServer builds the service and starts listening on cfg.addr (port 0
// picks a free port; the bound URL is in server.debug.URL). With a data
// directory configured the result store is recovered from its write-ahead
// log in the background: the server is reachable immediately (so probes
// can watch /readyz flip) but not ready until the replay completes.
func newServer(cfg config) (*server, error) {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:        cfg,
		reg:        &obs.Registry{},
		engine:     &rtrbench.Engine{},
		jobs:       map[string]*jobRecord{},
		tombstones: map[string]string{},
		sweepStop:  make(chan struct{}),
		sweepDone:  make(chan struct{}),
	}
	// Publish the gauges up front so a scrape before the first job still
	// shows the queue/cache surface.
	s.reg.SetGauge("queue_depth", 0)
	s.reg.SetGauge("batch_size", 0)
	s.reg.SetGauge("ready", 0)
	s.reg.SetGauge("job_index_size", 0)
	s.queue = jobqueue.New(context.Background(), jobqueue.Options{
		Capacity:          cfg.capacity,
		PerClientCapacity: cfg.clientCapacity,
		BatchSize:         cfg.batchSize,
		MaxWait:           cfg.maxWait,
		Workers:           cfg.workers,
		RatePerClient:     cfg.clientRate,
		Burst:             cfg.clientBurst,
		JobTimeout:        cfg.jobTimeout,
		AbandonGrace:      cfg.abandonGrace,
		MaxAttempts:       cfg.maxAttempts,
		RetryBackoff:      cfg.retryBackoff,
		// The daemon retries exactly what the engine's own trial loop would
		// retry: deadline expiry, nothing else.
		Transient: rtrbench.IsTransient,
		OnDepth:   func(d int) { s.reg.SetGauge("queue_depth", int64(d)) },
		OnBatch: func(n int) {
			s.reg.SetGauge("batch_size", int64(n))
			s.reg.Add("batches", 1)
		},
		// Fairness counters carry a bounded per-client label next to the
		// plain totals: fairness is only observable per tenant, and the
		// labeled families' cardinality bound keeps /metrics safe against an
		// open client-ID namespace.
		OnRateLimited: func(client string) {
			s.reg.Add("rate_limited", 1)
			s.reg.AddLabeled("rate_limited_by_client", "client", client, 1)
		},
		OnDequeue: func(client string) {
			s.reg.AddLabeled("jobs_dequeued_by_client", "client", client, 1)
		},
		OnRetry:   func(string, int, time.Duration) { s.reg.Add("retries_scheduled", 1) },
		OnAbandon: func() { s.reg.Add("executors_abandoned", 1) },
	}, s.execBatch)

	dbg, err := obs.StartDebugServer(obs.DebugOptions{
		Addr:     cfg.addr,
		Registry: s.reg,
		// ReadTimeout bounds slow request bodies; WriteTimeout must leave
		// room for long ?wait= polls and is therefore generous.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
		Handlers: map[string]http.Handler{
			"/v1/jobs":     http.HandlerFunc(s.handleSubmit),
			"/v1/jobs/":    http.HandlerFunc(s.handleJob),
			"/v1/results/": http.HandlerFunc(s.handleResult),
			"/healthz":     http.HandlerFunc(s.handleHealthz),
			"/readyz":      http.HandlerFunc(s.handleReadyz),
		},
	})
	if err != nil {
		_ = s.queue.Drain(context.Background())
		return nil, err
	}
	s.debug = dbg
	if cfg.dataDir == "" {
		// In-memory stores have nothing to replay: become ready before the
		// first request can arrive.
		s.recover()
	} else {
		go s.recover()
	}
	go s.sweepLoop()
	return s, nil
}

// recover builds the result store — replaying the write-ahead log when the
// server is durable — and flips the server ready. It runs in the
// background so /healthz and /readyz serve during a long replay; a
// recovery failure leaves the server up but permanently not ready (the
// operator sees the error on /readyz rather than a crash loop that
// re-corrupts the data directory).
func (s *server) recover() {
	if s.cfg.dataDir == "" {
		s.store.Store(resultstore.New(resultstore.Options{MaxEntries: s.cfg.cacheEntries}))
		s.publishStoreGauges()
		s.ready.Store(true)
		s.reg.SetGauge("ready", 1)
		return
	}
	wal, err := durable.Open(durable.Options{
		Dir:        s.cfg.dataDir,
		Fsync:      s.cfg.fsync,
		FsyncEvery: s.cfg.fsyncEvery,
	})
	if err == nil {
		var st *resultstore.Store
		var info durable.RecoveryInfo
		st, info, err = resultstore.Open(resultstore.Options{
			MaxEntries:    s.cfg.cacheEntries,
			Log:           wal,
			SnapshotEvery: s.cfg.snapshotEvery,
		})
		if err == nil {
			s.wal.Store(wal)
			s.reg.SetGauge("wal_records_replayed", int64(info.Records))
			if info.Truncated {
				s.reg.SetGauge("wal_recovery_truncated", 1)
				log.Printf("wal: recovered with torn tail truncated at %s:%d", info.TruncatedFile, info.TruncatedAt)
			}
			s.reg.SetGauge("wal_segments", int64(wal.Segments()))
			s.store.Store(st)
			s.publishStoreGauges()
			s.ready.Store(true)
			s.reg.SetGauge("ready", 1)
			log.Printf("wal: recovered %d records (snapshot seq %d) from %s", info.Records, info.SnapshotSeq, s.cfg.dataDir)
			return
		}
		wal.Close()
	}
	msg := err.Error()
	s.recoverErr.Store(&msg)
	log.Printf("wal: recovery failed, serving not-ready: %v", err)
}

// getStore returns the result store, or nil while recovery is running (or
// after it failed).
func (s *server) getStore() *resultstore.Store { return s.store.Load() }

// shutdown is the graceful exit: mark not-ready (load balancers stop
// sending work), drain the queue (reject new submissions, finish
// everything admitted), then compact the WAL and stop the HTTP server.
// Polls keep working while the drain runs so clients can collect
// in-flight results.
func (s *server) shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdownLocked(ctx) })
	return s.shutdownErr
}

func (s *server) shutdownLocked(ctx context.Context) error {
	s.draining.Store(true)
	s.reg.SetGauge("ready", 0)
	err := s.queue.Drain(ctx)
	close(s.sweepStop)
	<-s.sweepDone
	if st, wal := s.getStore(), s.wal.Load(); st != nil && wal != nil {
		// A clean exit leaves a fresh snapshot so the next start replays
		// almost nothing.
		if serr := st.Snapshot(); err == nil && serr != nil {
			err = serr
		}
		if cerr := wal.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if cerr := s.debug.Close(); err == nil {
		err = cerr
	}
	return err
}

// duration is a time.Duration that unmarshals from either a Go duration
// string ("30s") or integer nanoseconds.
type duration time.Duration

func (d *duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = duration(n)
	return nil
}

// jobRequest is the POST /v1/jobs body: the suite-sweep parameters a client
// may set. Everything is optional; the zero request is the full small-size
// sweep at seed 1, one trial per kernel.
type jobRequest struct {
	Kernels         []string `json:"kernels,omitempty"`
	Size            string   `json:"size,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
	Trials          int      `json:"trials,omitempty"`
	Warmup          int      `json:"warmup,omitempty"`
	Timeout         duration `json:"timeout,omitempty"`
	Deadline        duration `json:"deadline,omitempty"`
	StepLatency     bool     `json:"step_latency,omitempty"`
	Workers         int      `json:"workers,omitempty"`
	Retries         int      `json:"retries,omitempty"`
	RetryBackoff    duration `json:"retry_backoff,omitempty"`
	ContinueOnError bool     `json:"continue_on_error,omitempty"`

	// Stream switches the job to streaming mode: the named kernel runs as a
	// periodic real-time task instead of a batch sweep. Stream jobs bypass
	// the result cache — their accounting is timing-dependent, so a cached
	// answer would be a lie — and must be time-bounded so the job watchdog
	// stays meaningful. The batch-sweep fields above other than size, seed,
	// and workers are ignored.
	Stream *streamRequest `json:"stream,omitempty"`
}

// streamRequest is the streaming block of a job submission, mirroring the
// `rtrbench stream` flags.
type streamRequest struct {
	Kernel   string   `json:"kernel"`
	Period   duration `json:"period"`
	Deadline duration `json:"deadline,omitempty"`
	Duration duration `json:"duration"`
	MaxTicks int64    `json:"max_ticks,omitempty"`
	Policy   string   `json:"policy,omitempty"`
}

// streamOptions maps a streaming request onto normalized StreamOptions —
// the admission-time validation twin of suiteOptions. Daemon streams must
// be wall-time bounded (Duration, not just MaxTicks) and must fit under
// the job watchdog, otherwise every stream job would end in a watchdog
// retry loop.
func (s *server) streamOptions(req jobRequest) (rtrbench.StreamOptions, error) {
	sr := req.Stream
	opts := rtrbench.StreamOptions{
		Options: rtrbench.Options{
			Seed:    req.Seed,
			Workers: req.Workers,
		},
		Kernel:   sr.Kernel,
		Period:   time.Duration(sr.Period),
		Deadline: time.Duration(sr.Deadline),
		Duration: time.Duration(sr.Duration),
		MaxTicks: sr.MaxTicks,
	}
	switch req.Size {
	case "", "small":
		opts.Size = rtrbench.SizeSmall
	case "default":
		opts.Size = rtrbench.SizeDefault
	default:
		return opts, fmt.Errorf("unknown size %q (want small or default)", req.Size)
	}
	p, err := rtrbench.ParseStreamPolicy(sr.Policy)
	if err != nil {
		return opts, err
	}
	opts.Policy = p
	if opts.Duration <= 0 {
		return opts, fmt.Errorf("stream jobs must set a duration (a ticks-only bound has no wall-time limit)")
	}
	if s.cfg.jobTimeout > 0 && opts.Duration >= s.cfg.jobTimeout {
		return opts, fmt.Errorf("stream duration %v must be below the job watchdog timeout %v",
			opts.Duration, s.cfg.jobTimeout)
	}
	if _, ok := rtrbench.Lookup(opts.Kernel); !ok {
		return opts, fmt.Errorf("unknown kernel %q", opts.Kernel)
	}
	return opts.Normalize()
}

// suiteOptions maps a request onto normalized SuiteOptions, rejecting
// anything the engine would reject — admission-time validation so a bad
// request is a 400, not a failed job.
func (s *server) suiteOptions(req jobRequest) (rtrbench.SuiteOptions, error) {
	opts := rtrbench.SuiteOptions{
		Options: rtrbench.Options{
			Seed:        req.Seed,
			Deadline:    time.Duration(req.Deadline),
			StepLatency: req.StepLatency,
			Workers:     req.Workers,
		},
		Kernels:         req.Kernels,
		Parallel:        s.cfg.parallel,
		Trials:          req.Trials,
		Warmup:          req.Warmup,
		Timeout:         time.Duration(req.Timeout),
		ContinueOnError: req.ContinueOnError,
		Retries:         req.Retries,
		RetryBackoff:    time.Duration(req.RetryBackoff),
	}
	switch req.Size {
	case "", "small":
		opts.Size = rtrbench.SizeSmall
	case "default":
		opts.Size = rtrbench.SizeDefault
	default:
		return opts, fmt.Errorf("unknown size %q (want small or default)", req.Size)
	}
	seen := map[string]bool{}
	for _, name := range req.Kernels {
		if _, ok := rtrbench.Lookup(name); !ok {
			return opts, fmt.Errorf("unknown kernel %q", name)
		}
		if seen[name] {
			return opts, fmt.Errorf("kernel %q listed twice", name)
		}
		seen[name] = true
	}
	return opts.Normalize()
}

// requestKey canonicalizes normalized options into the result-cache
// identity. Parallel is erased first: trial t always runs with seed base+t,
// so execution concurrency cannot change the answer and must not split the
// cache.
func requestKey(opts rtrbench.SuiteOptions) (string, error) {
	opts.Parallel = 0
	b, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("request key: %w", err)
	}
	return string(b), nil
}

// execBatch is the queue executor: it runs each job of a dispatched batch
// on the shared engine, serializes the outcome, and feeds clean runs into
// the content-addressed store.
func (s *server) execBatch(ctx context.Context, batch []*jobqueue.Job[*jobRecord, jobOutcome]) {
	for _, j := range batch {
		rec := j.Req
		if rec.stream != nil {
			s.execStream(ctx, j)
			continue
		}
		res, err := s.engine.Run(ctx, rec.opts)
		if err != nil {
			j.Finish(jobOutcome{}, err)
			s.reg.Add("jobs_failed", 1)
			continue
		}
		doc, digest, err := s.document(rec, res)
		if err != nil {
			j.Finish(jobOutcome{}, err)
			s.reg.Add("jobs_failed", 1)
			continue
		}
		// Only clean sweeps enter the cache: a failed kernel's digest does
		// not name an answer, and a repeat submission deserves a fresh run.
		if len(res.Failures()) == 0 {
			if st := s.getStore(); st != nil {
				// A WAL append failure degrades durability, not service:
				// the result is in memory and returned to the client, it
				// just may not survive a crash.
				if perr := st.Put(rec.reqKey, digest, doc); perr != nil {
					s.reg.Add("wal_append_errors", 1)
					log.Printf("wal: %v", perr)
				}
				if wal := s.wal.Load(); wal != nil {
					s.reg.SetGauge("wal_segments", int64(wal.Segments()))
				}
			}
			s.publishStoreGauges()
		}
		j.Finish(jobOutcome{digest: digest, doc: doc}, nil)
		s.reg.Add("jobs_completed", 1)
	}
}

// execStream runs one streaming job. The live registry is the server's, so
// /metrics shows rtrbench_stream_* advancing while the job runs; the result
// document reuses the report/v1 stream block and is never cached.
func (s *server) execStream(ctx context.Context, j *jobqueue.Job[*jobRecord, jobOutcome]) {
	opts := *j.Req.stream
	opts.Live = s.reg
	res, err := rtrbench.Stream(ctx, opts)
	if err != nil {
		j.Finish(jobOutcome{}, err)
		s.reg.Add("jobs_failed", 1)
		return
	}
	jd := jobDocument{
		Schema:         "rtrbenchd.job/v1",
		ElapsedSeconds: res.Stream.Elapsed.Seconds(),
		Kernels:        []obs.KernelReport{report.Stream(res)},
	}
	doc, err := json.Marshal(jd)
	if err != nil {
		j.Finish(jobOutcome{}, err)
		s.reg.Add("jobs_failed", 1)
		return
	}
	j.Finish(jobOutcome{doc: doc}, nil)
	s.reg.Add("jobs_completed", 1)
	s.reg.Add("stream_jobs_completed", 1)
}

// jobDocument is the stored/returned result of one job, schema
// "rtrbenchd.job/v1". Kernels reuse the rtrbench.report/v1 entries the CLI
// emits, so a job result and an offline report are the same shape.
type jobDocument struct {
	Schema         string             `json:"schema"`
	Digest         string             `json:"digest"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Kernels        []obs.KernelReport `json:"kernels"`
	Failures       []docFailure       `json:"failures,omitempty"`
}

type docFailure struct {
	Kernel string `json:"kernel"`
	Trial  int    `json:"trial"`
	Fault  string `json:"fault,omitempty"`
	Error  string `json:"error"`
}

// document serializes a finished sweep and computes its content address.
func (s *server) document(rec *jobRecord, res rtrbench.SuiteResult) (doc []byte, digest string, err error) {
	digest, err = suiteDigest(res, rec.opts.Seed)
	if err != nil {
		return nil, "", err
	}
	jd := jobDocument{
		Schema:         "rtrbenchd.job/v1",
		Digest:         digest,
		ElapsedSeconds: res.Elapsed.Seconds(),
		Kernels:        report.Suite(res),
	}
	for _, f := range res.Failures() {
		jd.Failures = append(jd.Failures, docFailure{
			Kernel: f.Kernel, Trial: f.Trial, Fault: f.Fault, Error: f.Err.Error(),
		})
	}
	doc, err = json.Marshal(jd)
	if err != nil {
		return nil, "", err
	}
	return doc, digest, nil
}

// suiteDigest folds the per-kernel golden digests into one job-level
// content address: a golden digest whose fields are the kernel sums. Like
// every golden digest it carries no wall-clock quantities, so two runs of
// the same request collide exactly when they computed the same answers.
func suiteDigest(res rtrbench.SuiteResult, seed int64) (string, error) {
	d := golden.Digest{Kernel: "rtrbenchd.job", Seed: seed}
	for _, k := range res.Kernels {
		if k.Err != nil {
			d.Fields = append(d.Fields, golden.Field{Name: k.Info.Name, Value: "error"})
			continue
		}
		sum, err := rtrbench.DigestSum(k.Result, seed)
		if err != nil {
			return "", err
		}
		d.Fields = append(d.Fields, golden.Field{Name: k.Info.Name, Value: sum})
	}
	golden.SortFields(d.Fields)
	return golden.Sum(d)
}

// clientID identifies the submitting tenant for fair queueing: the
// X-Client-ID header, or "anonymous" for clients that don't send one (they
// all share one fairness bucket).
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		return id
	}
	return "anonymous"
}

// handleSubmit is POST /v1/jobs: validate, consult the result cache, and
// either answer from the store (200, no execution) or admit to the queue
// (202). A full queue or an over-rate client is 429 (with Retry-After for
// the latter), a draining or still-recovering server 503 — typed
// backpressure, not timeouts.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	st := s.getStore()
	if st == nil {
		httpError(w, http.StatusServiceUnavailable, "server is recovering, not ready")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rec := &jobRecord{}
	if req.Stream != nil {
		sopts, err := s.streamOptions(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rec.stream = &sopts
	} else {
		opts, err := s.suiteOptions(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key, err := requestKey(opts)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rec.reqKey, rec.opts = key, opts
	}
	status := http.StatusAccepted
	// Stream jobs never answer from (or enter) the result cache: their
	// accounting is a live measurement.
	if digest, doc, ok := st.Lookup(rec.reqKey); ok && rec.stream == nil {
		rec.cached, rec.cachedAt, rec.digest, rec.doc = true, time.Now(), digest, doc
		s.reg.Add("jobs_cached", 1)
		status = http.StatusOK
	} else {
		job, err := s.queue.SubmitClient(clientID(r), rec)
		var rl *jobqueue.RateLimitError
		switch {
		case errors.As(err, &rl):
			s.publishStoreGauges()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(rl.RetryAfter.Seconds()))))
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		case errors.Is(err, jobqueue.ErrQueueFull):
			s.publishStoreGauges()
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		case errors.Is(err, jobqueue.ErrDraining):
			s.publishStoreGauges()
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rec.job = job
	}
	s.publishStoreGauges()
	s.register(rec)
	s.reg.Add("jobs_submitted", 1)
	writeJSON(w, status, s.view(rec))
}

// handleJob is GET /v1/jobs/{id}, optionally blocking via ?wait=DURATION
// until the job finishes (or the wait expires — the poll then reports the
// current state, it is not an error).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	rec, ok := s.jobs[id]
	digest, evicted := s.tombstones[id]
	s.mu.Unlock()
	if !ok {
		if evicted && digest != "" {
			// The job record aged out of the bounded index but its answer is
			// still content-addressed: point the client at the result.
			writeJSON(w, http.StatusNotFound, map[string]string{
				"error":  fmt.Sprintf("job %q evicted from the index; its result is still addressable", id),
				"digest": digest,
				"result": "/v1/results/" + digest,
			})
			return
		}
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if ws := r.URL.Query().Get("wait"); ws != "" && !rec.cached {
		d, err := time.ParseDuration(ws)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad wait %q: %v", ws, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		select {
		case <-rec.job.DoneCh():
		case <-ctx.Done():
		}
		cancel()
	}
	writeJSON(w, http.StatusOK, s.view(rec))
}

// handleResult is GET /v1/results/{digest}: the content-addressed read
// path. Any client holding a digest — from a job view, a stored report, a
// teammate — fetches the document it names, no job ID required.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.getStore()
	if st == nil {
		httpError(w, http.StatusServiceUnavailable, "server is recovering, not ready")
		return
	}
	digest := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	doc, ok := st.Get(digest)
	if !ok {
		httpError(w, http.StatusNotFound, "no result for digest %q", digest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}

// jobView is the JSON the job endpoints return: state, per-stage
// timestamps, batch attribution, and (when finished) the digest and result
// document.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
	// Attempts counts executor dispatches of this job so far; a value
	// above 1 means the watchdog or a transient failure forced retries.
	Attempts int `json:"attempts,omitempty"`
	// Batch and BatchSize attribute the job to its flush: jobs sharing a
	// batch number were coalesced into one dispatch.
	Batch     int             `json:"batch,omitempty"`
	BatchSize int             `json:"batch_size,omitempty"`
	Enqueued  string          `json:"enqueued_at,omitempty"`
	Started   string          `json:"started_at,omitempty"`
	Done      string          `json:"done_at,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func (s *server) view(rec *jobRecord) jobView {
	v := jobView{ID: rec.id}
	if rec.cached {
		v.State, v.Cached = "done", true
		v.Digest, v.Result = rec.digest, rec.doc
		return v
	}
	t := rec.job.Times()
	v.Enqueued, v.Started, v.Done = stamp(t.Enqueued), stamp(t.Started), stamp(t.Done)
	v.Batch, v.BatchSize = rec.job.Batch()
	v.Attempts = rec.job.Attempts()
	switch {
	case rec.job.Finished():
		out, err := rec.job.Result()
		if err != nil {
			v.State, v.Error = "failed", err.Error()
		} else {
			v.State, v.Digest, v.Result = "done", out.digest, out.doc
		}
	case rec.job.Retrying():
		v.State = "retrying"
	case !t.Started.IsZero():
		v.State = "running"
	default:
		v.State = "queued"
	}
	return v
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

// register assigns the job its ID and indexes it for polling, evicting
// over-cap terminal records so the index stays bounded even between
// sweeper ticks.
func (s *server) register(rec *jobRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	rec.id = fmt.Sprintf("j%06d", s.nextID)
	s.jobs[rec.id] = rec
	s.evictLocked(time.Now())
}

// sweepLoop periodically evicts expired terminal jobs so an idle daemon's
// index shrinks without waiting for the next submission.
func (s *server) sweepLoop() {
	defer close(s.sweepDone)
	ival := s.cfg.jobTTL / 4
	if ival > 30*time.Second {
		ival = 30 * time.Second
	}
	if ival < time.Second {
		ival = time.Second
	}
	t := time.NewTicker(ival)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			s.evictLocked(time.Now())
			s.mu.Unlock()
		case <-s.sweepStop:
			return
		}
	}
}

// evictLocked enforces the job-index bound: terminal jobs past their TTL
// go first, then — if the index still exceeds jobIndexMax — the oldest
// terminal jobs until it fits. Live jobs are never evicted (the index may
// transiently exceed the cap if every record is live, which the queue's
// own capacity bounds). Evicted jobs leave a digest tombstone so a late
// poll is redirected to the content-addressed result instead of a bare
// 404. Callers hold s.mu.
func (s *server) evictLocked(now time.Time) {
	type done struct {
		id string
		at time.Time
	}
	var terminal []done
	for id, rec := range s.jobs {
		if at := rec.terminalAt(); !at.IsZero() {
			if now.Sub(at) > s.cfg.jobTTL {
				s.entombLocked(id, rec)
				continue
			}
			terminal = append(terminal, done{id, at})
		}
	}
	if over := len(s.jobs) - s.cfg.jobIndexMax; over > 0 {
		sort.Slice(terminal, func(i, j int) bool { return terminal[i].at.Before(terminal[j].at) })
		for i := 0; i < len(terminal) && over > 0; i, over = i+1, over-1 {
			s.entombLocked(terminal[i].id, s.jobs[terminal[i].id])
		}
	}
	s.reg.SetGauge("job_index_size", int64(len(s.jobs)))
}

// entombLocked drops a job record, leaving a bounded digest tombstone.
// Callers hold s.mu.
func (s *server) entombLocked(id string, rec *jobRecord) {
	delete(s.jobs, id)
	s.tombstones[id] = rec.terminalDigest()
	s.tombOrder = append(s.tombOrder, id)
	for len(s.tombOrder) > s.cfg.jobIndexMax {
		delete(s.tombstones, s.tombOrder[0])
		s.tombOrder = s.tombOrder[1:]
	}
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is the readiness probe: 200 only when the result store has
// finished recovering and the server is not draining, so load balancers
// and restart scripts know when to send traffic (and when to stop).
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]interface{}{
		"ready":    s.ready.Load() && !s.draining.Load(),
		"draining": s.draining.Load(),
		"replaying": !s.ready.Load() && s.recoverErr.Load() == nil &&
			s.cfg.dataDir != "",
	}
	if errp := s.recoverErr.Load(); errp != nil {
		body["recovery_error"] = *errp
	}
	status := http.StatusOK
	if ready, _ := body["ready"].(bool); !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// publishStoreGauges mirrors the result-store statistics into the metrics
// registry (a no-op while the store is still recovering).
func (s *server) publishStoreGauges() {
	st := s.getStore()
	if st == nil {
		return
	}
	hits, misses, entries := st.Stats()
	s.reg.SetGauge("result_cache_hits", hits)
	s.reg.SetGauge("result_cache_misses", misses)
	s.reg.SetGauge("result_cache_entries", int64(entries))
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
