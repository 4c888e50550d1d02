package jobqueue

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// eventually polls cond for up to 2s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// finishAll is the well-behaved executor: finish every job with its own
// request as the result.
func finishAll(_ context.Context, batch []*Job[int, int]) {
	for _, j := range batch {
		j.Finish(j.Req, nil)
	}
}

// wedgeDispatch holds a one-worker queue's dispatch until the executor is
// released, so the jobs submitted next all wait in their client queues:
// the first "gate" batch holds the worker (the executor must block on its
// release), and the second holds the collector in its hand-off to that
// worker. The queue's OnBatch must send on flushed; it fires before the
// hand-off, so once it has fired twice no job can leave the queues. The
// executor should leave the gate jobs out of whatever it records.
func wedgeDispatch(t *testing.T, q *Queue[int, int], flushed <-chan struct{}) []*Job[int, int] {
	t.Helper()
	var gates []*Job[int, int]
	for i := 0; i < 2; i++ {
		j, err := q.SubmitClient("gate", i)
		if err != nil {
			t.Fatal(err)
		}
		gates = append(gates, j)
		<-flushed
	}
	return gates
}

// TestBackpressureQueueFull pins the admission-control contract: with the
// single worker wedged and the dispatch pipeline saturated, exactly
// Capacity more jobs are admitted and the next submission fails with
// ErrQueueFull — deterministically, because the test first drives the
// pipeline into its known saturated state (one batch executing, one batch
// dispatched and waiting, buffer empty).
func TestBackpressureQueueFull(t *testing.T) {
	const capacity = 3
	release := make(chan struct{})
	var flushes atomic.Int32
	q := New(context.Background(), Options{
		Capacity:  capacity,
		BatchSize: 1,
		MaxWait:   time.Hour,
		Workers:   1,
		OnBatch:   func(int) { flushes.Add(1) },
	}, func(_ context.Context, batch []*Job[int, int]) {
		<-release
		finishAll(nil, batch)
	})

	var admitted []*Job[int, int]
	submit := func(v int) *Job[int, int] {
		t.Helper()
		j, err := q.Submit(v)
		if err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
		admitted = append(admitted, j)
		return j
	}

	// Saturate the pipeline: batch 1 is executing (worker blocked on
	// release), batch 2 is flushed and waiting for the worker. Both
	// flushes are observable, after which the channel buffer is empty.
	submit(1)
	submit(2)
	eventually(t, "two flushes", func() bool { return flushes.Load() == 2 })

	// Now the buffer admits exactly Capacity more.
	for v := 3; v < 3+capacity; v++ {
		submit(v)
	}
	if _, err := q.Submit(99); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit at capacity: err = %v, want ErrQueueFull", err)
	}
	if got := q.Depth(); got != capacity {
		t.Errorf("Depth = %d, want %d", got, capacity)
	}

	// Unwedge: every admitted job must complete with its own result.
	close(release)
	for _, j := range admitted {
		res, err := j.Wait(context.Background())
		if err != nil || res != j.Req {
			t.Errorf("job %d: res=%d err=%v", j.Req, res, err)
		}
	}
}

// TestPartialBatchFlushOnMaxWait pins the max-wait flush: a lone job in a
// BatchSize-4 queue must not wait for companions forever — it flushes as a
// batch of one once MaxWait elapses.
func TestPartialBatchFlushOnMaxWait(t *testing.T) {
	const maxWait = 30 * time.Millisecond
	q := New(context.Background(), Options{BatchSize: 4, MaxWait: maxWait}, finishAll)
	defer q.Drain(context.Background())

	j, err := q.Submit(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if id, size := j.Batch(); id == 0 || size != 1 {
		t.Errorf("Batch() = (%d, %d), want a dispatched batch of 1", id, size)
	}
	ts := j.Times()
	if ts.Enqueued.IsZero() || ts.Started.IsZero() || ts.Done.IsZero() {
		t.Fatalf("missing stage timestamps: %+v", ts)
	}
	if wait := ts.Started.Sub(ts.Enqueued); wait < maxWait-5*time.Millisecond {
		t.Errorf("partial batch flushed after %v, want ~MaxWait (%v)", wait, maxWait)
	}
	if !ts.Started.Before(ts.Done) && !ts.Started.Equal(ts.Done) {
		t.Errorf("Started %v after Done %v", ts.Started, ts.Done)
	}
}

// TestBatchCoalescing pins the size-threshold flush: jobs submitted
// together share one batch, observable through matching batch ids, without
// waiting for MaxWait.
func TestBatchCoalescing(t *testing.T) {
	q := New(context.Background(), Options{BatchSize: 2, MaxWait: time.Hour}, finishAll)
	defer q.Drain(context.Background())

	a, err := q.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Submit(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := a.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	aid, asize := a.Batch()
	bid, bsize := b.Batch()
	if aid != bid || asize != 2 || bsize != 2 {
		t.Errorf("batches not coalesced: a=(%d,%d) b=(%d,%d)", aid, asize, bid, bsize)
	}
}

// TestGracefulDrain pins the shutdown contract: Drain completes every
// admitted job (in flight and still queued), rejects new submissions with
// ErrDraining, and loses or duplicates nothing.
func TestGracefulDrain(t *testing.T) {
	var executed atomic.Int32
	q := New(context.Background(), Options{Capacity: 16, BatchSize: 2, MaxWait: 5 * time.Millisecond, Workers: 1},
		func(_ context.Context, batch []*Job[int, int]) {
			time.Sleep(20 * time.Millisecond) // long enough for Drain to start first
			for _, j := range batch {
				executed.Add(1)
				j.Finish(j.Req, nil)
			}
		})

	const n = 6
	jobs := make([]*Job[int, int], 0, n)
	for v := 0; v < n; v++ {
		j, err := q.Submit(v)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		drainErr = q.Drain(context.Background())
	}()

	// Submissions during the drain are rejected with the typed error. A
	// probe that sneaks in before the drain flag flips is a legitimately
	// admitted job — track it so the completion accounting stays exact.
	eventually(t, "draining rejection", func() bool {
		j, err := q.Submit(99)
		if err == nil {
			jobs = append(jobs, j)
			return false
		}
		return errors.Is(err, ErrDraining)
	})

	wg.Wait()
	if drainErr != nil {
		t.Fatalf("Drain: %v", drainErr)
	}
	for _, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %d lost by drain", j.Req)
		}
		if res, err := j.Result(); err != nil || res != j.Req {
			t.Errorf("job %d: res=%d err=%v", j.Req, res, err)
		}
	}
	if got := executed.Load(); got != int32(len(jobs)) {
		t.Errorf("executed %d jobs, want %d (no losses, no duplicates)", got, len(jobs))
	}
	// Drain is idempotent.
	if err := q.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestDrainDeadline: a Drain whose context expires while work is in
// flight reports the context error instead of blocking forever.
func TestDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	q := New(context.Background(), Options{BatchSize: 1, MaxWait: time.Millisecond},
		func(_ context.Context, batch []*Job[int, int]) {
			<-release
			finishAll(nil, batch)
		})
	j, err := q.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v, want DeadlineExceeded", err)
	}
	close(release)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res, err := j.Result(); err != nil || res != 1 {
		t.Errorf("in-flight job after late drain: res=%d err=%v", res, err)
	}
}

// TestExecutorMisbehavior pins the no-lost-jobs guarantee: jobs an
// executor drops or panics over are finished with an error instead of
// hanging their waiters.
func TestExecutorMisbehavior(t *testing.T) {
	t.Run("dropped", func(t *testing.T) {
		q := New(context.Background(), Options{BatchSize: 1, MaxWait: time.Millisecond},
			func(context.Context, []*Job[int, int]) {}) // finishes nothing
		j, err := q.Submit(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err == nil {
			t.Fatal("dropped job completed without error")
		}
	})
	t.Run("panic", func(t *testing.T) {
		q := New(context.Background(), Options{BatchSize: 1, MaxWait: time.Millisecond},
			func(context.Context, []*Job[int, int]) { panic("executor bug") })
		j, err := q.Submit(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err == nil {
			t.Fatal("panicking executor's job completed without error")
		}
		// The queue survives: the next job still executes.
		j2, err := q.Submit(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j2.Wait(context.Background()); err == nil {
			t.Fatal("want panic error again (same executor), got nil")
		}
	})
}

// TestDoubleFinishIsNoOp pins exactly-once completion.
func TestDoubleFinishIsNoOp(t *testing.T) {
	q := New(context.Background(), Options{BatchSize: 1, MaxWait: time.Millisecond},
		func(_ context.Context, batch []*Job[int, int]) {
			for _, j := range batch {
				j.Finish(j.Req, nil)
				j.Finish(-1, errors.New("duplicate"))
			}
		})
	j, err := q.Submit(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil || res != 5 {
		t.Fatalf("first Finish not authoritative: res=%d err=%v", res, err)
	}
}

// TestWeightedRoundRobinFairness pins the no-starvation property: with a
// flooder holding a long backlog and a slow client submitting one job,
// WRR dequeue interleaves them — the slow client's job is dispatched
// within the first few batches instead of behind the entire backlog.
func TestWeightedRoundRobinFairness(t *testing.T) {
	release := make(chan struct{})
	flushed := make(chan struct{}, 13) // one send per flush, at most one flush per job
	var mu sync.Mutex
	var dispatched []string // client of each executed job, in dispatch order
	q := New(context.Background(), Options{
		Capacity:  64,
		BatchSize: 2,
		MaxWait:   time.Millisecond,
		Workers:   1,
		OnBatch:   func(int) { flushed <- struct{}{} },
	}, func(_ context.Context, batch []*Job[int, int]) {
		<-release
		mu.Lock()
		for _, j := range batch {
			if c := j.Client(); c != "gate" {
				dispatched = append(dispatched, c)
			}
		}
		mu.Unlock()
		finishAll(nil, batch)
	})

	// The flooder stacks 10 jobs while dispatch is wedged; then the slow
	// client submits one.
	jobs := wedgeDispatch(t, q, flushed)
	for i := 0; i < 10; i++ {
		j, err := q.SubmitClient("flood", i)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	slow, err := q.SubmitClient("slow", 99)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, slow)
	close(release)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, c := range dispatched {
		if c == "slow" {
			pos = i
			break
		}
	}
	// Round-robin alternates flood/slow from wherever the collector is, so
	// the slow job must appear within the first WRR cycle (FIFO would place
	// it last, at index 10).
	if pos < 0 || pos > 1 {
		t.Fatalf("slow client dispatched at position %d of %v, want early interleave", pos, dispatched)
	}
}

// TestClientWeights: a weight-3 client gets ~3x the dispatch share of a
// weight-1 client from interleaved backlogs.
func TestClientWeights(t *testing.T) {
	release := make(chan struct{})
	flushed := make(chan struct{}, 14) // one send per flush, at most one flush per job
	var mu sync.Mutex
	var order []string
	q := New(context.Background(), Options{
		Capacity:  64,
		BatchSize: 4,
		MaxWait:   time.Millisecond,
		Workers:   1,
		OnBatch:   func(int) { flushed <- struct{}{} },
		ClientWeight: func(c string) int {
			if c == "heavy" {
				return 3
			}
			return 1
		},
	}, func(_ context.Context, batch []*Job[int, int]) {
		<-release
		mu.Lock()
		for _, j := range batch {
			if c := j.Client(); c != "gate" {
				order = append(order, c)
			}
		}
		mu.Unlock()
		finishAll(nil, batch)
	})

	// Both backlogs are complete before the first of their jobs dispatches.
	jobs := wedgeDispatch(t, q, flushed)
	for i := 0; i < 6; i++ {
		for _, c := range []string{"heavy", "light"} {
			j, err := q.SubmitClient(c, i)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	close(release)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// In the first full WRR cycle (4 dispatches with both queues deep),
	// heavy takes 3 and light takes 1.
	mu.Lock()
	defer mu.Unlock()
	heavy := 0
	for _, c := range order[:4] {
		if c == "heavy" {
			heavy++
		}
	}
	if heavy != 3 {
		t.Fatalf("first cycle gave heavy %d of 4 slots, want 3 (order %v)", heavy, order)
	}
}

// TestRateLimit: a client that outruns its token bucket gets a typed
// RateLimitError with a positive Retry-After, and a different client is
// unaffected (buckets are per-client).
func TestRateLimit(t *testing.T) {
	q := New(context.Background(), Options{
		Capacity:      64,
		BatchSize:     1,
		MaxWait:       time.Millisecond,
		RatePerClient: 0.5, // one token per 2s: burst of 1, then limited
		Burst:         1,
	}, finishAll)
	defer q.Drain(context.Background())

	if _, err := q.SubmitClient("a", 1); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := q.SubmitClient("a", 2)
	var rl *RateLimitError
	if !errors.As(err, &rl) || !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit err = %v, want RateLimitError", err)
	}
	if rl.RetryAfter <= 0 || rl.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 2s]", rl.RetryAfter)
	}
	if rl.Client != "a" {
		t.Fatalf("Client = %q", rl.Client)
	}
	// Another client's bucket is untouched.
	if _, err := q.SubmitClient("b", 3); err != nil {
		t.Fatalf("other client: %v", err)
	}
}

// TestPerClientCapacity: one client cannot occupy the whole queue; its
// overflow is rejected while another client still admits.
func TestPerClientCapacity(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q := New(context.Background(), Options{
		Capacity:          8,
		PerClientCapacity: 2,
		BatchSize:         1,
		MaxWait:           time.Hour, // hold jobs in the queue
		Workers:           1,
	}, func(_ context.Context, batch []*Job[int, int]) {
		<-release
		finishAll(nil, batch)
	})

	// The flooder fills its share (+ up to 2 in the dispatch pipeline).
	full := false
	for i := 0; i < 8; i++ {
		if _, err := q.SubmitClient("flood", i); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("flood submit %d: %v", i, err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Fatal("flooder never hit its per-client bound")
	}
	// The slow client still has room.
	if _, err := q.SubmitClient("slow", 99); err != nil {
		t.Fatalf("slow client rejected: %v", err)
	}
}

// TestWatchdogRetriesThenFails is the wedged-executor drill: an executor
// that never returns is cancelled by the watchdog, abandoned after the
// grace period, retried with backoff, and the job ends terminally failed
// carrying its attempt count — the worker is never lost.
func TestWatchdogRetriesThenFails(t *testing.T) {
	var attempts atomic.Int32
	var abandoned atomic.Int32
	var retries atomic.Int32
	q := New(context.Background(), Options{
		BatchSize:       1,
		MaxWait:         time.Millisecond,
		Workers:         1,
		JobTimeout:      30 * time.Millisecond,
		AbandonGrace:    10 * time.Millisecond,
		MaxAttempts:     3,
		RetryBackoff:    5 * time.Millisecond,
		RetryBackoffCap: 20 * time.Millisecond,
		Seed:            1,
		OnAbandon:       func() { abandoned.Add(1) },
		OnRetry:         func(string, int, time.Duration) { retries.Add(1) },
	}, func(ctx context.Context, batch []*Job[int, int]) {
		attempts.Add(1)
		<-make(chan struct{}) // wedged: ignores ctx, never finishes
	})

	j, err := q.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err == nil {
		t.Fatal("wedged job completed without error")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("terminal err = %v, want a deadline-rooted failure", err)
	} else if !strings.Contains(err.Error(), "after 3 attempt(s)") {
		t.Fatalf("terminal err = %v, want attempt count", err)
	}
	if got := j.Attempts(); got != 3 {
		t.Errorf("Attempts = %d, want 3", got)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("executor invoked %d times, want 3", got)
	}
	if abandoned.Load() != 3 || retries.Load() != 2 {
		t.Errorf("abandoned=%d retries=%d, want 3 and 2", abandoned.Load(), retries.Load())
	}
}

// TestWatchdogHonoredCancellation: an executor that *does* honor the
// cancellation is retried without abandonment, and a later good attempt
// succeeds.
func TestWatchdogHonoredCancellation(t *testing.T) {
	var attempts atomic.Int32
	var abandoned atomic.Int32
	q := New(context.Background(), Options{
		BatchSize:       1,
		MaxWait:         time.Millisecond,
		Workers:         1,
		JobTimeout:      25 * time.Millisecond,
		AbandonGrace:    time.Second,
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
		RetryBackoffCap: 5 * time.Millisecond,
		Seed:            1,
		OnAbandon:       func() { abandoned.Add(1) },
	}, func(ctx context.Context, batch []*Job[int, int]) {
		if attempts.Add(1) < 3 {
			<-ctx.Done() // slow but obedient: return unfinished on cancel
			return
		}
		finishAll(nil, batch)
	})

	j, err := q.Submit(7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil || res != 7 {
		t.Fatalf("job = (%d, %v), want success on attempt 3", res, err)
	}
	if got := j.Attempts(); got != 3 {
		t.Errorf("Attempts = %d, want 3", got)
	}
	if abandoned.Load() != 0 {
		t.Errorf("abandoned %d obedient executors", abandoned.Load())
	}
}

// TestTransientErrorClassification: an executor-reported error the
// classifier deems transient is retried; a permanent one fails
// immediately on the first attempt.
func TestTransientErrorClassification(t *testing.T) {
	transientErr := errors.New("transient blip")
	permanentErr := errors.New("hard failure")
	var attempts atomic.Int32
	q := New(context.Background(), Options{
		BatchSize:       1,
		MaxWait:         time.Millisecond,
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
		RetryBackoffCap: 2 * time.Millisecond,
		Seed:            1,
		Transient:       func(err error) bool { return errors.Is(err, transientErr) },
	}, func(_ context.Context, batch []*Job[int, int]) {
		for _, j := range batch {
			switch {
			case j.Req < 0:
				j.Finish(0, permanentErr)
			case attempts.Add(1) < 3:
				j.Finish(0, transientErr)
			default:
				j.Finish(j.Req, nil)
			}
		}
	})
	defer q.Drain(context.Background())

	j, err := q.Submit(5)
	if err != nil {
		t.Fatal(err)
	}
	res, werr := j.Wait(context.Background())
	if werr != nil || res != 5 {
		t.Fatalf("transient job = (%d, %v), want recovery", res, werr)
	}
	if j.Attempts() != 3 {
		t.Errorf("Attempts = %d, want 3", j.Attempts())
	}

	p, err := q.Submit(-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := p.Wait(context.Background()); !errors.Is(werr, permanentErr) {
		t.Fatalf("permanent job err = %v, want %v unretried", werr, permanentErr)
	}
	if p.Attempts() != 1 {
		t.Errorf("permanent job Attempts = %d, want 1", p.Attempts())
	}
}

// TestDrainWaitsForRetries: a job in retry backoff when Drain begins is
// still completed — retry timers count as admitted work.
func TestDrainWaitsForRetries(t *testing.T) {
	transientErr := context.DeadlineExceeded
	var attempts atomic.Int32
	q := New(context.Background(), Options{
		BatchSize:       1,
		MaxWait:         time.Millisecond,
		MaxAttempts:     2,
		RetryBackoff:    30 * time.Millisecond,
		RetryBackoffCap: 60 * time.Millisecond,
		Seed:            1,
	}, func(_ context.Context, batch []*Job[int, int]) {
		for _, j := range batch {
			if attempts.Add(1) == 1 {
				j.Finish(0, transientErr)
				continue
			}
			j.Finish(j.Req, nil)
		}
	})

	j, err := q.Submit(9)
	if err != nil {
		t.Fatal(err)
	}
	// Let the first attempt fail, then drain while the retry timer runs.
	eventually(t, "first attempt", func() bool { return attempts.Load() >= 1 })
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j.Finished() {
		t.Fatal("drain returned with the retrying job unfinished")
	}
	if res, err := j.Result(); err != nil || res != 9 {
		t.Fatalf("retried job = (%d, %v) after drain", res, err)
	}
}
