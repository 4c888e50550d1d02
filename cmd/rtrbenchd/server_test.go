package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/rtrbench"
)

// newTestServer starts a server on a free port and tears it down with the
// test. Mutate cfg before the first request via the returned server.
func newTestServer(t *testing.T, cfg config) *server {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func postJob(t *testing.T, url string, body string) (int, jobView) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v jobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("bad job view %s: %v", raw, err)
		}
	}
	return resp.StatusCode, v
}

func getJob(t *testing.T, url, id, wait string) jobView {
	t.Helper()
	u := url + "/v1/jobs/" + id
	if wait != "" {
		u += "?wait=" + wait
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", u, resp.StatusCode, raw)
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad job view %s: %v", raw, err)
	}
	return v
}

func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestJobLifecycleAndResultCache is the service round trip: submit, poll to
// completion, fetch by content address, and observe the repeat submission
// served from the store without re-execution.
func TestJobLifecycleAndResultCache(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1, parallel: 2, cacheEntries: 8})
	req := `{"kernels":["dmp"],"trials":1,"seed":7}`

	status, v := postJob(t, s.debug.URL, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if v.ID == "" || v.Cached {
		t.Fatalf("submit view = %+v", v)
	}

	v = getJob(t, s.debug.URL, v.ID, "30s")
	if v.State != "done" || v.Digest == "" || len(v.Result) == 0 {
		t.Fatalf("finished view = %+v", v)
	}
	if v.Enqueued == "" || v.Started == "" || v.Done == "" {
		t.Fatalf("missing stage timestamps: %+v", v)
	}
	var doc jobDocument
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		t.Fatalf("bad result document: %v", err)
	}
	if doc.Schema != "rtrbenchd.job/v1" || doc.Digest != v.Digest {
		t.Fatalf("document = schema %q digest %q, view digest %q", doc.Schema, doc.Digest, v.Digest)
	}
	if len(doc.Kernels) != 1 || doc.Kernels[0].Kernel != "dmp" {
		t.Fatalf("document kernels = %+v", doc.Kernels)
	}

	// Content-addressed read path: the digest alone fetches the document
	// (byte layouts differ — the view re-indents — so compare canonically).
	code, raw := getBody(t, s.debug.URL+"/v1/results/"+v.Digest)
	if code != http.StatusOK || !jsonEqual(t, raw, v.Result) {
		t.Fatalf("GET /v1/results/%s = %d, body %s != job result", v.Digest, code, raw)
	}
	if code, _ := getBody(t, s.debug.URL+"/v1/results/nonexistent"); code != http.StatusNotFound {
		t.Fatalf("bogus digest = %d, want 404", code)
	}

	// Repeat submission: answered from the store, no queue, same digest.
	status, hit := postJob(t, s.debug.URL, req)
	if status != http.StatusOK || !hit.Cached || hit.State != "done" || hit.Digest != v.Digest {
		t.Fatalf("repeat submit = %d %+v, want cached hit with digest %s", status, hit, v.Digest)
	}

	code, metrics := getBody(t, s.debug.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"rtrbench_queue_depth 0",
		"rtrbench_result_cache_hits 1",
		"rtrbench_result_cache_entries 1",
		"rtrbench_jobs_submitted 2",
		"rtrbench_jobs_cached 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestBatchCoalescing: concurrent submissions under a large max-wait are
// dispatched as one batch, observable through the per-job batch attribution.
func TestBatchCoalescing(t *testing.T) {
	s := newTestServer(t, config{batchSize: 3, maxWait: 10 * time.Second, capacity: 16, workers: 1, parallel: 2, cacheEntries: 8})

	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, v := postJob(t, s.debug.URL, fmt.Sprintf(`{"kernels":["dmp"],"seed":%d}`, 100+i))
			if status != http.StatusAccepted {
				t.Errorf("submit %d = %d", i, status)
				return
			}
			mu.Lock()
			ids = append(ids, v.ID)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(ids) != 3 {
		t.Fatalf("admitted %d jobs, want 3", len(ids))
	}

	batches := map[int]bool{}
	digests := map[string]bool{}
	for _, id := range ids {
		v := getJob(t, s.debug.URL, id, "30s")
		if v.State != "done" {
			t.Fatalf("job %s = %+v", id, v)
		}
		if v.BatchSize != 3 {
			t.Errorf("job %s batch_size = %d, want 3 (coalesced)", id, v.BatchSize)
		}
		batches[v.Batch] = true
		digests[v.Digest] = true
	}
	if len(batches) != 1 {
		t.Errorf("jobs spread over %d batches, want 1", len(batches))
	}
	if len(digests) != 3 {
		t.Errorf("distinct seeds produced %d digests, want 3", len(digests))
	}
}

// TestBackpressureQueueFull wedges the single worker by blocking the
// engine's profile hook, fills the admission buffer behind it, and checks
// the typed rejection maps to 429. Deterministic: the collector is blocked
// handing off batch 2, so batches never drain while the hook is held.
func TestBackpressureQueueFull(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 2, workers: 1, parallel: 2, cacheEntries: 8})
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	s.engine.NewProfile = func(rtrbench.Options) *profile.Profile {
		<-block
		return profile.Disabled()
	}

	var ids []string
	submit := func(seed int) int {
		status, v := postJob(t, s.debug.URL, fmt.Sprintf(`{"kernels":["dmp"],"seed":%d}`, seed))
		if v.ID != "" {
			ids = append(ids, v.ID)
		}
		return status
	}

	// Job 1 dispatches and wedges the worker; job 2 dispatches and wedges
	// the collector on the handoff. Wait for both flushes before filling
	// the buffer, so admission capacity is exactly the channel bound.
	if st := submit(1); st != http.StatusAccepted {
		t.Fatalf("job 1 = %d", st)
	}
	if st := submit(2); st != http.StatusAccepted {
		t.Fatalf("job 2 = %d", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, m := getBody(t, s.debug.URL+"/metrics"); strings.Contains(string(m), "rtrbench_batches 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batches gauge never reached 2")
		}
		time.Sleep(time.Millisecond)
	}
	if st := submit(3); st != http.StatusAccepted {
		t.Fatalf("job 3 = %d", st)
	}
	if st := submit(4); st != http.StatusAccepted {
		t.Fatalf("job 4 = %d", st)
	}
	if st := submit(5); st != http.StatusTooManyRequests {
		t.Fatalf("job 5 = %d, want 429 (queue full)", st)
	}

	release()
	for _, id := range ids {
		if v := getJob(t, s.debug.URL, id, "30s"); v.State != "done" {
			t.Errorf("job %s = %+v after release", id, v)
		}
	}
}

// TestGracefulDrain: draining rejects new submissions with 503 while
// admitted jobs run to completion — and cache hits still answer 200,
// because the store needs no queue.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 16, workers: 1, parallel: 2, cacheEntries: 8})
	warm := `{"kernels":["dmp"],"seed":42}`
	if status, v := postJob(t, s.debug.URL, warm); status != http.StatusAccepted {
		t.Fatalf("warm submit = %d", status)
	} else if v := getJob(t, s.debug.URL, v.ID, "30s"); v.State != "done" {
		t.Fatalf("warm job = %+v", v)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drained <- s.queue.Drain(ctx)
	}()

	// Submissions racing the drain flag are admitted (the drain then waits
	// for them too); eventually one observes draining and gets 503.
	var admitted []string
	saw503 := false
	for i := 0; i < 10000 && !saw503; i++ {
		status, v := postJob(t, s.debug.URL, fmt.Sprintf(`{"kernels":["dmp"],"seed":%d}`, 1000+i))
		switch status {
		case http.StatusAccepted:
			admitted = append(admitted, v.ID)
		case http.StatusServiceUnavailable:
			saw503 = true
		default:
			t.Fatalf("submit during drain = %d", status)
		}
	}
	if !saw503 {
		t.Fatal("never saw 503 while draining")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every job admitted before the flag flipped completed: nothing lost.
	for _, id := range admitted {
		if v := getJob(t, s.debug.URL, id, ""); v.State != "done" {
			t.Errorf("admitted job %s = %q after drain, want done", id, v.State)
		}
	}
	// The content-addressed store outlives the queue: a repeat of the warm
	// request is still a 200 cache hit on a drained server.
	if status, v := postJob(t, s.debug.URL, warm); status != http.StatusOK || !v.Cached {
		t.Errorf("cached submit on drained server = %d %+v, want 200 cached", status, v)
	}
}

// TestAdmissionValidation: a malformed request is a 400 at the door, never
// a failed job.
func TestAdmissionValidation(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 4, workers: 1, parallel: 2, cacheEntries: 4})
	for _, body := range []string{
		`{"kernels":["nosuch"]}`,
		`{"size":"huge"}`,
		`{"trials":1,"warmup":-1}`,
		`{"kernels":["dmp","dmp"]}`,
		`{"bogus_field":1}`,
		`not json`,
	} {
		if status, _ := postJob(t, s.debug.URL, body); status != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, status)
		}
	}
}

// postJobAs submits with an X-Client-ID header and returns the status,
// view, and Retry-After header (empty when absent).
func postJobAs(t *testing.T, url, client, body string) (int, jobView, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v jobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("bad job view %s: %v", raw, err)
		}
	}
	return resp.StatusCode, v, resp.Header.Get("Retry-After")
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if code, _ := getBody(t, url+"/readyz"); code == http.StatusOK {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// crash simulates kill -9 for an in-process server: the listener closes
// and the WAL is abandoned mid-state — no drain, no snapshot, no fsync
// coordination — exactly what the durability layer must survive.
func crash(s *server) {
	_ = s.debug.Close()
	close(s.sweepStop)
}

// TestKillRestartCacheSurvives is the tentpole drill in-process: results
// cached before an abrupt crash are served as cache hits after a restart
// over the same data directory, same digest and all.
func TestKillRestartCacheSurvives(t *testing.T) {
	dataDir := t.TempDir()
	base := config{
		batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1,
		parallel: 2, cacheEntries: 8, dataDir: dataDir,
		addr: "127.0.0.1:0",
	}
	s1, err := newServer(base)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s1.debug.URL)
	req := `{"kernels":["dmp"],"trials":1,"seed":11}`
	status, v := postJob(t, s1.debug.URL, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	v = getJob(t, s1.debug.URL, v.ID, "30s")
	if v.State != "done" || v.Digest == "" {
		t.Fatalf("job = %+v", v)
	}
	digest := v.Digest

	// kill -9: no drain, no snapshot, the WAL is whatever hit the disk.
	crash(s1)

	s2, err := newServer(base)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s2.shutdown(ctx)
	}()
	waitReady(t, s2.debug.URL)

	// The repeat submission is a cache hit — no re-execution — with the
	// same content address, and the digest read path serves the document.
	status, hit := postJob(t, s2.debug.URL, req)
	if status != http.StatusOK || !hit.Cached || hit.Digest != digest {
		t.Fatalf("post-restart submit = %d %+v, want cached hit with digest %s", status, hit, digest)
	}
	if code, _ := getBody(t, s2.debug.URL+"/v1/results/"+digest); code != http.StatusOK {
		t.Fatalf("post-restart GET result = %d", code)
	}
	if code, m := getBody(t, s2.debug.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(m), "rtrbench_wal_records_replayed 1") {
		t.Fatalf("metrics missing replay count:\n%s", m)
	}
}

// TestHealthAndReadiness: /healthz is always live; /readyz is 200 when
// serving and flips to 503 (draining) the moment shutdown begins, before
// in-flight work finishes — the load-balancer contract.
func TestHealthAndReadiness(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1, parallel: 2, cacheEntries: 8})
	if code, _ := getBody(t, s.debug.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	code, body := getBody(t, s.debug.URL+"/readyz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ready": true`) {
		t.Fatalf("/readyz = %d %s", code, body)
	}

	// Wedge the worker so the drain blocks, then observe readiness drop
	// while health stays up and polls still answer.
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	s.engine.NewProfile = func(rtrbench.Options) *profile.Profile {
		<-block
		return profile.Disabled()
	}
	status, v := postJob(t, s.debug.URL, `{"kernels":["dmp"],"seed":5}`)
	if status != http.StatusAccepted || v.ID == "" {
		t.Fatalf("submit = %d %+v", status, v)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done <- s.shutdown(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = getBody(t, s.debug.URL+"/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(string(body), `"draining": true`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never reported draining: %d %s", code, body)
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := getBody(t, s.debug.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d", code)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestPerClientFairness is the flooding-tenant drill: a client hammering
// the service hits its own rate limit (429 with a Retry-After hint) and
// its own queue share, while a well-behaved client's job is admitted and
// completes.
func TestPerClientFairness(t *testing.T) {
	s := newTestServer(t, config{
		batchSize: 1, maxWait: time.Millisecond, capacity: 16, workers: 1,
		parallel: 2, cacheEntries: 16,
		clientRate: 0.1, clientBurst: 2, clientCapacity: 4,
	})

	// The flooder burns its burst and then some: 10 distinct requests as
	// fast as HTTP allows.
	floodAccepted, flood429 := 0, 0
	sawRetryAfter := ""
	for i := 0; i < 10; i++ {
		status, _, ra := postJobAs(t, s.debug.URL, "flood", fmt.Sprintf(`{"kernels":["dmp"],"seed":%d}`, 2000+i))
		switch status {
		case http.StatusAccepted:
			floodAccepted++
		case http.StatusTooManyRequests:
			flood429++
			if ra != "" {
				sawRetryAfter = ra
			}
		default:
			t.Fatalf("flood submit %d = %d", i, status)
		}
	}
	if floodAccepted != 2 || flood429 != 8 {
		t.Fatalf("flooder admitted %d / rejected %d, want 2 / 8 (burst 2)", floodAccepted, flood429)
	}
	if sawRetryAfter == "" {
		t.Fatal("429 responses never carried Retry-After")
	}

	// The slow client is untouched by the flooder's bucket and completes.
	status, v, _ := postJobAs(t, s.debug.URL, "slow", `{"kernels":["dmp"],"seed":3000}`)
	if status != http.StatusAccepted {
		t.Fatalf("slow submit = %d, want 202", status)
	}
	if v = getJob(t, s.debug.URL, v.ID, "30s"); v.State != "done" {
		t.Fatalf("slow job = %+v", v)
	}
	if code, m := getBody(t, s.debug.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(m), "rtrbench_rate_limited 8") {
		t.Fatalf("metrics missing rate_limited counter:\n%s", m)
	}
}

// TestWatchdogWedgedExecutorFailsTerminally wedges the engine via the
// profile hook — it never returns, ignoring cancellation — and watches
// the watchdog cancel it, retry it, and fail the job terminally with the
// attempt count surfaced in the job view. The daemon survives: a healthy
// job afterwards completes normally.
func TestWatchdogWedgedExecutorFailsTerminally(t *testing.T) {
	s := newTestServer(t, config{
		batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1,
		parallel: 2, cacheEntries: 8,
		jobTimeout: 100 * time.Millisecond, abandonGrace: 50 * time.Millisecond,
		maxAttempts: 2, retryBackoff: 10 * time.Millisecond,
	})
	block := make(chan struct{})
	var wedged atomic.Int32
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	s.engine.NewProfile = func(rtrbench.Options) *profile.Profile {
		wedged.Add(1)
		<-block // ignores cancellation entirely: the executor is wedged
		return profile.Disabled()
	}

	status, v := postJob(t, s.debug.URL, `{"kernels":["dmp"],"seed":9}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	v = getJob(t, s.debug.URL, v.ID, "30s")
	if v.State != "failed" {
		t.Fatalf("wedged job state = %q (%+v), want failed", v.State, v)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (dispatched, watchdogged, retried, watchdogged)", v.Attempts)
	}
	if !strings.Contains(v.Error, "after 2 attempt(s)") {
		t.Fatalf("error %q does not carry the attempt count", v.Error)
	}
	if got := wedged.Load(); got != 2 {
		t.Fatalf("executor wedged %d times, want 2", got)
	}

	// The worker slot was reclaimed both times: a healthy job completes.
	s.engine.NewProfile = nil
	status, v = postJob(t, s.debug.URL, `{"kernels":["dmp"],"seed":10}`)
	if status != http.StatusAccepted {
		t.Fatalf("healthy submit = %d", status)
	}
	if v = getJob(t, s.debug.URL, v.ID, "30s"); v.State != "done" || v.Attempts != 1 {
		t.Fatalf("healthy job = %+v, want done in 1 attempt", v)
	}
	if code, m := getBody(t, s.debug.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(m), "rtrbench_executors_abandoned 2") ||
		!strings.Contains(string(m), "rtrbench_retries_scheduled 1") {
		t.Fatalf("metrics missing watchdog counters:\n%s", m)
	}
}

// TestJobIndexEviction: terminal jobs age out of the bounded index, and a
// poll for an evicted job is a 404 carrying the digest pointer, not a
// dead end — the result itself stays content-addressed in the store.
func TestJobIndexEviction(t *testing.T) {
	s := newTestServer(t, config{
		batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1,
		parallel: 2, cacheEntries: 8,
		jobTTL: 50 * time.Millisecond, jobIndexMax: 64,
	})
	status, v := postJob(t, s.debug.URL, `{"kernels":["dmp"],"seed":21}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	v = getJob(t, s.debug.URL, v.ID, "30s")
	if v.State != "done" {
		t.Fatalf("job = %+v", v)
	}
	evictedID, digest := v.ID, v.Digest

	// Age the record past its TTL; the next registration sweeps it out.
	time.Sleep(80 * time.Millisecond)
	if status, _ = postJob(t, s.debug.URL, `{"kernels":["dmp"],"seed":22}`); status != http.StatusAccepted {
		t.Fatalf("second submit = %d", status)
	}

	code, raw := getBody(t, s.debug.URL+"/v1/jobs/"+evictedID)
	if code != http.StatusNotFound {
		t.Fatalf("evicted job poll = %d, want 404", code)
	}
	var tomb struct {
		Error  string `json:"error"`
		Digest string `json:"digest"`
		Result string `json:"result"`
	}
	if err := json.Unmarshal(raw, &tomb); err != nil || tomb.Digest != digest {
		t.Fatalf("tombstone = %s (err %v), want digest %s", raw, err, digest)
	}
	if code, _ := getBody(t, s.debug.URL+tomb.Result); code != http.StatusOK {
		t.Fatalf("tombstone result pointer %s = %d, want 200", tomb.Result, code)
	}
	// A never-existing ID is still a plain 404.
	if code, raw := getBody(t, s.debug.URL+"/v1/jobs/j999999"); code != http.StatusNotFound ||
		strings.Contains(string(raw), "digest") {
		t.Fatalf("unknown job = %d %s, want bare 404", code, raw)
	}
}

// TestBodyLimit: a request body over -max-body is rejected, not buffered.
func TestBodyLimit(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 4, workers: 1, parallel: 2, cacheEntries: 4, maxBody: 256})
	big := fmt.Sprintf(`{"kernels":["dmp"],"seed":1,"size":"%s"}`, strings.Repeat("x", 1024))
	if status, _ := postJob(t, s.debug.URL, big); status != http.StatusBadRequest {
		t.Fatalf("oversized submit = %d, want 400", status)
	}
}

// TestWorkersCacheIdentity: the workers knob is part of a job's cache
// identity. A workers:8 submission after a workers:1 run must execute
// fresh (202), not be served the workers:1 document; repeats of each
// shape hit their own cache entry.
func TestWorkersCacheIdentity(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1, parallel: 2, cacheEntries: 8})
	req1 := `{"kernels":["dmp"],"seed":21,"workers":1}`
	req8 := `{"kernels":["dmp"],"seed":21,"workers":8}`

	status, v1 := postJob(t, s.debug.URL, req1)
	if status != http.StatusAccepted {
		t.Fatalf("workers:1 submit = %d, want 202", status)
	}
	if v1 = getJob(t, s.debug.URL, v1.ID, "30s"); v1.State != "done" {
		t.Fatalf("workers:1 job = %+v", v1)
	}

	status, v8 := postJob(t, s.debug.URL, req8)
	if status != http.StatusAccepted {
		t.Fatalf("workers:8 submit = %d, want 202 (must not hit the workers:1 cache entry)", status)
	}
	if v8.Cached {
		t.Fatalf("workers:8 submit served from cache: %+v", v8)
	}
	if v8 = getJob(t, s.debug.URL, v8.ID, "30s"); v8.State != "done" {
		t.Fatalf("workers:8 job = %+v", v8)
	}

	// Workers parallelism must not change the answer, only the cache key:
	// same kernels, same seed, same golden digest.
	if v1.Digest == "" || v1.Digest != v8.Digest {
		t.Fatalf("digests differ across workers shapes: %q vs %q", v1.Digest, v8.Digest)
	}

	for _, req := range []string{req1, req8} {
		if status, hit := postJob(t, s.debug.URL, req); status != http.StatusOK || !hit.Cached {
			t.Fatalf("repeat submit %s = %d %+v, want cached 200", req, status, hit)
		}
	}
}

// TestStreamJobEndToEnd: a streaming job runs through the daemon — 202 on
// submit, done with a stream block in the result document, no digest (the
// accounting is timing-dependent, so stream jobs are never content-
// addressed), and a re-submission executes fresh instead of hitting the
// cache. The shared live registry carries rtrbench_stream_* afterwards.
func TestStreamJobEndToEnd(t *testing.T) {
	s := newTestServer(t, config{batchSize: 1, maxWait: time.Millisecond, capacity: 8, workers: 1, parallel: 2, cacheEntries: 8})
	req := `{"seed":3,"stream":{"kernel":"dmp","period":"2ms","duration":"150ms","policy":"skip-next"}}`

	status, v := postJob(t, s.debug.URL, req)
	if status != http.StatusAccepted {
		t.Fatalf("stream submit = %d, want 202", status)
	}
	if v = getJob(t, s.debug.URL, v.ID, "30s"); v.State != "done" {
		t.Fatalf("stream job = %+v", v)
	}
	if v.Digest != "" {
		t.Fatalf("stream job carries digest %q, want none (stream results are not content-addressed)", v.Digest)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Kernels []struct {
			Kernel string `json:"kernel"`
			Stream *struct {
				Policy   string  `json:"policy"`
				Ticks    int64   `json:"ticks"`
				Misses   int64   `json:"misses"`
				MissRate float64 `json:"miss_rate"`
			} `json:"stream"`
		} `json:"kernels"`
	}
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		t.Fatalf("stream result %s: %v", v.Result, err)
	}
	if doc.Schema != "rtrbenchd.job/v1" || len(doc.Kernels) != 1 || doc.Kernels[0].Stream == nil {
		t.Fatalf("stream result shape = %s", v.Result)
	}
	st := doc.Kernels[0].Stream
	if doc.Kernels[0].Kernel != "dmp" || st.Policy != "skip-next" || st.Ticks < 1 ||
		st.MissRate < 0 || st.MissRate > 1 {
		t.Fatalf("stream accounting = %+v", st)
	}

	// The identical submission must run again — a cached answer for a
	// timing-dependent measurement would be a lie.
	status, v2 := postJob(t, s.debug.URL, req)
	if status != http.StatusAccepted || v2.Cached {
		t.Fatalf("stream resubmit = %d %+v, want fresh 202", status, v2)
	}
	if v2 = getJob(t, s.debug.URL, v2.ID, "30s"); v2.State != "done" {
		t.Fatalf("stream rerun = %+v", v2)
	}

	code, m := getBody(t, s.debug.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"rtrbench_stream_ticks ", "rtrbench_stream_jobs_completed 2"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestStreamAdmissionValidation: malformed streaming submissions are 400s
// at admission, never queued — unbounded streams, streams outlasting the
// watchdog, unknown kernels, unknown policies, missing periods.
func TestStreamAdmissionValidation(t *testing.T) {
	s := newTestServer(t, config{
		batchSize: 1, maxWait: time.Millisecond, capacity: 4, workers: 1,
		parallel: 2, cacheEntries: 4, jobTimeout: 5 * time.Second,
	})
	for _, body := range []string{
		`{"stream":{"kernel":"dmp","period":"2ms","max_ticks":100}}`,                     // no wall-time bound
		`{"stream":{"kernel":"dmp","period":"2ms","duration":"10s"}}`,                    // outlasts the watchdog
		`{"stream":{"kernel":"nosuch","period":"2ms","duration":"100ms"}}`,               // unknown kernel
		`{"stream":{"kernel":"dmp","period":"2ms","duration":"100ms","policy":"bogus"}}`, // unknown policy
		`{"stream":{"kernel":"dmp","duration":"100ms"}}`,                                 // missing period
	} {
		if status, _ := postJob(t, s.debug.URL, body); status != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, status)
		}
	}
}

// TestPerClientLabeledMetrics: fairness counters carry the client label —
// alice's completed job shows under jobs_dequeued_by_client{client="alice"}
// and bob's over-burst submission under rate_limited_by_client{client="bob"}.
func TestPerClientLabeledMetrics(t *testing.T) {
	s := newTestServer(t, config{
		batchSize: 1, maxWait: time.Millisecond, capacity: 16, workers: 1,
		parallel: 2, cacheEntries: 16,
		clientRate: 0.1, clientBurst: 1, clientCapacity: 4,
	})
	status, v, _ := postJobAs(t, s.debug.URL, "alice", `{"kernels":["dmp"],"seed":4001}`)
	if status != http.StatusAccepted {
		t.Fatalf("alice submit = %d, want 202", status)
	}
	if v = getJob(t, s.debug.URL, v.ID, "30s"); v.State != "done" {
		t.Fatalf("alice job = %+v", v)
	}

	if status, _, _ := postJobAs(t, s.debug.URL, "bob", `{"kernels":["dmp"],"seed":4002}`); status != http.StatusAccepted {
		t.Fatalf("bob first submit = %d, want 202", status)
	}
	if status, _, _ := postJobAs(t, s.debug.URL, "bob", `{"kernels":["dmp"],"seed":4003}`); status != http.StatusTooManyRequests {
		t.Fatalf("bob second submit = %d, want 429 (burst 1)", status)
	}

	code, m := getBody(t, s.debug.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`rtrbench_jobs_dequeued_by_client{client="alice"} 1`,
		`rtrbench_rate_limited_by_client{client="bob"} 1`,
	} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}
