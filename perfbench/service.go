package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/golden"
	"repro/internal/stats"
	"repro/rtrbench"
)

// The service workload's traffic.
const (
	// daemonCache is rtrbenchd's -cache: far below a run's count of distinct
	// requests, so the store evicts, yet above the entries the clients'
	// repeats reach back to.
	daemonCache = 16
	// recentRepeats is how many of its latest cold requests a client picks a
	// repeat from.
	recentRepeats = 4
	// probeColdJobs is how many cold jobs a service probe completes: enough
	// for ten samples above the p90.
	probeColdJobs = 100
	// stopGrace bounds the SIGTERM drain before the daemon is killed.
	stopGrace = 10 * time.Second
)

// serviceKernels is the cheap subset every job requests, so the service's
// own time is a visible share of a job.
var serviceKernels = []string{"dmp", "cem", "sym-blkw", "sym-fext", "bo", "ekfslam"}

// daemon is one rtrbenchd child process.
type daemon struct {
	cmd   *exec.Cmd
	dir   string
	url   string
	done  chan struct{} // closed once the process has been waited for
	ready time.Time
}

// startDaemon spawns rtrbenchd in its own process group, tied to this
// process's life, with its WAL under dir, and waits until /readyz answers 200.
func (b *bench) startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	// -parallel 1 runs a job's kernels one at a time, leaving a CPU of a
	// two-CPU host to HTTP handling: otherwise a cache hit waits behind the
	// other client's job for the scheduler, and the hit latencies turn
	// bimodal around their median.
	cmd := exec.Command(b.daemon,
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-data", filepath.Join(dir, "data"),
		"-cache", strconv.Itoa(daemonCache),
		"-parallel", "1",
		"-ledger", filepath.Join(dir, "ledger.jsonl"),
		"-drain-timeout", stopGrace.String())
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rtrbenchd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is of no interest once stop was asked for
		close(d.done)
	}()
	b.mu.Lock()
	b.children[d] = true
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: rtrbenchd pid %d dir %s\n", cmd.Process.Pid, dir)

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if d.url == "" {
			if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				d.url = strings.TrimSpace(string(data))
			}
		}
		if d.url != "" {
			if resp, err := probe.Get(d.url + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.ready = time.Now()
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			b.stopDaemon(d)
			return nil, fmt.Errorf("rtrbenchd exited before it was ready")
		case <-b.ctx.Done():
			b.stopDaemon(d)
			return nil, b.ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			b.stopDaemon(d)
			return nil, fmt.Errorf("rtrbenchd not ready after 30s")
		}
	}
}

// stopDaemon drains the daemon's process group with SIGTERM, kills it after
// stopGrace, waits for the daemon to exit and removes its directory.
func (b *bench) stopDaemon(d *daemon) {
	pgid := d.cmd.Process.Pid
	_ = syscall.Kill(-pgid, syscall.SIGTERM) // fails only if the group is gone
	select {
	case <-d.done:
	case <-time.After(stopGrace):
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-d.done
	}
	os.RemoveAll(d.dir)
	b.mu.Lock()
	delete(b.children, d)
	b.mu.Unlock()
}

// stopChildren stops every daemon still running: the last resort on an exit
// path that skipped the service phase's own cleanup.
func (b *bench) stopChildren() {
	b.mu.Lock()
	ds := make([]*daemon, 0, len(b.children))
	for d := range b.children {
		ds = append(ds, d)
	}
	b.mu.Unlock()
	for _, d := range ds {
		b.stopDaemon(d)
	}
}

// jobView is the part of rtrbenchd's job JSON the benchmark reads.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Cached   bool            `json:"cached"`
	Digest   string          `json:"digest"`
	Error    string          `json:"error"`
	Enqueued string          `json:"enqueued_at"`
	Started  string          `json:"started_at"`
	Done     string          `json:"done_at"`
	Result   json.RawMessage `json:"result"`
}

// coldJob is one executed job as a client saw it.
type coldJob struct {
	seed     int64
	digest   string
	doc      []byte
	lat      time.Duration // POST sent → finished result received
	submit   time.Duration // POST round trip
	wait     time.Duration // enqueued_at → started_at
	exec     time.Duration // started_at → done_at
	pollTail time.Duration // done_at → poll response received
	sweep    float64       // the daemon's engine sweep for the job, s
	group    string
	warmup   bool
}

// storeOp is one result-store operation the daemon performed for a client:
// a Put for an executed job, a Lookup hit for a cached one.
type storeOp struct {
	put    bool
	seed   int64
	digest string
	doc    []byte
}

type serviceStats struct {
	setup, sweep, peakRSS, jobsPerS float64
	cold, cached                    []float64 // ms
}

// client is one closed-loop tenant with its own connection.
type client struct {
	b       *bench
	id      string
	index   int
	url     string
	http    *http.Client
	digests map[int64]string // digest of each of its cold requests

	mu    *sync.Mutex
	colds *[]coldJob
	ops   *[]storeOp
	cache []time.Duration
}

// service runs the service workload: reps timed set-ups (spawn rtrbenchd
// with a WAL, wait for /readyz, one cold job and its cached repeat), then two
// closed-loop clients for the window, or until they have completed
// probeColdJobs cold jobs when window is 0. Every job's digest is then checked
// against an in-process run.
func (b *bench) service(window time.Duration, reps int) (serviceStats, error) {
	defer logPhase(wlService, window, time.Now())
	var st serviceStats
	dir, err := os.MkdirTemp(b.tmp, "rtrbenchd-")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)

	var (
		mu         sync.Mutex
		colds      []coldJob
		ops        []storeOp
		d          *daemon
		setups     []float64
		recoveries []float64
	)
	defer func() {
		if d != nil {
			b.stopDaemon(d)
		}
	}()
	newClient := func(i int) *client {
		return &client{
			b: b, id: fmt.Sprintf("perfbench-%d", i), index: i, url: d.url,
			http: &http.Client{
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
				Timeout:   2 * time.Minute,
			},
			digests: map[int64]string{}, mu: &mu, colds: &colds, ops: &ops,
		}
	}
	for r := 0; r < max(reps, 1); r++ {
		if d != nil {
			b.stopDaemon(d)
			d = nil
		}
		start := time.Now()
		if d, err = b.startDaemon(filepath.Join(dir, strconv.Itoa(r))); err != nil {
			return st, err
		}
		recoveries = append(recoveries, ms(d.ready.Sub(start)))
		warm := newClient(0)
		seed := warmupSeed(b.seed, r)
		if err := warm.cold(seed, "", true); err != nil {
			return st, err
		}
		if err := warm.repeat(seed, ""); err != nil {
			return st, err
		}
		warm.http.CloseIdleConnections()
		setups = append(setups, time.Since(start).Seconds())
	}
	st.setup = stats.Median(setups)
	b.setLayer("durable.recovery_ms", stats.Median(recoveries))

	n := min(2, runtime.NumCPU())
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = newClient(i)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("client %d: panic: %v", i, r)
				}
			}()
			errs[i] = c.loop(start, window, probeColdJobs/n)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	completed := 0
	for _, c := range clients {
		completed += len(c.cache)
		for _, l := range c.cache {
			st.cached = append(st.cached, ms(l))
		}
		c.http.CloseIdleConnections()
	}
	var sweeps []float64
	for _, j := range colds {
		if !j.warmup {
			completed++
			st.cold = append(st.cold, ms(j.lat))
			sweeps = append(sweeps, j.sweep)
		}
	}
	st.jobsPerS = float64(completed) / elapsed.Seconds()
	st.sweep = stats.Median(sweeps)

	if err := b.scrapeMetrics(d.url); err != nil {
		return st, err
	}
	st.peakRSS = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	b.stopDaemon(d)
	d = nil

	for _, j := range colds {
		if j.warmup {
			continue
		}
		b.sample("jobqueue.wait_ms", ms(j.wait))
		b.sample("rtrbenchd.submit_ms", ms(j.submit))
		b.sample("rtrbenchd.exec_ms", ms(j.exec))
		b.sample("rtrbenchd.poll_tail_ms", ms(j.pollTail))
	}
	if b.tr != nil {
		waits := b.samples["jobqueue.wait_ms"]
		b.setLayer("jobqueue.wait_p50_ms", percentile(waits, 0.5))
		b.setLayer("jobqueue.wait_p90_ms", percentile(waits, 0.9))
		b.setLayer("rtrbenchd.submit_p50_ms", stats.Median(b.samples["rtrbenchd.submit_ms"]))
		b.setLayer("rtrbenchd.exec_p50_ms", stats.Median(b.samples["rtrbenchd.exec_ms"]))
		b.setLayer("rtrbenchd.poll_tail_p50_ms", stats.Median(b.samples["rtrbenchd.poll_tail_ms"]))
		b.storeOps = ops
	}
	return st, b.verifyJobs(colds)
}

// warmupSeed and requestSeed give every request of a run its own seed, so a
// new request is never already in the store.
func warmupSeed(runSeed int64, rep int) int64 {
	return requestSeed(runSeed, 9, rep)
}

func requestSeed(runSeed int64, client, n int) int64 {
	return int64(uint64(runSeed)%1_000_000)*10_000_000 + int64(client)*1_000_000 + int64(n) + 100
}

// loop is one closed-loop client: it submits, waits for the result and
// submits again until the window ends (or, for a probe, until it has
// completed coldTarget cold jobs). Its requests alternate: a new seed, then a
// repeat of one of its recentRepeats latest, which should be a cache hit.
func (c *client) loop(start time.Time, window time.Duration, coldTarget int) error {
	rng := rand.New(rand.NewSource(c.b.seed*7919 + int64(c.index)))
	var recent []int64
	for n := 0; window > 0 && time.Since(start) < window || window == 0 && n < coldTarget; n++ {
		if err := c.b.ctx.Err(); err != nil {
			return err
		}
		seed := requestSeed(c.b.seed, c.index, n)
		if err := c.cold(seed, c.b.tr.group(c.id+"-job"), false); err != nil {
			return err
		}
		recent = append(recent, seed)
		if len(recent) > recentRepeats {
			recent = recent[1:]
		}
		if err := c.repeat(recent[rng.Intn(len(recent))], c.b.tr.group(c.id+"-job")); err != nil {
			return err
		}
	}
	return nil
}

func jobBody(seed int64) []byte {
	body, _ := json.Marshal(map[string]interface{}{"kernels": serviceKernels, "seed": seed}) // cannot fail
	return body
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(c.b.ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Client-ID", c.id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// cold submits a new request and waits for its result.
func (c *client) cold(seed int64, group string, warmup bool) error {
	parent := c.b.tr.next()
	t0 := time.Now()
	status, data, err := c.do(http.MethodPost, "/v1/jobs", jobBody(seed))
	t1 := time.Now()
	if err != nil {
		return c.refused(err)
	}
	c.b.attempt(1)
	c.b.tr.add(span{id: c.b.tr.next(), parent: parent, group: group, name: "POST /v1/jobs", layer: "rtrbenchd", pid: pidBench, lane: laneClient + c.index, start: t0, end: t1})
	if status != http.StatusAccepted {
		c.b.fail("cold job seed %d: POST answered %d: %s", seed, status, bytes.TrimSpace(data))
		return nil
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		c.b.fail("cold job seed %d: %v", seed, err)
		return nil
	}
	return c.finish(seed, v.ID, group, parent, t0, t1, warmup)
}

// finish polls an admitted job until it is done and records it.
func (c *client) finish(seed int64, id, group string, parent int, t0, t1 time.Time, warmup bool) error {
	var v jobView
	var t2 time.Time
	for v.State != "done" && v.State != "failed" {
		pollStart := time.Now()
		status, data, err := c.do(http.MethodGet, "/v1/jobs/"+id+"?wait=30s", nil)
		t2 = time.Now()
		if err != nil {
			return c.refused(err)
		}
		c.b.tr.add(span{id: c.b.tr.next(), parent: parent, group: group, name: "GET /v1/jobs/{id}", layer: "rtrbenchd", lane: laneClient + c.index, start: pollStart, end: t2})
		if status != http.StatusOK {
			c.b.fail("job %s: poll answered %d: %s", id, status, bytes.TrimSpace(data))
			return nil
		}
		v = jobView{}
		if err := json.Unmarshal(data, &v); err != nil {
			c.b.fail("job %s: %v", id, err)
			return nil
		}
	}
	c.b.tr.add(span{id: parent, group: group, name: "job", layer: "client", lane: laneClient + c.index, start: t0, end: t2})
	if v.State == "failed" {
		c.b.fail("job %s seed %d failed: %s", id, seed, v.Error)
		return nil
	}
	enq, e1 := time.Parse(time.RFC3339Nano, v.Enqueued)
	started, e2 := time.Parse(time.RFC3339Nano, v.Started)
	done, e3 := time.Parse(time.RFC3339Nano, v.Done)
	if e1 != nil || e2 != nil || e3 != nil {
		c.b.fail("job %s: bad timestamps %q %q %q", id, v.Enqueued, v.Started, v.Done)
		return nil
	}
	var doc struct {
		ElapsedSeconds float64 `json:"elapsed_seconds"`
	}
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		c.b.fail("job %s: result document: %v", id, err)
		return nil
	}
	c.b.tr.add(span{id: c.b.tr.next(), parent: parent, group: group, name: "queue wait", layer: "jobqueue", pid: pidDaemon, lane: laneClient + c.index, start: enq, end: started})
	c.b.tr.add(span{id: c.b.tr.next(), parent: parent, group: group, name: "execBatch", layer: "rtrbenchd", pid: pidDaemon, lane: laneClient + c.index, start: started, end: done})
	c.digests[seed] = v.Digest
	j := coldJob{
		seed: seed, digest: v.Digest, doc: v.Result,
		lat: t2.Sub(t0), submit: t1.Sub(t0), wait: started.Sub(enq), exec: done.Sub(started), pollTail: t2.Sub(done),
		sweep: doc.ElapsedSeconds, group: group, warmup: warmup,
	}
	c.mu.Lock()
	*c.colds = append(*c.colds, j)
	*c.ops = append(*c.ops, storeOp{put: true, seed: seed, digest: v.Digest, doc: v.Result})
	c.mu.Unlock()
	return nil
}

// repeat resubmits one of the client's earlier requests, which the store
// should answer with the digest its cold run stored.
func (c *client) repeat(seed int64, group string) error {
	parent := c.b.tr.next()
	t0 := time.Now()
	status, data, err := c.do(http.MethodPost, "/v1/jobs", jobBody(seed))
	t1 := time.Now()
	if err != nil {
		return c.refused(err)
	}
	c.b.attempt(1)
	c.b.tr.add(span{id: c.b.tr.next(), parent: parent, group: group, name: "POST /v1/jobs", layer: "rtrbenchd", lane: laneClient + c.index, start: t0, end: t1})
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		c.b.fail("repeat seed %d: answered %d: %v", seed, status, err)
		return nil
	}
	switch status {
	case http.StatusOK:
		c.b.tr.add(span{id: parent, group: group, name: "cached job", layer: "client", lane: laneClient + c.index, start: t0, end: t1})
		if !v.Cached || v.Digest != c.digests[seed] {
			c.b.fail("repeat seed %d: cached=%v digest %s, its cold run stored %s", seed, v.Cached, v.Digest, c.digests[seed])
			return nil
		}
		c.cache = append(c.cache, t1.Sub(t0))
		c.mu.Lock()
		*c.ops = append(*c.ops, storeOp{seed: seed, digest: v.Digest})
		c.mu.Unlock()
		return nil
	case http.StatusAccepted:
		// The store evicted it after all: the job runs cold again.
		fmt.Fprintf(os.Stderr, "perfbench: repeat of seed %d missed the cache\n", seed)
		return c.finish(seed, v.ID, group, parent, t0, t1, false)
	}
	c.b.fail("repeat seed %d: POST answered %d: %s", seed, status, bytes.TrimSpace(data))
	return nil
}

// refused classifies a transport error: cancellation ends the run, anything
// else is one failed operation.
func (c *client) refused(err error) error {
	if c.b.ctx.Err() != nil {
		return c.b.ctx.Err()
	}
	c.b.attempt(1)
	c.b.fail("%s: %v", c.id, err)
	return nil
}

// scrapeMetrics reads the queue and store counters from /metrics.
func (b *bench) scrapeMetrics(url string) error {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && strings.HasPrefix(f[0], "rtrbench_") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[strings.TrimPrefix(f[0], "rtrbench_")] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	executed := m["jobs_completed"] + m["jobs_failed"]
	b.setLayer("jobqueue.batch_mean", executed/m["batches"])
	b.setLayer("jobqueue.retries", m["retries_scheduled"])
	b.setLayer("resultstore.hit_ratio", m["result_cache_hits"]/(m["result_cache_hits"]+m["result_cache_misses"]))
	b.setLayer("base.jobqueue.batches", m["batches"])
	b.setLayer("base.resultstore.lookups", m["result_cache_hits"]+m["result_cache_misses"])
	return nil
}

// verifyJobs recomputes every executed job in-process, one verifier per CPU,
// and compares digests.
func (b *bench) verifyJobs(colds []coldJob) error {
	n := runtime.NumCPU()
	work := make(chan coldJob)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range work {
				if errs[g] != nil {
					continue
				}
				want, err := b.jobDigest(j.seed, j.group, laneVerifier+g)
				switch {
				case err != nil:
					errs[g] = err
				case want != j.digest:
					b.fail("job seed %d: daemon digest %s, in-process %s", j.seed, j.digest, want)
				}
			}
		}(g)
	}
	for _, j := range colds {
		work <- j
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobDigest computes a job's content address in-process the way rtrbenchd
// does: the golden digest whose fields are the per-kernel digest sums.
func (b *bench) jobDigest(seed int64, group string, lane int) (string, error) {
	res, err := rtrbench.Suite(b.ctx, rtrbench.SuiteOptions{
		Options:  rtrbench.Options{Size: rtrbench.SizeSmall, Seed: seed},
		Kernels:  serviceKernels,
		Parallel: 1,
	})
	if err != nil {
		return "", fmt.Errorf("in-process job at seed %d: %w", seed, err)
	}
	if err := res.FirstError(); err != nil {
		return "", fmt.Errorf("in-process job at seed %d: %w", seed, err)
	}
	d := golden.Digest{Kernel: "rtrbenchd.job", Seed: seed}
	start := time.Now()
	for _, k := range res.Kernels {
		sum, err := rtrbench.DigestSum(k.Result, seed)
		if err != nil {
			return "", err
		}
		d.Fields = append(d.Fields, golden.Field{Name: k.Info.Name, Value: sum})
	}
	end := time.Now()
	b.tr.add(span{id: b.tr.next(), group: group, name: "rtrbench.DigestSum x6", layer: "golden", lane: lane, start: start, end: end})
	b.sample("golden.digest_ms", ms(end.Sub(start)))
	golden.SortFields(d.Fields)
	return golden.Sum(d)
}
