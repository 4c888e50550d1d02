// Command perfbench is the repository's end-to-end benchmark. It drives the
// suite through its public entry points — rtrbench.Suite, rtrbench.Stream and
// the real rtrbenchd binary over HTTP — on one of two workloads, checks every
// output, and prints one JSON result line:
//
//	perfbench -daemon BIN --workload suite|service --seed N --seconds S --trace 0|1
//
// A workload's own path runs for the timed window. Every run reports every
// end-to-end metric BENCHMARK.json lists, so the paths a workload does not
// exercise (the stream driver, and the suite on service) run afterwards as
// short fixed probes. sweep_s is the median rtrbench.Suite call of the
// workload's path: the suite's sweeps, or the daemon's engine sweeps
// (elapsed_seconds of its cold jobs) on service. The Workers paths and the
// stream driver are timed on every traced run. With --trace 1 the run is
// repeated with a span recorded around every call the benchmark makes into a
// layer; the spans are written as a Chrome trace under -out/traces and the
// per-layer metrics are reported instead. BENCHMARK.json (read from the
// working directory) names the metrics and their units.
//
// perfbench/run.sh builds the benchmark and the daemon from the checkout and
// runs it from the checkout root.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
)

// The workloads, as BENCHMARK.json names them.
const (
	wlSuite   = "suite"
	wlService = "service"
)

// setupReps is how many times a workload's set-up runs in one invocation;
// setup_s is their median.
const setupReps = 3

// probes selects which paths a pass runs besides the workload's own.
type probes int

const (
	probeNone   probes = iota // the workload's own path only
	probeNeeded               // plus the paths whose end-to-end metrics it lacks
	probeAll                  // plus every other path, so every layer is traced
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark reads: metric names and
// units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() { os.Exit(run()) }

func run() (code int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "suite or service")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	daemonBin := fs.String("daemon", "", "path to the rtrbenchd binary (required)")
	out := fs.String("out", ".bench_build", "directory for daemon data, traces and exact counts")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	switch {
	case *workload != wlSuite && *workload != wlService:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1) || *daemonBin == "":
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0|1 and -daemon")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A reader that goes away must not kill the run before its cleanup: with
	// SIGPIPE ignored, writes to a closed stdout or stderr just fail.
	signal.Ignore(syscall.SIGPIPE)
	tmpBase := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpBase, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := newBench(ctx, *seed, *daemonBin, tmp)
	// Deferred calls run last-in first-out: a panic is reported first, then
	// any daemon still running is stopped, then its directory goes.
	defer b.stopChildren()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
			code = 2
		}
	}()

	window := time.Duration(*seconds) * time.Second
	values, names := map[string]float64{}, sp.EndToEnd
	if *trace == 0 {
		e, err := b.pass(*workload, window, probeNeeded)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		values = e.values()
	} else {
		names = sp.PerLayer
		if values, err = b.tracedRun(*workload, window, filepath.Join(*out, "traces")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := b.checkExact(filepath.Join(*out, "exact")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *trace == 1 {
		values["error_rate"] = float64(b.failed.Load()) / float64(max(b.attempted.Load(), 1))
	}

	res := result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range names {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured (%v)\n", m.Name, v)
			return 1
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// bench is one invocation's state: the run seed, the daemon binary, the
// operation tally, the exact-count channel and, on a traced pass, the tracer
// and the per-layer samples.
type bench struct {
	ctx    context.Context
	seed   int64
	daemon string
	tmp    string
	tr     *tracer // nil on untraced passes

	attempted, failed atomic.Int64

	mu       sync.Mutex
	exact    map[string]int64     // exact-count channel: repeats exactly at a seed
	digests  map[string]string    // first digest seen per path/kernel@seed
	goldens  map[string]string    // kernel@seed → checked-in digest sum
	samples  map[string][]float64 // per-layer samples, traced pass only
	layer    map[string]float64   // per-layer values, traced pass only
	storeOps []storeOp            // the traced service traffic's store operations
	children map[*daemon]bool
}

func newBench(ctx context.Context, seed int64, daemonBin, tmp string) *bench {
	return &bench{
		ctx:      ctx,
		seed:     seed,
		daemon:   daemonBin,
		tmp:      tmp,
		exact:    map[string]int64{},
		digests:  map[string]string{},
		goldens:  map[string]string{},
		samples:  map[string][]float64{},
		layer:    map[string]float64{},
		children: map[*daemon]bool{},
	}
}

func (b *bench) attempt(n int) { b.attempted.Add(int64(n)) }

// fail counts one failed or refused operation, or a failed output check.
func (b *bench) fail(format string, args ...interface{}) {
	b.failed.Add(1)
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// sample adds one per-layer observation; untraced passes record none.
func (b *bench) sample(name string, v float64) {
	if b.tr == nil {
		return
	}
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], v)
	b.mu.Unlock()
}

func (b *bench) setLayer(name string, v float64) {
	if b.tr == nil {
		return
	}
	b.mu.Lock()
	b.layer[name] = v
	b.mu.Unlock()
}

// setExact records an exact count; a different value for the same name within
// the run is a failed check.
func (b *bench) setExact(name string, v int64) {
	b.mu.Lock()
	prev, seen := b.exact[name]
	b.exact[name] = v
	b.mu.Unlock()
	if seen && prev != v {
		b.fail("exact count %s changed within the run: %d then %d", name, prev, v)
	}
}

// checkDigest compares a digest with the first one seen for the same key in
// this run, recording it if it is the first.
func (b *bench) checkDigest(key, got string) {
	b.mu.Lock()
	want, seen := b.digests[key]
	if !seen {
		b.digests[key] = got
	}
	b.mu.Unlock()
	if seen && want != got {
		b.fail("%s: digest %s, earlier %s", key, got, want)
	}
}

// checkExact compares the run's exact counts with those an earlier run of the
// same build at the same seed recorded under dir, then records this run's.
func (b *bench) checkExact(dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", hex.EncodeToString(h.Sum(nil))[:16], b.seed))
	prev := map[string]int64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	names := make([]string, 0, len(b.exact))
	for name := range b.exact {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if p, ok := prev[name]; ok && p != b.exact[name] {
			b.fail("exact count %s: %d in an earlier run at seed %d, %d now", name, p, b.seed, b.exact[name])
		}
		prev[name] = b.exact[name]
	}
	data, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	next := path + ".tmp"
	if err := os.WriteFile(next, data, 0o644); err != nil {
		return err
	}
	return os.Rename(next, path)
}

// endToEnd holds one pass's end-to-end figures.
type endToEnd struct {
	setup, sweep, tickMean, peakRSS float64
	cold, cached                    []float64 // job latencies, ms
	jobsPerS                        float64
	// focus is the workload's headline figure, compared between the
	// untraced and traced passes for trace.overhead_share.
	focus float64
}

func (e endToEnd) values() map[string]float64 {
	return map[string]float64{
		"setup_s":         e.setup,
		"sweep_s":         e.sweep,
		"job_cold_p50_ms": percentile(e.cold, 0.5),
		"job_cold_p90_ms": percentile(e.cold, 0.9),
		"jobs_per_s":      e.jobsPerS,
		"tick_mean_ms":    e.tickMean,
		"peak_rss_mb":     e.peakRSS,
	}
}

// pass runs the workload's own path for the window, then the other paths the
// probe setting asks for, each as a short fixed probe.
func (b *bench) pass(workload string, window time.Duration, p probes) (endToEnd, error) {
	var e endToEnd
	var err error
	switch workload {
	case wlSuite:
		e.setup, e.sweep, err = b.sweeps(suiteSpec, window, setupReps)
		e.peakRSS = peakRSSMB("self")
		e.focus = e.sweep
	case wlService:
		var s serviceStats
		s, err = b.service(window, setupReps)
		e.setup, e.sweep, e.peakRSS, e.cold, e.cached, e.jobsPerS = s.setup, s.sweep, s.peakRSS, s.cold, s.cached, s.jobsPerS
		e.focus = percentile(e.cold, 0.5)
	}
	if err != nil || p == probeNone {
		return e, err
	}
	if p == probeAll {
		if workload != wlSuite {
			if _, _, err := b.sweeps(suiteSpec, 0, 1); err != nil {
				return e, err
			}
		}
		if _, _, err := b.sweeps(workersSpec, 0, 1); err != nil {
			return e, err
		}
	}
	if workload != wlService {
		s, err := b.service(0, 1)
		if err != nil {
			return e, err
		}
		e.cold, e.cached, e.jobsPerS = s.cold, s.cached, s.jobsPerS
	}
	e.tickMean, err = b.stream()
	return e, err
}

// tracedRun measures the workload untraced, then again with spans recorded
// on every path, writes the trace and returns the per-layer metrics.
func (b *bench) tracedRun(workload string, window time.Duration, traceDir string) (map[string]float64, error) {
	base, err := b.pass(workload, window, probeNone)
	if err != nil {
		return nil, err
	}
	b.tr = &tracer{}
	traced, err := b.pass(workload, window, probeAll)
	if err != nil {
		return nil, err
	}
	if err := b.traceStore(); err != nil {
		return nil, err
	}

	values := map[string]float64{}
	selfs := b.tr.selfTimes()
	layerSelf := map[string]float64{}
	for i, s := range b.tr.spans {
		layerSelf[s.layer] += ms(selfs[i])
		if s.layer == "adapter" && s.kernel != "" {
			b.samples["adapter.overhead_ms."+s.kernel] = append(b.samples["adapter.overhead_ms."+s.kernel], ms(selfs[i]))
		}
	}
	for name, xs := range b.samples {
		values[name] = stats.Median(xs)
	}
	for name, v := range b.layer {
		values[name] = v
	}
	for _, k := range workersSpec.kernels {
		values["workers.speedup."+k] = values["workers.serial_ms."+k] / values["workers.wall_ms."+k]
	}
	values["stream.handoff_mean_ms"] = values["stream.tick_mean_ms"] - values["stream.jitter_mean_ms"] - values["stream.kernel_step_mean_ms"]
	for name, v := range b.exact {
		if k, ok := strings.CutSuffix(name, "@1"); ok {
			values[k] = float64(v)
		}
	}
	values["stream.restarts"] = float64(b.exact["stream.restarts"])
	// Cache hits are ~1 ms loopback round trips that track the host's vCPU
	// wake-up latency: too unsteady between runs for an end-to-end bound.
	values["job_cached_p50_ms"] = percentile(traced.cached, 0.5)
	values["job_cached_p90_ms"] = percentile(traced.cached, 0.9)
	values["trace.overhead_share"] = (traced.focus - base.focus) / base.focus

	meta := map[string]string{
		"workload":             workload,
		"seed":                 strconv.FormatInt(b.seed, 10),
		"trace.overhead_share": strconv.FormatFloat(values["trace.overhead_share"], 'g', 6, 64),
	}
	for layer, v := range layerSelf {
		meta["self_ms."+layer] = strconv.FormatFloat(v, 'f', 3, 64)
	}
	for name, v := range b.layer {
		if strings.HasPrefix(name, "base.") {
			meta[name] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, b.seed))
	if err := b.tr.write(path, meta); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(b.tr.spans), path)
	return values, nil
}

// percentile interpolates linearly between the order statistics around q
// (internal/stats has the median but no other quantile).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q == 0.5 {
		return stats.Median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// logPhase reports how long a phase took, for tuning run lengths.
func logPhase(name string, window time.Duration, start time.Time) {
	kind := "probe"
	if window > 0 {
		kind = "window " + window.String()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s (%s) took %.2fs\n", name, kind, time.Since(start).Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the peak resident set (VmHWM) of a process from /proc;
// pid is a process id or "self". It returns NaN when the figure is missing.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
