package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/rtrbench"
)

// harness carries the observability machinery shared by every kernel
// runner: report formats (text/json/csv/trace), per-step deadlines, and
// profiling hooks (--cpuprofile, --memprofile, --httpdebug). Runners
// register their kernel flags on h.fs, call h.parse, build the kernel's
// config from them, and end with h.run(cfg).
type harness struct {
	name string
	fs   *flag.FlagSet

	format     string
	out        string
	deadline   time.Duration
	timeout    time.Duration
	stepLat    bool
	cpuprofile string
	memprofile string
	httpdebug  string

	cpuFile *os.File
	dbg     *obs.DebugServer
	runCtx  context.Context // Background, or bounded by --timeout
	cancel  context.CancelFunc
}

// newHarness returns a harness with the shared observability flags
// registered; the caller adds kernel-specific flags before h.parse.
func newHarness(name string) *harness {
	h := &harness{name: name, fs: flag.NewFlagSet(name, flag.ExitOnError)}
	h.fs.StringVar(&h.format, "format", "text", "report format: text | json | csv | trace")
	h.fs.StringVar(&h.out, "out", "", "write the report to this file instead of stdout")
	h.fs.DurationVar(&h.deadline, "deadline", 0, "per-step real-time deadline (e.g. 10ms); 0 = off")
	h.fs.DurationVar(&h.timeout, "timeout", 0, "abort the run after this wall-clock budget (e.g. 30s); 0 = off")
	h.fs.BoolVar(&h.stepLat, "steplat", false, "record the per-step latency histogram even without a deadline")
	h.fs.StringVar(&h.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	h.fs.StringVar(&h.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	h.fs.StringVar(&h.httpdebug, "httpdebug", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060) while running")
	return h
}

// parse parses args, validates the shared flags, and starts the CPU
// profiler and debug server when requested. Callers must pair it with a
// deferred h.close().
func (h *harness) parse(args []string) error {
	if err := h.fs.Parse(args); err != nil {
		return err
	}
	switch h.format {
	case "text", "json", "csv", "trace":
	default:
		return fmt.Errorf("unknown --format %q (want text, json, csv, or trace)", h.format)
	}
	if h.cpuprofile != "" {
		f, err := os.Create(h.cpuprofile)
		if err != nil {
			return fmt.Errorf("--cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("--cpuprofile: %w", err)
		}
		h.cpuFile = f
	}
	if h.httpdebug != "" {
		dbg, err := obs.StartDebugServer(obs.DebugOptions{Addr: h.httpdebug})
		if err != nil {
			return err
		}
		h.dbg = dbg
		fmt.Fprintf(os.Stderr, "debug server on %s (/metrics, /debug/pprof/)\n", dbg.URL)
	}
	if h.timeout > 0 {
		h.runCtx, h.cancel = context.WithTimeout(context.Background(), h.timeout)
	} else {
		h.runCtx = context.Background()
	}
	return nil
}

// newProfile returns the kernel's profile, configured from the shared
// flags: deadline/step tracking, trace recording when --format=trace, and
// live counter export when the debug server is up.
func (h *harness) newProfile() *profile.Profile {
	p := profile.New()
	if h.deadline > 0 {
		p.SetDeadline(h.deadline)
	} else if h.stepLat {
		p.EnableSteps()
	}
	if h.format == "trace" {
		p.EnableTrace()
	}
	if h.dbg != nil {
		p.PublishLive(obs.LiveCounters)
	}
	return p
}

// close releases profiling resources: it stops the CPU profiler, writes the
// heap profile, and shuts down the debug server.
func (h *harness) close() {
	if h.cancel != nil {
		h.cancel()
		h.cancel = nil
	}
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		h.cpuFile.Close()
		h.cpuFile = nil
	}
	if h.memprofile != "" {
		if f, err := os.Create(h.memprofile); err == nil {
			runtime.GC()
			_ = pprof.WriteHeapProfile(f)
			f.Close()
		} else {
			fmt.Fprintf(os.Stderr, "--memprofile: %v\n", err)
		}
		h.memprofile = ""
	}
	if h.dbg != nil {
		_ = h.dbg.Close()
		h.dbg = nil
	}
}

// run executes the kernel on cfg, a config of the kernel's own type,
// through the registry (validation, panic recovery and result translation
// as in `rtrbench suite`) and writes the report in the selected format.
func (h *harness) run(cfg any) error {
	p := h.newProfile()
	res, err := rtrbench.RunConfig(h.runCtx, h.name, cfg, p)
	if err != nil {
		return err
	}
	w, closeW, err := h.writer()
	if err != nil {
		return err
	}
	defer closeW()

	info, _ := rtrbench.Lookup(h.name)
	row := report.Kernel(rtrbench.KernelResult{Info: info, Result: res})
	switch h.format {
	case "json":
		return obs.WriteJSON(w, row)
	case "csv":
		return obs.WriteCSV(w, row)
	case "trace":
		return obs.WriteTrace(w, p.Snapshot().Trace, map[string]string{
			"kernel": h.name,
			"schema": obs.SchemaVersion,
		})
	}
	reportText(w, p.Snapshot(), res.Metrics)
	return nil
}

// writer returns the report destination (stdout or --out).
func (h *harness) writer() (io.Writer, func(), error) {
	if h.out == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(h.out)
	if err != nil {
		return nil, nil, fmt.Errorf("--out: %w", err)
	}
	return f, func() { f.Close() }, nil
}

// reportText prints the human-readable report: ROI, phase table, step
// latency distribution, and kernel metrics.
func reportText(w io.Writer, rep profile.Report, metrics map[string]float64) {
	fmt.Fprintf(w, "ROI: %v\n", rep.ROI.Round(time.Microsecond))
	if rep.Inconsistent {
		fmt.Fprintf(w, "  WARNING: inconsistent profile (open phases: %v)\n", rep.OpenPhases)
	}
	for _, ph := range rep.Phases {
		pct := 0.0
		if rep.ROI > 0 {
			pct = 100 * float64(ph.Total) / float64(rep.ROI)
		}
		fmt.Fprintf(w, "  phase %-16s %12v  calls=%-10d %5.1f%%\n",
			ph.Name, ph.Total.Round(time.Microsecond), ph.Calls, pct)
	}
	if rep.Steps.Count > 0 {
		fmt.Fprintf(w, "  steps %-16d p50=%v p95=%v p99=%v max=%v\n",
			rep.Steps.Count,
			rep.Steps.P50.Round(time.Microsecond), rep.Steps.P95.Round(time.Microsecond),
			rep.Steps.P99.Round(time.Microsecond), rep.Steps.Max.Round(time.Microsecond))
		if rep.Steps.Deadline > 0 {
			missPct := 100 * float64(rep.Steps.Misses) / float64(rep.Steps.Count)
			fmt.Fprintf(w, "  deadline %v: %d misses (%.1f%%)\n",
				rep.Steps.Deadline, rep.Steps.Misses, missPct)
		}
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-22s %s\n", k, strconv.FormatFloat(metrics[k], 'f', -1, 64))
	}
}
