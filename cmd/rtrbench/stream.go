package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/rtrbench"
)

// runStream implements `rtrbench stream`: one registered kernel driven as a
// long-lived periodic real-time task with per-tick release/deadline
// accounting (latency, jitter, hit/miss) and a selectable overload policy.
func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	var (
		kernel    = fs.String("kernel", "", "registered kernel to stream (required; see `rtrbench list`)")
		period    = fs.Duration("period", 0, "tick release interval (required, e.g. 2ms)")
		deadline  = fs.Duration("deadline", 0, "relative per-tick deadline; 0 = the period (implicit deadline)")
		duration  = fs.Duration("duration", 0, "stream length in wall time (e.g. 1s); set this or -ticks")
		maxTicks  = fs.Int64("ticks", 0, "stream length in executed ticks; set this or -duration")
		policy    = fs.String("policy", "skip-next", "overload policy: skip-next | queue | anytime-cutoff")
		workers   = fs.Int("workers", 0, "goroutines for the data-parallel loop of pfl and prm (0/1 = inline)")
		size      = fs.String("size", "small", "workload size: small | default")
		seed      = fs.Int64("seed", 1, "base random seed (workload run r streams with seed+r)")
		format    = fs.String("format", "text", "report format: text | json | csv")
		out       = fs.String("out", "", "write the report to this file instead of stdout")
		httpdebug = fs.String("httpdebug", "", "serve net/http/pprof and live rtrbench_stream_* /metrics on this address while streaming")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Flag mistakes fail here, before the kernel starts.
	switch *format {
	case "text", "json", "csv":
	default:
		return fmt.Errorf("unknown --format %q (want text, json, or csv)", *format)
	}
	sz, err := parseSize(*size)
	if err != nil {
		return err
	}
	opts, err := rtrbench.StreamOptions{
		Options: rtrbench.Options{
			Size:    sz,
			Seed:    *seed,
			Workers: *workers,
		},
		Kernel:   *kernel,
		Period:   *period,
		Deadline: *deadline,
		Duration: *duration,
		MaxTicks: *maxTicks,
		Policy:   rtrbench.StreamPolicy(*policy),
	}.Normalize()
	if err != nil {
		return unprefixed(err)
	}
	if _, ok := rtrbench.Lookup(opts.Kernel); !ok {
		return fmt.Errorf("unknown kernel %q", opts.Kernel)
	}

	if *httpdebug != "" {
		dbg, err := obs.StartDebugServer(obs.DebugOptions{Addr: *httpdebug})
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on %s (/metrics, /debug/pprof/)\n", dbg.URL)
		opts.Live = obs.LiveCounters
	}

	// Ctrl-C ends the stream early; the partial accounting still reports.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, runErr := rtrbench.Stream(ctx, opts)
	cancelled := runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if runErr != nil && !cancelled {
		return unprefixed(runErr)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("--out: %w", err)
		}
		defer f.Close()
		w = f
	}

	kr := report.Stream(res)
	switch *format {
	case "json":
		if err := obs.WriteJSON(w, kr); err != nil {
			return err
		}
	case "csv":
		if err := obs.WriteCSV(w, kr); err != nil {
			return err
		}
	default:
		streamText(w, res, cancelled)
	}
	return nil
}

// unprefixed drops the "stream: " that the library puts before its errors:
// main already prints "rtrbench stream: " before them.
func unprefixed(err error) error {
	return errors.New(strings.TrimPrefix(err.Error(), "stream: "))
}

// streamText prints the human-readable streaming summary.
func streamText(w io.Writer, res rtrbench.StreamResult, cancelled bool) {
	s := res.Stream
	note := ""
	if cancelled {
		note = " (interrupted; partial accounting)"
	}
	fmt.Fprintf(w, "stream: %s  policy=%s  period=%v  deadline=%v%s\n",
		res.Kernel, s.Policy, s.Period, s.Deadline, note)
	fmt.Fprintf(w, "  ticks %d  misses %d (%.2f%%)  sheds %d  cutoffs %d  overruns %d  elapsed %v\n",
		s.Ticks, s.Misses, s.MissRate()*100, s.Sheds, s.Cutoffs, s.Overruns,
		s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  workload runs %d (degraded %d)\n", res.Runs, res.Degraded)
	if s.Latency.Count > 0 {
		fmt.Fprintf(w, "  latency  p50 %v  p95 %v  p99 %v  max %v\n",
			s.Latency.P50.Round(time.Microsecond), s.Latency.P95.Round(time.Microsecond),
			s.Latency.P99.Round(time.Microsecond), s.Latency.Max.Round(time.Microsecond))
	}
	if s.Jitter.Count > 0 {
		fmt.Fprintf(w, "  jitter   p50 %v  p95 %v  p99 %v  max %v\n",
			s.Jitter.P50.Round(time.Microsecond), s.Jitter.P95.Round(time.Microsecond),
			s.Jitter.P99.Round(time.Microsecond), s.Jitter.Max.Round(time.Microsecond))
	}
}
