// Command benchdiff is the statistical regression gate over benchmark
// snapshots:
//
//	benchdiff [flags] OLD.json NEW.json [MORE.json...]
//
// loads two or more rtrbench.bench snapshots (v1 or v2 — a v1 file reads
// as single-sample entries) and compares the first against the last with
// the Mann-Whitney U test per benchmark: a delta only counts as a
// regression when it is statistically significant (p < -alpha) AND larger
// than the -threshold noise floor. allocs/op is deterministic, so any
// increase flags without a significance test (this subsumes the old CI
// alloc gate); -zeroalloc additionally pins matching benchmarks to exactly
// 0 allocs/op. Exit status: 0 clean, 1 regression or unreadable input,
// 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"repro/internal/benchfmt"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	threshold   float64
	alpha       float64
	jsonOut     bool
	allocs      bool
	ignoreShape bool
	zeroAlloc   string
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.Float64Var(&cfg.threshold, "threshold", 5, "noise floor in percent: smaller deltas never flag")
	fs.Float64Var(&cfg.alpha, "alpha", 0.05, "significance level for the Mann-Whitney test")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the full report as JSON instead of the table")
	fs.BoolVar(&cfg.allocs, "allocs", true, "flag any allocs/op increase as a regression (deterministic, no significance test)")
	fs.BoolVar(&cfg.ignoreShape, "ignore-shape", false, "compare snapshots even when GOMAXPROCS/NumCPU differ (cross-shape numbers are not comparable)")
	fs.StringVar(&cfg.zeroAlloc, "zeroalloc", "", "regexp of benchmarks that must report exactly 0 allocs/op in the new snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	failed, err := diffFiles(cfg, fs.Args(), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func (c config) diffOptions() benchfmt.DiffOptions {
	return benchfmt.DiffOptions{
		Stats:       stats.Options{Alpha: c.alpha, Threshold: c.threshold},
		Allocs:      c.allocs,
		IgnoreShape: c.ignoreShape,
	}
}

// diffFiles compares the first snapshot argument against the last and
// reports whether the gate failed.
func diffFiles(cfg config, paths []string, stdout *os.File) (failed bool, err error) {
	if len(paths) < 2 {
		return false, fmt.Errorf("need at least two snapshot files (got %d)", len(paths))
	}
	snaps := make([]benchfmt.Snapshot, len(paths))
	for i, p := range paths {
		if snaps[i], err = benchfmt.Load(p); err != nil {
			return false, err
		}
	}
	return diffSnapshots(cfg, snaps[0], snaps[len(snaps)-1], stdout)
}

func diffSnapshots(cfg config, old, new benchfmt.Snapshot, stdout *os.File) (failed bool, err error) {
	rep, err := benchfmt.Diff(old, new, cfg.diffOptions())
	if err != nil {
		return false, err
	}
	zeroViolations, err := checkZeroAlloc(cfg.zeroAlloc, new)
	if err != nil {
		return false, err
	}

	if cfg.jsonOut {
		doc := struct {
			benchfmt.Report
			ZeroAllocViolations []string `json:"zero_alloc_violations,omitempty"`
		}{rep, zeroViolations}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return false, err
		}
	} else {
		printTable(stdout, rep)
		for _, name := range zeroViolations {
			fmt.Fprintf(stdout, "ZEROALLOC %s: allocs/op > 0 in new snapshot\n", name)
		}
	}

	regs := rep.Regressions()
	if !cfg.jsonOut {
		if len(regs) > 0 {
			fmt.Fprintf(stdout, "FAIL: %d regression(s) above %.3g%% (alpha %.3g)\n", len(regs), cfg.threshold, cfg.alpha)
		} else {
			fmt.Fprintf(stdout, "ok: no significant regressions (%d benchmark(s), threshold %.3g%%, alpha %.3g)\n",
				len(rep.Deltas), cfg.threshold, cfg.alpha)
		}
	}
	return len(regs) > 0 || len(zeroViolations) > 0, nil
}

// checkZeroAlloc returns the benchmarks matching pattern whose new-side
// samples report nonzero allocs/op. Matching benchmarks with no -benchmem
// data at all are violations too: the gate must not silently pass because
// allocation data went missing.
func checkZeroAlloc(pattern string, snap benchfmt.Snapshot) ([]string, error) {
	if pattern == "" {
		return nil, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("-zeroalloc: %w", err)
	}
	var out []string
	matched := false
	for _, b := range snap.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		matched = true
		if max, ok := b.MaxAllocsOp(); !ok || max != 0 {
			out = append(out, b.Name)
		}
	}
	if !matched {
		return nil, fmt.Errorf("-zeroalloc %q matches no benchmark in the new snapshot", pattern)
	}
	return out, nil
}

func printTable(w *os.File, rep benchfmt.Report) {
	fmt.Fprintf(w, "%-44s %14s %14s %18s %8s  %s\n",
		"benchmark ("+rep.OldDate+" → "+rep.NewDate+")", "old ns/op", "new ns/op", "delta", "p", "")
	for _, d := range rep.Deltas {
		switch d.Verdict {
		case benchfmt.VerdictOnlyOld:
			fmt.Fprintf(w, "%-44s %14s %14s %18s %8s  (removed)\n", d.Name, fmtNs(d.Old.Median), "-", "-", "-")
			continue
		case benchfmt.VerdictOnlyNew:
			fmt.Fprintf(w, "%-44s %14s %14s %18s %8s  (new)\n", d.Name, "-", fmtNs(d.New.Median), "-", "-")
			continue
		}
		delta := fmt.Sprintf("%+.2f%%", d.Delta)
		if d.CI > 0 {
			delta += fmt.Sprintf(" ±%.2f%%", d.CI)
		}
		mark := "~"
		switch {
		case d.AllocRegression:
			mark = fmt.Sprintf("REGRESSION (allocs/op %d → %d)", d.OldAllocs, d.NewAllocs)
		case d.Verdict == benchfmt.VerdictRegression:
			mark = "REGRESSION"
		case d.Verdict == benchfmt.VerdictImprovement:
			mark = "improvement"
		}
		fmt.Fprintf(w, "%-44s %14s %14s %18s %8.3f  %s (n=%d/%d)\n",
			d.Name, fmtNs(d.Old.Median), fmtNs(d.New.Median), delta, d.P, mark, d.Old.N, d.New.N)
	}
}

// fmtNs renders a nanosecond latency with an SI-ish suffix for
// readability.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.4gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.4gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.4gns", ns)
	}
}
