package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"repro/rtrbench"
)

// runVerify implements `rtrbench verify`: the correctness gate that re-runs
// every kernel at the Small size and diffs its result digest (operation
// counts and final-state summaries — never timings) against the golden
// digests checked in under rtrbench/testdata/golden/.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var (
		kernels  = fs.String("kernels", "", "comma-separated kernel subset (default: all 16)")
		seedsArg = fs.String("seeds", "", "comma-separated base seeds (default: the checked-in 1,42)")
		dir      = fs.String("golden", "rtrbench/testdata/golden", "golden digest directory")
		update   = fs.Bool("update", false, "regenerate the golden digests from the current code")
		parallel = fs.Int("parallel", runtime.NumCPU(), "kernels running concurrently")
		meta     = fs.Bool("metamorphic", false, "also check digest invariance: parallel 1 vs 8, trial reorder, profiling on vs off, intra-kernel workers 0 vs 8 (pfl, prm)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := rtrbench.VerifyOptions{
		Dir:         *dir,
		Update:      *update,
		Metamorphic: *meta,
		Parallel:    *parallel,
	}
	if *kernels != "" {
		for _, name := range strings.Split(*kernels, ",") {
			opts.Kernels = append(opts.Kernels, strings.TrimSpace(name))
		}
	}
	if *seedsArg != "" {
		for _, s := range strings.Split(*seedsArg, ",") {
			seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fmt.Errorf("--seeds: bad seed %q", s)
			}
			opts.Seeds = append(opts.Seeds, seed)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := rtrbench.Verify(ctx, opts)
	if err != nil {
		return err
	}

	for _, path := range rep.Updated {
		fmt.Printf("wrote %s\n", path)
	}
	if len(rep.Updated) > 0 {
		fmt.Printf("updated %d golden digest(s)\n", len(rep.Updated))
		return nil
	}
	for _, path := range rep.Missing {
		fmt.Printf("MISSING %s (run `rtrbench verify -update` to create)\n", path)
	}
	for _, m := range rep.Mismatches {
		fmt.Printf("MISMATCH %s\n", m)
	}
	if !rep.OK() {
		return fmt.Errorf("%d mismatch(es), %d missing golden(s) across %d checked digest(s)",
			len(rep.Mismatches), len(rep.Missing), rep.Checked)
	}
	fmt.Printf("verify OK: %d digest comparison(s) clean\n", rep.Checked)
	return nil
}
