package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"time"

	"repro/internal/golden"
	"repro/internal/stats"
	"repro/rtrbench"
)

// goldenDir holds the checked-in digests, relative to the checkout root.
const goldenDir = "rtrbench/testdata/golden"

// probeSweeps is how many timed sweeps a sweep probe makes, alternating
// seeds 1 and 42.
const probeSweeps = 4

// sweepSpec is one kind of timed sweep through rtrbench.Suite.
type sweepSpec struct {
	name    string
	kernels []string // nil: all 16 in Table I order
	workers int
}

var (
	// suiteSpec is the suite workload: all 16 kernels, serial algorithms.
	suiteSpec = sweepSpec{name: wlSuite}
	// workersSpec is the six kernels with a Workers path, at one worker per
	// CPU.
	workersSpec = sweepSpec{
		name:    "workers",
		kernels: []string{"pfl", "ekfslam", "prm", "rrt", "rrtstar", "rrtpp"},
		workers: runtime.NumCPU(),
	}
)

// sweepSeed is the seed of the i-th timed sweep. The golden seeds 1 and 42
// alternate with a held-out seed drawn from the run seed; each held-out seed
// serves two consecutive rounds, so its digests are compared across sweeps.
// A probe sweeps the golden seeds only.
func sweepSeed(runSeed int64, i int, probe bool) int64 {
	switch {
	case probe && i%2 == 0, !probe && i%3 == 0:
		return 1
	case probe, i%3 == 1:
		return 42
	}
	return heldOutSeeds[(uint64(runSeed)*7+uint64(i/6))%uint64(len(heldOutSeeds))]
}

// heldOutSeeds are seeds 2..160 without 42 and without the seeds at which
// rrt, rrtstar and rrtpp exhaust their SizeSmall sample budget (they fail by
// design there, at any Workers), so no held-out sweep fails.
var heldOutSeeds = func() []int64 {
	unsolvable := map[int64]bool{8: true, 12: true, 33: true, 35: true, 43: true, 52: true,
		59: true, 69: true, 75: true, 95: true, 104: true, 125: true, 134: true, 156: true}
	var seeds []int64
	for s := int64(2); s <= 160; s++ {
		if s != 42 && !unsolvable[s] {
			seeds = append(seeds, s)
		}
	}
	return seeds
}()

func isGoldenSeed(s int64) bool { return s == 1 || s == 42 }

// sweeps runs reps timed set-ups (load the goldens, one warm-up sweep), then
// timed sweeps for the window, or probeSweeps of them when window is 0. It
// returns the median set-up and sweep times in seconds.
func (b *bench) sweeps(sp sweepSpec, window time.Duration, reps int) (setup, sweep float64, err error) {
	defer logPhase(sp.name, window, time.Now())
	var setups, walls []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := b.loadGoldens(); err != nil {
			return 0, 0, err
		}
		if _, err := b.sweep(sp, 1); err != nil {
			return 0, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	probe := window == 0
	seen := map[int64]int{}
	start := time.Now()
	for i := 0; probe && i < probeSweeps || !probe && (i == 0 || time.Since(start) < window); i++ {
		s := sweepSeed(b.seed, i, probe)
		wall, err := b.sweep(sp, s)
		if err != nil {
			return 0, 0, err
		}
		walls = append(walls, wall)
		seen[s]++
	}
	// Untimed checks: a held-out seed the window swept only once is swept
	// again; a Workers sweep is checked against Workers=1.
	for s, n := range seen {
		if sp.workers > 0 {
			if err := b.checkWorkers(sp, s); err != nil {
				return 0, 0, err
			}
		} else if n == 1 && !isGoldenSeed(s) {
			if _, err := b.sweep(sp, s); err != nil {
				return 0, 0, err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set-ups %.3f sweeps %.3f\n", sp.name, setups, walls)
	return stats.Median(setups), stats.Median(walls), nil
}

// loadGoldens reads the checked-in digests of every kernel at seeds 1 and 42.
func (b *bench) loadGoldens() error {
	for _, info := range rtrbench.Kernels() {
		for _, s := range []int64{1, 42} {
			d, err := golden.Load(goldenDir, info.Name, s)
			if errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("golden digest %s missing (run from the checkout root)", golden.Path(goldenDir, info.Name, s))
			}
			if err != nil {
				return err
			}
			sum, err := golden.Sum(d)
			if err != nil {
				return err
			}
			b.mu.Lock()
			b.goldens[fmt.Sprintf("%s@%d", info.Name, s)] = sum
			b.mu.Unlock()
		}
	}
	return nil
}

// sweep makes one rtrbench.Suite call at Parallel=1 and checks every kernel's
// digest; it returns the call's wall time in seconds. On a traced pass it then
// runs each kernel once more through rtrbench.RunContext, so the adapter and
// the kernel's ROI get spans of their own.
func (b *bench) sweep(sp sweepSpec, seed int64) (float64, error) {
	opts := rtrbench.SuiteOptions{
		Options:  rtrbench.Options{Size: rtrbench.SizeSmall, Seed: seed, Workers: sp.workers},
		Kernels:  sp.kernels,
		Parallel: 1,
	}
	group := b.tr.group(sp.name + "-sweep")
	id := b.tr.next()
	start := time.Now()
	res, err := rtrbench.Suite(b.ctx, opts)
	end := time.Now()
	b.tr.add(span{id: id, group: group, name: "rtrbench.Suite", layer: "engine", lane: laneMain, start: start, end: end})
	if err != nil {
		return 0, fmt.Errorf("%s sweep at seed %d: %w", sp.name, seed, err)
	}
	b.attempt(len(res.Kernels))
	for _, kr := range res.Kernels {
		b.checkResult(sp, kr.Info.Name, seed, kr.Result, kr.Err)
	}
	if b.tr != nil {
		// A kernel's wall inside the sweep is its ROI there plus its adapter
		// overhead, which the RunContext span right after measures.
		var kernelWall time.Duration
		for _, kr := range res.Kernels {
			wall, roi, err := b.runKernel(sp, group, kr.Info.Name, seed, sp.workers)
			if err != nil {
				return 0, err
			}
			kernelWall += kr.Result.ROI + wall - roi
			if sp.workers > 0 {
				serial, _, err := b.runKernel(sp, group, kr.Info.Name, seed, 0)
				if err != nil {
					return 0, err
				}
				b.sample("workers.serial_ms."+kr.Info.Name, ms(serial))
			}
		}
		if sp.workers == 0 {
			b.sample("engine.overhead_ms", ms(end.Sub(start)-kernelWall))
		}
	}
	return end.Sub(start).Seconds(), nil
}

// runKernel runs one kernel through rtrbench.RunContext under a span whose
// child covers the kernel's ROI, checks the result like a sweep's, and
// returns the call's wall time and the kernel's ROI.
func (b *bench) runKernel(sp sweepSpec, group, name string, seed int64, workers int) (wall, roi time.Duration, err error) {
	id := b.tr.next()
	start := time.Now()
	r, err := rtrbench.RunContext(b.ctx, name, rtrbench.Options{Size: rtrbench.SizeSmall, Seed: seed, Workers: workers})
	end := time.Now()
	if b.ctx.Err() != nil {
		return 0, 0, b.ctx.Err()
	}
	b.attempt(1)
	layer, label := "adapter", "RunContext "+name
	if sp.workers > 0 {
		layer, label = "workers", fmt.Sprintf("RunContext %s w%d", name, workers)
	}
	b.tr.add(span{id: id, group: group, name: label, layer: layer, kernel: name, lane: laneMain, start: start, end: end})
	b.tr.add(span{id: b.tr.next(), parent: id, group: group, name: "ROI " + name, layer: "core", kernel: name, lane: laneMain, start: end.Add(-r.ROI), end: end})
	if workers == 0 {
		b.checkResult(suiteSpec, name, seed, r, err)
	} else {
		b.checkResult(sp, name, seed, r, err)
	}
	wall = end.Sub(start)
	switch {
	case sp.workers == 0:
		b.sample("core.roi_ms."+name, ms(r.ROI))
	case workers > 0:
		b.sample("workers.wall_ms."+name, ms(wall))
	}
	return wall, r.ROI, nil
}

// checkResult checks one kernel result: at the golden seeds a serial result
// must match the checked-in digest, and every result must match the first
// digest this run saw for the same path, kernel and seed. Serial operation
// counts go to the exact-count channel.
func (b *bench) checkResult(sp sweepSpec, name string, seed int64, r rtrbench.Result, err error) {
	if err != nil {
		b.fail("%s %s seed %d: %v", sp.name, name, seed, err)
		return
	}
	sum, err := rtrbench.DigestSum(r, seed)
	if err != nil {
		b.fail("%s %s seed %d: digest: %v", sp.name, name, seed, err)
		return
	}
	key := fmt.Sprintf("%s@%d", name, seed)
	if sp.workers == 0 && isGoldenSeed(seed) {
		b.mu.Lock()
		want := b.goldens[key]
		b.mu.Unlock()
		if sum != want {
			b.fail("%s: digest %s, golden %s", key, sum, want)
		}
	}
	b.checkDigest(sp.name+"/"+key, sum)
	if sp.workers == 0 {
		b.setExact("core.ops."+key, operations(r))
	}
}

// opMetrics names each kernel's operation-count metrics. No kernel fills
// Result.Counters (none calls profile.Count), so the operation counts the
// adapters publish as metrics stand in for them.
var opMetrics = map[string][]string{
	"pfl":      {"raycasts", "cells_visited"},
	"ekfslam":  {"updates"},
	"srec":     {"nn_queries"},
	"pp2d":     {"expanded", "collision_checks", "cells_touched"},
	"pp3d":     {"expanded", "collision_checks"},
	"movtar":   {"expanded", "heuristic_cells"},
	"prm":      {"l2_norms", "seg_checks", "expanded"},
	"rrt":      {"samples", "nn_queries", "dist_calls", "seg_checks"},
	"rrtstar":  {"samples", "nn_queries", "dist_calls", "seg_checks"},
	"rrtpp":    {"samples", "nn_queries", "dist_calls", "seg_checks"},
	"sym-blkw": {"expanded", "generated", "string_bytes"},
	"sym-fext": {"expanded", "generated", "string_bytes"},
	"dmp":      {"serial_steps"},
	"mpc":      {"rollouts"},
	"cem":      {"evals"},
	"bo":       {"evals", "predictions", "gp_fits"},
}

// operations is a kernel run's operation count: the sum of Result.Counters
// and of the kernel's operation-count metrics.
func operations(r rtrbench.Result) int64 {
	var ops int64
	for _, v := range r.Counters {
		ops += v
	}
	for _, name := range opMetrics[r.Kernel] {
		ops += int64(r.Metrics[name])
	}
	return ops
}

// checkWorkers sweeps the Workers kernels at Workers=1, untimed: the
// deterministic parallel algorithms must give the digests the timed sweeps at
// Workers=nproc gave.
func (b *bench) checkWorkers(sp sweepSpec, seed int64) error {
	res, err := rtrbench.Suite(b.ctx, rtrbench.SuiteOptions{
		Options:  rtrbench.Options{Size: rtrbench.SizeSmall, Seed: seed, Workers: 1},
		Kernels:  sp.kernels,
		Parallel: 1,
	})
	if err != nil {
		return fmt.Errorf("workers reference sweep at seed %d: %w", seed, err)
	}
	b.attempt(len(res.Kernels))
	for _, kr := range res.Kernels {
		b.checkResult(sp, kr.Info.Name, seed, kr.Result, kr.Err)
	}
	return nil
}
