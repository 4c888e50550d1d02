package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core/pp2d"
	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/naive"
	"repro/internal/profile"
	"repro/rtrbench"
)

// experiments are the paper evaluations beyond Table I (which is `rtrbench
// suite`), in the order the usage message lists them. Each runs registered
// kernels through rtrbench.Run, so it shares the registry's configuration
// at the chosen size; Fig. 21 is the exception, as its baselines are not
// kernels.
var experiments = []struct {
	name string
	run  func(w io.Writer, opts rtrbench.Options) error
}{
	{"rrtcompare", rrtCompare},
	{"movtarsweep", movtarSweep},
	{"symcompare", symCompare},
	{"fig21", fig21},
}

// runReport implements `rtrbench report <experiment> [--size] [--seed]`.
func runReport(args []string) error {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	if len(args) == 0 {
		return fmt.Errorf("missing experiment (want %s)", strings.Join(names, " | "))
	}
	for _, e := range experiments {
		if e.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("report "+e.name, flag.ExitOnError)
		size := fs.String("size", "small", "workload size: small | default")
		seed := fs.Int64("seed", 1, "random seed (rrtcompare averages seed … seed+4)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		sz, err := parseSize(*size)
		if err != nil {
			return err
		}
		return e.run(os.Stdout, rtrbench.Options{Size: sz, Seed: *seed})
	}
	return fmt.Errorf("unknown experiment %q (want %s)", args[0], strings.Join(names, " | "))
}

// rrtSeeds is how many consecutive seeds rrtcompare averages: sampling
// planners vary widely from seed to seed.
const rrtSeeds = 5

// rrtRow is one planner's means over the rrtcompare seeds.
type rrtRow struct {
	kernel string
	seeds  int
	roi    time.Duration
	cost   float64 // path cost, rad
	nn     float64 // ROI share of nearest-neighbor search
	coll   float64 // ROI share of collision detection
}

// rrtRows runs rrt, rrtpp and rrtstar on seeds opts.Seed … opts.Seed+4 and
// averages each planner's ROI, path cost and phase shares. A seed that
// finds no path fails the experiment instead of dropping out of the mean.
func rrtRows(opts rtrbench.Options) ([]rrtRow, error) {
	var rows []rrtRow
	for _, name := range []string{"rrt", "rrtpp", "rrtstar"} {
		row := rrtRow{kernel: name}
		for s := int64(0); s < rrtSeeds; s++ {
			o := opts
			o.Seed += s
			res, err := rtrbench.Run(name, o)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", name, o.Seed, err)
			}
			row.seeds++
			row.roi += res.ROI
			row.cost += res.Metric("path_cost_rad")
			row.nn += res.Fraction("nn")
			row.coll += res.Fraction("collision")
		}
		n := float64(row.seeds)
		row.roi /= time.Duration(row.seeds)
		row.cost /= n
		row.nn /= n
		row.coll /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// rrtCompare reproduces §V.9-10: RRT* is several times slower than RRT but
// yields shorter paths; RRT-PP lands between.
func rrtCompare(w io.Writer, opts rtrbench.Options) error {
	rows, err := rrtRows(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "RRT family comparison (mean over %d seeds), Map-C:\n", rrtSeeds)
	fmt.Fprintf(w, "%-8s %12s %10s %8s %8s\n", "kernel", "time", "pathcost", "nn%", "coll%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12v %10.3f %7.1f%% %7.1f%%\n",
			r.kernel, r.roi.Round(time.Microsecond), r.cost, 100*r.nn, 100*r.coll)
	}
	rrt, star := rows[0], rows[2]
	fmt.Fprintf(w, "slowdown rrtstar/rrt: %.1fx   path ratio rrt/rrtstar: %.2fx\n",
		float64(star.roi)/float64(rrt.roi), rrt.cost/star.cost)
	return nil
}

// movtarSweep reproduces §V.6: the heuristic (backward Dijkstra) share of
// end-to-end time grows as the environment shrinks. The movtar kernel's
// variant is its terrain edge length.
func movtarSweep(w io.Writer, opts rtrbench.Options) error {
	sizes := []int{48, 96, 192, 384}
	if opts.Size == rtrbench.SizeDefault {
		sizes = append(sizes, 512)
	}
	fmt.Fprintln(w, "movtar: heuristic share vs environment size")
	fmt.Fprintf(w, "%-8s %12s %10s %10s %10s\n", "size", "ROI", "heur%", "search%", "expanded")
	for _, n := range sizes {
		o := opts
		o.Variant = strconv.Itoa(n)
		res, err := rtrbench.Run("movtar", o)
		if err != nil {
			return fmt.Errorf("movtar size %d: %w", n, err)
		}
		fmt.Fprintf(w, "%-8d %12v %9.1f%% %9.1f%% %10.0f\n",
			n, res.ROI.Round(time.Microsecond),
			100*res.Fraction("heuristic"), 100*res.Fraction("search"), res.Metric("expanded"))
	}
	return nil
}

// symCompare reproduces §V.12: the firefighting domain exposes a higher
// branching factor (more applicable actions per state) than blocks world.
func symCompare(w io.Writer, opts rtrbench.Options) error {
	var branching [2]float64
	for i, name := range []string{"sym-blkw", "sym-fext"} {
		res, err := rtrbench.Run(name, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		branching[i] = res.Metric("avg_branching")
		fmt.Fprintf(w, "%s: plan=%d expanded=%.0f branching=%.2f\n",
			name, int(res.Metric("plan_length")), res.Metric("expanded"), branching[i])
	}
	if branching[0] > 0 {
		fmt.Fprintf(w, "branching ratio fext/blkw: %.2fx (paper: ~3.2x)\n", branching[1]/branching[0])
	}
	return nil
}

// fig21 reproduces the paper's Fig. 21: the optimized pp2d planner versus
// the P-Rob-style (interpreted) and C-Rob-style (copy-by-value) baselines on
// the PythonRobotics demo map scaled by powers of two.
func fig21(w io.Writer, opts rtrbench.Options) error {
	scales := []int{1, 2, 4, 8}
	if opts.Size == rtrbench.SizeDefault {
		scales = append(scales, 16, 32)
	}
	fmt.Fprintln(w, "Fig. 21 reproduction: execution time by map scale")
	fmt.Fprintf(w, "%-6s %14s %14s %14s %10s %10s\n", "scale", "RTRBench", "P-Rob-style", "C-Rob-style", "P/R", "C/R")
	base := maps.PRobMap()
	for _, k := range scales {
		g := base.Scale(k)
		sx, sy, gx, gy := maps.PRobStartGoal(k)

		var err error
		tOpt := timeIt(func() { err = optimizedPointAStar(g, sx, sy, gx, gy) })
		if err != nil {
			return fmt.Errorf("fig21 scale %d: optimized planner: %w", k, err)
		}
		tInterp := timeIt(func() { naive.Interp(g, sx, sy, gx, gy) })
		tCopy := timeIt(func() { naive.Copy(g, sx, sy, gx, gy) })

		fmt.Fprintf(w, "%-6d %14v %14v %14v %9.1fx %9.1fx\n",
			k, tOpt.Round(time.Microsecond), tInterp.Round(time.Microsecond), tCopy.Round(time.Microsecond),
			float64(tInterp)/float64(tOpt), float64(tCopy)/float64(tOpt))
	}
	return nil
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// optimizedPointAStar runs the suite's A* as a point robot (the baselines
// are point planners, so the comparison is like for like).
func optimizedPointAStar(g *grid.Grid2D, sx, sy, gx, gy int) error {
	cfg := pp2d.DefaultConfig()
	cfg.Map = g
	// A point robot: footprint smaller than one cell.
	cfg.CarLength = g.Resolution * 0.5
	cfg.CarWidth = g.Resolution * 0.5
	cfg.StartX, cfg.StartY, cfg.GoalX, cfg.GoalY = sx, sy, gx, gy
	_, err := pp2d.Run(context.Background(), cfg, profile.Disabled())
	return err
}
