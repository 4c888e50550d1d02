// Package movtar implements kernel 06.movtar: planning to catch a moving
// target (paper §V.6). The environment is 2D with per-cell traversal costs;
// planning happens in 3D with time as the third dimension. The robot knows
// the target's trajectory and must intercept it at minimum cost.
//
// Before the search, a backward Dijkstra pass computes an environment-aware
// heuristic field ("accounting for obstacles"); the search itself is
// Weighted A* with the heuristic inflated by ε. The paper's evaluation
// highlights that the heuristic precomputation's share of end-to-end time
// is input-dependent: up to 62% on small environments, vanishing on large
// ones where the space-time search dominates — `rtrbench report
// movtarsweep` and the benchmarks reproduce that crossover.
package movtar

import (
	"context"
	"errors"
	"math"

	"repro/internal/check"
	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/pq"
	"repro/internal/profile"
	"repro/internal/search"
)

// Config parameterizes a pursuit run.
type Config struct {
	// Terrain is the cost landscape; nil builds the default synthetic
	// terrain of the given Size.
	Terrain *grid.CostGrid2D
	// Size is the square terrain edge used when Terrain is nil.
	Size int
	// Epsilon is the Weighted A* inflation factor (paper's ε).
	Epsilon float64
	// TargetPeriod is how many robot steps pass per target step; 2 makes
	// the robot twice as fast as the target, guaranteeing interception is
	// possible.
	TargetPeriod int
	// MaxTime caps the planning horizon in robot steps (0 = auto).
	MaxTime int
	Seed    int64
}

// Validate reports every bound and finiteness violation in the config.
func (c Config) Validate() error {
	f := check.New("movtar")
	if math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) || c.Epsilon < 1 {
		f.Addf("Epsilon must be a finite inflation >= 1 (got %v)", c.Epsilon)
	}
	f.NonNegativeInt("Size", c.Size)
	f.NonNegativeInt("TargetPeriod", c.TargetPeriod)
	f.NonNegativeInt("MaxTime", c.MaxTime)
	return f.Err()
}

// DefaultConfig returns a mid-sized pursuit problem.
func DefaultConfig() Config {
	return Config{
		Size:         256,
		Epsilon:      2.0,
		TargetPeriod: 2,
		Seed:         1,
	}
}

// Result reports the pursuit outcome and workload statistics.
type Result struct {
	Found bool
	// CatchTime is the interception time in robot steps.
	CatchTime int
	// PathCost is the accumulated traversal cost of the robot's path.
	PathCost float64
	// Expanded counts space-time states expanded by WA*.
	Expanded int
	// HeuristicCells counts cells settled by the backward Dijkstra pass.
	HeuristicCells int
	// TargetPathLen is the length of the target's trajectory in cells.
	TargetPathLen int
}

// Run executes the kernel. Harness phases: "heuristic" (backward Dijkstra
// field) and "search" (space-time Weighted A*). A cancelled ctx aborts
// either phase promptly, returning ctx.Err().
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	terrain := cfg.Terrain
	if terrain == nil {
		size := cfg.Size
		if size <= 0 {
			size = 256
		}
		terrain = maps.MovtarTerrain(size, size, cfg.Seed)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	period := cfg.TargetPeriod
	if period <= 0 {
		period = 2
	}
	w, h := terrain.W, terrain.H

	// The target walks a minimum-cost route along the far side of the map
	// (away from the robot's corner), computed on the same terrain, then
	// waits at its destination. The robot must chase across the map, so
	// interception effort scales with the environment.
	cspace := &search.CostGrid2DSpace{C: terrain}
	tStart := passableNear(terrain, w-2, 1)
	tGoal := passableNear(terrain, w-2, h-2)
	tr, err := search.Solve(search.Problem{
		Space: cspace,
		Start: cspace.ID(tStart[0], tStart[1]),
		Goal:  cspace.ID(tGoal[0], tGoal[1]),
	})
	if err != nil {
		return Result{}, errors.New("movtar: could not build a target trajectory")
	}
	targetPath := tr.Path

	robotStart := passableNear(terrain, 1, 1)

	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		// The robot is `period`× faster than the target, so chasing it to
		// the end of its route plus a map crossing always suffices.
		maxTime = period*len(targetPath) + (w + h)
	}

	res := Result{TargetPathLen: len(targetPath)}

	prof.BeginROI()

	// --- Backward Dijkstra heuristic: minimum traversal cost from every
	// cell to any cell the target ever visits (multi-source).
	prof.Begin("heuristic")
	hField := make([]float64, w*h)
	for i := range hField {
		hField[i] = math.Inf(1)
	}
	open := pq.NewIndexedHeap(1024)
	for _, id := range targetPath {
		hField[id] = 0
		open.Update(id, 0)
	}
	for open.Len() > 0 {
		if res.HeuristicCells%4096 == 0 {
			if err := ctx.Err(); err != nil {
				prof.End()
				prof.EndROI()
				return res, err
			}
		}
		id, d := open.Pop()
		if d > hField[id] {
			continue
		}
		res.HeuristicCells++
		cspace.Neighbors(id, func(to int, cost float64) {
			if nd := d + cost; nd < hField[to] {
				hField[to] = nd
				open.Update(to, nd)
			}
		})
	}
	prof.End()

	if math.IsInf(hField[cspace.ID(robotStart[0], robotStart[1])], 1) {
		prof.EndROI()
		return res, errors.New("movtar: robot start cannot reach the target trajectory")
	}

	// --- Space-time Weighted A*: state = (x, y, t). The robot moves
	// 8-connected or waits; the target advances every `period` steps.
	targetAt := func(t int) int {
		i := t / period
		if i >= len(targetPath) {
			i = len(targetPath) - 1
		}
		return targetPath[i]
	}
	space := &pursuitSpace{terrain: terrain, maxTime: maxTime}
	// Dense search bookkeeping is dramatically faster but indexes every
	// space-time state; fall back to sparse maps on big problems. The dense
	// book allocates a page only when the search writes a state in it, so
	// the threshold bounds its page directory, not the states it touches.
	if states := w * h * maxTime; states <= 64<<20 {
		space.states = states
	}
	heur := func(id int) float64 {
		cell := id % (w * h)
		return hField[cell]
	}
	isGoal := func(id int) bool {
		t := id / (w * h)
		return id%(w*h) == targetAt(t)
	}

	prof.Begin("search")
	sr, serr := search.Solve(search.Problem{
		Space:  space,
		Start:  cspace.ID(robotStart[0], robotStart[1]), // t = 0
		IsGoal: isGoal,
		H:      heur,
		Weight: cfg.Epsilon,
		Ctx:    ctx,
	})
	prof.End()
	prof.StepDone()
	prof.EndROI()

	res.Found = sr.Found
	res.Expanded = sr.Expanded
	if sr.Found {
		res.PathCost = sr.Cost
		res.CatchTime = sr.Path[len(sr.Path)-1] / (w * h)
	}
	if serr != nil {
		return res, serr
	}
	return res, nil
}

// pursuitSpace is the space-time graph: id = t*(W*H) + y*W + x.
type pursuitSpace struct {
	terrain *grid.CostGrid2D
	maxTime int
	states  int // dense state count, 0 = use sparse bookkeeping
}

// NumStates implements search.Sized when the space-time volume fits in
// dense bookkeeping.
func (s *pursuitSpace) NumStates() int { return s.states }

// Neighbors implements search.Space. Waiting costs the cell's own traversal
// cost (time is never free), moves cost step length times the destination
// cell cost.
func (s *pursuitSpace) Neighbors(id int, yield func(to int, cost float64)) {
	w, h := s.terrain.W, s.terrain.H
	plane := w * h
	cell := id % plane
	t := id / plane
	if t+1 >= s.maxTime {
		return
	}
	x, y := cell%w, cell/w
	next := (t + 1) * plane

	// Wait in place.
	yield(next+cell, s.terrain.Cost(x, y))

	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := x+dx, y+dy
			c := s.terrain.Cost(nx, ny)
			if math.IsInf(c, 1) {
				continue
			}
			step := 1.0
			if dx != 0 && dy != 0 {
				step = math.Sqrt2
			}
			yield(next+ny*w+nx, step*c)
		}
	}
}

func passableNear(c *grid.CostGrid2D, x, y int) [2]int {
	for r := 0; r < c.W+c.H; r++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				nx, ny := x+dx, y+dy
				if c.InBounds(nx, ny) && c.Passable(nx, ny) {
					return [2]int{nx, ny}
				}
			}
		}
	}
	panic("movtar: no passable cell")
}
