package search

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/rng"
)

func randomGrid(seed int64, n, obstacles int) (*grid.Grid2D, *Grid2DSpace) {
	r := rng.New(seed)
	g := grid.NewGrid2D(n, n)
	for i := 0; i < obstacles; i++ {
		g.Set(r.Intn(n), r.Intn(n), true)
	}
	g.Set(0, 0, false)
	g.Set(n-1, n-1, false)
	return g, &Grid2DSpace{G: g}
}

func TestAnytimeFinalRoundOptimal(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		_, sp := randomGrid(seed, 25, 180)
		start, goal := sp.ID(0, 0), sp.ID(24, 24)
		h := sp.OctileHeuristic(24, 24)

		opt, errO := Solve(Problem{Space: sp, Start: start, Goal: goal, H: h})
		results, errA := SolveAnytime(Problem{Space: sp, Start: start, Goal: goal, H: h},
			[]float64{3, 2, 1.5, 1})
		if (errO == nil) != (errA == nil) {
			return false
		}
		if errO != nil {
			return true
		}
		final := results[len(results)-1]
		return math.Abs(final.Cost-opt.Cost) < 1e-9
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAnytimeCostsNonIncreasing(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		_, sp := randomGrid(seed, 30, 260)
		start, goal := sp.ID(0, 0), sp.ID(29, 29)
		h := sp.OctileHeuristic(29, 29)
		results, err := SolveAnytime(Problem{Space: sp, Start: start, Goal: goal, H: h},
			[]float64{5, 3, 2, 1.2, 1})
		if err != nil {
			return true // unreachable instance
		}
		for i := 1; i < len(results); i++ {
			if results[i].Cost > results[i-1].Cost+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAnytimeBoundedSuboptimality(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		_, sp := randomGrid(seed, 25, 200)
		start, goal := sp.ID(0, 0), sp.ID(24, 24)
		h := sp.OctileHeuristic(24, 24)
		opt, errO := Solve(Problem{Space: sp, Start: start, Goal: goal, H: h})
		results, errA := SolveAnytime(Problem{Space: sp, Start: start, Goal: goal, H: h},
			[]float64{3, 1.5})
		if (errO == nil) != (errA == nil) {
			return false
		}
		if errO != nil {
			return true
		}
		// Each round's cost is within its ε of optimal.
		for _, r := range results {
			if r.Cost > r.Epsilon*opt.Cost+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAnytimePathsValid(t *testing.T) {
	g, sp := randomGrid(11, 40, 480)
	start, goal := sp.ID(0, 0), sp.ID(39, 39)
	h := sp.OctileHeuristic(39, 39)
	results, err := SolveAnytime(Problem{Space: sp, Start: start, Goal: goal, H: h},
		[]float64{4, 2, 1})
	if err != nil {
		t.Skip("instance unreachable")
	}
	for _, r := range results {
		if r.Path[0] != start || r.Path[len(r.Path)-1] != goal {
			t.Fatalf("eps=%v: bad endpoints", r.Epsilon)
		}
		for i, id := range r.Path {
			x, y := sp.Cell(id)
			if g.Occupied(x, y) {
				t.Fatalf("eps=%v: path cell %d occupied", r.Epsilon, i)
			}
			if i > 0 {
				px, py := sp.Cell(r.Path[i-1])
				dx, dy := x-px, y-py
				if dx < -1 || dx > 1 || dy < -1 || dy > 1 {
					t.Fatalf("eps=%v: non-adjacent step", r.Epsilon)
				}
			}
		}
	}
}

func TestAnytimeReusesSearchEffort(t *testing.T) {
	// ARA*'s point: the later rounds are much cheaper than searching from
	// scratch. Compare total expansions of the schedule against the sum of
	// independent WA* searches at each ε, on every instance that has a path.
	schedule := []float64{3, 2, 1.5, 1.2, 1}
	solvable := 0
	for seed := int64(1); seed <= 12; seed++ {
		_, sp := randomGrid(seed, 80, 2000)
		start, goal := sp.ID(0, 0), sp.ID(79, 79)
		h := sp.OctileHeuristic(79, 79)

		results, err := SolveAnytime(Problem{Space: sp, Start: start, Goal: goal, H: h}, schedule)
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		solvable++
		araTotal := 0
		for _, r := range results {
			araTotal += r.Expanded
		}
		indepTotal := 0
		for _, eps := range schedule {
			r, err := Solve(Problem{Space: sp, Start: start, Goal: goal, H: h, Weight: eps})
			if err != nil {
				t.Fatalf("seed %d, eps=%v: %v", seed, eps, err)
			}
			indepTotal += r.Expanded
		}
		if araTotal >= indepTotal {
			t.Errorf("seed %d: ARA* expanded %d, independent searches %d — no reuse",
				seed, araTotal, indepTotal)
		}
	}
	if solvable < 4 {
		t.Fatalf("only %d of 12 instances have a path; the property went unchecked", solvable)
	}
}

func TestAnytimeRequiresGoalState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IsGoal accepted")
		}
	}()
	_, sp := randomGrid(1, 10, 10)
	SolveAnytime(Problem{ //nolint:errcheck
		Space: sp, Start: 0,
		IsGoal: func(int) bool { return false },
	}, []float64{1})
}

func TestAnytimeNoPath(t *testing.T) {
	g := grid.NewGrid2D(10, 10)
	for y := 0; y < 10; y++ {
		g.Set(5, y, true)
	}
	sp := &Grid2DSpace{G: g}
	_, err := SolveAnytime(Problem{Space: sp, Start: sp.ID(0, 0), Goal: sp.ID(9, 9),
		H: sp.OctileHeuristic(9, 9)}, []float64{2, 1})
	if err != ErrNoPath {
		t.Fatalf("err = %v", err)
	}
}
