package prm

import (
	"context"
	"testing"
)

func TestParallelFindsPath(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Workers = 4
		res, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Found || len(res.Path) < 2 {
			t.Fatalf("seed %d: no path (nodes=%d edges=%d)", seed, res.RoadmapNodes, res.RoadmapEdges)
		}
	}
}

func TestParallelWorkersBitIdentical(t *testing.T) {
	// Workers only schedules the connection phase: at every worker count
	// the roadmap — and therefore the query result and every counter —
	// equals the serial build's.
	run := func(workers int, lazy bool) Result {
		cfg := DefaultConfig()
		cfg.Samples = 1500
		cfg.Workers = workers
		cfg.Lazy = lazy
		res, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d lazy=%v: %v", workers, lazy, err)
		}
		return res
	}
	for _, lazy := range []bool{false, true} {
		base := run(0, lazy)
		for _, w := range []int{1, 2, 4, 8} {
			got := run(w, lazy)
			if got.Found != base.Found || got.PathCost != base.PathCost ||
				got.RoadmapNodes != base.RoadmapNodes || got.RoadmapEdges != base.RoadmapEdges ||
				got.Expanded != base.Expanded || got.L2Norms != base.L2Norms ||
				got.SegChecks != base.SegChecks || got.LazyRejected != base.LazyRejected {
				t.Fatalf("lazy=%v workers=%d diverged from serial:\n  %+v\nvs\n  %+v", lazy, w, got, base)
			}
			for i := range base.Path {
				for j := range base.Path[i] {
					if got.Path[i][j] != base.Path[i][j] {
						t.Fatalf("lazy=%v workers=%d: path[%d][%d] differs", lazy, w, i, j)
					}
				}
			}
		}
	}
}

func TestParallelValidatesWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -2
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("negative Workers accepted")
	}
}
