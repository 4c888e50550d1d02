package pfl

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/profile"
)

// trackingConfig returns a fast, deterministic tracking-mode setup: the
// filter starts from a coarse prior near the true start (region 0 of the
// default map) and must lock on.
func trackingConfig() Config {
	cfg := DefaultConfig()
	cfg.Particles = 400
	cfg.Steps = 40
	prior := geom.Pose2{X: 5.0, Y: 12.1, Theta: 0}
	cfg.TrackingPrior = &prior
	cfg.TrackingSpread = 1.5
	return cfg
}

func TestTrackingConverges(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := trackingConfig()
		cfg.Seed = seed
		res, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PositionError > 1 {
			t.Fatalf("seed %d: position error %.2f m", seed, res.PositionError)
		}
	}
}

func TestGlobalLocalizationConverges(t *testing.T) {
	// Global localization from a uniform prior (the paper's Fig. 2
	// scenario). Convergence is seed-dependent — the building has aliased
	// rooms — so the test pins a seed known to converge; EXPERIMENTS.md
	// reports the measured rate across seeds.
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PositionError > 1 {
		t.Fatalf("position error %.2f m — global localization lost", res.PositionError)
	}
	if res.HeadingError > 0.3 {
		t.Fatalf("heading error %.2f rad", res.HeadingError)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := trackingConfig()
	a, err1 := Run(context.Background(), cfg, nil)
	b, err2 := Run(context.Background(), cfg, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a.Estimate != b.Estimate || a.Raycasts != b.Raycasts {
		t.Fatal("same seed produced different runs")
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := trackingConfig()
	a, _ := Run(context.Background(), cfg, nil)
	cfg.Seed = 2
	b, _ := Run(context.Background(), cfg, nil)
	if a.Estimate == b.Estimate {
		t.Fatal("different seeds produced identical estimates")
	}
}

func TestRaycastDominatesProfile(t *testing.T) {
	cfg := trackingConfig()
	p := profile.New()
	if _, err := Run(context.Background(), cfg, p); err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if rep.Dominant() != "raycast" {
		t.Fatalf("dominant phase = %q, want raycast (paper: 67-78%%)", rep.Dominant())
	}
	if f := rep.Fraction("raycast"); f < 0.5 {
		t.Fatalf("raycast fraction = %.2f, want > 0.5", f)
	}
}

func TestAllFiveRegionsRun(t *testing.T) {
	for region := 0; region < 5; region++ {
		cfg := trackingConfig()
		cfg.Region = region
		cfg.TrackingPrior = nil // global; we only check it executes
		cfg.InitFactor = 3
		cfg.Steps = 5
		cfg.Particles = 100
		if _, err := Run(context.Background(), cfg, nil); err != nil {
			t.Fatalf("region %d: %v", region, err)
		}
	}
}

func TestRaycastWorkScalesWithParticles(t *testing.T) {
	cfg := trackingConfig()
	cfg.Steps = 10
	cfg.Particles = 100
	small, _ := Run(context.Background(), cfg, nil)
	cfg.Particles = 400
	big, _ := Run(context.Background(), cfg, nil)
	if big.Raycasts <= small.Raycasts {
		t.Fatal("ray casts did not scale with particle count")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Particles = 0
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("zero particles accepted")
	}
	cfg = DefaultConfig()
	cfg.Steps = -1
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestEffectiveSampleSizeSane(t *testing.T) {
	res, err := Run(context.Background(), trackingConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveSampleSize < 1 {
		t.Fatalf("ESS = %v", res.EffectiveSampleSize)
	}
	if res.Resamples == 0 {
		t.Fatal("filter never resampled")
	}
}

func TestParallelWorkersBitIdentical(t *testing.T) {
	// Workers only schedules the weigh fan-out: at every worker count the
	// estimates and counters equal the serial run's bit for bit.
	a, err := Run(context.Background(), trackingConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 64} {
		cfg := trackingConfig()
		cfg.Workers = workers
		b, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Estimate != b.Estimate || a.Raycasts != b.Raycasts || a.CellsVisited != b.CellsVisited ||
			a.Resamples != b.Resamples || a.EffectiveSampleSize != b.EffectiveSampleSize {
			t.Fatalf("workers=%d diverged from serial: %+v vs %+v", workers, b, a)
		}
	}
}

// TestStaleShardRegression is the regression test for the worker-shard
// accounting bug: the parallel weigh fan-out never cleared s.shards, so once
// the over-provisioned initial population shrank at the first resample,
// workers with no particle range left (lo >= len(parts)) kept their
// first-tick shard, and the accumulation loop re-added those stale
// Raycasts/CellsVisited every later tick. With 64 workers and a 50-particle
// steady state only workers 0-49 stay active, so pre-fix the 64-worker run
// inflates its counters relative to the 8-worker run of the very same
// algorithm. This test failed before shards were zeroed per tick.
func TestStaleShardRegression(t *testing.T) {
	run := func(workers int) Result {
		cfg := DefaultConfig()
		cfg.Particles = 50
		cfg.InitFactor = 25 // tick 1 weighs 1250 particles, later ticks 50
		cfg.Steps = 4
		cfg.Workers = workers
		res, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	few, many := run(8), run(64)
	if few.Raycasts != many.Raycasts || few.CellsVisited != many.CellsVisited {
		t.Fatalf("stale shards re-accumulated: workers=64 counted %d raycasts / %d cells, workers=8 counted %d / %d",
			many.Raycasts, many.CellsVisited, few.Raycasts, few.CellsVisited)
	}
	if few.Estimate != many.Estimate {
		t.Fatalf("worker count changed the estimate: %+v vs %+v", many.Estimate, few.Estimate)
	}
}

func TestSensorDropoutTolerated(t *testing.T) {
	// Failure injection: 20% of beams read max range. The filter must
	// still track (the mixture model's uniform floor absorbs outliers).
	cfg := trackingConfig()
	cfg.Laser.Dropout = 0.2
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PositionError > 2 {
		t.Fatalf("position error %.2f m under 20%% beam dropout", res.PositionError)
	}
}

func TestLikelihoodFieldAblation(t *testing.T) {
	cfg := trackingConfig()
	cfg.LikelihoodField = true
	p := profile.New()
	res, err := Run(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Still localizes...
	if res.PositionError > 1.5 {
		t.Fatalf("likelihood-field tracking error %.2f m", res.PositionError)
	}
	// ...but the ray-casting bottleneck is gone.
	if res.Raycasts != 0 {
		t.Fatalf("likelihood field still cast %d rays", res.Raycasts)
	}
	rep := p.Snapshot()
	if rep.Fraction("raycast") > 0.01 {
		t.Fatalf("raycast still %.2f of ROI", rep.Fraction("raycast"))
	}
	if rep.Fraction("weight") <= 0 {
		t.Fatal("weight phase missing")
	}
}

func TestCountersPopulated(t *testing.T) {
	res, err := Run(context.Background(), trackingConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Raycasts == 0 || res.CellsVisited <= res.Raycasts {
		t.Fatalf("raycasts=%d cells=%d", res.Raycasts, res.CellsVisited)
	}
}
