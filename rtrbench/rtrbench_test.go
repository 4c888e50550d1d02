package rtrbench

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arm"
	"repro/internal/core/pfl"
	"repro/internal/core/rrt"
	"repro/internal/profile"
)

func TestRegistryComplete(t *testing.T) {
	ks := Kernels()
	if len(ks) != 16 {
		t.Fatalf("registry has %d kernels, want 16", len(ks))
	}
	// Table I order and indices.
	wantNames := []string{
		"pfl", "ekfslam", "srec", "pp2d", "pp3d", "movtar", "prm", "rrt",
		"rrtstar", "rrtpp", "sym-blkw", "sym-fext", "dmp", "mpc", "cem", "bo",
	}
	for i, k := range ks {
		if k.Name != wantNames[i] {
			t.Fatalf("kernel %d = %q, want %q", i, k.Name, wantNames[i])
		}
		if k.Index != i+1 {
			t.Fatalf("kernel %q index %d, want %d", k.Name, k.Index, i+1)
		}
		if k.Description == "" || len(k.PaperBottlenecks) == 0 || len(k.ExpectDominant) == 0 {
			t.Fatalf("kernel %q missing metadata", k.Name)
		}
	}
}

func TestStagesMatchTable1(t *testing.T) {
	wantStages := map[string]Stage{
		"pfl": Perception, "ekfslam": Perception, "srec": Perception,
		"pp2d": Planning, "pp3d": Planning, "movtar": Planning,
		"prm": Planning, "rrt": Planning, "rrtstar": Planning,
		"rrtpp": Planning, "sym-blkw": Planning, "sym-fext": Planning,
		"dmp": Control, "mpc": Control, "cem": Control, "bo": Control,
	}
	for _, k := range Kernels() {
		if k.Stage != wantStages[k.Name] {
			t.Fatalf("kernel %q stage %q, want %q", k.Name, k.Stage, wantStages[k.Name])
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("pfl"); !ok {
		t.Fatal("pfl not found")
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Fatal("bogus kernel found")
	}
}

func TestRunUnknownKernel(t *testing.T) {
	if _, err := Run("nonexistent", Options{}); err == nil {
		t.Fatal("unknown kernel did not error")
	}
}

// TestEveryKernelRunsSmall is the suite-level integration test: all sixteen
// kernels execute error-free at SizeSmall, produce a non-empty ROI and
// phase breakdown, and their measured dominant phase confirms the paper's
// Table I characterization.
func TestEveryKernelRunsSmall(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, err := Run(k.Name, Options{Size: SizeSmall, Seed: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Kernel != k.Name || res.Stage != k.Stage {
				t.Fatalf("result identity: %q/%q", res.Kernel, res.Stage)
			}
			if res.ROI <= 0 {
				t.Fatal("empty ROI")
			}
			if len(res.Phases) == 0 {
				t.Fatal("no phases recorded")
			}
			dom := res.Dominant()
			okDom := false
			for _, e := range k.ExpectDominant {
				if e == dom {
					okDom = true
				}
			}
			if !okDom {
				t.Fatalf("dominant phase %q not in expected set %v (Table I mismatch)",
					dom, k.ExpectDominant)
			}
			if len(res.Metrics) == 0 {
				t.Fatal("no metrics recorded")
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	results, err := RunAll(Options{Size: SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("RunAll returned %d results", len(results))
	}
}

func TestFractionsWithinROI(t *testing.T) {
	res, err := Run("pp2d", Options{Size: SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.Phases {
		if p.Fraction < 0 || p.Fraction > 1.001 {
			t.Fatalf("phase %q fraction %v", p.Name, p.Fraction)
		}
		sum += p.Fraction
	}
	if sum > 1.01 {
		t.Fatalf("fractions sum to %v > 1", sum)
	}
}

func TestVariantSelectsWorkspace(t *testing.T) {
	clutter, err := Run("rrt", Options{Size: SizeSmall, Seed: 1, Variant: "mapc"})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run("rrt", Options{Size: SizeSmall, Seed: 1, Variant: "mapf"})
	if err != nil {
		t.Fatal(err)
	}
	// The free map needs far fewer samples than the cluttered one.
	if free.Metric("samples") >= clutter.Metric("samples") {
		t.Fatalf("mapf samples %v >= mapc samples %v",
			free.Metric("samples"), clutter.Metric("samples"))
	}
}

func TestSeriesExposed(t *testing.T) {
	res, err := Run("cem", Options{Size: SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series["rewards"]) == 0 || len(res.Series["best_per_iter"]) == 0 {
		t.Fatal("cem reward series missing (needed for Fig. 18)")
	}
	res, err = Run("dmp", Options{Size: SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series["velocity"]) == 0 || len(res.Series["traj_x"]) == 0 {
		t.Fatal("dmp series missing (needed for Fig. 15)")
	}
}

// TestRRTFamilyOrdering verifies the §V.9-10 headline result end-to-end
// through the public API: RRT* is slower but shorter; RRT-PP lands between.
func TestRRTFamilyOrdering(t *testing.T) {
	var rrtCost, ppCost, starCost float64
	var rrtTime, starTime float64
	const seeds = 3
	for seed := int64(1); seed <= seeds; seed++ {
		opts := Options{Size: SizeSmall, Seed: seed}
		a, err := Run("rrt", opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run("rrtpp", opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Run("rrtstar", opts)
		if err != nil {
			t.Fatal(err)
		}
		rrtCost += a.Metric("path_cost_rad")
		ppCost += b.Metric("path_cost_rad")
		starCost += c.Metric("path_cost_rad")
		rrtTime += a.ROI.Seconds()
		starTime += c.ROI.Seconds()
	}
	if !(starCost < ppCost && ppCost < rrtCost) {
		t.Fatalf("cost ordering violated: rrt=%.2f pp=%.2f star=%.2f",
			rrtCost/seeds, ppCost/seeds, starCost/seeds)
	}
	if starTime <= rrtTime {
		t.Fatalf("RRT* (%vs) not slower than RRT (%vs)", starTime, rrtTime)
	}
}

// TestKernelVariants exercises the extension variants exposed through the
// registry: point-to-plane ICP and RRT-Connect.
func TestKernelVariants(t *testing.T) {
	plane, err := Run("srec", Options{Size: SizeSmall, Seed: 1, Variant: "plane"})
	if err != nil {
		t.Fatal(err)
	}
	point, err := Run("srec", Options{Size: SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plane.Metric("trans_error_m") >= point.Metric("trans_error_m") {
		t.Fatalf("plane residual %.4f !< point %.4f",
			plane.Metric("trans_error_m"), point.Metric("trans_error_m"))
	}

	conn, err := Run("rrt", Options{Size: SizeSmall, Seed: 1, Variant: "connect"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run("rrt", Options{Size: SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.Metric("samples") >= base.Metric("samples") {
		t.Fatalf("connect samples %v !< rrt %v",
			conn.Metric("samples"), base.Metric("samples"))
	}
}

// TestRunConfig pins RunConfig's checks: a config of another kernel's type
// or one that fails validation never reaches the kernel, and an unknown
// name is an error. A config built like the adapter's runs the same kernel
// as Run: rrt.Config.Connect is the "connect" variant.
func TestRunConfig(t *testing.T) {
	ctx := context.Background()
	ran := func(p *profile.Profile) bool {
		rep := p.Snapshot()
		return rep.ROI != 0 || len(rep.Phases) != 0
	}

	p := profile.New()
	_, err := RunConfig(ctx, "pfl", rrt.DefaultConfig(), p)
	if err == nil || !strings.Contains(err.Error(), "pfl.Config") || !strings.Contains(err.Error(), "rrt.Config") {
		t.Errorf("wrong config type: error %v, want one naming pfl.Config and rrt.Config", err)
	}
	if ran(p) {
		t.Error("a config of the wrong type ran the kernel")
	}

	bad := pfl.DefaultConfig()
	bad.Particles = 0
	_, err = RunConfig(ctx, "pfl", bad, p)
	if err == nil || !strings.Contains(err.Error(), "Particles must be positive (got 0)") {
		t.Errorf("invalid config: error %v, want the Particles field error", err)
	}
	if ran(p) {
		t.Error("an invalid config ran the kernel")
	}

	if _, err := RunConfig(ctx, "nope", bad, p); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("unknown name: error %v, want unknown kernel", err)
	}

	cfg := rrt.DefaultConfig()
	cfg.MaxSamples = 10000
	cfg.Workspace = arm.MapC()
	cfg.Connect = true
	got, err := RunConfig(ctx, "rrt", cfg, profile.New())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run("rrt", Options{Size: SizeSmall, Variant: "connect"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Errorf("RunConfig metrics %v\nRun metrics %v", got.Metrics, want.Metrics)
	}
}

// TestSymBranchingRatio verifies §V.12 through the public API: the
// firefighting domain exposes more parallelism (higher branching).
func TestSymBranchingRatio(t *testing.T) {
	blkw, err := Run("sym-blkw", Options{Size: SizeDefault})
	if err != nil {
		t.Fatal(err)
	}
	fext, err := Run("sym-fext", Options{Size: SizeDefault})
	if err != nil {
		t.Fatal(err)
	}
	if fext.Metric("avg_branching") <= blkw.Metric("avg_branching") {
		t.Fatalf("branching fext=%.2f !> blkw=%.2f",
			fext.Metric("avg_branching"), blkw.Metric("avg_branching"))
	}
}
