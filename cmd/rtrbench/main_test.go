package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/rtrbench"
)

// cliSmallFlags shrink each per-kernel runner to roughly SizeSmall.
var cliSmallFlags = map[string][]string{
	"pfl":      {"--particles", "300", "--steps", "25"},
	"ekfslam":  {"--steps", "120"},
	"srec":     {"--cols", "80", "--rows", "60", "--iters", "12"},
	"pp2d":     {"--size", "160"},
	"pp3d":     {"--w", "64", "--h", "64", "--d", "16"},
	"movtar":   {"--size", "96"},
	"prm":      {"--samples", "700"},
	"rrt":      {"--samples", "10000"},
	"rrtstar":  {"--samples", "10000"},
	"rrtpp":    {"--samples", "10000"},
	"sym-blkw": {"--blocks", "5"},
	"sym-fext": {"--locations", "4", "--pours", "2"},
	"dmp":      {"--steps", "600"},
	"mpc":      {"--steps", "50", "--horizon", "10", "--iters", "15"},
	"cem":      {"--iters", "3", "--samples", "8", "--elite", "3"},
	"bo":       {"--iters", "15", "--candidates", "400"},
}

// metricNames lists a report row's metric keys, finite or not.
func metricNames(metrics map[string]float64, nonfinite []string) string {
	names := append([]string(nil), nonfinite...)
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestKernelCLIMetricNamesMatchRegistry pins `rtrbench <kernel>` to the
// metric names of the same kernel's registry row, which `rtrbench suite`
// and rtrbenchd report, and to the registry's Table I fields: the row's
// paper bottlenecks and its verdict on its own dominant phase.
func TestKernelCLIMetricNamesMatchRegistry(t *testing.T) {
	kernels := rtrbench.Kernels()
	if len(kernels) != len(runners) {
		t.Fatalf("%d registered kernels, %d CLI runners", len(kernels), len(runners))
	}
	for _, k := range kernels {
		t.Run(k.Name, func(t *testing.T) {
			run, ok := runners[k.Name]
			if !ok {
				t.Fatalf("no CLI runner for %s", k.Name)
			}
			flags, ok := cliSmallFlags[k.Name]
			if !ok {
				t.Fatalf("no small-run flags for %s", k.Name)
			}
			out := filepath.Join(t.TempDir(), "report.json")
			if err := run(append([]string{"--format", "json", "--out", out}, flags...)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var cli obs.KernelReport
			if err := json.Unmarshal(data, &cli); err != nil {
				t.Fatal(err)
			}
			reg, err := rtrbench.Run(k.Name, rtrbench.Options{Size: rtrbench.SizeSmall})
			if err != nil {
				t.Fatal(err)
			}
			got := metricNames(cli.Metrics, cli.NonfiniteMetrics)
			want := metricNames(reg.Metrics, nil)
			if got != want {
				t.Errorf("CLI metrics\n  %s\nregistry metrics\n  %s", got, want)
			}
			if !slices.Equal(cli.PaperBottlenecks, k.PaperBottlenecks) {
				t.Errorf("CLI paper_bottlenecks %q, registry %q", cli.PaperBottlenecks, k.PaperBottlenecks)
			}
			if want := report.MatchesPaper(k, cli.Dominant); cli.MatchesPaper != want {
				t.Errorf("CLI matches_paper %v for dominant %q, want %v", cli.MatchesPaper, cli.Dominant, want)
			}
		})
	}
}

// TestScenChecksItsInputs: `pp2d --scen` needs the map its scenarios were
// written for. Without --map, or against a map of another size, it fails
// instead of reporting unsolved problems.
func TestScenChecksItsInputs(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "open.map")
	writeFile(t, mapPath, func(w io.Writer) error { return grid.WriteMovingAI(w, grid.NewGrid2D(8, 8)) })
	scen := func(name string, w, h int) string {
		path := filepath.Join(dir, name)
		writeFile(t, path, func(wr io.Writer) error {
			return grid.WriteScen(wr, []grid.Scenario{{
				MapName: "open.map", MapW: w, MapH: h,
				StartX: 0, StartY: 0, GoalX: 7, GoalY: 7, OptimalLength: 7 * math.Sqrt2,
			}})
		})
		return path
	}
	match, other := scen("match.scen", 8, 8), scen("other.scen", 16, 16)

	for _, tc := range []struct {
		args []string
		want string // error substring; "" = success
	}{
		{[]string{"--scen", match}, "--scen requires --map"},
		{[]string{"--scen", other, "--map", mapPath}, "scen 0 is for a 16x16 map, --map is 8x8"},
		{[]string{"--scen", match, "--map", mapPath}, ""},
	} {
		err := runners["pp2d"](tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("pp2d %s: %v", strings.Join(tc.args, " "), err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("pp2d %s: error %v, want %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

func writeFile(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
