package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
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
// and rtrbenchd report.
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
		})
	}
}
