package rtrbench

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/golden"
)

// workerKernelNames returns the parallelized-kernel set in stable order.
func workerKernelNames() []string {
	var names []string
	for name := range workerKernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestWorkersDigestInvariance pins the Workers contract: Workers only
// schedules a kernel's data-parallel loop, so for every kernel honoring it
// the digest at each worker count equals the checked-in golden, at both
// golden seeds.
func TestWorkersDigestInvariance(t *testing.T) {
	names := workerKernelNames()
	for _, seed := range defaultVerifySeeds {
		for _, workers := range []int{0, 1, 2, 8} {
			t.Run(fmt.Sprintf("seed%d/w%d", seed, workers), func(t *testing.T) {
				got, err := suiteDigests(context.Background(), names, seed, 2, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					want, err := golden.Load(DefaultGoldenDir, name, seed)
					if err != nil {
						t.Fatal(err)
					}
					if diffs := golden.Diff(want, got[name]); len(diffs) > 0 {
						t.Errorf("%s: workers=%d diverged from the golden: %v", name, workers, diffs)
					}
				}
			})
		}
	}
}

func TestNormalizeRejectsNegativeWorkers(t *testing.T) {
	_, err := SuiteOptions{Options: Options{Workers: -1}}.Normalize()
	if err == nil {
		t.Fatal("negative Workers normalized without error")
	}
}
