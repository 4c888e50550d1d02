package rtrbench

import (
	"context"
	"testing"

	"repro/internal/golden"
)

// TestVerifyGoldens re-runs all 16 kernels at both checked-in seeds and
// diffs their digests against testdata/golden — the regression net that
// proves a refactor did not change what any kernel computes.
func TestVerifyGoldens(t *testing.T) {
	rep, err := Verify(context.Background(), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) > 0 {
		t.Fatalf("missing goldens (run `rtrbench verify -update`): %v", rep.Missing)
	}
	if want := 16 * len(defaultVerifySeeds); rep.Checked != want {
		t.Errorf("Checked = %d, want %d", rep.Checked, want)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("digest drift: %s", m)
	}
}

// TestVerifyMetamorphic checks the golden-free invariance properties on a
// cross-stage kernel subset: digests bit-identical at Parallel=1 vs 8,
// under trial reordering, with profiling on vs profile.Disabled(), and —
// for the kernels honoring Options.Workers (here pfl) — at Workers=0 vs 8.
// (CI runs the full 16-kernel metamorphic sweep via `rtrbench verify`.)
func TestVerifyMetamorphic(t *testing.T) {
	kernels := []string{"pfl", "pp2d", "cem"}
	rep, err := Verify(context.Background(), VerifyOptions{
		Kernels:     kernels,
		Seeds:       []int64{1},
		Metamorphic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 golden diffs + 3 parallel + 3x2 reorder + 3 profile + 1 workers
	// (pfl is the only worker-enabled kernel in the subset).
	if want := 16; rep.Checked != want {
		t.Errorf("Checked = %d, want %d", rep.Checked, want)
	}
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Errorf("metamorphic drift: %s", m)
		}
	}
}

// TestVerifyMutationDetected is the mutation smoke test: a deliberately
// perturbed kernel output must surface as a mismatch naming the kernel,
// the field, both values, and the seed — proving the net actually catches.
func TestVerifyMutationDetected(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// Fresh goldens for one cheap kernel, then perturb one field as a
	// stand-in for a kernel whose math drifted.
	rep, err := Verify(ctx, VerifyOptions{Dir: dir, Kernels: []string{"pfl"}, Seeds: []int64{1}, Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Updated) != 1 {
		t.Fatalf("Updated = %v, want one file", rep.Updated)
	}
	d, err := golden.Load(dir, "pfl", 1)
	if err != nil {
		t.Fatal(err)
	}
	var truth string
	perturbed := false
	for i := range d.Fields {
		if d.Fields[i].Name == "raycasts" {
			truth = d.Fields[i].Value
			d.Fields[i].Value = "123456789"
			perturbed = true
		}
	}
	if !perturbed {
		t.Fatal("pfl digest has no raycasts field to perturb")
	}
	if err := golden.Save(dir, d); err != nil {
		t.Fatal(err)
	}

	rep, err = Verify(ctx, VerifyOptions{Dir: dir, Kernels: []string{"pfl"}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("perturbed golden not detected")
	}
	if len(rep.Mismatches) != 1 {
		t.Fatalf("Mismatches = %v, want exactly the perturbed field", rep.Mismatches)
	}
	m := rep.Mismatches[0]
	if m.Kernel != "pfl" || m.Seed != 1 || m.Check != "golden" || m.Field != "raycasts" {
		t.Errorf("mismatch identity = %+v, want pfl/1/golden/raycasts", m)
	}
	if m.Want != "123456789" || m.Got != truth {
		t.Errorf("mismatch values = want %q got %q; expected %q vs %q", m.Want, m.Got, "123456789", truth)
	}
}

// TestVerifyMissingGolden checks an absent golden file is reported as
// Missing, not silently skipped and not a hard error.
func TestVerifyMissingGolden(t *testing.T) {
	rep, err := Verify(context.Background(), VerifyOptions{
		Dir: t.TempDir(), Kernels: []string{"mpc"}, Seeds: []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Missing) != 1 {
		t.Fatalf("report = %+v, want exactly one missing golden", rep)
	}
}

// TestVerifyUnknownKernel checks selection validation.
func TestVerifyUnknownKernel(t *testing.T) {
	if _, err := Verify(context.Background(), VerifyOptions{Kernels: []string{"nope"}}); err == nil {
		t.Fatal("want error for unknown kernel")
	}
}

// TestDigestExcludesTimings guards the digest ownership rule at the source:
// no kernel's digest hook may emit a time-derived or map-ordered field.
func TestDigestExcludesTimings(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r, err := Run(k.Name, Options{Size: SizeSmall, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			d, err := digestResult(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Fields) == 0 {
				t.Fatal("empty digest: the kernel contributes nothing to verification")
			}
			if _, err := golden.Encode(d); err != nil {
				t.Fatalf("digest not canonical: %v", err)
			}
			for _, f := range d.Fields {
				for _, banned := range []string{"roi", "seconds", "latency", "duration", "p50", "p95", "p99", "deadline"} {
					if containsFold(f.Name, banned) {
						t.Errorf("field %q looks time-derived (%q); digests must be timing-free", f.Name, banned)
					}
				}
			}
		})
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			c, d := s[i+j], sub[j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != d {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
