package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// writeSnap writes a v2 snapshot with the given ns/op samples (and 0
// allocs/op unless overridden) and returns its path.
func writeSnap(t *testing.T, dir, name string, benches map[string][]float64, allocs map[string]int64) string {
	t.Helper()
	s := benchfmt.Snapshot{Schema: benchfmt.SchemaV2, Date: name}
	for bench, samples := range benches {
		for _, ns := range samples {
			a := allocs[bench]
			smp := benchfmt.Sample{Iterations: 1, NsOp: ns, AllocsOp: &a}
			s.Add(bench, "repro", 8, smp)
		}
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs benchdiff's run() with stdout redirected to a pipe and
// returns (exit code, stdout).
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	code := run(args, tmp, os.Stderr)
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

var baseline = map[string][]float64{
	"BenchmarkTable1_01_pfl": {65e6, 65.5e6, 64.8e6, 65.2e6, 65.1e6},
	"BenchmarkEKFSLAMStep":   {23400, 23500, 23450, 23480, 23420},
}

func TestAAComparisonPasses(t *testing.T) {
	dir := t.TempDir()
	a := writeSnap(t, dir, "a", baseline, nil)
	b := writeSnap(t, dir, "b", baseline, nil)
	code, out := capture(t, []string{"-threshold", "5", a, b})
	if code != 0 {
		t.Fatalf("A/A comparison failed (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "ok: no significant regressions") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestSyntheticSlowdownFlags(t *testing.T) {
	dir := t.TempDir()
	slowed := map[string][]float64{
		"BenchmarkTable1_01_pfl": {65e6, 65.5e6, 64.8e6, 65.2e6, 65.1e6},
		"BenchmarkEKFSLAMStep":   {35400, 35500, 35450, 35480, 35420}, // +51%
	}
	a := writeSnap(t, dir, "a", baseline, nil)
	b := writeSnap(t, dir, "b", slowed, nil)
	code, out := capture(t, []string{"-threshold", "5", a, b})
	if code != 1 {
		t.Fatalf("synthetic regression not flagged (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "BenchmarkEKFSLAMStep") {
		t.Fatalf("output:\n%s", out)
	}
	if strings.Count(out, "REGRESSION") != 1 {
		t.Fatalf("unchanged benchmark also flagged:\n%s", out)
	}
}

func TestJSONReport(t *testing.T) {
	dir := t.TempDir()
	slowed := map[string][]float64{
		"BenchmarkTable1_01_pfl": {95e6, 95.5e6, 94.8e6, 95.2e6, 95.1e6},
		"BenchmarkEKFSLAMStep":   {23400, 23500, 23450, 23480, 23420},
	}
	a := writeSnap(t, dir, "a", baseline, nil)
	b := writeSnap(t, dir, "b", slowed, nil)
	code, out := capture(t, []string{"-json", "-threshold", "5", a, b})
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	var doc struct {
		Deltas []struct {
			Name    string  `json:"name"`
			Delta   float64 `json:"delta_pct"`
			P       float64 `json:"p"`
			Verdict string  `json:"verdict"`
		} `json:"deltas"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output not JSON: %v\n%s", err, out)
	}
	if len(doc.Deltas) != 2 {
		t.Fatalf("deltas = %+v", doc.Deltas)
	}
	for _, d := range doc.Deltas {
		if d.Name == "BenchmarkTable1_01_pfl" {
			if d.Verdict != "regression" || d.Delta < 40 || d.P >= 0.05 {
				t.Fatalf("pfl delta = %+v", d)
			}
		}
	}
}

func TestV1SnapshotReadsAsBaseline(t *testing.T) {
	// benchdiff must still read the checked-in v1 snapshot; as n=1 samples
	// it can never flag, even against a much slower v2 snapshot.
	slowed := map[string][]float64{}
	v1, err := benchfmt.Load("../../BENCH_2026-08-05.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range v1.Benchmarks {
		slowed[b.Name] = []float64{b.Samples[0].NsOp * 2}
	}
	b := writeSnap(t, t.TempDir(), "b", slowed, nil)
	code, out := capture(t, []string{"-threshold", "5", "-allocs=false", "../../BENCH_2026-08-05.json", b})
	if code != 0 {
		t.Fatalf("v1 n=1 baseline flagged (exit %d):\n%s", code, out)
	}
}

func TestAllocGateFoldedIn(t *testing.T) {
	dir := t.TempDir()
	ns := map[string][]float64{"BenchmarkEKFSLAMStep": {100, 101, 99, 100, 102}}
	a := writeSnap(t, dir, "a", ns, map[string]int64{"BenchmarkEKFSLAMStep": 0})
	b := writeSnap(t, dir, "b", ns, map[string]int64{"BenchmarkEKFSLAMStep": 2})
	code, out := capture(t, []string{"-threshold", "5", a, b})
	if code != 1 || !strings.Contains(out, "allocs/op 0 → 2") {
		t.Fatalf("alloc growth not flagged (exit %d):\n%s", code, out)
	}
}

func TestZeroAllocPin(t *testing.T) {
	dir := t.TempDir()
	ns := map[string][]float64{"BenchmarkEKFSLAMStep": {100, 101, 99, 100, 102}}
	// Both snapshots allocate: no old→new increase, but -zeroalloc pins it.
	a := writeSnap(t, dir, "a", ns, map[string]int64{"BenchmarkEKFSLAMStep": 3})
	b := writeSnap(t, dir, "b", ns, map[string]int64{"BenchmarkEKFSLAMStep": 3})
	code, out := capture(t, []string{"-zeroalloc", "Step$", a, b})
	if code != 1 || !strings.Contains(out, "ZEROALLOC BenchmarkEKFSLAMStep") {
		t.Fatalf("zeroalloc violation not flagged (exit %d):\n%s", code, out)
	}
	// And with 0 allocs it passes.
	a0 := writeSnap(t, dir, "a0", ns, nil)
	b0 := writeSnap(t, dir, "b0", ns, nil)
	code, out = capture(t, []string{"-zeroalloc", "Step$", a0, b0})
	if code != 0 {
		t.Fatalf("clean zeroalloc failed (exit %d):\n%s", code, out)
	}
	// A pattern matching nothing is an error, not a silent pass.
	code, _ = capture(t, []string{"-zeroalloc", "NoSuchBench", a0, b0})
	if code != 1 {
		t.Fatalf("unmatched -zeroalloc pattern exited %d, want 1", code)
	}
}

func TestUsageErrors(t *testing.T) {
	if code := run([]string{"only-one.json"}, os.Stdout, os.Stderr); code != 1 {
		t.Fatalf("single snapshot arg exited %d, want 1", code)
	}
	if code := run([]string{"-ledger", "verify"}, os.Stdout, os.Stderr); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
}
