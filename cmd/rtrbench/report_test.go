package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/rtrbench"
)

func TestRRTCompareAveragesEverySeed(t *testing.T) {
	rows, err := rrtRows(rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cost := map[string]float64{}
	for _, r := range rows {
		if r.seeds != rrtSeeds {
			t.Errorf("%s averaged %d of %d seeds", r.kernel, r.seeds, rrtSeeds)
		}
		cost[r.kernel] = r.cost
	}
	if len(cost) != 3 {
		t.Fatalf("rows = %+v, want rrt, rrtpp and rrtstar", rows)
	}
	// §V.9-10: RRT* finds the shortest paths and RRT-PP lands between.
	if !(cost["rrtstar"] <= cost["rrtpp"] && cost["rrtpp"] <= cost["rrt"]) {
		t.Errorf("mean path costs rrtstar %.3f rrtpp %.3f rrt %.3f, want rrtstar <= rrtpp <= rrt",
			cost["rrtstar"], cost["rrtpp"], cost["rrt"])
	}
}

func TestSymCompare(t *testing.T) {
	var b bytes.Buffer
	if err := symCompare(&b, rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sym-blkw: plan=5 expanded=6 branching=2.50\n",
		"sym-fext: plan=13 expanded=82 branching=5.41\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("symcompare output lacks %q:\n%s", want, b.String())
		}
	}
}

func TestReportRejectsUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{nil, {"table1"}, {"rrt"}} {
		if err := runReport(args); err == nil {
			t.Errorf("runReport(%q) succeeded, want an error", args)
		}
	}
}

func TestSuiteTextTableIColumns(t *testing.T) {
	info, _ := rtrbench.Lookup("rrt")
	res := rtrbench.SuiteResult{Kernels: []rtrbench.KernelResult{
		{Info: info, Result: rtrbench.Result{ROI: time.Millisecond, Phases: []rtrbench.Phase{
			{Name: "collision", Duration: 600 * time.Microsecond, Fraction: 0.6},
			{Name: "nn", Duration: 300 * time.Microsecond, Fraction: 0.3},
		}}},
		{Info: info, Result: rtrbench.Result{ROI: time.Millisecond, Phases: []rtrbench.Phase{
			{Name: "nn", Duration: 700 * time.Microsecond, Fraction: 0.7},
		}}},
	}}
	var b bytes.Buffer
	suiteText(&b, res, rtrbench.SuiteOptions{Trials: 1, Parallel: 1})
	lines := strings.Split(b.String(), "\n")
	if len(lines) < 4 {
		t.Fatalf("short table:\n%s", b.String())
	}
	for i, want := range []string{"collision*       60.0%", "nn               70.0%"} {
		if !strings.Contains(lines[2+i], want) {
			t.Errorf("row %d = %q, want it to contain %q", i, lines[2+i], want)
		}
	}
}
