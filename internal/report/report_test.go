package report

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/rtrbench"
)

func TestKernel(t *testing.T) {
	info := rtrbench.Info{
		Name: "rrt", Index: 8, Stage: rtrbench.Planning,
		PaperBottlenecks: []string{"Collision detection", "nearest neighbor search"},
		ExpectDominant:   []string{"collision"},
	}
	result := func(first, second string) rtrbench.Result {
		return rtrbench.Result{
			Kernel: "rrt", Stage: rtrbench.Planning, ROI: 10 * time.Millisecond,
			Phases: []rtrbench.Phase{
				{Name: first, Duration: 6 * time.Millisecond, Calls: 40, Fraction: 0.6},
				{Name: second, Duration: 3 * time.Millisecond, Calls: 20, Fraction: 0.3},
			},
			Metrics: map[string]float64{"path_cost_rad": 16.2},
		}
	}
	degraded := result("collision", "nn")
	degraded.Degraded = true
	injected := &rtrbench.KernelError{Kernel: "rrt", Trial: 1, Fault: "injected panic at step 3", Msg: "boom"}

	cases := []struct {
		name  string
		in    rtrbench.KernelResult
		check func(t *testing.T, kr obs.KernelReport)
	}{
		{
			name: "dominant phase the paper names",
			in:   rtrbench.KernelResult{Info: info, Result: result("collision", "nn")},
			check: func(t *testing.T, kr obs.KernelReport) {
				if kr.Dominant != "collision" || !kr.MatchesPaper {
					t.Errorf("dominant %q matches_paper %v, want collision true", kr.Dominant, kr.MatchesPaper)
				}
				if len(kr.Phases) != 2 || kr.Phases[0].Fraction != 0.6 || kr.Phases[1].Calls != 20 {
					t.Errorf("phases = %+v", kr.Phases)
				}
				if kr.Error != "" || kr.Fault != "" || kr.Degraded || kr.Trials != nil {
					t.Errorf("clean run reported error %q fault %q degraded %v trials %+v",
						kr.Error, kr.Fault, kr.Degraded, kr.Trials)
				}
			},
		},
		{
			name: "dominant phase the paper does not name",
			in:   rtrbench.KernelResult{Info: info, Result: result("nn", "collision")},
			check: func(t *testing.T, kr obs.KernelReport) {
				if kr.Dominant != "nn" || kr.MatchesPaper {
					t.Errorf("dominant %q matches_paper %v, want nn false", kr.Dominant, kr.MatchesPaper)
				}
			},
		},
		{
			name: "degraded run",
			in:   rtrbench.KernelResult{Info: info, Result: degraded},
			check: func(t *testing.T, kr obs.KernelReport) {
				if !kr.Degraded || kr.Error != "" {
					t.Errorf("degraded %v error %q, want true and none", kr.Degraded, kr.Error)
				}
			},
		},
		{
			name: "injected panic",
			in: rtrbench.KernelResult{Info: info, FailedTrial: 1,
				Err: fmt.Errorf("trial 1: %w", injected)},
			check: func(t *testing.T, kr obs.KernelReport) {
				if kr.Fault != injected.Fault {
					t.Errorf("fault = %q, want %q", kr.Fault, injected.Fault)
				}
				if kr.Error != "trial 1: "+injected.Error() {
					t.Errorf("error = %q", kr.Error)
				}
			},
		},
		{
			name: "error row",
			in: rtrbench.KernelResult{Info: info, FailedTrial: -1,
				Err: errors.New("rrt: no path within sample budget")},
			check: func(t *testing.T, kr obs.KernelReport) {
				if kr.Error != "rrt: no path within sample budget" || kr.Fault != "" {
					t.Errorf("error %q fault %q", kr.Error, kr.Fault)
				}
				if kr.Kernel != "rrt" || kr.Stage != string(rtrbench.Planning) || kr.Index != 8 ||
					!reflect.DeepEqual(kr.PaperBottlenecks, info.PaperBottlenecks) {
					t.Errorf("error row lost its identity: %+v", kr)
				}
				if kr.Dominant != "" || kr.MatchesPaper || kr.Phases != nil {
					t.Errorf("error row reports a measurement: dominant %q matches %v phases %+v",
						kr.Dominant, kr.MatchesPaper, kr.Phases)
				}
			},
		},
		{
			name: "trials block",
			in: rtrbench.KernelResult{
				Info: info, Result: result("collision", "nn"), Retried: 2,
				Trials: &rtrbench.TrialStats{
					Trials: 3, Degraded: 1,
					ROIMean: 12 * time.Millisecond, ROIMin: 10 * time.Millisecond,
					ROIMax: 15 * time.Millisecond, ROIStddev: 2 * time.Millisecond,
					Counters: map[string]int64{"seg_checks": 900},
					Faults: []rtrbench.FaultEvent{
						{Trial: 0, Step: 4, Kind: "dropout", Detail: "beam 3"},
						{Trial: 2, Step: 9, Kind: "stall"},
					},
				},
			},
			check: func(t *testing.T, kr obs.KernelReport) {
				tr := kr.Trials
				if tr == nil {
					t.Fatal("no trials block")
				}
				if tr.Trials != 3 || tr.Retried != 2 || tr.Degraded != 1 {
					t.Errorf("trials %d retried %d degraded %d, want 3 2 1", tr.Trials, tr.Retried, tr.Degraded)
				}
				if tr.ROIMeanSeconds != 0.012 || tr.ROIMaxSeconds != 0.015 || tr.Counters["seg_checks"] != 900 {
					t.Errorf("trials block = %+v", tr)
				}
				want := []obs.FaultReport{
					{Trial: 0, Step: 4, Kind: "dropout", Detail: "beam 3"},
					{Trial: 2, Step: 9, Kind: "stall"},
				}
				if !reflect.DeepEqual(tr.Faults, want) {
					t.Errorf("faults = %+v, want %+v", tr.Faults, want)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, Kernel(tc.in)) })
	}
}
