// Package report converts engine results into the rtrbench.report/v1
// schema (internal/obs). It is the one serialization point shared by every
// consumer of suite results — the `rtrbench suite` CLI (Table I) and the
// rtrbenchd service — so a result document means the same thing no matter
// which surface emitted it.
package report

import (
	"errors"
	"slices"

	"repro/internal/obs"
	"repro/rtrbench"
)

// Suite converts a suite result to the rtrbench.report/v1 kernel array.
func Suite(res rtrbench.SuiteResult) []obs.KernelReport {
	reports := make([]obs.KernelReport, 0, len(res.Kernels))
	for _, k := range res.Kernels {
		reports = append(reports, Kernel(k))
	}
	return reports
}

// Kernel converts one kernel's suite outcome to its report entry.
func Kernel(k rtrbench.KernelResult) obs.KernelReport {
	dominant := k.Result.Dominant()
	kr := obs.KernelReport{
		Kernel:           k.Info.Name,
		Stage:            string(k.Info.Stage),
		Index:            k.Info.Index,
		ROISeconds:       k.Result.ROI.Seconds(),
		Dominant:         dominant,
		MatchesPaper:     MatchesPaper(k.Info, dominant),
		Inconsistent:     k.Result.Inconsistent,
		Counters:         k.Result.Counters,
		Metrics:          k.Result.Metrics,
		PaperBottlenecks: k.Info.PaperBottlenecks,
	}
	if k.Err != nil {
		kr.Error = k.Err.Error()
		var ke *rtrbench.KernelError
		if errors.As(k.Err, &ke) {
			kr.Fault = ke.Fault
		}
	}
	kr.Degraded = k.Result.Degraded
	for _, ph := range k.Result.Phases {
		kr.Phases = append(kr.Phases, obs.PhaseReport{
			Name:     ph.Name,
			Seconds:  ph.Duration.Seconds(),
			Calls:    ph.Calls,
			Fraction: ph.Fraction,
		})
	}
	kr.Steps = Steps(k.Result.Steps)
	if ts := k.Trials; ts != nil {
		kr.Trials = &obs.TrialsReport{
			Trials:           ts.Trials,
			Retried:          k.Retried,
			Degraded:         ts.Degraded,
			ROIMeanSeconds:   ts.ROIMean.Seconds(),
			ROIMinSeconds:    ts.ROIMin.Seconds(),
			ROIMaxSeconds:    ts.ROIMax.Seconds(),
			ROIStddevSeconds: ts.ROIStddev.Seconds(),
			Counters:         ts.Counters,
			Steps:            Steps(ts.Steps),
		}
		for _, ft := range ts.Faults {
			kr.Trials.Faults = append(kr.Trials.Faults, obs.FaultReport{
				Trial:  ft.Trial,
				Step:   ft.Step,
				Kind:   ft.Kind,
				Detail: ft.Detail,
			})
		}
	}
	return kr
}

// MatchesPaper reports whether a measured dominant phase confirms the
// paper's Table I bottleneck for the kernel (one of Info.ExpectDominant).
func MatchesPaper(k rtrbench.Info, dominant string) bool {
	return slices.Contains(k.ExpectDominant, dominant)
}

// Stream converts a streaming-mode result into its report entry: the
// kernel name plus the stream block. ROISeconds carries the stream's
// elapsed time so generic tooling keyed on it keeps working.
func Stream(res rtrbench.StreamResult) obs.KernelReport {
	s := res.Stream
	return obs.KernelReport{
		Kernel:     res.Kernel,
		ROISeconds: s.Elapsed.Seconds(),
		Degraded:   res.Degraded > 0,
		Stream: &obs.StreamReport{
			Policy:          string(s.Policy),
			PeriodSeconds:   s.Period.Seconds(),
			DeadlineSeconds: s.Deadline.Seconds(),
			Ticks:           s.Ticks,
			Misses:          s.Misses,
			MissRate:        s.MissRate(),
			Sheds:           s.Sheds,
			Cutoffs:         s.Cutoffs,
			Overruns:        s.Overruns,
			Runs:            res.Runs,
			Degraded:        res.Degraded,
			ElapsedSeconds:  s.Elapsed.Seconds(),
			Latency:         obs.StepsFromSummary(s.Latency),
			Jitter:          obs.StepsFromSummary(s.Jitter),
		},
	}
}

// Steps converts a step-latency distribution; nil stays nil.
func Steps(s *rtrbench.StepStats) *obs.StepReport {
	if s == nil {
		return nil
	}
	return &obs.StepReport{
		Count:           s.Count,
		MinSeconds:      s.Min.Seconds(),
		MeanSeconds:     s.Mean.Seconds(),
		P50Seconds:      s.P50.Seconds(),
		P95Seconds:      s.P95.Seconds(),
		P99Seconds:      s.P99.Seconds(),
		MaxSeconds:      s.Max.Seconds(),
		DeadlineSeconds: s.Deadline.Seconds(),
		DeadlineMisses:  s.Misses,
	}
}
