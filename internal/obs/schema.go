package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
)

// SchemaVersion identifies the flat kernel-report schema emitted by
// `rtrbench <kernel> --format=json|csv`, `rtrbench suite --format=json|csv`
// and rtrbenchd. Bump it when a field changes meaning; additions are
// backward compatible.
const SchemaVersion = "rtrbench.report/v1"

// PhaseReport is one instrumented phase in the flat report schema.
type PhaseReport struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Calls    int64   `json:"calls"`
	Fraction float64 `json:"fraction"`
}

// StepReport is the per-step latency distribution plus real-time deadline
// accounting — the quantity a real-time suite reports that a plain phase
// breakdown cannot: not just where time went, but how it was distributed
// across the kernel's control/iteration cycles.
type StepReport struct {
	Count           int64   `json:"count"`
	MinSeconds      float64 `json:"min_seconds"`
	MeanSeconds     float64 `json:"mean_seconds"`
	P50Seconds      float64 `json:"p50_seconds"`
	P95Seconds      float64 `json:"p95_seconds"`
	P99Seconds      float64 `json:"p99_seconds"`
	MaxSeconds      float64 `json:"max_seconds"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	DeadlineMisses  int64   `json:"deadline_misses"`
}

// StepsFromSummary converts a histogram summary into the schema form,
// returning nil when nothing was recorded and no deadline was set.
func StepsFromSummary(s Summary) *StepReport {
	if s.Count == 0 && s.Deadline == 0 {
		return nil
	}
	return &StepReport{
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

// StreamReport is the streaming-mode block of rtrbench.report/v1: the
// accounting of a periodic-release run (rtrbench stream), where the kernel
// is driven as a long-lived real-time task and every tick has a release
// time and a deadline. miss_rate is misses/ticks; sheds counts releases
// dropped by the skip-next overload policy; cutoffs counts steps truncated
// at the deadline by the anytime-cutoff policy (cutoffs are a subset of
// misses); overruns counts steps that finished after the next release.
// latency is the release-to-completion distribution, jitter the
// release-to-start distribution. runs/degraded count underlying workload
// executions (the stream restarts the workload when it runs out of steps).
type StreamReport struct {
	Policy          string      `json:"policy"`
	PeriodSeconds   float64     `json:"period_seconds"`
	DeadlineSeconds float64     `json:"deadline_seconds"`
	Ticks           int64       `json:"ticks"`
	Misses          int64       `json:"misses"`
	MissRate        float64     `json:"miss_rate"`
	Sheds           int64       `json:"sheds,omitempty"`
	Cutoffs         int64       `json:"cutoffs,omitempty"`
	Overruns        int64       `json:"overruns,omitempty"`
	Runs            int64       `json:"runs,omitempty"`
	Degraded        int64       `json:"degraded,omitempty"`
	ElapsedSeconds  float64     `json:"elapsed_seconds"`
	Latency         *StepReport `json:"latency,omitempty"`
	Jitter          *StepReport `json:"jitter,omitempty"`
}

// FaultReport is one injected fault that fired during a chaos run,
// attributed to its trial and kernel step.
type FaultReport struct {
	Trial  int    `json:"trial"`
	Step   int64  `json:"step"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// TrialsReport aggregates the measured trials of one kernel in a suite
// sweep (`rtrbench suite --trials N`). It is an optional, backward-compatible
// addition to rtrbench.report/v1: single-run reports omit it. roi_* are the
// per-trial ROI statistics; steps is the latency distribution merged over
// every trial (the per-trial one stays in the top-level steps field).
// degraded counts trials that returned a best-effort partial result; faults
// lists the injected chaos events across all trials.
type TrialsReport struct {
	Trials           int              `json:"trials"`
	Warmup           int              `json:"warmup,omitempty"`
	Retried          int              `json:"retried,omitempty"`
	Degraded         int              `json:"degraded,omitempty"`
	ROIMeanSeconds   float64          `json:"roi_mean_seconds"`
	ROIMinSeconds    float64          `json:"roi_min_seconds"`
	ROIMaxSeconds    float64          `json:"roi_max_seconds"`
	ROIStddevSeconds float64          `json:"roi_stddev_seconds"`
	Counters         map[string]int64 `json:"counters,omitempty"`
	Steps            *StepReport      `json:"steps,omitempty"`
	Faults           []FaultReport    `json:"faults,omitempty"`
}

// KernelReport is one kernel execution in the shared machine-readable
// schema. `rtrbench <kernel>` emits one report per run; `rtrbench suite` and
// rtrbenchd emit an array (one per kernel of the Table I sweep). All three
// fill it through internal/report, including the fields tied to the
// paper's characterization (PaperBottlenecks, MatchesPaper).
type KernelReport struct {
	Schema           string             `json:"schema"`
	Kernel           string             `json:"kernel"`
	Stage            string             `json:"stage,omitempty"`
	Index            int                `json:"index,omitempty"`
	ROISeconds       float64            `json:"roi_seconds"`
	Dominant         string             `json:"dominant,omitempty"`
	PaperBottlenecks []string           `json:"paper_bottlenecks,omitempty"`
	MatchesPaper     bool               `json:"matches_paper,omitempty"`
	Inconsistent     bool               `json:"inconsistent,omitempty"`
	Phases           []PhaseReport      `json:"phases,omitempty"`
	Counters         map[string]int64   `json:"counters,omitempty"`
	Metrics          map[string]float64 `json:"metrics,omitempty"`
	// NonfiniteMetrics names metrics whose values were NaN or ±Inf and were
	// dropped from Metrics (JSON cannot encode them). Filled by the Write
	// functions; the names survive so corruption stays visible.
	NonfiniteMetrics []string      `json:"nonfinite_metrics,omitempty"`
	Steps            *StepReport   `json:"steps,omitempty"`
	Trials           *TrialsReport `json:"trials,omitempty"`
	// Stream carries the periodic-release accounting of a streaming run;
	// one-shot runs omit it.
	Stream *StreamReport `json:"stream,omitempty"`
	// Degraded marks a run that returned a best-effort partial result after
	// a deadline or stall (graceful degradation, not failure).
	Degraded bool `json:"degraded,omitempty"`
	// Fault attributes an error to chaos injection (e.g. an injected panic).
	Fault string `json:"fault,omitempty"`
	Error string `json:"error,omitempty"`
}

// sanitizeMetrics moves non-finite metric values out of Metrics and into
// NonfiniteMetrics. encoding/json rejects NaN and ±Inf, so without this a
// single corrupted metric would make the whole report unwritable — the
// exact failure mode a chaos sweep exists to surface, not to die of.
func sanitizeMetrics(r *KernelReport) {
	var bad []string
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return
	}
	sort.Strings(bad)
	clean := make(map[string]float64, len(r.Metrics)-len(bad))
	for k, v := range r.Metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean[k] = v
		}
	}
	r.Metrics = clean
	r.NonfiniteMetrics = append(r.NonfiniteMetrics, bad...)
}

// WriteJSON writes one report as an indented JSON document. Non-finite
// metric values are moved to nonfinite_metrics first (JSON cannot carry
// them).
func WriteJSON(w io.Writer, r KernelReport) error {
	r.Schema = SchemaVersion
	sanitizeMetrics(&r)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONAll writes a sweep of reports as one JSON array, sanitizing
// non-finite metrics like WriteJSON.
func WriteJSONAll(w io.Writer, rs []KernelReport) error {
	out := make([]KernelReport, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Schema = SchemaVersion
		sanitizeMetrics(&out[i])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// csvHeader is the flat CSV layout: one row per record. `record` is one of
// roi, phase, counter, metric, step, trial, fault, fault_attribution,
// degraded, error, stream, stream_latency, stream_jitter; durations are in
// seconds. calls and fraction are only meaningful for phase rows, step rows
// (calls = sample count, fraction unused), trial rows (calls = trial
// count), fault rows (name = kind, value = detail, calls = kernel step,
// fraction = trial index), and stream_latency/stream_jitter rows (calls =
// sample count).
var csvHeader = []string{"schema", "kernel", "record", "name", "value", "calls", "fraction"}

// WriteCSVAll writes one or more reports as a single flat CSV table with a
// header row — the uniform exposition format batch tooling (spreadsheets,
// pandas, gnuplot) consumes directly.
func WriteCSVAll(w io.Writer, rs []KernelReport) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range rs {
		if err := writeCSVRows(cw, r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes a single report as a flat CSV table with a header row.
func WriteCSV(w io.Writer, r KernelReport) error {
	return WriteCSVAll(w, []KernelReport{r})
}

func writeCSVRows(cw *csv.Writer, r KernelReport) error {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := func(record, name, value string, calls int64, fraction float64) error {
		return cw.Write([]string{
			SchemaVersion, r.Kernel, record, name, value,
			strconv.FormatInt(calls, 10), f(fraction),
		})
	}
	if err := row("roi", "", f(r.ROISeconds), 0, 1); err != nil {
		return err
	}
	if r.Error != "" {
		if err := row("error", "", r.Error, 0, 0); err != nil {
			return err
		}
	}
	if r.Fault != "" {
		if err := row("fault_attribution", "", r.Fault, 0, 0); err != nil {
			return err
		}
	}
	if r.Degraded {
		if err := row("degraded", "", "true", 0, 0); err != nil {
			return err
		}
	}
	for _, p := range r.Phases {
		if err := row("phase", p.Name, f(p.Seconds), p.Calls, p.Fraction); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(r.Counters) {
		if err := row("counter", k, strconv.FormatInt(r.Counters[k], 10), 0, 0); err != nil {
			return err
		}
	}
	for _, k := range sortedFloatKeys(r.Metrics) {
		if err := row("metric", k, f(r.Metrics[k]), 0, 0); err != nil {
			return err
		}
	}
	if s := r.Steps; s != nil {
		steps := []struct {
			name  string
			value float64
		}{
			{"min", s.MinSeconds}, {"mean", s.MeanSeconds},
			{"p50", s.P50Seconds}, {"p95", s.P95Seconds},
			{"p99", s.P99Seconds}, {"max", s.MaxSeconds},
			{"deadline", s.DeadlineSeconds},
			{"deadline_misses", float64(s.DeadlineMisses)},
		}
		for _, st := range steps {
			if err := row("step", st.name, f(st.value), s.Count, 0); err != nil {
				return err
			}
		}
	}
	if st := r.Stream; st != nil {
		if err := row("stream", "policy", st.Policy, 0, 0); err != nil {
			return err
		}
		scalars := []struct {
			name  string
			value float64
		}{
			{"period", st.PeriodSeconds}, {"deadline", st.DeadlineSeconds},
			{"ticks", float64(st.Ticks)}, {"misses", float64(st.Misses)},
			{"miss_rate", st.MissRate}, {"sheds", float64(st.Sheds)},
			{"cutoffs", float64(st.Cutoffs)}, {"overruns", float64(st.Overruns)},
			{"runs", float64(st.Runs)}, {"degraded", float64(st.Degraded)},
			{"elapsed", st.ElapsedSeconds},
		}
		for _, sc := range scalars {
			if err := row("stream", sc.name, f(sc.value), 0, 0); err != nil {
				return err
			}
		}
		for _, dist := range []struct {
			record string
			s      *StepReport
		}{{"stream_latency", st.Latency}, {"stream_jitter", st.Jitter}} {
			if dist.s == nil {
				continue
			}
			quantiles := []struct {
				name  string
				value float64
			}{
				{"min", dist.s.MinSeconds}, {"mean", dist.s.MeanSeconds},
				{"p50", dist.s.P50Seconds}, {"p95", dist.s.P95Seconds},
				{"p99", dist.s.P99Seconds}, {"max", dist.s.MaxSeconds},
			}
			for _, q := range quantiles {
				if err := row(dist.record, q.name, f(q.value), dist.s.Count, 0); err != nil {
					return err
				}
			}
		}
	}
	if tr := r.Trials; tr != nil {
		trials := []struct {
			name  string
			value float64
		}{
			{"roi_mean", tr.ROIMeanSeconds}, {"roi_min", tr.ROIMinSeconds},
			{"roi_max", tr.ROIMaxSeconds}, {"roi_stddev", tr.ROIStddevSeconds},
		}
		for _, t := range trials {
			if err := row("trial", t.name, f(t.value), int64(tr.Trials), 0); err != nil {
				return err
			}
		}
		// Fault rows: name = kind, value = detail, calls = kernel step,
		// fraction = trial index (reusing the generic columns; the header
		// comment documents the mapping).
		for _, ft := range tr.Faults {
			if err := row("fault", ft.Kind, ft.Detail, ft.Step, float64(ft.Trial)); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedFloatKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
